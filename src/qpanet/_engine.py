"""Internal vectorized evaluator for the neighbor distribution.

The closed-form fraction of neighbors of a (degree k, quality theta)
node having (degree ell, quality phi) is a prefactor times the sum of
two j-sums, one running to k and one to ell, whose summands are gamma
ratios times binomial coefficients.  Both sums obey the lattice-path
recurrence

    G(a, b) = G(a - 1, b) + G(a, b - 1)

in the (focal degree, neighbor degree) plane, because the binomial
kernel C(a - j + b - beta, b - beta) is an iterated prefix sum over
each index.  The recurrence is linear and both j-sums share the
prefactor, so their sum is marched as one table: marching k upward
costs one running cumulative sum over the ell axis per step and per
ordered quality pair, which is how this module evaluates the
distribution for every ell at once.

Values along a row span hundreds of orders of magnitude, so rows are
stored in linear float64 against per-block exponent offsets (blocks are
geometric in ell).  That keeps the hot loop on ``np.cumsum`` instead of
``np.logaddexp.accumulate``, which is an order of magnitude slower.

The degree scan reads only P(ell | k), a weighted sum of the rows over
(theta, phi).  ``NeighborMarch.degree_row`` forms that sum block by
block from the j-sum state and a prefactor carried from level to level
by rational factors, so a scan level costs no ``exp`` per cell and one
tail fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _ln_gamma_raw

_RENORM_THRESHOLD = 1e200
_BLOCK_RATIO = 1.3
_MIN_BLOCK = 8
# largest ln(prefactor ratio) inside one block that the contracted reader
# carries in float64 (exp(600) ~ 1e260); beyond it rows are assembled per cell
_PREF_SPREAD_MAX = 600.0


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """Geometric index blocks covering [0, n)."""
    bounds = []
    lo = 0
    width = _MIN_BLOCK
    while lo < n:
        hi = min(n, lo + max(_MIN_BLOCK, int(width)))
        bounds.append((lo, hi))
        lo = hi
        width *= _BLOCK_RATIO
    return bounds


class _ScaledRows:
    """Rows of non-negative values with per-(row, block) exponent offsets.

    True value = vals[p, i] * exp(off[p, block(i)]).  Rows here are
    running states of the lattice recurrence: nondecreasing along i,
    which keeps cross-block carries from overflowing.
    """

    def __init__(self, log_init: np.ndarray, blocks: list[tuple[int, int]]):
        self.blocks = blocks
        p, n = log_init.shape
        self.vals = np.zeros((p, n))
        self.off = np.zeros((p, len(blocks)))
        for b, (lo, hi) in enumerate(blocks):
            seg = log_init[:, lo:hi]
            m = np.max(seg, axis=1)
            m = np.where(np.isfinite(m), m, 0.0)
            self.off[:, b] = m
            self.vals[:, lo:hi] = np.exp(seg - m[:, None])

    def advance(self, seed_log: np.ndarray) -> None:
        """One level of G(a, b) = G(a-1, b) + G(a, b-1).

        Replaces entry 0 with ``exp(seed_log)`` (zero where it is
        ``-inf``) and takes a running cumulative sum along i, carrying
        across blocks.
        """
        vals, off = self.vals, self.off
        carry = None  # (linear carry, its offset), per row
        for b, (lo, hi) in enumerate(self.blocks):
            seg = vals[:, lo:hi]
            if b == 0:
                seg[:, 0] = np.exp(seed_log - off[:, 0])
            np.cumsum(seg, axis=1, out=seg)
            if carry is not None:
                c_lin, c_off = carry
                # raise this block's scale where the carry would overflow it
                gap = c_off - off[:, b]
                hot = gap > 0.0
                if np.any(hot):
                    shift = np.where(hot, gap, 0.0)
                    seg *= np.exp(-shift)[:, None]
                    off[:, b] += shift
                    gap = gap - shift
                seg += (c_lin * np.exp(gap))[:, None]
            # rows are nondecreasing, so the block maximum is its last entry
            m = seg[:, -1]
            big = m > _RENORM_THRESHOLD
            if np.any(big):
                scale = np.where(big, m, 1.0)
                seg /= scale[:, None]
                off[:, b] += np.where(big, np.log(scale), 0.0)
            carry = (seg[:, -1].copy(), off[:, b].copy())

    def log_values(self) -> np.ndarray:
        """Log of the true values (``-inf`` where zero)."""
        out = np.empty_like(self.vals)
        with np.errstate(divide="ignore"):
            for b, (lo, hi) in enumerate(self.blocks):
                out[:, lo:hi] = np.log(self.vals[:, lo:hi]) + self.off[:, b][:, None]
        return out


@dataclass
class MarchLevel:
    """Snapshot of the neighbor distribution at one focal degree."""

    k: int
    probs: np.ndarray  # [n_pairs, n_ell] linear probabilities
    tail_coef: np.ndarray  # [n_pairs, 3]: probs ~ sum_r coef_r * ell**-(2+g+r)


class NeighborMarch:
    """Iterates focal degree k, yielding resolved P(ell, phi | k, theta).

    ``pairs`` enumerates ordered (theta, phi) over the support of the
    quality distribution; ``probs`` rows follow that order.  The
    resolved ell grid is ``beta .. beta + n_ell - 1``; mass beyond it
    follows the known power-law tail ``ell**-(2 + mu/beta)``, whose
    amplitude and finite-ell corrections are fitted per pair at every
    level (see ``power_tail_fit``).

    The state is one j-sum table of ``[n_pairs, n_ell]`` cells, the sum
    of the two j-sums of the closed form.  Two readers scale it by the
    prefactor: ``level()`` assembles the full table with one tail fit
    per pair; ``degree_row(w)`` contracts the pairs with per-theta
    weights before any cell is materialized and fits the tail of that
    one row.
    """

    def __init__(self, params, l_resolve: int = 1024, k_hint: int = 0):
        beta = params.beta
        g = params.mu_over_beta
        support = [int(t) for t in params.quality.support]
        probs_q = params.quality.probs
        self.params = params
        self.beta = beta
        self.g = g
        self.support = support
        self.pairs = [(t, f) for t in support for f in support]
        self.n_pairs = len(self.pairs)
        self.n_ell = int(l_resolve)
        self.ells = beta + np.arange(self.n_ell)
        self.k = beta

        tmax = params.quality.theta_max
        self._theta_max = tmax
        # ordered-pair weights reach j = beta + j_count; marching is allowed
        # up to that focal degree
        self._j_count = max(self.n_ell, int(k_hint) - beta + 8)
        # gamma lattices: frac[m] = lnGamma(m + 2 + g), integer[m] = lnGamma(m)
        j_top = self._j_count + beta + 1
        m_top = j_top + self.n_ell + beta + 4 * tmax + 16
        self._glf = _ln_gamma_raw(np.arange(m_top, dtype=float) + 2.0 + g)
        self._gli = np.concatenate(
            ([np.inf], _ln_gamma_raw(np.arange(1, m_top, dtype=float)))
        )

        theta_arr = np.array([t for (t, _) in self.pairs])
        phi_arr = np.array([f for (_, f) in self.pairs])
        j = beta + 1 + np.arange(self._j_count)
        lnw = (
            self._glf[j[None, :] + (theta_arr + beta + phi_arr)[:, None]]
            - self._glf[j[None, :] + theta_arr[:, None]]
            - self._glf[beta + phi_arr][:, None]
        )
        self._ln_cumw = np.logaddexp.accumulate(lnw, axis=1)

        pair_pos = {pair: p for p, pair in enumerate(self.pairs)}
        swap = [pair_pos[(f, t)] for (t, f) in self.pairs]
        blocks = _block_bounds(self.n_ell)
        # one row per pair (theta, phi) holds T = S1 + S2.  S1 uses the pair's
        # own weights, is empty at level beta and is seeded at entry 0 every
        # level; S2 uses the swapped pair's weights, starts at level beta as
        # the running weight sum over j <= ell and is never seeded (its entry
        # 0 stays zero).  The recurrence is linear and both halves share one
        # prefactor, so their sum is marched and read as one table.
        init = np.full((self.n_pairs, self.n_ell), -np.inf)
        init[:, 1:] = self._ln_cumw[swap][:, : self.n_ell - 1]
        self._state = _ScaledRows(init, blocks)

        self._theta_of_pair = theta_arr
        self._phi_of_pair = phi_arr
        with np.errstate(divide="ignore"):
            self._ln_rho_phi = np.log(probs_q[phi_arr])
        self._base_idx = theta_arr[:, None] + phi_arr[:, None] + self.ells[None, :] + 1
        self._pref_const = (
            self._ln_rho_phi
            - self._gli[beta + phi_arr]
            + self._glf[beta + phi_arr]
        )
        # k-independent, ell-dependent prefactor piece lnGamma(ell + phi)
        self._pref_ell = self._gli[self.ells[None, :] + phi_arr[:, None]]
        self._blocks = blocks
        self._level_cache: MarchLevel | None = None

        # contracted reader: the prefactor relative to its value at each
        # block's last ell, carried from level to level (see _pref_ratio)
        lo = np.array([lo for lo, _ in blocks])
        ends = np.array([hi - 1 for _, hi in blocks])
        self._ends = ends
        self._end_of = np.repeat(ends, ends - lo + 1)
        self._span = (ends - lo).astype(float)
        self._span_lo = self.ells[lo].astype(float)
        self._s_vals, self._s_idx = np.unique(theta_arr + phi_arr, return_inverse=True)
        self._ratio: np.ndarray | None = None
        self._ratio_k: int | None = None

    def _ln_pref(self, cols) -> np.ndarray:
        """Log prefactor at the current k, all pairs, on the ell columns ``cols``.

        ln[rho(phi) G(k+theta+3+g) G(ell+phi) G(beta+2+phi+g)
           / (k G(k+theta+ell+phi+3+g) G(beta+phi))], G the gamma function.
        """
        k = self.k
        theta = self._theta_of_pair
        pref_scalar = self._pref_const - math.log(k) + self._glf[k + theta + 1]
        return pref_scalar[:, None] + self._pref_ell[:, cols] - self._glf[self._base_idx[:, cols] + k]

    def _make_level(self) -> MarchLevel:
        ln_pref = self._ln_pref(slice(None))
        # scale the j-sum table by the prefactor in linear space, block by
        # block (each block has one exponent offset per row)
        probs = np.empty_like(ln_pref)
        vals, off = self._state.vals, self._state.off
        for b, (lo, hi) in enumerate(self._blocks):
            scale = np.exp(np.minimum(ln_pref[:, lo:hi] + off[:, b][:, None], 700.0))
            probs[:, lo:hi] = vals[:, lo:hi] * scale
        tail_coef = power_tail_fit(probs, self.ells, 2.0 + self.g)
        return MarchLevel(k=self.k, probs=probs, tail_coef=tail_coef)

    def level(self) -> MarchLevel:
        if self._level_cache is None:
            self._level_cache = self._make_level()
        return self._level_cache

    def _pref_spread(self) -> float:
        """Upper bound on ln(prefactor ratio) across one block at the current k.

        Within a block the ratio of the first to the last ell's prefactor
        is a product of factors 1 + (theta + k + 3 + g)/(ell + phi).
        """
        c = self._theta_max + self.k + 3.0 + self.g
        return float(np.max(self._span * np.log1p(c / self._span_lo)))

    def _pref_ratio(self) -> np.ndarray:
        """Prefactor over its value at the block's last ell, per cell, at k.

        Along ell the prefactor falls by pref(ell) / pref(ell + 1) =
        (s + ell + k + 3 + g) / (ell + phi), s = theta + phi, so a block's
        ratios are a reversed cumulative product of those factors.  From
        k to k + 1 every ratio gains (s + e + k + 3 + g) / (s + ell + k + 3 + g),
        e the block's last ell: one table over (s, ell) per level, not
        one ``exp`` per cell.
        """
        k = self.k
        if self._ratio_k == k:
            return self._ratio
        if self._ratio_k == k - 1:
            # d = s + ell + (k - 1) + 3 + g over (s, ell)
            d = self._s_vals[:, None] + (self.ells + (k + 2.0 + self.g))[None, :]
            step = d[:, self._end_of] / d
            self._ratio *= step[self._s_idx]
        else:
            s = (self._theta_of_pair + self._phi_of_pair)[:, None]
            f = (s + self.ells[None, :] + (k + 3.0 + self.g)) / (
                self.ells[None, :] + self._phi_of_pair[:, None]
            )
            ratio = np.empty_like(f)
            for lo, hi in self._blocks:
                ratio[:, lo : hi - 1] = np.cumprod(f[:, lo : hi - 1][:, ::-1], axis=1)[:, ::-1]
                ratio[:, hi - 1] = 1.0
            self._ratio = ratio
        self._ratio_k = k
        return self._ratio

    def degree_row(self, w_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum over pairs of w[theta] P(ell, phi | k, theta), its tail model).

        ``w_theta`` weights the supported qualities in order.  The row is
        contracted block by block: each (row, block) of the j-sum state
        gets one scalar (weight, state offset, prefactor at the block's
        last ell) and the carried prefactor ratio supplies the rest.
        Returns the resolved row and [1, 3] tail coefficients.
        """
        w = np.repeat(np.asarray(w_theta, dtype=float), len(self.support))
        row = None
        if self._pref_spread() <= _PREF_SPREAD_MAX:
            row = self._contract(w)
        if row is None or not np.all(np.isfinite(row)):
            # the ratio would leave float range: assemble cell by cell
            row = w @ self.level().probs
        return row, power_tail_fit(row[None, :], self.ells, 2.0 + self.g)

    def _contract(self, w: np.ndarray) -> np.ndarray:
        ratio = self._pref_ratio()
        st = self._state
        with np.errstate(divide="ignore"):
            ln_c = st.off + self._ln_pref(self._ends) + np.log(w)[:, None]
        # empty (row, block)s must not set the block's scale
        ln_c[st.vals[:, self._ends] == 0.0] = -np.inf
        top = ln_c.max(axis=0)
        top[~np.isfinite(top)] = 0.0
        c = np.exp(ln_c - top)
        scale = np.exp(top)
        row = np.empty(self.n_ell)
        # einsum, not a BLAS matvec: BLAS threads stall when sweep threads
        # already occupy every core
        for b, (lo, hi) in enumerate(self._blocks):
            row[lo:hi] = np.einsum("pi,p,pi->i", st.vals[:, lo:hi], c[:, b], ratio[:, lo:hi])
            row[lo:hi] *= scale[b]
        return row

    def advance(self) -> None:
        """Move from focal degree k to k + 1."""
        self.k += 1
        idx = self.k - self.beta - 1
        if idx >= self._j_count:
            raise RuntimeError("march exceeded precomputed weight range")
        self._state.advance(self._ln_cumw[:, idx])
        self._level_cache = None

    def tail_mass(self, lvl: MarchLevel, upto=None) -> np.ndarray:
        """Per-pair mass beyond the resolved grid (to ``upto`` or infinity)."""
        return tail_power_sum(lvl.tail_coef, 2.0 + self.g, int(self.ells[-1]), upto)


def power_tail_fit(rows: np.ndarray, ells: np.ndarray, s: float) -> np.ndarray:
    """Fit rows[:, i] ~ c0*ell**-s + c1*ell**-(s+1) + c2*ell**-(s+2).

    The leading exponent is known exactly, so only the amplitude and its
    first two finite-ell corrections are fitted (least squares over the
    last half of the grid).  Returns [n_rows, 3] coefficients; rows
    where the fit misbehaves (structural zeros, pre-asymptotic data)
    fall back to a single-term window estimate.
    """
    return _tail_fit(rows, ells, s)[0]


def _tail_fit(rows: np.ndarray, ells: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(``power_tail_fit`` coefficients, mask of the rows that fell back).

    Only on fallback rows is the fit not linear in the data: without them
    the fit of a weighted sum of rows is the weighted sum of their fits.
    """
    n = rows.shape[1]
    lo = n // 2
    out = np.zeros((rows.shape[0], 3))
    if n - lo < 8:
        c = rows[:, -1] * float(ells[-1]) ** s
        out[:, 0] = np.maximum(np.where(np.isfinite(c), c, 0.0), 0.0)
        return out, np.ones(rows.shape[0], dtype=bool)
    lw = ells[lo:].astype(float)
    with np.errstate(over="ignore"):
        y = rows[:, lo:] * lw**s
    inv = 1.0 / lw
    design = np.stack([np.ones_like(inv), inv, inv * inv], axis=1)
    gram = design.T @ design
    coef = np.linalg.solve(gram, design.T @ y.T).T  # [n_rows, 3]
    # sanity: the model must stay non-negative at and beyond the grid end;
    # fall back to a plain window mean otherwise
    l_end = float(ells[-1])
    val_end = coef[:, 0] + coef[:, 1] / l_end + coef[:, 2] / l_end**2
    fallback = np.maximum(y[:, -max(8, y.shape[1] // 4):].mean(axis=1), 0.0)
    bad = (coef[:, 0] < 0.0) | (val_end < 0.0) | ~np.isfinite(coef).all(axis=1)
    coef[bad] = 0.0
    coef[bad, 0] = fallback[bad]
    return coef, bad


def tail_power_sum(coef: np.ndarray, s: float, l_end: int, upto=None) -> np.ndarray:
    """Sum of the fitted tail model over ell = l_end+1 .. upto (or infinity)."""
    from scipy.special import zeta  # imported here: growth never needs scipy

    coef = np.atleast_2d(coef)
    total = np.zeros(coef.shape[0])
    for r in range(3):
        z = zeta(s + r, l_end + 1)
        if upto is not None:
            z = z - zeta(s + r, upto + 1)
        total += coef[:, r] * z
    return np.maximum(total, 0.0)


def tail_weighted_sum(
    coef: np.ndarray, s: float, l_end: int, upto: int | None
) -> np.ndarray:
    """Sum of ell * fitted tail model over ell = l_end+1 .. upto.

    ``upto=None`` sums to infinity, which requires ``s > 2``.
    """
    from scipy.special import zeta

    coef = np.atleast_2d(coef)
    total = np.zeros(coef.shape[0])
    for r in range(3):
        if upto is None:
            total += coef[:, r] * zeta(s + r - 1.0, l_end + 1)
        else:
            total += coef[:, r] * partial_power_sum(s + r - 1.0, l_end + 1, upto)
    return np.maximum(total, 0.0)


def partial_power_sum(s: float, lo: int, hi: int) -> float:
    """sum of ell**-s for ell = lo..hi inclusive (s > 0; s may be 1)."""
    from scipy.special import zeta

    if hi < lo:
        return 0.0
    if s > 1.0:
        return float(zeta(s, lo) - zeta(s, hi + 1))
    # short direct sum is fine for the ranges used here
    ells = np.arange(lo, hi + 1, dtype=float)
    return float(np.sum(ells**-s))
