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

Values along a row span hundreds of orders of magnitude, so the ell
axis is cut into equal blocks of ``_BLOCK`` cells, each held in linear
float64 against one exponent offset per (row, block).  A step is one
``np.cumsum`` within the blocks, after each block's first cell gains
the log-sum of the totals of the blocks before it:
``np.logaddexp.accumulate``, an order of magnitude slower than
``np.cumsum``, only ever sees one value per (row, block).

Both readers scale the state the same way: one log scale per (row,
block), the offset plus the log prefactor at the block's last cell,
times each cell's prefactor ratio to that cell, carried from level to
level by rational factors.  ``level()`` assembles the full table;
``degree_row(w)``, all the degree scan reads, contracts the pairs with
per-theta weights first.  Neither takes an ``exp`` per cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .numerics import _ln_gamma_raw

_RENORM_THRESHOLD = 1e200
# cells per block of the ell axis.  A block's prefactor ratios span at most
# 31 ln(1 + (k + theta_max + 3 + g)/beta) nats, ~357 at k = 1e5: far inside
# float64 range
_BLOCK = 32


class _ScaledRows:
    """Rows of non-negative values in equal blocks, one exponent offset each.

    True value of cell b * _BLOCK + i = vals[p, b, i] * exp(off[p, b]).
    Rows here are running states of the lattice recurrence:
    nondecreasing along the row, so a block's maximum is its last entry.
    """

    def __init__(self, log_init: np.ndarray):
        seg = log_init.reshape(log_init.shape[0], -1, _BLOCK)
        m = seg.max(axis=2)
        self.off = np.where(np.isfinite(m), m, 0.0)
        vals = seg - self.off[:, :, None]
        self.vals = np.exp(vals, out=vals)

    def advance(self, seed_log: np.ndarray) -> None:
        """One level of G(a, b) = G(a-1, b) + G(a, b-1).

        Replaces entry 0 with ``exp(seed_log)`` (zero where it is
        ``-inf``) and takes a running cumulative sum along the row: each
        block's first entry gains the total of the blocks before it, then
        one ``cumsum`` runs within every block.
        """
        vals, off = self.vals, self.off
        vals[:, 0, 0] = np.exp(seed_log - off[:, 0])
        with np.errstate(divide="ignore"):
            ln_total = np.log(np.einsum("pbi->pb", vals[:, :-1])) + off[:, :-1]
        carry = np.logaddexp.accumulate(ln_total, axis=1)
        vals[:, 1:, 0] += np.exp(carry - off[:, 1:])
        np.cumsum(vals, axis=2, out=vals)
        top = vals[:, :, -1]
        big = top > _RENORM_THRESHOLD
        if np.any(big):
            scale = top[big]
            vals[big] /= scale[:, None]
            off[big] += np.log(scale)

    def log_values(self) -> np.ndarray:
        """Log of the true values (``-inf`` where zero), one row per pair."""
        with np.errstate(divide="ignore"):
            logs = np.log(self.vals) + self.off[:, :, None]
        return logs.reshape(logs.shape[0], -1)


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

    The state is one j-sum table, the sum of the two j-sums of the
    closed form, held as ``[n_pairs, blocks, _BLOCK]`` cells: the grid
    padded to whole blocks, the padding trimmed on read.  Both readers
    scale it by one log scale per (pair, block) and the carried
    prefactor ratio per cell: ``level()`` assembles the full table with
    one tail fit per pair; ``degree_row(w)`` contracts the pairs with
    per-theta weights before any cell is materialized and fits the tail
    of that one row.  A read that leaves float range raises
    ``NonConvergenceError``.
    """

    def __init__(self, params, l_resolve: int, k_hint: int = 0):
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
        n_pad = -(-self.n_ell // _BLOCK) * _BLOCK
        # the grid padded to whole blocks, as [blocks, _BLOCK]
        ell_blocks = (beta + np.arange(n_pad)).reshape(-1, _BLOCK)

        tmax = params.quality.theta_max
        # ordered-pair weights reach j = beta + j_count; marching is allowed
        # up to that focal degree
        self._j_count = max(n_pad, int(k_hint) - beta + 8)
        # gamma lattices: frac[m] = lnGamma(m + 2 + g), integer[m] = lnGamma(m)
        j_top = self._j_count + beta + 1
        m_top = j_top + n_pad + beta + 4 * tmax + 16
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
        # one row per pair (theta, phi) holds T = S1 + S2.  S1 uses the pair's
        # own weights, is empty at level beta and is seeded at entry 0 every
        # level; S2 uses the swapped pair's weights, starts at level beta as
        # the running weight sum over j <= ell and is never seeded (its entry
        # 0 stays zero).  The recurrence is linear and both halves share one
        # prefactor, so their sum is marched and read as one table.
        init = np.full((self.n_pairs, n_pad), -np.inf)
        init[:, 1:] = self._ln_cumw[swap][:, : n_pad - 1]
        self._state = _ScaledRows(init)

        self._theta_of_pair = theta_arr
        with np.errstate(divide="ignore"):
            ln_rho_phi = np.log(probs_q[phi_arr])
        self._pref_const = ln_rho_phi - self._gli[beta + phi_arr] + self._glf[beta + phi_arr]
        # the prefactor's k-independent pieces at each block's last cell
        ends = ell_blocks[:, -1]
        self._gli_end = self._gli[ends[None, :] + phi_arr[:, None]]
        self._end_idx = (theta_arr + phi_arr + 1)[:, None] + ends[None, :]
        self._level_cache: MarchLevel | None = None

        # prefactor over its value at the block's last cell, at level beta;
        # pref(ell) / pref(ell + 1) = (s + ell + k + 3 + g) / (ell + phi)
        s = theta_arr + phi_arr
        f = (s[:, None, None] + ell_blocks + (beta + 3.0 + g)) / (
            ell_blocks + phi_arr[:, None, None]
        )
        f[:, :, -1] = 1.0
        np.cumprod(f[:, :, ::-1], axis=2, out=f[:, :, ::-1])
        self._ratio = f
        self._ratio_k = beta
        self._s_vals, self._s_idx = np.unique(s, return_inverse=True)
        self._ell_blocks = ell_blocks

    def _log_scale(self) -> np.ndarray:
        """State offset plus log prefactor at each block's last cell, per (pair, block).

        The prefactor is ln[rho(phi) G(k+theta+3+g) G(ell+phi) G(beta+2+phi+g)
        / (k G(k+theta+ell+phi+3+g) G(beta+phi))], G the gamma function.
        """
        k = self.k
        pref = self._pref_const - math.log(k) + self._glf[k + self._theta_of_pair + 1]
        return self._state.off + pref[:, None] + self._gli_end - self._glf[self._end_idx + k]

    def _pref_ratio(self) -> np.ndarray:
        """Prefactor over its value at the block's last cell, per cell, at k.

        From k to k + 1 every ratio gains (s + e + k + 3 + g) /
        (s + ell + k + 3 + g), s = theta + phi and e the block's last
        ell: one table over (s, ell) per level since the last read,
        gathered into the pairs once.
        """
        if self._ratio_k < self.k:
            step = 1.0
            for k in range(self._ratio_k, self.k):
                d = self._s_vals[:, None, None] + (self._ell_blocks + (k + 3.0 + self.g))
                step = step * (d[:, :, -1:] / d)
            self._ratio *= step[self._s_idx]
            self._ratio_k = self.k
        return self._ratio

    def _trim(self, cells: np.ndarray, what: str) -> np.ndarray:
        """Drop the padding past the grid; refuse values outside float range."""
        cells = cells.reshape(cells.shape[0], -1)[:, : self.n_ell]
        if not np.all(np.isfinite(cells)):
            raise NonConvergenceError(f"{what} at k = {self.k} left float range")
        return cells

    def _make_level(self) -> MarchLevel:
        probs = self._state.vals * self._pref_ratio()
        probs *= np.exp(self._log_scale())[:, :, None]
        probs = self._trim(probs, "neighbor law")
        tail_coef = power_tail_fit(probs, self.ells, 2.0 + self.g)
        return MarchLevel(k=self.k, probs=probs, tail_coef=tail_coef)

    def level(self) -> MarchLevel:
        if self._level_cache is None:
            self._level_cache = self._make_level()
        return self._level_cache

    def degree_row(
        self, w_theta: np.ndarray, mass: float | None = None, moment: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sum over pairs of w[theta] P(ell, phi | k, theta), its tail model).

        ``w_theta`` weights the supported qualities in order.  Each
        (pair, block) of the j-sum state gets one scalar (weight times
        the log scale, normalized per block) and one ``einsum`` over the
        pairs supplies the carried prefactor ratio per cell.  Returns the
        resolved row and [1, 3] tail coefficients.  ``mass`` and
        ``moment``, the row's exact total and first moment over all ell,
        pin the tail model (see ``power_tail_fit``).
        """
        w = np.repeat(np.asarray(w_theta, dtype=float), len(self.support))
        vals = self._state.vals
        with np.errstate(divide="ignore"):
            ln_c = self._log_scale() + np.log(w)[:, None]
        # empty (pair, block)s must not set the block's scale
        ln_c[vals[:, :, -1] == 0.0] = -np.inf
        top = ln_c.max(axis=0)
        top[~np.isfinite(top)] = 0.0
        c = np.exp(ln_c - top)
        # einsum, not a BLAS matvec: BLAS threads stall when sweep threads
        # already occupy every core
        row = np.einsum("pbi,pb,pbi->bi", vals, c, self._pref_ratio())
        row *= np.exp(top)[:, None]
        row = self._trim(row.reshape(1, -1), "degree row")
        coef = power_tail_fit(row, self.ells, 2.0 + self.g, mass=mass, moment=moment)
        return row[0], coef

    def advance(self) -> None:
        """Move from focal degree k to k + 1."""
        self.k += 1
        idx = self.k - self.beta - 1
        if idx >= self._j_count:
            raise RuntimeError("march exceeded precomputed weight range")
        self._state.advance(self._ln_cumw[:, idx])
        self._level_cache = None

    def tail_mass(self, lvl: MarchLevel) -> np.ndarray:
        """Per-pair mass beyond the resolved grid."""
        return tail_power_sum(lvl.tail_coef, 2.0 + self.g, int(self.ells[-1]))


def power_tail_fit(
    rows: np.ndarray, ells: np.ndarray, s: float, mass=None, moment=None
) -> np.ndarray:
    """Fit rows[:, i] ~ c0*ell**-s + c1*ell**-(s+1) + c2*ell**-(s+2).

    The leading exponent is known exactly, so only the amplitude and its
    first two finite-ell corrections are fitted (least squares over the
    last half of the grid).  Returns [n_rows, 3] coefficients; rows
    where the fit misbehaves (structural zeros, pre-asymptotic data)
    fall back to a single-term window estimate.

    ``mass`` and ``moment``, each row's exact total and first moment
    over all ell, pin the model: its sum past the grid is ``mass`` less
    the row's sum, and its first moment past the grid ``moment`` less
    the row's (where given and finite, s > 2).  The least squares are
    then solved under those equalities, and no row falls back (on grids
    of 16 cells or more).
    """
    return _tail_fit(rows, ells, s, mass, moment)[0]


def _tail_fit(
    rows: np.ndarray, ells: np.ndarray, s: float, mass=None, moment=None
) -> tuple[np.ndarray, np.ndarray]:
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
    if mass is not None:
        return _pinned_fit(rows, ells, s, y, mass, moment)
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


def _pinned_fit(rows, ells, s, y, mass, moment):
    """``_tail_fit`` under exact tail mass (and first moment): no row falls back."""
    ells = ells.astype(float)
    targets = [np.asarray(mass, dtype=float) - rows.sum(axis=1)]
    if moment is not None and s > 2.0:
        targets.append(np.asarray(moment, dtype=float) - rows @ ells)
    on_data, on_targets = _pinned_operator(ells[ells.size // 2], ells[-1], s, len(targets))
    return y @ on_data + np.array(targets).T @ on_targets, np.zeros(rows.shape[0], dtype=bool)


@functools.lru_cache(maxsize=32)
def _pinned_operator(l_lo: float, l_end: float, s: float, m: int):
    """The least-squares tail fit over [l_lo, l_end] under m equalities, as a linear map.

    One KKT system [[gram, A.T], [A, 0]] [c; lambda] = [design.T y; b]:
    row r of A holds the model's sums zeta(s + i - r, l_end + 1) past
    the grid end, b the tail mass (r = 0) and first moment (r = 1) the
    row's exact totals leave, each equality scaled to unit size.
    Returns the maps from y and from b to c, [window, 3] and [m, 3]:
    every level of one grid solves the same system.
    """
    from scipy.special import zeta

    lw = np.arange(l_lo, l_end + 1.0)
    inv = 1.0 / lw
    design = np.stack([np.ones_like(inv), inv, inv * inv], axis=1)
    a = np.array([[zeta(s + i - r, l_end + 1.0) for i in range(3)] for r in range(m)])
    scale = np.abs(a).max(axis=1, keepdims=True)
    kkt = np.zeros((3 + m, 3 + m))
    kkt[:3, :3] = design.T @ design
    # at large s the sums underflow to zero and the solve returns NaN, which
    # the readers refuse as a tail model outside float range
    with np.errstate(divide="ignore", invalid="ignore"):
        kkt[3:, :3] = a / scale
        kkt[:3, 3:] = kkt[3:, :3].T
        rhs = np.zeros((3 + m, lw.size + m))
        rhs[:3, : lw.size] = design.T
        rhs[3:, lw.size :] = np.diag(1.0 / scale[:, 0])
    op = np.linalg.solve(kkt, rhs)[:3].T
    on_data, on_targets = op[: lw.size].copy(), op[lw.size :].copy()
    # shared by every caller of the cache
    on_data.setflags(write=False)
    on_targets.setflags(write=False)
    return on_data, on_targets


def tail_power_sum(coef: np.ndarray, s: float, l_end: int, upto=None) -> np.ndarray:
    """Sum of the fitted tail model over ell = l_end+1 .. upto (or infinity).

    The model is ``sum_r coef_r * ell**-(s + r)``; ``s - 1`` gives its
    first moment.  Exponent 1 (the first moment at g = 0) needs a finite
    ``upto`` and is summed directly.
    """
    from scipy.special import zeta  # imported here: growth never needs scipy

    coef = np.atleast_2d(coef)
    total = np.zeros(coef.shape[0])
    for r in range(3):
        if s + r > 1.0:
            z = zeta(s + r, l_end + 1)
            if upto is not None:
                z = z - zeta(s + r, upto + 1)
        else:
            z = np.sum(np.arange(l_end + 1, upto + 1, dtype=float) ** -(s + r))
        total += coef[:, r] * z
    return np.maximum(total, 0.0)
