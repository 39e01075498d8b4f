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
distribution for every ell at once.  A march may take only some focal
qualities theta (``focal``), pairing each with every neighbor quality
phi: ``write_nn_table`` marches one.

The j-sums' weights enter as cumulative sums over j of gamma ratios
G(j + A) / G(j + B), G the gamma function.  The sum telescopes, so each
pair's cumulative weights are a closed form in one cumulative sum of
``log1p`` terms (``NeighborMarch._ln_cum_weights``), not a running
log-sum.

Values along a row span hundreds of orders of magnitude, so the ell
axis is cut into equal blocks of ``_BLOCK`` cells, each held in linear
float64 against one exponent offset per (block, row).  The state is
cell-major, ``[_BLOCK, blocks, rows]``: cell i of every (block, row) is
one contiguous slab.  A step first adds to each block's first cell the
log-sum of the totals of the blocks before it (``np.logaddexp.accumulate``,
an order of magnitude slower than a plain add, only ever sees one value
per (block, row)); the prefix sum within the blocks is then ``_BLOCK - 1``
slab adds, cell i += cell i - 1, whole and contiguous, in the order a
running sum takes.

Both readers scale the state the same way: one log scale per (block,
row), the offset plus the log prefactor at the block's last cell,
times each cell's prefactor ratio to that cell, carried from level to
level by rational factors.  ``level()`` assembles the full table;
``degree_row(w)``, all the degree scan reads, contracts the pairs with
per-theta weights first.  Neither takes an ``exp`` per cell.

Past the grid the law decays as ``ell**-(2 + g)``, g = mu/beta, with an
amplitude the closed form gives per pair (``tail_amplitude``).  Only
contracted rows carry a tail model (``power_tail_fit``): that amplitude
plus two corrections, set by the row's exact mass and, where finite, its
exact first moment.  ``level()`` returns resolved cells only.
"""

from __future__ import annotations

import functools
import math

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

    Held cell-major: true value of cell b * _BLOCK + i of row p is
    vals[i, b, p] * exp(off[b, p]), vals C-contiguous as [_BLOCK, blocks,
    n_rows], so one cell position of every (block, row) is one contiguous
    slab.  Rows here are running states of the lattice recurrence:
    nondecreasing along the row, so a block's maximum is its last entry.
    """

    def __init__(self, log_init: np.ndarray):
        # [n_rows, n_cells] -> [_BLOCK, blocks, n_rows]; copied to C order
        # before the exp, which would otherwise keep the transposed layout
        seg = log_init.reshape(log_init.shape[0], -1, _BLOCK).transpose(2, 1, 0)
        m = seg.max(axis=0)
        self.off = np.where(np.isfinite(m), m, 0.0)
        vals = np.ascontiguousarray(seg - self.off)
        self.vals = np.exp(vals, out=vals)

    def advance(self, seed_log: np.ndarray) -> None:
        """One level of G(a, b) = G(a-1, b) + G(a, b-1).

        Replaces entry 0 with ``exp(seed_log)`` (zero where it is
        ``-inf``) and takes a running cumulative sum along the row: each
        block's first entry gains the total of the blocks before it, then
        each cell position adds the one before it, one whole slab at a
        time, left to right as a prefix sum would.
        """
        vals, off = self.vals, self.off
        vals[0, 0] = np.exp(seed_log - off[0])
        with np.errstate(divide="ignore"):
            ln_total = np.log(vals[:, :-1].sum(axis=0)) + off[:-1]
        carry = np.logaddexp.accumulate(ln_total, axis=0)
        vals[0, 1:] += np.exp(carry - off[1:])
        for i in range(1, _BLOCK):
            np.add(vals[i], vals[i - 1], out=vals[i])
        top = vals[-1]
        big = top > _RENORM_THRESHOLD
        if np.any(big):
            scale = top[big]
            vals[:, big] /= scale
            off[big] += np.log(scale)

    def log_values(self) -> np.ndarray:
        """Log of the true values (``-inf`` where zero), one row per pair."""
        with np.errstate(divide="ignore"):
            logs = np.log(self.vals) + self.off
        return logs.transpose(2, 1, 0).reshape(logs.shape[2], -1)


class NeighborMarch:
    """Iterates focal degree k, yielding resolved P(ell, phi | k, theta).

    ``pairs`` enumerates ordered (theta, phi), theta over ``focal`` (by
    default the support of the quality distribution) and phi over the
    support; the rows of ``level()`` follow that order.  Every step works
    on each pair's row alone, so a march of fewer focal qualities gives
    their rows bit for bit as the full march does.  The resolved ell grid
    is ``beta .. beta + n_ell - 1``; mass beyond it follows the power-law
    tail ``ell**-(2 + mu/beta)``, whose amplitude ``tail_amplitude()``
    gives in closed form per pair.

    The state is one j-sum table, the sum of the two j-sums of the
    closed form, held cell-major as ``[_BLOCK, blocks, n_pairs]``: the
    grid padded to whole blocks, the padding trimmed on read.  Both
    readers scale it by one log scale per (block, pair) and the carried
    prefactor ratio per cell: ``level()`` assembles the resolved cells
    of the full table, with no tail; ``degree_row(w)`` contracts the
    pairs with per-theta weights before any cell is materialized and
    adds that one row's tail model (``power_tail_fit``).  A read that
    leaves float range raises ``NonConvergenceError``.  The cumulative
    pair weights are in closed form (``_ln_cum_weights``); the S2 half
    starts from the swapped pairs' weights, computed once with the
    marched pairs' at set-up.  The marched pairs' weights and the gamma
    lattices cover the grid at first and double whenever ``advance``
    passes their end.
    """

    def __init__(self, params, l_resolve: int, focal=None):
        beta = params.beta
        g = params.mu_over_beta
        support = [int(t) for t in params.quality.support]
        probs_q = params.quality.probs
        self.params = params
        self.beta = beta
        self.g = g
        self.support = support
        focal = support if focal is None else [int(t) for t in focal]
        self.pairs = [(t, f) for t in focal for f in support]
        self.n_pairs = len(self.pairs)
        self.n_ell = int(l_resolve)
        self.ells = beta + np.arange(self.n_ell)
        self.k = beta
        n_pad = -(-self.n_ell // _BLOCK) * _BLOCK
        self._n_pad = n_pad
        # the grid padded to whole blocks, cell-major as [_BLOCK, blocks]
        ell_cells = (beta + np.arange(n_pad)).reshape(-1, _BLOCK).T

        theta_arr = np.array([t for (t, _) in self.pairs])
        phi_arr = np.array([f for (_, f) in self.pairs])
        self._theta_of_pair = theta_arr
        self._phi_of_pair = phi_arr
        # gamma lattices, frac[m] = lnGamma(m + 2 + g) and integer[m] =
        # lnGamma(m), grown on demand
        self._glf = np.empty(0)
        self._gli = np.array([np.inf])
        self._extend_lattices(n_pad)

        # one row per pair (theta, phi) holds T = S1 + S2.  S1 uses the pair's
        # own weights, is empty at level beta and is seeded at entry 0 every
        # level; S2 uses the swapped pair's weights, starts at level beta as
        # the running weight sum over j <= ell and is never seeded (its entry
        # 0 stays zero).  The recurrence is linear and both halves share one
        # prefactor, so their sum is marched and read as one table.  The
        # weights are computed once for the marched pairs and their swaps;
        # only the marched pairs' are grown on demand
        both = list(dict.fromkeys(self.pairs + [(f, t) for (t, f) in self.pairs]))
        pos = {pair: i for i, pair in enumerate(both)}
        swap = [pos[(f, t)] for (t, f) in self.pairs]
        ln_cumw, d_end = self._ln_cum_weights(
            np.array([t for (t, _) in both]), np.array([f for (_, f) in both]), 0, n_pad, 0.0
        )
        init = np.full((self.n_pairs, n_pad), -np.inf)
        init[:, 1:] = ln_cumw[swap, : n_pad - 1]
        self._state = _ScaledRows(init)
        # the marched pairs come first in ``both``
        self._ln_cumw = ln_cumw[: self.n_pairs]
        self._d_end = d_end[: self.n_pairs]

        with np.errstate(divide="ignore"):
            ln_rho_phi = np.log(probs_q[phi_arr])
        self._pref_const = ln_rho_phi - self._gli[beta + phi_arr] + self._glf[beta + phi_arr]
        # the prefactor's k-independent pieces at each block's last cell,
        # per (block, pair)
        ends = ell_cells[-1]
        self._gli_end = self._gli[ends[:, None] + phi_arr[None, :]]
        self._end_idx = (theta_arr + phi_arr + 1)[None, :] + ends[:, None]
        # tail_amplitude()'s k-independent pieces
        self._amp_const = (
            self._pref_const + self._gli[beta + theta_arr + 1] - self._glf[beta + theta_arr]
        )

        # prefactor over its value at the block's last cell, at level beta;
        # pref(ell) / pref(ell + 1) = (s + ell + k + 3 + g) / (ell + phi)
        s = theta_arr + phi_arr
        ell3 = ell_cells[:, :, None]
        f = (s + ell3 + (beta + 3.0 + g)) / (ell3 + phi_arr)
        f[-1] = 1.0
        np.cumprod(f[::-1], axis=0, out=f[::-1])
        self._ratio = f
        self._ratio_k = beta
        self._s_vals, self._s_idx = np.unique(s, return_inverse=True)
        self._ell_cells = ell_cells

    def _extend_lattices(self, j_count: int) -> None:
        """Grow the gamma lattices to every index read up to focal degree beta + j_count."""
        tmax = self.params.quality.theta_max
        m_top = j_count + 2 * self.beta + self._n_pad + 4 * tmax + 17
        glf, gli = self._glf, self._gli
        self._glf = np.concatenate(
            (glf, _ln_gamma_raw(np.arange(glf.size, m_top, dtype=float) + 2.0 + self.g))
        )
        self._gli = np.concatenate((gli, _ln_gamma_raw(np.arange(gli.size, m_top, dtype=float))))

    def _ln_cum_weights(self, theta, phi, j_lo: int, j_hi: int, d_lo):
        """ln of the cumulative pair weights, columns j_lo .. j_hi - 1, and D at the last.

        Column i sums w(j) = G(j + A) / (G(j + B) G(beta + phi + 2 + g)) over
        j = j0 .. J, j0 = beta + 1, J = j0 + i, A = theta + beta + phi + 2 + g
        and B = theta + 2 + g (G the gamma function).  The sum telescopes:
        with f(j) = G(j + A) / G(j + B - 1), f(j + 1) - f(j) = (A - B + 1)
        G(j + A) / G(j + B), so it is [f(J + 1) - f(j0)] / (beta + phi + 1).
        D(J) = ln f(J + 1) - ln f(j0) is one cumulative sum of
        log1p((beta + phi + 1) / (j + theta + 1 + g)), continued from
        ``d_lo``, the D of column j_lo - 1 (0 for j_lo = 0), so grown
        columns are the ones a single pass gives.  Rows follow ``theta``
        and ``phi``.
        """
        beta, g, glf = self.beta, self.g, self._glf
        c = phi + (beta + 1.0)
        d = np.arange(j_lo, j_hi, dtype=float) + (theta + (beta + 2.0 + g))[:, None]
        np.divide(c[:, None], d, out=d)
        np.log1p(d, out=d)
        d[:, 0] += d_lo
        np.cumsum(d, axis=1, out=d)
        # ln(1 - e^-D) + D + ln f(j0) - ln(beta + phi + 1) - lnG(beta + phi + 2 + g)
        ln_w = np.negative(d)
        np.expm1(ln_w, out=ln_w)
        np.negative(ln_w, out=ln_w)
        np.log(ln_w, out=ln_w)
        ln_w += d
        ln_w += (
            glf[2 * beta + 1 + theta + phi] - glf[beta + theta] - np.log(c) - glf[beta + phi]
        )[:, None]
        return ln_w, d[:, -1].copy()

    def _extend_weights(self, j_count: int) -> None:
        """Marched pairs' cumulative weights to j = beta+1 .. beta+j_count, lattices to match."""
        self._extend_lattices(j_count)
        cols, self._d_end = self._ln_cum_weights(
            self._theta_of_pair, self._phi_of_pair, self._ln_cumw.shape[1], j_count, self._d_end
        )
        self._ln_cumw = np.concatenate((self._ln_cumw, cols), axis=1)

    def _log_scale(self) -> np.ndarray:
        """State offset plus log prefactor at each block's last cell, per (block, pair).

        The prefactor is ln[rho(phi) G(k+theta+3+g) G(ell+phi) G(beta+2+phi+g)
        / (k G(k+theta+ell+phi+3+g) G(beta+phi))], G the gamma function.
        """
        k = self.k
        pref = self._pref_const - math.log(k) + self._glf[k + self._theta_of_pair + 1]
        return self._state.off + pref + self._gli_end - self._glf[self._end_idx + k]

    def _pref_ratio(self) -> np.ndarray:
        """Prefactor over its value at the block's last cell, per cell, at k.

        From k to k + 1 every ratio gains (s + e + k + 3 + g) /
        (s + ell + k + 3 + g), s = theta + phi and e the block's last
        ell: one table over (ell, s) per level since the last read,
        gathered into the pairs once.
        """
        if self._ratio_k < self.k:
            step = 1.0
            for k in range(self._ratio_k, self.k):
                d = self._s_vals + (self._ell_cells + (k + 3.0 + self.g))[:, :, None]
                step = step * (d[-1:] / d)
            self._ratio *= np.take(step, self._s_idx, axis=2)
            self._ratio_k = self.k
        return self._ratio

    def _trim(self, cells: np.ndarray, what: str) -> np.ndarray:
        """Drop the padding past the grid; refuse values outside float range."""
        cells = cells.reshape(cells.shape[0], -1)[:, : self.n_ell]
        if not np.all(np.isfinite(cells)):
            raise NonConvergenceError(f"{what} at k = {self.k} left float range")
        return cells

    def _make_level(self) -> np.ndarray:
        probs = self._state.vals * self._pref_ratio()
        probs *= np.exp(self._log_scale())
        # one transposing copy to [n_pairs, blocks, _BLOCK]
        return self._trim(probs.transpose(2, 1, 0), "neighbor law")

    def level(self) -> np.ndarray:
        """The resolved P(ell, phi | k, theta) at the march's k, [n_pairs, n_ell] in pair order."""
        return self._make_level()

    def tail_amplitude(self) -> np.ndarray:
        """Per pair, c0 in P(ell, phi | k, theta) ~ c0 ell**-(2 + g) as ell -> infinity.

        c0 = rho(phi) G(k+theta+3+g) G(beta+2+phi+g) G(beta+theta+1)
        / (k G(beta+phi) G(beta+2+theta+g) G(k+theta+2)), G the gamma
        function: the first j-sum of the closed form decays faster, and
        the second tends to a Beta integral.  Read off the gamma lattices;
        infinite where it leaves float range (g of order 100).
        """
        k = self.k
        ln_c0 = (
            self._amp_const
            - math.log(k)
            + self._glf[k + self._theta_of_pair + 1]
            - self._gli[k + self._theta_of_pair + 2]
        )
        with np.errstate(over="ignore"):
            return np.exp(ln_c0)

    def degree_row(
        self, w_theta: np.ndarray, moment: float = math.inf
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sum over pairs of w[theta] P(ell, phi | k, theta), its tail model).

        ``w_theta`` weights the focal qualities in order.  Each
        (block, pair) of the j-sum state gets one scalar (weight times
        the log scale, normalized per block) and one ``einsum`` over the
        pairs supplies the carried prefactor ratio per cell.  Returns the
        resolved row and [1, 3] tail coefficients: the amplitude is the
        contracted ``tail_amplitude()``, and the model's total over all
        ell is the row's exact mass, ``sum(w_theta)``; ``moment``, the
        row's exact first moment where finite, sets the last coefficient
        (see ``power_tail_fit``).
        """
        w = np.repeat(np.asarray(w_theta, dtype=float), len(self.support))
        vals = self._state.vals
        with np.errstate(divide="ignore"):
            ln_c = self._log_scale() + np.log(w)
        # empty (block, pair)s must not set the block's scale
        ln_c[vals[-1] == 0.0] = -np.inf
        top = ln_c.max(axis=1)
        top[~np.isfinite(top)] = 0.0
        c = np.exp(ln_c - top[:, None])
        # einsum, not a BLAS matvec: BLAS threads stall when sweep threads
        # already occupy every core
        row = np.einsum("ibp,bp,ibp->bi", vals, c, self._pref_ratio())
        row *= np.exp(top)[:, None]
        row = self._trim(row.reshape(1, -1), "degree row")
        c0 = w @ self.tail_amplitude()
        coef = power_tail_fit(row, self.ells, 2.0 + self.g, c0, float(np.sum(w_theta)), moment)
        return row[0], coef

    def advance(self) -> None:
        """Move from focal degree k to k + 1."""
        self.k += 1
        idx = self.k - self.beta - 1
        if idx >= self._ln_cumw.shape[1]:
            self._extend_weights(2 * self._ln_cumw.shape[1])
        self._state.advance(self._ln_cumw[:, idx])


def power_tail_fit(
    rows: np.ndarray, ells: np.ndarray, s: float, c0, mass, moment=math.inf
) -> np.ndarray:
    """Tail model of each row past the grid: c0 ell**-s + c1 ell**-(s+1) + c2 ell**-(s+2).

    ``c0`` is the exact amplitude (``NeighborMarch.tail_amplitude``).
    ``c1`` and ``c2`` solve one 2x2 system in closed form: the model's
    sum past the grid is ``mass`` less the row's sum, and its first
    moment past the grid is ``moment`` less the row's where that is
    finite (s > 2); otherwise the model meets the row's last resolved
    cell.  ``mass`` and ``moment`` are each row's exact totals over all
    ell.  Returns [n_rows, 3] coefficients; a model whose sums leave
    float range (large s) comes back non-finite, for the reader to refuse.
    """
    l_end = int(ells[-1])
    z = [_zeta(s + r, l_end + 1) for r in (-1.0, 0.0, 1.0, 2.0)]
    c0 = np.asarray(c0, dtype=float)
    moment = np.asarray(moment, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rhs_mass = mass - rows.sum(axis=1) - c0 * z[1]
        if np.all(np.isfinite(moment)):
            a1, a2 = z[1], z[2]
            rhs = moment - rows @ ells.astype(float) - c0 * z[0]
        else:
            a1, a2 = float(l_end) ** -(s + 1.0), float(l_end) ** -(s + 2.0)
            rhs = rows[:, -1] - c0 * float(l_end) ** -s
        # unknowns u_r = c_r zeta(s + r, l_end + 1), the mass each correction
        # carries past the grid: the mass row is then (1, 1), and the other
        # row holds ratios that stay finite wherever the zeta values do
        r1, r2 = a1 / z[2], a2 / z[3]
        u1 = (rhs - r2 * rhs_mass) / (r1 - r2)
        coef = np.empty((rows.shape[0], 3))
        coef[:, 0], coef[:, 1], coef[:, 2] = c0, u1 / z[2], (rhs_mass - u1) / z[3]
    return coef


@functools.lru_cache(maxsize=256)
def _zeta(x: float, q: int) -> np.float64:
    """Hurwitz zeta(x, q): every level of one grid reads the same few."""
    from scipy.special import zeta  # imported here: growth never needs scipy

    return zeta(x, q)


def tail_power_sum(coef: np.ndarray, s: float, l_end: int, upto=None) -> np.ndarray:
    """Sum of the tail model over ell = l_end+1 .. upto (or infinity).

    The model is ``sum_r coef_r * ell**-(s + r)``; ``s - 1`` gives its
    first moment.  Exponent 1 (the first moment at g = 0) needs a finite
    ``upto`` and is summed directly.
    """
    coef = np.atleast_2d(coef)
    total = np.zeros(coef.shape[0])
    for r in range(3):
        if s + r > 1.0:
            z = _zeta(s + r, l_end + 1)
            if upto is not None:
                z = z - _zeta(s + r, upto + 1)
        else:
            z = np.sum(np.arange(l_end + 1, upto + 1, dtype=float) ** -(s + r))
        total += coef[:, r] * z
    return np.maximum(total, 0.0)
