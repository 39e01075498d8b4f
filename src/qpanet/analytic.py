"""Closed-form stationary distributions of the growth model.

The model grows a network by attaching each new node to ``beta``
existing nodes with probability proportional to degree + quality.  In
the large-network limit the joint fraction of nodes at (degree k,
quality theta) and the conditional distribution of a neighbor's
(degree, quality) given the focal node's have closed forms built from
gamma-function ratios; this module evaluates them, their marginals and
conditionals, with explicit truncation-tail bookkeeping for the
unbounded degree sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._engine import NeighborMarch, tail_power_sum
from .errors import DomainError, NonConvergenceError, UndefinedConditionalError
from .numerics import _ln_gamma_raw
from .quality import QualityPmf

# unused here; perfbench/tracing.py looks both up on this module (ROADMAP item 1)
from ._engine import power_tail_fit  # noqa: F401
from .numerics import adaptive_series  # noqa: F401

__all__ = [
    "ModelParams",
    "JointTable",
    "NeighborDist",
    "joint_probability",
    "build_joint_table",
    "nn_probability",
    "neighbor_quality_dist",
    "neighbor_degree_dist",
    "neighbor_degree_first_moment",
    "write_nn_table",
]

DEFAULT_K_CAP = 10**5
# degrees tabulated by build_joint_table
JOINT_ROWS = 1024
# resolved neighbor degrees of neighbor_degree_dist and of the validation probes
LAW_CELLS = 1024
# the neighbor-degree mean is taken over [beta, DEFAULT_ELL_CAP]
DEFAULT_ELL_CAP = 10**4
# largest neighbor degree write_nn_table dumps by default
NN_TABLE_L_MAX = 2048
# E[1/k | theta] is summed exactly to this degree (doubled while needed) and
# the remainder's bracket may not be wider than this half-width
INV_K_CUT = 2**15
INV_K_HALF_WIDTH = 1e-10
# nats between the largest entries of the E[1/k | theta] windows that share
# one scaled lattice; exp(-600) ~ 1e-261 stays a normal float
_LATTICE_SPAN = 600.0


@dataclass(frozen=True)
class ModelParams:
    """Growth-model parameters: links per new node and the quality PMF."""

    beta: int
    quality: QualityPmf

    def __post_init__(self):
        if int(self.beta) != self.beta or self.beta < 1:
            raise DomainError(f"beta must be an integer >= 1, got {self.beta}")
        object.__setattr__(self, "beta", int(self.beta))

    @property
    def mu_over_beta(self) -> float:
        """Mean quality divided by beta; shifts every power-law exponent."""
        return self.quality.mean / self.beta

    def key(self) -> tuple:
        return (self.beta, self.quality.key())


@dataclass
class JointTable:
    """The stationary joint distribution P(k, theta): one block plus exact tails.

    Rows cover degrees ``beta .. k_max``; columns qualities
    ``0 .. theta_max``.  ``tail_mass`` is the exact probability beyond
    ``k_max`` (per quality in ``tail_by_theta``), ``mean_degree`` the
    exact mean 2 beta; the median follows the CDF >= 1/2 convention.
    The degree scan does not read it: it takes P(theta | k) from the
    closed form (``_quality_given_degree``).
    """

    params: ModelParams
    k_values: np.ndarray
    probs: np.ndarray
    degree_marginal: np.ndarray
    mean_degree: float
    median_degree: int
    tail_mass: float
    tail_by_theta: np.ndarray

    @property
    def k_max(self) -> int:
        return int(self.k_values[-1])

    def p_k_given_theta(self, theta: int) -> np.ndarray:
        rho = self.params.quality.probs[theta]
        if rho <= 0.0:
            raise UndefinedConditionalError(
                f"quality {theta} has zero probability"
            )
        return self.probs[:, theta] / rho


@dataclass
class NeighborDist:
    """A (possibly truncated) distribution over a neighbor attribute.

    ``kind`` is one of ``"joint-given-focal"``, ``"quality-given-theta"``
    or ``"degree-given-k"``.  ``values`` lists the resolved support,
    ``probs`` the matching probabilities, and ``tail_mass`` the
    estimated mass beyond the resolved support.  For degree
    distributions the mean is taken over the capped support
    ``[beta, DEFAULT_ELL_CAP]`` (the raw mean barely converges — or does
    not — for low mean quality, so the cap is part of the definition)
    while the median only needs the resolved CDF.
    """

    kind: str
    values: np.ndarray
    probs: np.ndarray
    tail_mass: float
    mean: float
    median: int
    meta: dict = field(default_factory=dict)


def _check_quality_index(params: ModelParams, value: int, name: str) -> int:
    if int(value) != value or not (0 <= value <= params.quality.theta_max):
        raise DomainError(
            f"{name} must be an integer in [0, {params.quality.theta_max}], got {value}"
        )
    return int(value)


def _check_degree(params: ModelParams, value, name: str) -> int:
    beta = params.beta
    if not (math.isfinite(value) and int(value) == value and value >= beta):
        raise DomainError(f"{name} must be an integer >= beta = {beta}, got {value}")
    return int(value)


def joint_probability(params: ModelParams, k: int, theta: int) -> float:
    """Stationary fraction of nodes with degree ``k`` and quality ``theta``.

    Zero for ``k < beta`` (new nodes are born with ``beta`` links).
    Evaluated as a difference of log-gammas and exponentiated, so it is
    safe for arbitrarily large degrees.
    """
    theta = _check_quality_index(params, theta, "theta")
    if k < 0 or int(k) != k:
        raise DomainError(f"k must be a non-negative integer, got {k}")
    if k < params.beta:
        return 0.0
    return float(_joint_rows(params, int(k), int(k))[0, theta])


def _joint_rows(params: ModelParams, k_lo: int, k_hi: int) -> np.ndarray:
    """Vectorized joint probabilities for degrees k_lo..k_hi inclusive."""
    out = np.exp(_ln_joint_rows(params, k_lo, k_hi))
    out[:, params.quality.probs == 0.0] = 0.0
    return out


def _ln_joint_rows(params: ModelParams, k_lo: int, k_hi: int) -> np.ndarray:
    """Log of ``_joint_rows`` (-inf at zero-probability qualities)."""
    beta = params.beta
    g = params.mu_over_beta
    probs_q = params.quality.probs
    tmax = params.quality.theta_max
    ks = np.arange(k_lo, k_hi + 1, dtype=float)[:, None]
    ths = np.arange(tmax + 1, dtype=float)[None, :]
    with np.errstate(divide="ignore"):
        ln_rho = np.log(probs_q)[None, :]
    return (
        ln_rho
        + math.log(2.0 + g)
        + _ln_gamma_raw(ks + ths)
        - _ln_gamma_raw(beta + ths)
        + _ln_gamma_raw(beta + ths + 2.0 + g)
        - _ln_gamma_raw(ks + ths + 3.0 + g)
    )


def _joint_tail(params: ModelParams, k: int) -> np.ndarray:
    """P(degree > k, theta) per theta, from the telescoped closed form.

    With g = mu/beta and G the gamma function, it is rho(theta) T with
    T = G(k + 1 + theta) G(beta + theta + 2 + g) / (G(beta + theta)
    G(k + theta + 3 + g)), the column tail of ``QualityAggregate``.
    """
    beta = params.beta
    g = params.mu_over_beta
    rho = params.quality.probs
    thetas = np.arange(rho.size, dtype=float)
    with np.errstate(divide="ignore"):
        return np.exp(
            np.log(rho)
            + _ln_gamma_raw(k + 1.0 + thetas)
            + _ln_gamma_raw(beta + thetas + 2.0 + g)
            - _ln_gamma_raw(beta + thetas)
            - _ln_gamma_raw(k + thetas + 3.0 + g)
        )


def build_joint_table(params: ModelParams) -> JointTable:
    """Tabulate P(k, theta) for degrees beta .. beta + JOINT_ROWS - 1.

    Everything past the block is taken from the closed form: the mass
    beyond ``k_max`` per quality from ``_joint_tail``, and the mean
    degree, exactly 2 beta since every arrival adds beta links.  The
    median is read from the block's CDF.

    Raises
    ------
    NonConvergenceError
        If the block holds less than half the mass, so the median lies
        past it.
    """
    beta = params.beta
    k_max = beta + JOINT_ROWS - 1
    probs = _joint_rows(params, beta, k_max)
    ks = beta + np.arange(JOINT_ROWS)
    tail_by_theta = _joint_tail(params, k_max)
    marginal = probs.sum(axis=1)
    i = int(np.searchsorted(np.cumsum(marginal), 0.5 - 1e-12))
    if i == JOINT_ROWS:
        raise NonConvergenceError(
            f"degree median lies past the {JOINT_ROWS}-row joint block"
        )
    return JointTable(
        params=params,
        k_values=ks,
        probs=probs,
        degree_marginal=marginal,
        mean_degree=2.0 * beta,
        median_degree=int(ks[i]),
        tail_mass=float(tail_by_theta.sum()),
        tail_by_theta=tail_by_theta,
    )


# called by nothing; perfbench/tracing.py hooks this name (ROADMAP item 1)
_cached_joint = build_joint_table


def nn_probability(
    params: ModelParams, k: int, theta: int, ell: int, phi: int
) -> float:
    """Fraction of neighbors of a (k, theta) node having (ell, phi).

    Reference evaluation, term for term as the closed form is written:
    prefactor times the sum of the two j-sums (one to k, one to ell),
    every term assembled in log space from log-gammas and combined by
    ``scipy.special.logsumexp``.  The vectorized march in this package
    is regression-tested against this function.
    """
    from scipy.special import logsumexp

    theta = _check_quality_index(params, theta, "theta")
    phi = _check_quality_index(params, phi, "phi")
    k = _check_degree(params, k, "focal degree k")
    ell = _check_degree(params, ell, "neighbor degree ell")
    beta = params.beta
    rho_phi = params.quality.probs[phi]
    if rho_phi == 0.0:
        return 0.0
    g = params.mu_over_beta
    lg = _ln_gamma_raw

    def lnb(n, m):
        return lg(n + 1.0) - lg(m + 1.0) - lg(n - m + 1.0)

    ln_pref = float(
        math.log(rho_phi)
        - math.log(k)
        + lg(k + theta + 3 + g)
        - lg(k + theta + 3 + g + ell + phi)
        + lg(ell + phi)
        - lg(beta + phi)
        + lg(beta + 2 + phi + g)
    )
    pieces = []
    j1 = np.arange(beta + 1, k + 1, dtype=float)
    if j1.size:
        pieces.append(
            lg(j1 + theta + 2 + g + beta + phi)
            + lnb(k - j1 + ell - beta, float(ell - beta))
            - lg(j1 + theta + 2 + g)
            - lg(beta + 2 + phi + g)
        )
    j2 = np.arange(beta + 1, ell + 1, dtype=float)
    if j2.size:
        pieces.append(
            lg(j2 + theta + 2 + g + beta + phi)
            + lnb(ell - j2 + k - beta, float(k - beta))
            - lg(j2 + phi + 2 + g)
            - lg(beta + 2 + theta + g)
        )
    if not pieces:
        return 0.0
    return math.exp(ln_pref + logsumexp(np.concatenate(pieces)))


# --------------------------------------------------------------------------
# aggregated conditionals
# --------------------------------------------------------------------------


def _inv_k_mean(params: ModelParams) -> np.ndarray:
    """E[1/k | theta] per supported quality, bracketed as ``QualityAggregate`` says."""
    pmf = params.quality
    beta = params.beta
    g = params.mu_over_beta
    support = pmf.support
    thetas = support.astype(float)
    ln_norm = _ln_gamma_raw(beta + thetas + 2.0 + g) - _ln_gamma_raw(beta + thetas)
    cut = INV_K_CUT
    while True:
        tail = _joint_tail(params, cut)[support] / pmf.probs[support]
        half_width = tail / (2.0 * (cut + 1))
        if half_width.max() < INV_K_HALF_WIDTH:
            break
        if 2 * cut > DEFAULT_K_CAP:
            raise NonConvergenceError(
                f"E[1/k | theta] bracket {half_width.max():.2e} still above"
                f" {INV_K_HALF_WIDTH} at the {DEFAULT_K_CAP}-degree cap"
            )
        cut *= 2
    # log G(m)/G(m + 3 + g) on the lattice m = k + theta; it falls with m,
    # so each theta's window starts at its largest entry
    m = np.arange(beta, cut + pmf.theta_max + 1, dtype=float)
    ln_ratio = _ln_gamma_raw(m) - _ln_gamma_raw(m + 3.0 + g)
    inv_k = 1.0 / np.arange(beta, cut + 1, dtype=float)
    firsts = ln_ratio[support]
    shift = np.empty(support.size)
    column_sums = np.empty(support.size)
    i = 0
    while i < support.size:
        # qualities whose windows start within exp(_LATTICE_SPAN) of the
        # first one's share one lattice, scaled by that start: at large
        # g the unscaled lattice underflows while G(beta+theta+2+g)
        # /G(beta+theta) overflows
        j = i + int(np.searchsorted(firsts[i] - firsts[i:], _LATTICE_SPAN, "right"))
        lo = support[i]
        ratio = np.exp(ln_ratio[lo : support[j - 1] + inv_k.size] - firsts[i])
        # one einsum, not one BLAS dot per theta: BLAS threads stall when
        # sweep threads already occupy every core.  Indexed after the sum,
        # so the overlapping windows are never copied
        windows = np.lib.stride_tricks.sliding_window_view(ratio, inv_k.size)
        column_sums[i:j] = np.einsum("ti,i->t", windows, inv_k)[support[i:j] - lo]
        shift[i:j] = firsts[i]
        i = j
    return (2.0 + g) * np.exp(ln_norm + shift) * column_sums + half_width


class QualityAggregate:
    """P(phi | theta) for every supported theta, from its exact closed form.

    A node of degree k got ``beta`` links at birth and its other
    ``k - beta`` links from later arrivals.

    * A birth link picks its target with probability proportional to
      degree + quality.  Summing the joint law's theta column exactly,
      E[k + phi | phi] = (beta + phi)(2 beta + mu)/(beta + mu), while the
      total attachment weight per node is 2 beta + mu.  So a birth target
      has quality law pi(phi) = rho(phi)(beta + phi)/(beta + mu).
    * A later neighbor is an arrival, whose quality is a fresh draw from
      rho whatever node it attaches to.

    Hence, for a node of degree k and quality theta,

        P(phi | k, theta) = [beta pi(phi) + (k - beta) rho(phi)] / k
                          = rho(phi) [1 + beta (phi - mu) / ((beta + mu) k)],

    and averaging over the node's degree class,

        P(phi | theta) = rho(phi) [1 + beta (phi - mu)/(beta + mu) E[1/k | theta]].

    E[1/k | theta] is read from the joint law's theta column,

        P(k | theta) = (2 + g) G(k + theta) G(beta + theta + 2 + g)
                       / (G(beta + theta) G(k + theta + 3 + g)),  g = mu/beta,

    (G the gamma function), summed exactly for beta <= k <= K.  The mass
    beyond K telescopes, sum_{k>K} G(k + a)/G(k + a + c) =
    G(K + 1 + a) / ((c - 1) G(K + a + c)), so the remainder of
    E[1/k | theta] lies in [0, T/(K + 1)] with

        T = G(K + 1 + theta) G(beta + theta + 2 + g)
            / (G(beta + theta) G(K + theta + 3 + g))

    that exact tail mass.  The midpoint is used; K starts at
    ``INV_K_CUT`` and doubles until the half-width is below
    ``INV_K_HALF_WIDTH``, which moves E[phi | theta] by less than
    theta_max**2 * 1e-10.
    A single-point support has mu = theta, so the tilt is zero, the law
    is rho and no E[1/k | theta] is taken.

    Raises
    ------
    NonConvergenceError
        If the cut would have to pass ``DEFAULT_K_CAP``, or a law leaves
        float range.
    """

    def __init__(self, params: ModelParams):
        pmf = params.quality
        beta = params.beta
        mu = pmf.mean
        support = pmf.support
        if support.size == 1:
            # one quality: mu = theta, so the tilt is zero and the law is
            # rho whatever E[1/k | theta] is
            inv_k_mean = np.zeros(1)
        else:
            inv_k_mean = _inv_k_mean(params)
        tilt = beta * (support - mu) / (beta + mu)
        self.support = support
        # [theta, phi] over the support
        self.laws = pmf.probs[support] * (1.0 + np.outer(inv_k_mean, tilt))
        if not np.all(np.isfinite(self.laws)):
            raise NonConvergenceError("neighbor-quality law left float range")

    def dist(self, theta: int) -> NeighborDist:
        i = int(np.searchsorted(self.support, theta))
        if i == self.support.size or self.support[i] != theta:
            raise UndefinedConditionalError(
                f"quality {theta} has zero probability; conditional undefined"
            )
        probs = self.laws[i]
        median = int(self.support[np.searchsorted(np.cumsum(probs), 0.5 - 1e-12)])
        return NeighborDist(
            kind="quality-given-theta",
            values=self.support.copy(),
            probs=probs,
            tail_mass=0.0,
            mean=float(np.dot(self.support, probs)),
            median=median,
            meta={"theta": int(theta)},
        )


def quality_q_level(march: NeighborMarch) -> np.ndarray:
    """Per-pair conditional mass sum_ell P(ell, phi | k, theta) at the march's k.

    Exactly (beta/k) pi(phi) + (1 - beta/k) rho(phi), pi(phi) = rho(phi)
    (beta + phi)/(beta + mu) (see ``QualityAggregate``), in the order of
    ``march.pairs``.
    """
    params, k = march.params, march.k
    beta = params.beta
    phi = np.array([f for _, f in march.pairs])
    rho = params.quality.probs[phi]
    pi = rho * (beta + phi) / (beta + params.quality.mean)
    return (beta / k) * pi + (1.0 - beta / k) * rho


def _degree_stats(ells, pl, coef, g) -> tuple[float, int, float]:
    """(mean over [beta, DEFAULT_ELL_CAP], median, tail mass) of one P(ell | k) row.

    ``pl`` is the resolved row on ``ells`` and ``coef`` its tail model.

    Raises
    ------
    NonConvergenceError
        If the tail model is not finite (its amplitude or its sums past
        the grid leave float range at large exponents ``s``), or the
        median lies past the grid.
    """
    s = 2.0 + g
    if not np.all(np.isfinite(coef)):
        raise NonConvergenceError(
            f"degree row tail model at exponent {s:g} left float range"
        )
    l_end = int(ells[-1])
    tail = float(tail_power_sum(coef, s, l_end)[0])
    mean = float(np.dot(ells, pl)) + float(
        tail_power_sum(coef, s - 1.0, l_end, DEFAULT_ELL_CAP)[0]
    )
    cdf = np.cumsum(pl)
    i = int(np.searchsorted(cdf, 0.5 * (cdf[-1] + tail) - 1e-12))
    if i == ells.size:
        raise NonConvergenceError(
            f"neighbor-degree median lies past the {ells.size}-cell grid"
        )
    return mean, int(ells[i]), tail


def _neighbor_degree_moments(params: ModelParams, k_max: int) -> np.ndarray:
    """E[ell | k, theta] for k = beta..k_max (rows) and the supported theta.

    Let a(k, theta) be the summed degree of the neighbors of the
    (k, theta) class, per node of the network, and n(k, theta) =
    P(k, theta).  Its rate equation, with c = beta/(2 beta + mu) = 1/(2 + g),

        a(k) [1 + c(k + theta - 1)] = c(k - 1 + theta) [a(k-1) + beta n(k-1)]
            + c n(k) [beta mu_pi + (k - beta) mu] + [k = beta] rho beta (1 + m2),

    counts three events: a node moving from degree k - 1 to k gains a
    neighbor of degree beta; a neighbor gains a link at a rate
    proportional to its degree plus quality, and the neighbors' summed
    quality is k n(k) E[phi | k, theta] = n(k) [beta mu_pi + (k - beta) mu]
    by the law of ``QualityAggregate``, mu_pi = (beta mu + E[theta^2])
    /(beta + mu); and a newcomer's neighbor-degree sum is
    beta (1 + m2), m2 = E_target[k] the mean degree of an attachment
    target.  With n(k-1)/n(k) = (k + theta + 2 + g)/(k + theta - 1), the
    ratio h = a/n obeys h(k) = x(k)[h(k-1) + beta]/(x(k) - 1) + [beta mu_pi
    + (k - beta) mu]/(x(k) - 1), x(k) = k + theta + 2 + g, which
    telescopes: H = h/x gains beta/(x - 1) + [beta mu_pi + (k - beta) mu]
    /((x - 1) x) per degree, a cumulative sum.  E[ell | k, theta] = h/k.

    The same method gives degree correlations in Krapivsky & Redner,
    PRE 63, 066123 (2001).  m2 = sum_theta rho E[k(k + theta) | theta]
    /(2 beta + mu) is finite exactly when g = mu/beta > 0; at g = 0 every
    moment is infinite.
    """
    beta = params.beta
    pmf = params.quality
    ks = np.arange(beta, k_max + 1, dtype=float)[:, None]
    support = pmf.support
    if params.mu_over_beta == 0.0:
        return np.full((ks.size, support.size), np.inf)
    g = params.mu_over_beta
    mu = pmf.mean
    theta = support.astype(float)
    rho = pmf.probs[support]
    mu_pi = (beta * mu + np.dot(rho, theta * theta)) / (beta + mu)
    # E[k(k + theta) | theta] = E[(k + theta)(k + theta + 1)] - (1 + theta) E[k + theta]
    second = (2.0 + g) * (beta + theta) * ((beta + theta + 1.0) / g - (1.0 + theta) / (1.0 + g))
    m2 = np.dot(rho, second) / (2.0 * beta + mu)
    x = ks + theta + 2.0 + g
    steps = beta / (x - 1.0) + (beta * mu_pi + (ks - beta) * mu) / ((x - 1.0) * x)
    steps[0] = (beta * mu_pi / x[0] + beta * (1.0 + m2)) / (x[0] - 1.0)
    return np.cumsum(steps, axis=0) * x / ks


def _quality_given_degree(params: ModelParams, k_max: int) -> np.ndarray:
    """P(theta | k) for k = beta..k_max (rows) and the supported theta.

    Each row of the closed-form joint law, normalized in log space, so
    rows whose joint probabilities underflow still sum to 1.
    """
    ln_w = _ln_joint_rows(params, params.beta, k_max)[:, params.quality.support]
    w = np.exp(ln_w - ln_w.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def neighbor_degree_first_moment(params: ModelParams, k_max: int) -> np.ndarray:
    """Uncapped E[ell | k] for k = beta..k_max, ell a random neighbor's degree.

    Exact, from the rate equation of each class's neighbor-degree sum
    (``_neighbor_degree_moments``), weighted by P(theta | k); O(k_max
    |support|).  Infinite at g = mu/beta = 0 (all-zero quality), where
    the neighbor-degree law decays as ell**-2.
    """
    beta = params.beta
    if int(k_max) != k_max or k_max < beta:
        raise DomainError(f"k_max must be an integer >= beta = {beta}, got {k_max}")
    w = _quality_given_degree(params, int(k_max))
    return np.einsum("kt,kt->k", w, _neighbor_degree_moments(params, int(k_max)))


class DegreeProfile:
    """Mean/median neighbor degree per focal degree, from march levels."""

    def __init__(self, params):
        self.params = params
        self.ks: list[int] = []
        self.means: list[float] = []
        self.medians: list[int] = []
        # P(theta | k) and E[ell | k] from k = beta, grown on demand
        self._weights = np.empty((0, params.quality.support.size))
        self._moments = np.empty(0)

    def add_level(self, march: NeighborMarch) -> None:
        """Record the march's current focal degree."""
        pl, coef = self._degree_row(march)
        mean, median, _ = _degree_stats(march.ells, pl, coef, self.params.mu_over_beta)
        self.ks.append(march.k)
        self.means.append(mean)
        self.medians.append(median)

    def _degree_row(self, march: NeighborMarch):
        """(P(ell | k) resolved row, its tail-model coefficients) at the march's k.

        The march contracts over (theta, phi) with weights P(theta | k),
        without assembling the full level.  The tail model holds the
        row's exact mass, 1, and its exact first moment E[ell | k]
        (infinite at g = 0, where the model meets the last resolved cell
        instead).
        """
        i = march.k - self.params.beta
        if i >= len(self._moments):
            k_max = 2 * march.k
            self._weights = _quality_given_degree(self.params, k_max)
            self._moments = np.einsum(
                "kt,kt->k", self._weights, _neighbor_degree_moments(self.params, k_max)
            )
        return march.degree_row(self._weights[i], moment=float(self._moments[i]))


def neighbor_quality_dist(params: ModelParams, theta: int) -> NeighborDist:
    """Distribution of a random neighbor's quality given the node's quality.

    P(phi | theta) = rho(phi) [1 + beta (phi - mu)/(beta + mu) E[1/k | theta]],
    the exact law derived in ``QualityAggregate``.

    Raises
    ------
    UndefinedConditionalError
        If ``rho(theta) = 0``.
    """
    theta = _check_quality_index(params, theta, "theta")
    return QualityAggregate(params).dist(theta)


def neighbor_degree_dist(params: ModelParams, k: int) -> NeighborDist:
    """Distribution of a random neighbor's degree given the node's degree.

    P(ell | k) = sum_theta P(theta | k) sum_phi P(ell, phi | k, theta).
    The resolved support covers ``LAW_CELLS`` degrees from ``beta``; the
    remaining mass decays as ``ell**-(2 + mu/beta)`` with the closed-form
    amplitude, and its model holds the law's exact mass and first moment
    (``neighbor_degree_first_moment``), so ``tail_mass`` is exactly 1
    less the resolved sum.  The mean is defined over the capped support
    ``[beta, DEFAULT_ELL_CAP]``.

    Raises
    ------
    DomainError
        If ``k < beta`` or ``k > DEFAULT_K_CAP``.
    NonConvergenceError
        If the median lies past the resolved support (large ``beta``).
    """
    k = _check_degree(params, k, "k")
    if k > DEFAULT_K_CAP:
        raise DomainError(f"k = {k} beyond the degree cap {DEFAULT_K_CAP}")
    march = NeighborMarch(params, l_resolve=LAW_CELLS)
    while march.k < k:
        march.advance()
    pl, coef = DegreeProfile(params)._degree_row(march)
    mean, median, tail = _degree_stats(march.ells, pl, coef, params.mu_over_beta)
    return NeighborDist(
        kind="degree-given-k",
        values=march.ells.copy(),
        probs=pl,
        tail_mass=tail,
        mean=mean,
        median=median,
        meta={"k": k, "ell_cap": DEFAULT_ELL_CAP},
    )


def write_nn_table(
    params: ModelParams,
    k: int,
    theta: int,
    fh,
    l_max: int = NN_TABLE_L_MAX,
) -> None:
    """Dump P(ell, phi | k, theta) as CSV rows in ascending (ell, phi).

    Format: comment lines ``# beta=…``, ``# k=…``, ``# theta=…``,
    ``# tail_mass=…`` followed by the header ``ell,phi,prob``.  The law
    of (ell, phi) sums to 1 exactly, so ``tail_mass``, the mass of the
    rows not dumped, is 1 less the dumped probabilities (at least 0).
    Only the pairs of the focal quality ``theta`` are marched.

    Raises
    ------
    DomainError
        If ``k < beta``, ``k > DEFAULT_K_CAP`` or ``l_max < beta`` (no
        row to dump).
    """
    theta = _check_quality_index(params, theta, "theta")
    beta = params.beta
    k = _check_degree(params, k, "k")
    if k > DEFAULT_K_CAP:
        raise DomainError(f"k = {k} beyond the degree cap {DEFAULT_K_CAP}")
    if l_max < beta:
        raise DomainError(f"l_max = {l_max} below beta = {beta}: no neighbor degree to dump")
    support = [int(t) for t in params.quality.support]
    if theta not in support:
        raise UndefinedConditionalError(
            f"quality {theta} has zero probability; conditional undefined"
        )
    march = NeighborMarch(params, l_resolve=max(l_max - beta + 1, 64), focal=[theta])
    while march.k < k:
        march.advance()
    keep = march.ells <= l_max
    block = march.level()[:, keep]  # [phi, ell]
    tail_dump = max(1.0 - float(block.sum()), 0.0)
    n_s, n_rows = len(support), block.size
    cells = [None] * (3 * n_rows)
    cells[0::3] = np.repeat(march.ells[keep], n_s).tolist()
    cells[1::3] = support * (n_rows // n_s)
    cells[2::3] = block.T.ravel().tolist()
    fh.write(f"# beta={beta}\n")
    fh.write(f"# k={k}\n")
    fh.write(f"# theta={theta}\n")
    fh.write(f"# tail_mass={tail_dump:.9e}\n")
    fh.write("ell,phi,prob\n")
    # one C-level format; %.12e prints as {:.12e}
    fh.write(("%d,%d,%.12e\n" * n_rows) % tuple(cells))
