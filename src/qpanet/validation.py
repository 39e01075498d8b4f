"""Cross-checks between the closed forms, their reductions, and the simulator.

These are the checks behind ``qpanet validate``: normalization of the
joint and neighbor distributions, the pure-degree reduction at all-zero
quality, the known ordering properties over an exponential-quality
sweep, and (in full mode) Monte Carlo agreement between grown networks
and the closed-form joint distribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import analytic, measures, simulate
from ._engine import power_tail_fit, tail_power_sum
from .analytic import ModelParams, build_joint_table
from .quality import make_bernoulli, make_custom, make_exponential, make_family

__all__ = ["Check", "run_checks", "NORMALIZATION_GRID", "NN_SAMPLE_POINTS"]

# the parameter grid exercised by the normalization checks:
# beta x (three bernoulli p, three exponential q) x theta_max
NORMALIZATION_BETAS = (2, 4, 8)
NORMALIZATION_FAMILIES = (
    ("bernoulli", 0.1),
    ("bernoulli", 0.5),
    ("bernoulli", 0.9),
    ("exponential", 0.5),
    ("exponential", 1.0),
    ("exponential", 1.5),
)
NORMALIZATION_THETA_MAXES = (4, 16)


def NORMALIZATION_GRID():
    for beta in NORMALIZATION_BETAS:
        for family, x in NORMALIZATION_FAMILIES:
            for tmax in NORMALIZATION_THETA_MAXES:
                pmf = make_family(family, x, tmax)
                yield ModelParams(beta=beta, quality=pmf), family, x, tmax


def NN_SAMPLE_POINTS(params):
    """Nine (k, theta) probes per parameter set: low/offset/deep degrees
    crossed with low/high/median qualities (deduplicated, in-support)."""
    beta = params.beta
    support = [int(t) for t in params.quality.support]
    med = params.quality.median
    if med not in support:
        med = support[0]
    thetas = sorted({support[0], support[-1], med})
    ks = [beta, beta + 3, 2 * beta + 5]
    return [(k, t) for k in ks for t in thetas]


@dataclass
class Check:
    """One cross-check: its verdict and the numbers behind it.

    ``residual`` is the worst deviation found and ``count`` the number of
    cases it was taken over, where the check has them.
    """

    name: str
    passed: bool
    detail: str
    residual: float | None = None
    count: int | None = None


def _check(name, residual, bound, extra="", count=None) -> Check:
    passed = residual < bound
    detail = f"residual {residual:.3g} {'<' if passed else '>='} {bound:g}{extra}"
    return Check(name=name, passed=passed, detail=detail, residual=residual, count=count)


def check_joint_normalization() -> Check:
    worst = 0.0
    count = 0
    for params, *_ in NORMALIZATION_GRID():
        table = build_joint_table(params)
        total = float(table.probs.sum()) + table.tail_mass
        worst = max(worst, abs(total - 1.0))
        count += 1
    return _check("joint normalization", worst, 1e-6, count=count)


def check_ba_reduction() -> Check:
    """All-zero quality reduces the joint law to the pure-degree form
    2 beta (beta+1) / (k (k+1) (k+2))."""
    worst = 0.0
    for beta in (2, 4, 8):
        params = ModelParams(beta=beta, quality=make_bernoulli(1.0, 8))
        ks = np.arange(beta, 1001)
        closed = 2.0 * beta * (beta + 1) / (ks * (ks + 1.0) * (ks + 2.0))
        got = np.array([analytic.joint_probability(params, int(k), 0) for k in ks])
        worst = max(worst, float(np.max(np.abs(got - closed))))
    return _check("pure-degree reduction", worst, 1e-10)


def probe_held_out(params):
    """Yield (k, residual) at each degree of NN_SAMPLE_POINTS.

    The march resolves ``2 * LAW_CELLS`` cells.  Per (theta, phi) pair,
    the tail model of the first ``LAW_CELLS`` cells (the closed-form
    amplitude and the pair's exact mass, ``analytic.quality_q_level``)
    predicts the mass of the next ``LAW_CELLS``; residual[theta, phi] is
    that prediction less the resolved mass of those held-out cells.
    """
    probe_ks = {k for k, _ in NN_SAMPLE_POINTS(params)}
    deepest = max(probe_ks)
    n_s = len(params.quality.support)
    n = analytic.LAW_CELLS
    s = 2.0 + params.mu_over_beta
    march = analytic.NeighborMarch(params, l_resolve=2 * n)
    ells = march.ells
    while True:
        if march.k in probe_ks:
            probs = march.level()
            coef = power_tail_fit(
                probs[:, :n], ells[:n], s, march.tail_amplitude(), analytic.quality_q_level(march)
            )
            predicted = tail_power_sum(coef, s, int(ells[n - 1]), int(ells[-1]))
            yield march.k, (predicted - probs[:, n:].sum(axis=1)).reshape(n_s, n_s)
        if march.k >= deepest:
            return
        march.advance()


def check_nn_normalization() -> Check:
    """Per probe (k, theta), the tail model of a ``LAW_CELLS`` grid, which
    holds the law's exact mass, predicts the resolved mass of the next
    ``LAW_CELLS`` cells (``probe_held_out``)."""
    worst = 0.0
    count = 0
    for params, *_ in NORMALIZATION_GRID():
        support = [int(t) for t in params.quality.support]
        probes = NN_SAMPLE_POINTS(params)
        for k, residual in probe_held_out(params):
            for pk, pt in probes:
                if pk == k:
                    worst = max(worst, abs(float(residual[support.index(pt)].sum())))
                    count += 1
    return _check("neighbor conditional normalization", worst, 1e-6, count=count)


def check_median_convention() -> Check:
    pmf = make_custom([0.5, 0, 0, 0, 0, 0.5])
    ok = pmf.median == 0
    return Check(
        "median convention (half at 0, half at 5)",
        ok,
        f"median {pmf.median} == 0",
    )


def check_micrographs() -> Check:
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        ep = os.path.join(d, "e.txt")
        qp = os.path.join(d, "q.txt")
        with open(ep, "w") as fh:
            fh.write("0 1\n1 2\n2 0\n")
        with open(qp, "w") as fh:
            fh.write("0 0\n1 0\n2 5\n")
        net = simulate.load_graph(ep, qp)
        rep = simulate.empirical_report(net)
        tri_ok = (
            abs(rep.frac_quality_mean - 2.0 / 3.0) < 1e-12
            and rep.frac_quality_median == 0.0
        )
        # star on 11 nodes
        with open(ep, "w") as fh:
            fh.writelines(f"0 {i}\n" for i in range(1, 11))
        with open(qp, "w") as fh:
            fh.writelines(f"{i} 1\n" for i in range(11))
        star = simulate.empirical_report(simulate.load_graph(ep, qp))
        star_ok = abs(star.frac_degree_mean - 10.0 / 11.0) < 1e-12
    return Check(
        "hand-computed micro-graphs",
        tri_ok and star_ok,
        f"triangle meanQP {rep.frac_quality_mean:.6f}, medianQP "
        f"{rep.frac_quality_median:.6f}; star meanFP {star.frac_degree_mean:.6f}",
    )


def check_orderings(threads: int = 1) -> Check:
    """Known orderings over an exponential sweep (theta_max = 16 slice):
    median-FP fraction <= mean-FP fraction, critical qualities at least
    the uncorrelated ones, and the q<1 / q>1 mean-median flip.

    The flip is checked on the theta_max = 16 slice only: on coarse
    quality ranges (theta_max 4 and 8) the model itself reverses it by
    one step at some q > 1 points, where the mean neighbor quality of a
    level sits just above it while half the neighbor mass sits at or
    below it."""
    qs = [round(0.1 * i, 10) for i in range(1, 21)]
    rows = measures.sweep(
        "exponential", qs, [2, 4, 6, 8], [16], threads=threads
    )
    bad = []
    for r in rows:
        if r.error:
            bad.append(f"error at q={r.x:g}, beta={r.beta}: {r.error}")
            continue
        fr, qpa, unc = r.fractions, r.qpa, r.uncorrelated
        if fr.degree_median > fr.degree_mean + 1e-12:
            bad.append(f"median FP fraction above mean at q={r.x:g}, beta={r.beta}")
        if _lt(qpa.quality_mean, unc.quality_mean) or _lt(
            qpa.quality_median, unc.quality_median
        ):
            bad.append(f"critical quality below baseline at q={r.x:g}, beta={r.beta}")
        if r.x < 1.0 and _lt(qpa.quality_mean, qpa.quality_median):
            bad.append(f"mean/median ordering violated at q={r.x:g}, beta={r.beta}")
        if r.x > 1.0 and _lt(qpa.quality_median, qpa.quality_mean):
            bad.append(f"flipped ordering violated at q={r.x:g}, beta={r.beta}")
    return Check(
        "exponential sweep orderings",
        not bad,
        bad[0] if bad else f"{len(rows)} grid points consistent",
    )


def _lt(a, b) -> bool:
    """a < b treating None as 'no value qualifies' (smaller than any)."""
    av = -1 if a is None else a
    bv = -1 if b is None else b
    return av < bv


# parameter sets of the edge-end balance check, one with a sparse support
EDGE_BALANCE_PARAMS = (
    ModelParams(beta=2, quality=make_exponential(0.5, 2)),
    ModelParams(beta=3, quality=make_exponential(1.5, 4)),
    ModelParams(beta=5, quality=make_custom([0.5, 0, 0, 0, 0, 0.5])),
)


def edge_balance_residuals(params, tuples=None):
    """Both sides of the edge-end balance at a few (k, theta, ell, phi).

    Every edge has two ends, so counting the edges between the class
    (k, theta) and the class (ell, phi) from either end must agree:
    k P(k,theta) P(ell,phi | k,theta) = ell P(ell,phi) P(k,theta | ell,phi).
    The closed forms satisfy this exactly.  Returns a list of
    ((k, theta, ell, phi), lhs, rhs) triples.
    """
    beta = params.beta
    if tuples is None:
        support = [int(t) for t in params.quality.support]
        lo, hi = support[0], support[-1]
        tuples = [
            (beta, lo, beta + 1, lo),
            (beta + 2, lo, beta + 5, hi),
            (2 * beta + 3, hi, beta + 1, lo),
            (beta + 1, lo, 3 * beta + 4, hi),
        ]
    out = []
    for (k, th, ell, ph) in tuples:
        lhs = (
            k
            * analytic.joint_probability(params, k, th)
            * analytic.nn_probability(params, k, th, ell, ph)
        )
        rhs = (
            ell
            * analytic.joint_probability(params, ell, ph)
            * analytic.nn_probability(params, ell, ph, k, th)
        )
        out.append(((k, th, ell, ph), lhs, rhs))
    return out


def check_edge_balance() -> Check:
    """Relative edge-end balance residual over EDGE_BALANCE_PARAMS."""
    worst = 0.0
    count = 0
    for params in EDGE_BALANCE_PARAMS:
        for _, lhs, rhs in edge_balance_residuals(params):
            worst = max(worst, abs(lhs - rhs) / max(lhs, rhs, 1e-300))
            count += 1
    return _check("edge-end balance (relative)", worst, 1e-12, count=count)


def check_monte_carlo() -> Check:
    """Total variation between the grown joint histogram (pooled over
    10 seeds, degrees <= 20) and the closed form."""
    params = ModelParams(beta=2, quality=make_exponential(0.5, 4))
    table = build_joint_table(params)
    n = 200_000
    seeds = range(10)
    pooled: dict = {}
    for s in seeds:
        net = simulate.grow_qpa(n, params, s)
        for key, val in simulate.joint_histogram(net).items():
            pooled[key] = pooled.get(key, 0.0) + val / 10.0
    tv = 0.0
    for k in range(2, 21):
        for t in range(0, 5):
            analytic_p = table.probs[k - params.beta, t]
            tv += 0.5 * abs(pooled.get((k, t), 0.0) - analytic_p)
    return _check("Monte Carlo joint agreement (TV, k<=20)", tv, 0.02)


def run_checks(quick: bool = False, threads: int = 1) -> list[Check]:
    t0 = time.monotonic()
    checks = [
        check_median_convention(),
        check_micrographs(),
        check_ba_reduction(),
        check_joint_normalization(),
        check_nn_normalization(),
        check_edge_balance(),
    ]
    if not quick:
        checks.append(check_orderings(threads=threads))
        checks.append(check_monte_carlo())
    checks.append(
        Check("wall time", True, f"{time.monotonic() - t0:.1f} s")
    )
    return checks
