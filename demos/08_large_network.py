"""Grow one 5e6-node network and check it against the closed forms.

An opt-in run outside the test suite: it needs about 1.1 GB of memory
and a few tens of seconds.  It grows 5e6 nodes at beta = 2 with
exponential(0.5, 4) qualities and prints

* the wall time of growth (next to a 2e5-node growth, for scale) and of
  the paradox report;
* the process's own peak resident memory;
* the degree-tail exponent fitted to the network against 3 + mu/beta;
* the simulated P(phi | theta) against ``QualityAggregate``'s exact law,
  in standard errors.

Usage: python demos/08_large_network.py [n] [seed]
"""

import math
import resource
import sys
import time

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, polygamma

from qpanet import ModelParams, empirical_report, grow_qpa, make_exponential
from qpanet.analytic import QualityAggregate

N = int(sys.argv[1]) if len(sys.argv) > 1 else 5_000_000
SEED = int(sys.argv[2]) if len(sys.argv) > 2 else 0
SMALL_N = 200_000

params = ModelParams(beta=2, quality=make_exponential(0.5, 4))
beta, mu = params.beta, params.quality.mean
gamma_exact = 3.0 + mu / beta


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


_, t_small = timed(grow_qpa, SMALL_N, params, SEED)
net, t_grow = timed(grow_qpa, N, params, SEED)
rep, t_report = timed(empirical_report, net)
print(f"growth of {SMALL_N:,} nodes: {t_small:6.2f} s")
print(
    f"growth of {N:,} nodes: {t_grow:6.2f} s"
    f"  ({t_grow / t_small:.0f}x the time for {N / SMALL_N:.0f}x the nodes)"
)
print(f"paradox report: {t_report:6.2f} s")
# ru_maxrss is in kilobytes on Linux
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS of this process after growth and report: {peak_mb:.0f} MB")
print(
    f"paradox fractions: degree mean {rep.frac_degree_mean:.4f},"
    f" median {rep.frac_degree_median:.4f}; quality mean {rep.frac_quality_mean:.4f},"
    f" median {rep.frac_quality_median:.4f}"
)

# Degree tail.  A node of quality theta has degree law
# P(k | theta) ~ G(k + theta) / G(k + theta + gamma) with gamma = 3 + mu/beta,
# and sum_{k >= K} G(k + a) / G(k + a + gamma) = G(K + a) / ((gamma - 1) G(K + a + gamma - 1)),
# so the law of k >= K given theta has one free parameter.  Fit it by
# maximum likelihood over the nodes of degree >= K.
print()
print(f"degree-tail exponent, fitted on k >= K, against 3 + mu/beta = {gamma_exact:.4f}:")
deg, qual = net.degrees, net.qualities
for k_min in (beta, 10, 50):
    tail = deg >= k_min
    x = (deg[tail] + qual[tail]).astype(float)
    a = (k_min + qual[tail]).astype(float)

    def nll(g):
        return -np.sum(
            gammaln(x) - gammaln(x + g) + math.log(g - 1.0) + gammaln(a + g - 1.0) - gammaln(a)
        )

    fit = minimize_scalar(nll, bounds=(2.0, 6.0), method="bounded", options={"xatol": 1e-8})
    g = fit.x
    info = np.sum(polygamma(1, x + g) - polygamma(1, a + g - 1.0)) + x.size / (g - 1.0) ** 2
    se = 1.0 / math.sqrt(info)
    print(
        f"  K = {k_min:>3}: {g:.4f} +- {se:.4f} over {x.size:>9,} nodes"
        f"  ({(g - gamma_exact) / se:+.1f} standard errors)"
    )

# Neighbor quality.  P(phi | theta) is the average, over the F nodes of
# quality theta, of each node's share of neighbors with quality phi.  Nodes
# share neighbors (a hub enters thousands of shares), so the standard error
# is clustered two ways, by focal node and by neighbor: with
# e = (1[phi_j = phi] - estimate) / k_i on each edge end (i, j),
# F^2 Var = sum_i (sum_j e)^2 + sum_j (sum_i e)^2 - sum e^2.
# Treating the nodes as independent instead understates it up to 3x here.
agg = QualityAggregate(params)
owner = np.repeat(np.arange(net.n), deg)
nbr_q = qual[net.adj_indices]
print()
print("P(phi | theta): simulated - exact, in two-way clustered standard errors")
print("theta      nodes  " + "".join(f"phi={phi:<6}" for phi in agg.support))
worst = 0.0
for i, theta in enumerate(agg.support):
    focal = (deg > 0) & (qual == theta)
    on_focal = focal[owner]
    zs = []
    for j, phi in enumerate(agg.support):
        y = (nbr_q == phi).astype(float)
        est = np.mean(np.bincount(owner, weights=y, minlength=net.n)[focal] / deg[focal])
        e = np.where(on_focal, (y - est) / deg[owner], 0.0)
        var = (
            np.sum(np.bincount(owner, weights=e, minlength=net.n) ** 2)
            + np.sum(np.bincount(net.adj_indices, weights=e, minlength=net.n) ** 2)
            - np.sum(e**2)
        )
        zs.append((est - agg.laws[i, j]) * focal.sum() / math.sqrt(var))
    worst = max(worst, max(abs(z) for z in zs))
    print(f"{theta:>5}  {int(focal.sum()):>9,}  " + "".join(f"{z:+9.2f} " for z in zs))
print(f"largest |z| over {agg.support.size ** 2} cells: {worst:.2f}")
