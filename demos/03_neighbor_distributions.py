"""What does a random neighbor look like?

The closed form P(ell, phi | k, theta) gives the fraction of neighbors
of a (degree k, quality theta) node that have degree ell and quality
phi.  Aggregating it yields the two conditionals behind the paradox
measures: the neighbor-quality law P(phi | theta) and the
neighbor-degree law P(ell | k).
"""

import numpy as np

from qpanet import (
    ModelParams,
    make_bernoulli,
    make_exponential,
    neighbor_degree_dist,
    neighbor_degree_first_moment,
    neighbor_quality_dist,
    nn_probability,
)

params = ModelParams(beta=2, quality=make_exponential(0.5, 4))

print("=== Point values of P(ell, phi | k, theta) ===")
for (k, th, ell, ph) in [(2, 0, 3, 0), (4, 1, 3, 0), (4, 1, 10, 4)]:
    v = nn_probability(params, k, th, ell, ph)
    print(f"P(ell={ell}, phi={ph} | k={k}, theta={th}) = {v:.6f}")
print("note: a degree-beta node cannot neighbor another degree-beta node:")
print(f"P(ell=2, phi=0 | k=2, theta=0) = {nn_probability(params, 2, 0, 2, 0)}")

print()
print("=== Neighbor quality given own quality ===")
for theta in (0, 2, 4):
    d = neighbor_quality_dist(params, theta)
    print(
        f"theta={theta}: P(phi|theta)={np.round(d.probs, 4)}  "
        f"mean={d.mean:.4f}  median={d.median}"
    )
print("(own quality barely moves the neighbor quality law: attachment is")
print(" dominated by who is available to connect to, not by who you are)")

print()
print("=== Neighbor degree given own degree ===")
uncapped = neighbor_degree_first_moment(params, 20)  # exact, k = beta..20
for k in (2, 5, 20):
    d = neighbor_degree_dist(params, k)
    print(
        f"k={k:>2}: mean={d.mean:7.3f} (capped support)  "
        f"uncapped={uncapped[k - params.beta]:7.3f}  median={d.median:>3}  "
        f"tail={d.tail_mass:.1e}"
    )
print("the capped mean stops at ell_cap = 1e4; the exact uncapped one adds")
print("the slowly decaying tail ell**-(2 + mu/beta) beyond it")
print("neighbors are hubs: even a degree-20 node sees a mean well above")
print("the network average of 4 -- the friendship paradox in the raw")

print()
print("=== Quality disassortativity on a polarized population ===")
half = ModelParams(beta=2, quality=make_bernoulli(0.5, 6))
d = neighbor_quality_dist(half, 0)
print(f"half the nodes at quality 0, half at 6; for a quality-0 node:")
print(f"P(neighbor quality = 6) = {d.probs[-1]:.4f} (most neighbors are high-quality)")
