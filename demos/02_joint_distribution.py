"""The stationary joint distribution of degree and quality.

In the infinite-network limit, the fraction of nodes at (degree k,
quality theta) has a closed form built from gamma ratios.  With all
qualities zero it collapses to the classic pure-degree attachment law
2 b (b+1) / (k (k+1) (k+2)); with spread-out qualities the degree tail
steepens to exponent 3 + mu/beta.
"""

import numpy as np

from qpanet import ModelParams, build_joint_table, joint_probability
from qpanet import make_bernoulli, make_exponential

print("=== All-zero quality: pure degree-driven attachment, beta = 2 ===")
params = ModelParams(beta=2, quality=make_bernoulli(1.0, 8))
for k in (2, 3, 5, 10, 100):
    closed = 2 * 2 * 3 / (k * (k + 1) * (k + 2))
    print(f"P(k={k:>3}) = {joint_probability(params, k, 0):.8f}   closed form {closed:.8f}")

print()
print("=== One block of degrees plus the exact closed-form tail ===")
params = ModelParams(beta=2, quality=make_exponential(0.5, 4))
table = build_joint_table(params)
print(f"resolved degrees: {table.k_values[0]}..{table.k_max}")
print(f"total mass + tail = {table.probs.sum() + table.tail_mass:.12f}")
print(f"mean degree = {table.mean_degree:.6f} (exact: every arrival adds beta stubs, 2*beta = 4)")
print(f"median degree = {table.median_degree}")
print(f"tail mass beyond k_max: {table.tail_mass:.2e}")

print()
print("low-degree block P(k, theta):")
print("k\\th " + "".join(f"{t:>9}" for t in range(5)))
for i, k in enumerate(range(2, 8)):
    row = "".join(f"{table.probs[i, t]:9.5f}" for t in range(5))
    print(f"k={k}: {row}")

print()
print("degree tail exponent check: P(k) ~ k**-(3 + mu/beta)")
g = params.mu_over_beta
for k in (100, 512, 1000):
    i = k - 2
    local = -np.log(table.degree_marginal[i + 1] / table.degree_marginal[i]) / np.log(
        (k + 1) / k
    )
    print(f"local exponent at k={k:>5}: {local:.4f}  (expect -> {3 + g:.4f})")
