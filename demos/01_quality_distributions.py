"""Build and inspect the two quality-distribution families.

Each node of the growth model carries an integer quality drawn at birth.
This walks through the Bernoulli (two-point) and exponential (truncated
geometric) families, their means, and the lower-median convention used
by every paradox measure in the package.
"""

import numpy as np

from qpanet import make_bernoulli, make_custom, make_exponential

print("=== Bernoulli family: quality 0 with prob p, else theta_max ===")
for p in (0.0, 0.3, 0.7, 1.0):
    pmf = make_bernoulli(p, theta_max=8)
    print(f"p={p:.1f}: mean={pmf.mean:5.2f}  median={pmf.median}  probs={np.round(pmf.probs, 3)}")

print()
print("=== Exponential family: P(theta) ~ q**theta on 0..theta_max ===")
for q in (0.1, 0.5, 1.0, 1.5):
    pmf = make_exponential(q, theta_max=8)
    print(f"q={q:.1f}: mean={pmf.mean:5.2f}  median={pmf.median}  probs={np.round(pmf.probs, 3)}")

print()
print("=== The median convention ===")
# the median is the smallest value whose CDF reaches 1/2, so a
# half-and-half mass on {0, 5} has median 0, not 2.5
pmf = make_custom([0.5, 0, 0, 0, 0, 0.5])
print(f"half at 0, half at 5 -> median {pmf.median} (mean {pmf.mean})")

# q=1 is exactly uniform; q<1 puts the median below the mean, q>1 above
for q in (0.8, 1.0, 1.25):
    pmf = make_exponential(q, theta_max=8)
    rel = "<" if pmf.median < pmf.mean else (">" if pmf.median > pmf.mean else "=")
    print(f"q={q}: median {pmf.median} {rel} mean {pmf.mean:.3f}")
