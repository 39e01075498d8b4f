"""Critical values and affected fractions of the four paradoxes.

A node experiences the mean (median) friendship paradox when its degree
is below the mean (median) of its neighbors' degrees; the quality
paradox is the same with qualities.  The critical value is the largest
attribute value still experiencing a paradox, and the fraction is the
share of nodes at or below it.  The uncorrelated baseline keeps the
same marginals but makes neighbors independent of the node.
"""

from qpanet import (
    ModelParams,
    critical_values,
    make_exponential,
    paradox_fractions,
    uncorrelated_criticals,
)


def show(x):
    return "-" if x is None else x


for q in (0.5, 1.5):
    params = ModelParams(beta=2, quality=make_exponential(q, 16))
    qpa = critical_values(params)
    unc = uncorrelated_criticals(params)
    fr = paradox_fractions(params, qpa)
    print(f"=== exponential q={q}, theta_max=16, beta=2 ===")
    print(f"                      model   uncorrelated")
    print(f"critical quality (mean):   {show(qpa.quality_mean):>3}    {show(unc.quality_mean):>3}")
    print(f"critical quality (median): {show(qpa.quality_median):>3}    {show(unc.quality_median):>3}")
    print(f"critical degree (mean):    {show(qpa.degree_mean):>3}    {show(unc.degree_mean):>3}")
    print(f"critical degree (median):  {show(qpa.degree_median):>3}    {show(unc.degree_median):>3}")
    print(
        "affected fractions: "
        f"QP mean {fr.quality_mean:.3f}, QP median {fr.quality_median:.3f}, "
        f"FP mean {fr.degree_mean:.3f}, FP median {fr.degree_median:.3f}"
    )
    print()

print("reading the q=0.5 numbers: the growth correlation widens the range")
print("of qualities in paradox versus the uncorrelated baseline, and the")
print("mean friendship paradox reaches the overwhelming majority of nodes.")
print("at q=1.5 the quality distribution is increasing, the median rises")
print("above the mean, and the mean/median ordering of the quality")
print("criticals flips.")
