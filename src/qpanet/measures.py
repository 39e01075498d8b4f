"""Paradox measures: critical values, baselines, fractions, sweeps.

A node experiences the mean (median) friendship paradox when its degree
is below the mean (median) of its neighbors' degrees; the quality
paradox is the same statement for the quality attribute.  For each
paradox the critical value is the largest attribute value that still
experiences it, and the affected fraction is the CDF of the attribute
at that critical value.  The uncorrelated baseline replaces the
neighbor distributions with the unconditional ones, which collapses the
critical values to "largest support value strictly below the
mean/median" of the attribute itself.
"""

from __future__ import annotations

import concurrent.futures
import warnings
from dataclasses import dataclass

from . import analytic
from ._engine import NeighborMarch
from .analytic import DegreeProfile, ModelParams, QualityAggregate
from .errors import DomainError, QpanetError
from .quality import make_family

__all__ = [
    "Criticals",
    "Fractions",
    "SweepRow",
    "critical_values",
    "uncorrelated_criticals",
    "paradox_fractions",
    "sweep",
    "write_sweep_csv",
    "SWEEP_CSV_HEADER",
]

_TIE_EPS = 1e-9
SCAN_FAIL_RUN = 25
SCAN_CAP_DEFAULT = 512
# resolved neighbor degrees of the degree scan at g > 0, where each row's
# tail model has the closed-form amplitude and holds the row's exact mass
# and first moment: capped means within 1.6e-4 of a grid that reaches the
# cap on the tested models.  At g = 0 the moment is infinite (scan_cells)
SCAN_CELLS = 256


class ScanEdgeWarning(UserWarning):
    """The paradox inequality still held at the end of the degree scan."""


@dataclass(frozen=True)
class Criticals:
    """The four critical values for one model (absent values are None).

    ``quality_mean``/``quality_median`` are the largest qualities whose
    mean/median neighbor quality still exceeds them; ``degree_mean`` /
    ``degree_median`` the same for degrees.  ``baseline`` is ``"qpa"``
    for the growth model or ``"uncorrelated"``.
    """

    quality_mean: int | None
    quality_median: int | None
    degree_mean: int | None
    degree_median: int | None
    baseline: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Fractions:
    """Fraction of nodes experiencing each paradox (CDF at the critical)."""

    quality_mean: float
    quality_median: float
    degree_mean: float
    degree_median: float


@dataclass
class SweepRow:
    """One grid point of a parameter sweep."""

    family: str
    x: float
    beta: int
    theta_max: int
    qpa: Criticals | None = None
    uncorrelated: Criticals | None = None
    fractions: Fractions | None = None
    error: str | None = None


def scan_cells(params: ModelParams) -> int:
    """Resolved neighbor degrees of the degree scan for ``params``.

    ``SCAN_CELLS`` when g = mu/beta > 0; at g = 0 the tail holds only its
    mass and last cell, so the scan runs on the rerun grid, 4 * SCAN_CELLS.
    """
    return SCAN_CELLS if params.mu_over_beta > 0 else 4 * SCAN_CELLS


def _run_paradox_march(
    params: ModelParams, l_resolve: int, scan_cap: int
) -> tuple[DegreeProfile, tuple[str, ...]]:
    """March over focal degree for the degree paradox.

    Scans k while testing k < mean / k < median of the neighbor degree
    distribution, stopping once both inequalities have failed for
    SCAN_FAIL_RUN consecutive degrees and the scan has covered at least
    four times the exact mean degree 2 beta, or at the scan cap.  Returns
    the per-degree profile and the scan-cap notes.
    """
    beta = params.beta
    min_scan = 8 * beta
    march = NeighborMarch(params, l_resolve=l_resolve)
    profile = DegreeProfile(params)
    fail_mean = 0
    fail_median = 0
    notes = []
    while True:
        k = march.k
        profile.add_level(march)
        if profile.means[-1] > k + _TIE_EPS:
            fail_mean = 0
        else:
            fail_mean += 1
        if profile.medians[-1] > k:
            fail_median = 0
        else:
            fail_median += 1
        if k >= min_scan and fail_mean >= SCAN_FAIL_RUN and fail_median >= SCAN_FAIL_RUN:
            break
        if k - beta >= scan_cap:
            if fail_mean == 0 or fail_median == 0:
                notes.append(f"paradox inequality still holds at the scan cap k={k}")
                warnings.warn(notes[-1], ScanEdgeWarning, stacklevel=3)
            break
        march.advance()
    return profile, tuple(notes)


def critical_values(params: ModelParams, scan_cap: int = SCAN_CAP_DEFAULT) -> Criticals:
    """Critical quality and degree values for the growth model.

    Each critical value is the maximum attribute value for which the
    strict paradox inequality holds; ties never qualify.  A value is
    None when no attribute value qualifies (e.g. all qualities equal).
    The quality side is decided from the exact neighbor-quality law.
    The degree scan is a heuristic with a documented cap: a warning is
    emitted (and recorded in ``notes``) if the inequality still holds at
    the scan edge.  The scan resolves ``scan_cells(params)`` neighbor
    degrees; a mean within 2e-2 of its degree on a ``SCAN_CELLS`` scan
    re-decides the degree criticals on ``4 * SCAN_CELLS``, also noted.
    """
    cells = scan_cells(params)
    profile, notes = _run_paradox_march(params, cells, scan_cap)
    margin = min(abs(m - k) for k, m in zip(profile.ks, profile.means))
    if cells == SCAN_CELLS and margin < 2e-2:
        profile, notes = _run_paradox_march(params, 4 * SCAN_CELLS, scan_cap)
        notes += (
            f"near tie: mean margin {margin:.2e} on the {SCAN_CELLS}-cell scan,"
            f" re-decided on {4 * SCAN_CELLS} cells",
        )
    agg = QualityAggregate(params)
    support = [int(t) for t in agg.support]
    dists = [agg.dist(t) for t in support]
    q_mean = max((t for t, d in zip(support, dists) if t < d.mean - _TIE_EPS), default=None)
    q_median = max((t for t, d in zip(support, dists) if t < d.median), default=None)
    scan = list(zip(profile.ks, profile.means, profile.medians))
    k_mean = max((k for k, m, _ in scan if m > k + _TIE_EPS), default=None)
    k_median = max((k for k, _, md in scan if md > k), default=None)
    return Criticals(
        quality_mean=q_mean,
        quality_median=q_median,
        degree_mean=k_mean,
        degree_median=k_median,
        baseline="qpa",
        notes=notes,
    )


def uncorrelated_criticals(params: ModelParams) -> Criticals:
    """Critical values when neighbor attributes are independent of the node.

    With independent neighbors the mean/median neighbor attribute is the
    unconditional mean/median, so each critical value reduces to the
    largest support value strictly below that statistic (on a contiguous
    integer support, "statistic minus one").  The degree mean is exactly
    the integer 2 beta and the median comes from the closed-form CDF
    (``analytic._degree_median``); a degree critical must be >= beta.
    """
    pmf = params.quality
    support = [int(t) for t in pmf.support]
    q_mean = max((t for t in support if t < pmf.mean - _TIE_EPS), default=None)
    q_median = max((t for t in support if t < pmf.median), default=None)
    beta = params.beta
    m = analytic._degree_median(params)
    return Criticals(
        quality_mean=q_mean,
        quality_median=q_median,
        degree_mean=2 * beta - 1,
        degree_median=m - 1 if m - 1 >= beta else None,
        baseline="uncorrelated",
    )


def paradox_fractions(params: ModelParams, criticals: Criticals) -> Fractions:
    """Fraction of nodes at or below each critical value.

    Quality fractions sum the quality PMF up to the critical quality;
    degree fractions are the closed-form degree CDF at the critical degree.
    An absent critical value contributes a fraction of zero.
    """
    pmf = params.quality

    def q_frac(c):
        if c is None:
            return 0.0
        return float(pmf.probs[: c + 1].sum())

    def k_frac(c):
        if c is None or c < params.beta:
            return 0.0
        return analytic._degree_cdf(params, c)

    return Fractions(
        quality_mean=q_frac(criticals.quality_mean),
        quality_median=q_frac(criticals.quality_median),
        degree_mean=k_frac(criticals.degree_mean),
        degree_median=k_frac(criticals.degree_median),
    )


def _sweep_point(family, x, beta, theta_max) -> SweepRow:
    row = SweepRow(family=family, x=float(x), beta=int(beta), theta_max=int(theta_max))
    try:
        params = ModelParams(beta=beta, quality=make_family(family, x, theta_max))
        qpa = critical_values(params)
        row.qpa = qpa
        row.uncorrelated = uncorrelated_criticals(params)
        row.fractions = paradox_fractions(params, qpa)
    except QpanetError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def sweep(
    family: str,
    x_grid,
    beta_list,
    theta_max_list,
    threads: int = 1,
) -> list[SweepRow]:
    """Evaluate all measures over a (x, beta, theta_max) grid.

    Rows are ordered lexicographically by (x, beta, theta_max) in the
    order given.  A failure at one grid point is recorded in that row's
    ``error`` field and does not abort the sweep.
    """
    x_grid = list(x_grid)
    beta_list = list(beta_list)
    theta_max_list = list(theta_max_list)
    if not x_grid or not beta_list or not theta_max_list:
        raise DomainError("sweep grids must be non-empty")
    grid = [
        (x, b, t) for x in x_grid for b in beta_list for t in theta_max_list
    ]
    if threads <= 1:
        return [_sweep_point(family, x, b, t) for (x, b, t) in grid]
    rows: list[SweepRow | None] = [None] * len(grid)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        futs = {
            pool.submit(_sweep_point, family, x, b, t): i
            for i, (x, b, t) in enumerate(grid)
        }
        for fut in concurrent.futures.as_completed(futs):
            rows[futs[fut]] = fut.result()
    return rows  # type: ignore[return-value]


SWEEP_CSV_HEADER = (
    "family,x,beta,theta_max,"
    "crit_q_mean,crit_q_median,crit_k_mean,crit_k_median,"
    "crit_q_mean_u,crit_q_median_u,crit_k_mean_u,crit_k_median_u,"
    "frac_q_mean,frac_q_median,frac_k_mean,frac_k_median"
)


def _cell(v) -> str:
    return "" if v is None else str(v)


def write_sweep_csv(rows, fh) -> None:
    """Serialize sweep rows; absent criticals become empty fields."""
    fh.write(SWEEP_CSV_HEADER + "\n")
    for r in rows:
        qpa = r.qpa or Criticals(None, None, None, None, "qpa")
        unc = r.uncorrelated or Criticals(None, None, None, None, "uncorrelated")
        fr = r.fractions or Fractions(0.0, 0.0, 0.0, 0.0)
        cells = [
            r.family,
            f"{r.x:g}",
            str(r.beta),
            str(r.theta_max),
            _cell(qpa.quality_mean),
            _cell(qpa.quality_median),
            _cell(qpa.degree_mean),
            _cell(qpa.degree_median),
            _cell(unc.quality_mean),
            _cell(unc.quality_median),
            _cell(unc.degree_mean),
            _cell(unc.degree_median),
            f"{fr.quality_mean:.6f}",
            f"{fr.quality_median:.6f}",
            f"{fr.degree_mean:.6f}",
            f"{fr.degree_median:.6f}",
        ]
        fh.write(",".join(cells) + "\n")
