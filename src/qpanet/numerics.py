"""Log-gamma and an adaptive series helper.

Everything downstream works with logarithms of gamma functions: the
closed-form node and neighbor distributions are ratios of gamma
functions whose raw values overflow float64 long before the interesting
part of the degree range is reached.  ``_ln_gamma_raw`` is the one
log-gamma entry point of the package (``scipy.special.gammaln``);
``adaptive_series`` is a summation helper that the program no longer
calls (the joint law's tail has a closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "SeriesResult",
    "adaptive_series",
]


def _ln_gamma_raw(x):
    """``scipy.special.gammaln`` of positive floats, with no domain checks.

    scipy is imported here, not at module level, so that ``import qpanet``
    and network growth never load it.
    """
    from scipy.special import gammaln

    return gammaln(x)


@dataclass
class SeriesResult:
    """Outcome of an adaptively truncated series of non-negative terms.

    ``value`` is the evaluated partial sum, ``tail_bound`` an upper
    estimate of the omitted mass (geometric extrapolation of the decay
    observed over the last stretch of terms), ``terms_used`` the number
    of terms evaluated.
    """

    value: float
    tail_bound: float
    terms_used: int


def adaptive_series(
    term: Callable[[int], float],
    start: int = 0,
    rel_tol: float = 1e-10,
    max_terms: int = 10**6,
) -> SeriesResult:
    """Sum ``term(i)`` for ``i = start, start+1, ...`` until negligible.

    Terms must be non-negative and eventually decaying.  Summation stops
    once 10 consecutive terms each contribute less than ``rel_tol``
    times the running sum; the run-of-10 rule guards against transient
    non-monotone stretches near the start of a series.

    The tail bound extrapolates geometrically using the largest
    step-to-step decay ratio observed over the final 10 terms, so for a
    genuinely geometric tail ``value + tail_bound`` bounds the true sum.

    Raises
    ------
    DomainError
        If ``rel_tol`` is not in (0, 1).
    NonConvergenceError
        If ``max_terms`` terms are evaluated without meeting the stop rule.
    """
    if not (0.0 < rel_tol < 1.0):
        raise DomainError(f"rel_tol must be in (0, 1), got {rel_tol}")
    window: list[float] = []
    total = 0.0
    negligible_run = 0
    i = start
    count = 0
    while count < max_terms:
        t = float(term(i))
        total += t
        window.append(t)
        if len(window) > 11:
            window.pop(0)
        if t <= rel_tol * total:
            negligible_run += 1
        else:
            negligible_run = 0
        count += 1
        i += 1
        if negligible_run >= 10:
            break
    else:
        raise NonConvergenceError(
            f"series did not converge within the {max_terms}-term cap"
        )
    tail = _geometric_tail(window, total, count)
    return SeriesResult(value=total, tail_bound=tail, terms_used=count)


def _geometric_tail(window: Sequence[float], total: float, count: int) -> float:
    """Upper tail estimate from the last evaluated terms.

    Includes an allowance for float rounding accumulated while summing
    ``count`` terms, so the bound stays an upper bound for exactly
    geometric series despite finite precision.
    """
    eps_allowance = np.finfo(float).eps * abs(total) * count + 1e-300
    last = window[-1]
    if last <= 0.0:
        return eps_allowance if total > 0.0 else 0.0
    ratios = [
        window[j + 1] / window[j]
        for j in range(len(window) - 1)
        if window[j] > 0.0 and window[j + 1] > 0.0
    ]
    if not ratios:
        return eps_allowance
    r = max(ratios)
    if r >= 1.0:
        return math.inf
    return last * r / (1.0 - r) * (1.0 + 1e-9) + eps_allowance
