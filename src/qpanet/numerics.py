"""Log-domain evaluation primitives.

Everything downstream works with logarithms of gamma functions and
binomial coefficients: the closed-form node and neighbor distributions
are ratios of gamma functions whose raw values overflow float64 long
before the interesting part of the degree range is reached.  This module
provides a vectorized log-gamma, a stable log-sum-exp, and an adaptive
summation helper that the program no longer calls (the joint law's
tail has a closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "SeriesResult",
    "ln_gamma",
    "sum_log_terms",
    "adaptive_series",
]

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
# Relative accuracy of the rational part is ~1e-15 across x > 0.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

def _ln_gamma_raw(x):
    """Lanczos kernel, no domain checks.  ``x`` is a positive float array."""
    x = np.asarray(x, dtype=float)
    z = x - 1.0
    series = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(series)


def ln_gamma(x):
    """Natural log of the gamma function for real ``x > 0``.

    Accepts scalars or arrays.  Absolute error is below 1e-12 wherever
    that is representable (for very large arguments the error is a few
    ulps of the result, which is the float64 floor).

    Raises
    ------
    DomainError
        If any argument is not strictly positive.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    out = _ln_gamma_raw(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def sum_log_terms(log_terms) -> float:
    """log(sum(exp(log_terms))) without overflow.

    Entries may be ``-inf`` (zero terms).  The result is never below the
    largest entry.

    Raises
    ------
    DomainError
        If the input sequence is empty.
    """
    a = np.asarray(log_terms, dtype=float)
    if a.size == 0:
        raise DomainError("sum_log_terms requires a non-empty sequence")
    m = float(np.max(a))
    if m == -np.inf:
        return -np.inf
    rest = np.exp(a - m)
    # exclude the max entry itself via sum - 1 to keep result >= m exactly
    return m + math.log1p(float(np.sum(rest)) - 1.0)


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
