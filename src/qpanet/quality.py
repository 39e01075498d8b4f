"""Discrete node-quality distributions.

A quality is a non-negative integer attribute assigned to each node at
birth and fixed thereafter.  Two parametric families are provided — a
two-point Bernoulli distribution on {0, theta_max} and a truncated
geometric ("exponential") distribution with ratio q — plus arbitrary
custom weight vectors.  The median convention used throughout the
package is the smallest value whose CDF reaches 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GraphParseError

__all__ = [
    "QualityPmf",
    "make_bernoulli",
    "make_exponential",
    "make_family",
    "make_custom",
    "load_custom",
    "sample_quality",
]

_CDF_EPS = 1e-12


@dataclass(frozen=True)
class QualityPmf:
    """Probability mass function over integer qualities 0..theta_max.

    ``family`` is one of ``"bernoulli"``, ``"exponential"`` or
    ``"custom"``; ``x`` carries the family parameter (p or q) and is
    None for custom distributions.  ``mean`` and ``median`` are
    precomputed; the median is the smallest theta with CDF >= 1/2.
    """

    probs: np.ndarray
    theta_max: int
    family: str
    x: float | None
    mean: float = field(init=False)
    median: int = field(init=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size != self.theta_max + 1:
            raise DomainError(
                f"probs must have length theta_max + 1 = {self.theta_max + 1}"
            )
        if np.any(probs < 0.0) or not np.isfinite(probs).all():
            raise DomainError("probabilities must be finite and non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"probabilities must sum to 1, got {total}")
        probs = probs / total
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "mean", float(np.dot(np.arange(probs.size), probs)))
        cdf = np.cumsum(probs)
        object.__setattr__(
            self, "median", int(np.argmax(cdf >= 0.5 - _CDF_EPS))
        )

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @property
    def support(self) -> np.ndarray:
        """Qualities with strictly positive probability."""
        return np.flatnonzero(self.probs > 0.0)

    def key(self) -> tuple:
        """Hashable identity used for caching derived tables."""
        return (self.theta_max, self.probs.tobytes())


def make_bernoulli(p: float, theta_max: int) -> QualityPmf:
    """Two-point distribution: quality 0 with probability p, else theta_max.

    Raises
    ------
    DomainError
        If ``p`` is outside [0, 1] or ``theta_max < 1``.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"bernoulli parameter p must lie in [0, 1], got {p}")
    theta_max = _check_theta_max(theta_max)
    probs = np.zeros(theta_max + 1)
    probs[0] = p
    probs[theta_max] = 1.0 - p
    return QualityPmf(probs, theta_max, "bernoulli", float(p))


def make_exponential(q: float, theta_max: int) -> QualityPmf:
    """Truncated geometric distribution: P(theta) proportional to q**theta.

    Decreasing in theta for q < 1, uniform at q = 1, increasing for
    q > 1.

    Raises
    ------
    DomainError
        If ``q <= 0`` or ``theta_max < 1``.
    """
    if not (q > 0.0) or not np.isfinite(q):
        raise DomainError(f"exponential parameter q must be > 0, got {q}")
    theta_max = _check_theta_max(theta_max)
    weights = np.power(float(q), np.arange(theta_max + 1, dtype=float))
    probs = weights / weights.sum()
    return QualityPmf(probs, theta_max, "exponential", float(q))


def make_family(family: str, x: float, theta_max: int) -> QualityPmf:
    """The bernoulli (``x`` = p) or exponential (``x`` = q) PMF, by family name.

    Raises
    ------
    DomainError
        If ``family`` is neither, or as the family's constructor does.
    """
    if family == "bernoulli":
        return make_bernoulli(x, theta_max)
    if family == "exponential":
        return make_exponential(x, theta_max)
    raise DomainError(f"unknown quality family {family!r}")


def make_custom(weights) -> QualityPmf:
    """Distribution from an arbitrary non-negative weight vector.

    Weights are normalized internally; index i is quality i.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise DomainError("weights must be a non-empty 1-D sequence")
    if np.any(w < 0.0) or not np.isfinite(w).all():
        raise DomainError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0.0:
        raise DomainError("at least one weight must be positive")
    return QualityPmf(w / total, w.size - 1, "custom", None)


def load_custom(path) -> QualityPmf:
    """Read a custom PMF from a file of ``theta weight`` lines.

    Whitespace-separated, ``#`` comments allowed.  Thetas not listed get
    weight zero; weights are normalized on load.
    """
    entries: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError(
                    f"expected 'theta weight', got {raw.strip()!r}", line=lineno
                )
            try:
                theta = int(parts[0])
                weight = float(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"could not parse 'theta weight' from {raw.strip()!r}",
                    line=lineno,
                ) from None
            if theta < 0:
                raise GraphParseError(f"negative quality {theta}", line=lineno)
            if weight < 0:
                raise GraphParseError(f"negative weight {weight}", line=lineno)
            if theta in entries:
                raise GraphParseError(f"duplicate quality {theta}", line=lineno)
            entries[theta] = weight
    if not entries:
        raise GraphParseError("quality PMF file is empty")
    weights = np.zeros(max(entries) + 1)
    for theta, weight in entries.items():
        weights[theta] = weight
    return make_custom(weights)


def sample_quality(pmf: QualityPmf, rng: np.random.Generator, size=None):
    """Draw qualities by inverse-CDF lookup on a precomputed cumulative array.

    Deterministic given the generator state.  Returns a single int when
    ``size`` is None, else an int array.
    """
    cdf = np.cumsum(pmf.probs)
    cdf[-1] = 1.0
    if size is None:
        return int(np.searchsorted(cdf, rng.random(), side="right"))
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def _check_theta_max(theta_max) -> int:
    if int(theta_max) != theta_max or int(theta_max) < 1:
        raise DomainError(f"theta_max must be an integer >= 1, got {theta_max}")
    return int(theta_max)
