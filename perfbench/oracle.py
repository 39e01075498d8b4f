"""Independent numpy checks for the simulate workloads.

Everything here works from an edge array and a quality array alone.  It
does not use the program's CSR adjacency or its report code.  That way a
change to the program's CSR build or report cannot change the answer it
is checked against.
"""

from __future__ import annotations

import numpy as np


def neighbor_mean_median(n: int, edges: np.ndarray, values: np.ndarray):
    """Per-node mean and lower median of the neighbours' ``values``.

    Both directions of every edge are listed, then sorted by
    (owner, value).  The lower median of a node with d neighbours is the
    entry at offset (d - 1) // 2 of its sorted run.  Nodes without
    neighbours get NaN for both.
    """
    owner = np.concatenate([edges[:, 0], edges[:, 1]])
    other = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.asarray(values)[other].astype(float)
    deg = np.bincount(owner, minlength=n)
    sums = np.bincount(owner, weights=vals, minlength=n)
    order = np.lexsort((vals, owner))
    start = np.concatenate(([0], np.cumsum(deg)[:-1]))
    has = deg > 0
    mean = np.full(n, np.nan)
    median = np.full(n, np.nan)
    mean[has] = sums[has] / deg[has]
    median[has] = vals[order][start[has] + (deg[has] - 1) // 2]
    return mean, median


def paradox_summary(n: int, edges: np.ndarray, qualities: np.ndarray) -> dict:
    """The four paradox fractions and the isolated count.

    A node counts when its own value is strictly below its neighbours'
    mean (median).  Fractions are over nodes with at least one neighbour.
    """
    deg = np.bincount(edges.ravel(), minlength=n)
    qual = np.asarray(qualities)
    d_mean, d_med = neighbor_mean_median(n, edges, deg)
    q_mean, q_med = neighbor_mean_median(n, edges, qual)
    active = deg > 0
    denom = max(int(active.sum()), 1)

    def frac(own, nbr):
        # nbr is NaN on isolated nodes, and NaN compares False
        return int(np.sum(own < nbr)) / denom

    return {
        "isolated": int(np.sum(~active)),
        "frac_degree_mean": frac(deg, d_mean),
        "frac_degree_median": frac(deg, d_med),
        "frac_quality_mean": frac(qual, q_mean),
        "frac_quality_median": frac(qual, q_med),
    }


def structure_errors(n: int, edges: np.ndarray, indptr: np.ndarray) -> list[str]:
    """Degree-sum law, self-loops and duplicate edges, from the edge array."""
    errors = []
    if int(np.diff(indptr).sum()) != 2 * len(edges):
        errors.append("degree sum != 2|E|")
    if not np.array_equal(np.diff(indptr), np.bincount(edges.ravel(), minlength=n)):
        errors.append("CSR degrees differ from edge-list degrees")
    if np.any(edges[:, 0] == edges[:, 1]):
        errors.append("self-loop present")
    key = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
    if np.unique(key).size != len(edges):
        errors.append("duplicate edge present")
    return errors


def arrival_errors(n: int, beta: int, edges: np.ndarray) -> list[str]:
    """Each arrival after the seed clique links to ``beta`` earlier nodes."""
    seed = beta + 1
    m0 = seed * (seed - 1) // 2
    grown = edges[m0:]
    if len(grown) != beta * (n - seed):
        return [f"{len(grown)} arrival edges, expected {beta * (n - seed)}"]
    errors = []
    if not np.array_equal(grown[:, 0], np.repeat(np.arange(seed, n), beta)):
        errors.append("arrival edges not grouped as beta per arrival in birth order")
    if np.any(grown[:, 1] >= grown[:, 0]):
        errors.append("an arrival links to a node born after it")
    return errors


def joint_histogram(n: int, edges: np.ndarray, qualities: np.ndarray) -> dict:
    """Fraction of nodes at each (degree, quality)."""
    deg = np.bincount(edges.ravel(), minlength=n)
    pairs, counts = np.unique(
        np.stack([deg, np.asarray(qualities)], axis=1), axis=0, return_counts=True
    )
    return {(int(k), int(t)): c / n for (k, t), c in zip(pairs, counts)}


def tv_low_degree(hist: dict, probs: np.ndarray, beta: int, k_top: int = 20) -> float:
    """Total variation over degrees beta..k_top between a histogram and P(k, theta)."""
    tv = 0.0
    for k in range(beta, k_top + 1):
        for t in range(probs.shape[1]):
            tv += 0.5 * abs(hist.get((k, t), 0.0) - probs[k - beta, t])
    return tv
