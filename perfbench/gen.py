"""Seeded inputs for the three workloads.

Only numpy and the standard library are used here; nothing from the
program under test.  The same seed gives the same inputs.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

QUERY_BLOCK = (
    # (kind, queries per block of 60)
    ("nn_probability", 24),
    ("neighbor_degree_dist", 24),
    ("write_nn_table", 9),
    ("neighbor_quality_dist", 3),
)
# (beta, theta_max) of the six models; the seed draws their decay factors
QUERY_MODELS = ((2, 4), (3, 5), (4, 6), (5, 6), (6, 7), (8, 8))


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator for each (seed, stream name)."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def sweep_cells(seed: int, qs: list[float], betas: tuple) -> list[tuple[float, int]]:
    """(q, beta) cells in rounds of four: one q from each quarter of the sorted q list.

    Within a round the quarters come in a seeded order and the betas are a
    seeded arrangement of each beta equally often; q is drawn without
    replacement inside its quarter.  So every round spans the q range and
    the betas alike, and a run's cost does not hinge on the seed drawing
    only cheap or only costly cells.
    """
    rng = rng_for(seed, "sweep")
    qs = sorted(qs)
    quarters = [list(rng.permutation(part)) for part in np.array_split(qs, 4)]
    per_round = list(betas) * (4 // len(betas))
    cells = []
    for r in range(min(len(part) for part in quarters)):
        for quarter, beta in zip(rng.permutation(4), rng.permutation(per_round)):
            cells.append((float(quarters[quarter][r]), int(beta)))
    return cells


def query_params(seed: int) -> list[tuple[int, float, int]]:
    """Six (beta, q, theta_max) models; more than the program's 4-entry joint cache."""
    rng = rng_for(seed, "queries")
    qs = np.round(rng.uniform(0.3, 1.7, size=len(QUERY_MODELS)), 3)
    return [(b, float(q), tm) for (b, tm), q in zip(QUERY_MODELS, qs)]


def queries(seed: int, count: int) -> list[dict]:
    """``count`` queries in shuffled blocks of 60.

    Each block holds every kind in its share, and each kind's queries go
    to the six models in turn.  Degrees run from beta to 4x the mean
    degree (2 * beta): a model's successive queries of one kind take them
    from successive quarters of that range.  Qualities span the support.
    So blocks differ in their draws but not in their mix of work.
    """
    rng = rng_for(seed, "queries-draw")
    params = query_params(seed)
    out: list[dict] = []
    while len(out) < count:
        block = []
        for kind, share in QUERY_BLOCK:
            models = np.resize(rng.permutation(len(params)), share)
            quarter = rng.integers(0, 4, size=len(params))
            for p in models:
                beta, _, tm = params[p]
                span = 7 * beta + 1
                k = beta + int(span * (quarter[p] + rng.random()) / 4)
                quarter[p] = (quarter[p] + 1) % 4
                block.append(
                    {
                        "kind": kind,
                        "param": int(p),
                        "k": k,
                        "theta": int(rng.integers(0, tm + 1)),
                        "ell": int(rng.integers(beta, 8 * beta + 1)),
                        "phi": int(rng.integers(0, tm + 1)),
                    }
                )
        out += [block[i] for i in rng.permutation(len(block))]
    return out[:count]


def replica_seeds(seed: int, count: int) -> list[int]:
    rng = rng_for(seed, "montecarlo")
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def warm_inputs(workload: str, seed: int, tmp: str) -> dict:
    """Arguments of the workload's warm-up call: small, and not among its timed inputs."""
    if workload == "sweep":
        return {"q": 0.5, "out": os.path.join(tmp, "warm.csv")}
    if workload == "queries":
        return {"beta": 2, "q": 1.0, "theta_max": 2}
    return {"n": 2000, "seed": seed}
