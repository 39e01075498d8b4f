"""The three workloads: inputs, warm-up, the timed operation and its checks.

Every workload is a closed loop with one client: operation i+1 starts
when operation i has finished.  ``run`` is the timed call into the
program.  ``check`` runs afterwards, untimed, and returns a list of
problems found in that operation's output.
"""

from __future__ import annotations

import io
import math
import os
import statistics
import sys

import numpy as np

import common
import gen
import oracle

from qpanet import analytic, cli, simulate
from qpanet.analytic import ModelParams
from qpanet.quality import make_exponential

# |sum of a neighbour law + its tail - 1|, as in the test suite
NORMALIZATION_TOL = 1e-6
# k P(k,theta) P(ell,phi | k,theta) = ell P(ell,phi) P(k,theta | ell,phi):
# both sides count the edges between the two classes
SYMMETRY_RTOL = 1e-10
# march against the term-by-term reference, as in the test suite
MARCH_RTOL = 1e-12
# the table prints 13 significant digits
PRINT_RTOL = 5e-13
# the reference sums log-gamma terms of size up to lgamma(k + ell + ...),
# so its own relative error grows with that magnitude
REFERENCE_ULPS = 8 * sys.float_info.epsilon
# criterion 04 of the acceptance suite
MC_TV_BOUND = 0.02
MC_NODES = 200_000
MC_PARAMS = (2, 0.5, 4)  # beta, exponential q, theta_max


class Workload:
    name = ""
    item = ""  # what items_per_s counts
    items_per_call = 1  # points, queries or nodes one call completes
    ops_per_call = 1  # operations one call counts for in failures and per-layer metrics
    min_ops = 3
    replay_ops = 1  # operations re-run untraced to measure tracing overhead

    def items_per_s(self, times: list[float]) -> float:
        """Default: items of all calls over their total time.

        On a shared host the same call can take twice as long from one
        second to the next; the whole run's total smooths that better
        than the median of a few calls.
        """
        return self.items_per_call * len(times) / sum(times)

    def replayed(self, records: list) -> list:
        """Traced operations re-run untraced to measure the tracing overhead.

        The last ones: the first operations of a process run colder.
        """
        return records[-self.replay_ops :]

    def reset(self) -> None:
        """Restore the state the timed loop started from (before a replay)."""


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def _read_reference() -> dict:
    with open(common.REFERENCE_CSV, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows: dict = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows.setdefault((float(cells[1]), int(cells[2])), []).append(line)
    return rows


class Sweep(Workload):
    """``qpanet sweep`` in-process, one (q, beta) x theta_max {4, 16, 24} per command.

    A command's three grid points share the thread pool.  Cells come from
    the reference table in the seeded rounds of ``gen.sweep_cells``.
    """

    name = "sweep"
    item = "points"
    items_per_call = ops_per_call = len(common.SWEEP_THETA_MAXES)
    min_ops = 4  # one round of gen.sweep_cells

    def __init__(self, seed: int, tmp: str):
        self.reference = _read_reference()
        qs = sorted({q for q, _ in self.reference})
        self.cells = gen.sweep_cells(seed, qs, common.SWEEP_BETAS)
        self.out = os.path.join(tmp, "sweep.csv")
        self.threads = common.SWEEP_THREADS

    @staticmethod
    def warm_up(args: dict) -> None:
        argv = common.sweep_argv(args["q"], (2,), (4,), common.SWEEP_THREADS, args["out"])
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up sweep failed")

    def items_per_s(self, times: list[float]) -> float:
        """Points of one command over the median command time: the two cells
        whose near-tie reruns take 4-5x longer would dominate a total."""
        return self.items_per_call / statistics.median(times)

    def cell(self, i: int):
        return self.cells[i % len(self.cells)]

    def run(self, i: int):
        q, beta = self.cell(i)
        argv = common.sweep_argv(q, (beta,), common.SWEEP_THETA_MAXES, self.threads, self.out)
        return cli.main(argv)

    def check(self, i: int, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"] * self.ops_per_call
        with open(self.out, encoding="utf-8") as fh:
            got = fh.read().splitlines()[1:]
        want = self.reference[self.cell(i)]
        if len(got) != len(want):
            return [f"{len(got)} rows, expected {len(want)}"] * self.ops_per_call
        return [f"row differs: {g!r} != {w!r}" for g, w in zip(got, want) if g != w]


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------


def _normalization_errors(dist) -> list[str]:
    total = float(dist.probs.sum()) + float(dist.tail_mass)
    errors = []
    if abs(total - 1.0) > NORMALIZATION_TOL:
        errors.append(f"{dist.kind}: sum + tail = {total!r}")
    if np.any(dist.probs < 0.0):
        errors.append(f"{dist.kind}: negative probability")
    return errors


class Queries(Workload):
    """Single-point calls to the public neighbour-law API.

    40% nn_probability, 40% neighbor_degree_dist, 15% write_nn_table and
    5% neighbor_quality_dist, over the six models of ``gen.query_params``.
    """

    name = "queries"
    item = "queries"
    min_ops = 100
    replay_ops = 60

    def __init__(self, seed: int, tmp: str):
        self.params = [
            ModelParams(beta, make_exponential(q, tm)) for beta, q, tm in gen.query_params(seed)
        ]
        self.queries = gen.queries(seed, 5000)
        self.check_rng = gen.rng_for(seed, "queries-check")

    @staticmethod
    def warm_up(args: dict) -> None:
        p = ModelParams(args["beta"], make_exponential(args["q"], args["theta_max"]))
        analytic.nn_probability(p, 3, 0, 4, 1)
        analytic.neighbor_degree_dist(p, 3)
        analytic.neighbor_quality_dist(p, 0)
        analytic.write_nn_table(p, 3, 0, io.StringIO(), l_max=64)

    def run(self, i: int):
        qr = self.queries[i]
        p = self.params[qr["param"]]
        kind = qr["kind"]
        if kind == "nn_probability":
            return analytic.nn_probability(p, qr["k"], qr["theta"], qr["ell"], qr["phi"])
        if kind == "neighbor_degree_dist":
            return analytic.neighbor_degree_dist(p, qr["k"])
        if kind == "neighbor_quality_dist":
            return analytic.neighbor_quality_dist(p, qr["theta"])
        buf = io.StringIO()
        analytic.write_nn_table(p, qr["k"], qr["theta"], buf)
        return buf.getvalue()

    def replayed(self, records: list) -> list:
        # the first ones, whose joint-cache state reset() reproduces
        return records[: self.replay_ops]

    def reset(self) -> None:
        cache = getattr(analytic, "_JOINT_CACHE", None)
        if cache is not None:
            cache.clear()
        clear = getattr(getattr(analytic, "_cached_joint", None), "cache_clear", None)
        if clear is not None:
            clear()
        self.warm_up(gen.warm_inputs(self.name, 0, ""))

    def check(self, i: int, out) -> list[str]:
        qr = self.queries[i]
        p = self.params[qr["param"]]
        kind = qr["kind"]
        if kind == "nn_probability":
            return self._check_symmetry(p, qr, out)
        if kind == "write_nn_table":
            return self._check_table(p, qr, out)
        return _normalization_errors(out)

    def _check_symmetry(self, p, qr, value) -> list[str]:
        k, theta, ell, phi = qr["k"], qr["theta"], qr["ell"], qr["phi"]
        lhs = k * analytic.joint_probability(p, k, theta) * value
        back = analytic.nn_probability(p, ell, phi, k, theta)
        rhs = ell * analytic.joint_probability(p, ell, phi) * back
        if not math.isclose(lhs, rhs, rel_tol=SYMMETRY_RTOL, abs_tol=0.0):
            return [f"nn_probability edge symmetry: {lhs!r} != {rhs!r}"]
        return []

    def _check_table(self, p, qr, text: str) -> list[str]:
        lines = text.splitlines()
        head = [f"# beta={p.beta}", f"# k={qr['k']}", f"# theta={qr['theta']}"]
        if lines[:3] != head or lines[4] != "ell,phi,prob":
            return ["write_nn_table: unexpected header"]
        tail = float(lines[3].split("=", 1)[1])
        rows = [ln.split(",") for ln in lines[5:]]
        total = sum(float(r[2]) for r in rows) + tail
        errors = []
        if abs(total - 1.0) > NORMALIZATION_TOL:
            errors.append(f"write_nn_table: sum + tail = {total!r}")
        g = p.mu_over_beta
        for j in self.check_rng.choice(len(rows), size=3, replace=False):
            ell, phi, got = int(rows[j][0]), int(rows[j][1]), float(rows[j][2])
            want = analytic.nn_probability(p, qr["k"], qr["theta"], ell, phi)
            magnitude = math.lgamma(qr["k"] + qr["theta"] + 3 + g + ell + phi)
            rtol = MARCH_RTOL + PRINT_RTOL + REFERENCE_ULPS * magnitude
            if not math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
                errors.append(f"write_nn_table ell={ell} phi={phi}: {got!r} != {want!r}")
        return errors


# --------------------------------------------------------------------------
# montecarlo
# --------------------------------------------------------------------------


def _report_errors(rep, expected: dict) -> list[str]:
    errors = []
    for key, want in expected.items():
        got = getattr(rep, key)
        if not math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12):
            errors.append(f"{key}: program {got!r}, oracle {want!r}")
    return errors


class MonteCarlo(Workload):
    """Replicas of grow_qpa + empirical_report at 2e5 nodes (criterion 04's model)."""

    name = "montecarlo"
    item = "nodes"
    items_per_call = MC_NODES
    replay_ops = 2

    def __init__(self, seed: int, tmp: str):
        beta, q, tm = MC_PARAMS
        self.params = ModelParams(beta, make_exponential(q, tm))
        self.seeds = gen.replica_seeds(seed, 1000)
        self.table = analytic.build_joint_table(self.params).probs

    @staticmethod
    def warm_up(args: dict) -> None:
        beta, q, tm = MC_PARAMS
        p = ModelParams(beta, make_exponential(q, tm))
        simulate.empirical_report(simulate.grow_qpa(args["n"], p, args["seed"]))

    def run(self, i: int):
        net = simulate.grow_qpa(MC_NODES, self.params, self.seeds[i])
        return net, simulate.empirical_report(net)

    def check(self, i: int, out) -> list[str]:
        net, rep = out
        n, beta, edges = MC_NODES, self.params.beta, net.edges
        errors = oracle.structure_errors(n, edges, net.adj_indptr)
        errors += oracle.arrival_errors(n, beta, edges)
        errors += _report_errors(rep, oracle.paradox_summary(n, edges, net.qualities))
        hist = oracle.joint_histogram(n, edges, net.qualities)
        if rep.histogram.keys() != hist.keys() or any(
            abs(rep.histogram[key] - v) > 1e-12 for key, v in hist.items()
        ):
            errors.append("joint histogram differs from the oracle's")
        tv = oracle.tv_low_degree(rep.histogram, self.table, beta)
        if not tv < MC_TV_BOUND:
            errors.append(f"TV(k<=20) {tv:.4f} against build_joint_table")
        return errors


WORKLOADS = {w.name: w for w in (Sweep, Queries, MonteCarlo)}
