"""The qpanet benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Workloads: sweep, queries, montecarlo (see BENCHMARK.json and
perfbench/README.md); ``all`` runs the three in turn.  Each run measures
one workload in a fresh worker process with at most nproc compute
threads.  Defaults: seed 0, 20 seconds, no tracing.

With ``--trace 0`` it prints the end-to-end metrics: set-up time
(median over fresh interpreters), peak resident memory of the worker,
and the workload's throughput.  The workload-specific names
(points_per_s, queries_per_s, query_s_p50, query_s_p90, nodes_per_s,
failed_frac) and the median operation time are printed
above the result line.  With ``--trace 1`` it prints the per-layer metrics of a
traced run, its tracing overhead and the file its spans went to.

The last stdout line is the JSON result (for ``all``, with metric names
prefixed by the workload).  Exits 2, printing no result,
when the program's sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import common

WORKLOADS = ("sweep", "queries", "montecarlo")
SETUP_PROBES = 3
DEADLINE_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread each, so the sweep's nproc pool threads are the only
    # compute threads
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(script: str, args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        timeout=max(timeout, 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(name: str, warm: dict, deadline: float) -> float:
    """Median of SETUP_PROBES fresh interpreters; one unmeasured probe first
    so that byte-code compilation is not counted."""
    arg = [name, json.dumps(warm)]
    run_child("setup_probe.py", arg, deadline - time.monotonic())
    return statistics.median(
        float(run_child("setup_probe.py", arg, deadline - time.monotonic()))
        for _ in range(SETUP_PROBES)
    )


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", common.ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def report_lines(name: str, res: dict) -> list[tuple[str, float, str, str]]:
    """The workload-specific end-to-end metrics, as (name, value, unit, note)."""
    times = res["times"]
    n = len(times)
    lines = [
        ("failed_frac", res["failed"] / res["attempted"], "ratio",
         f"{res['failed']} of {res['attempted']} operations"),
    ]
    if name == "sweep":
        lines.append(("points_per_s", res["items_per_s"], "points/s",
                      f"3 points / median of {n} command times"))
    elif name == "queries":
        lines += [
            ("queries_per_s", res["items_per_s"], "queries/s", f"{n} queries"),
            ("query_s_p50", statistics.median(times), "s", f"n={n}"),
            ("query_s_p90", statistics.quantiles(times, n=10)[8], "s",
             f"n={n}, {n - int(0.9 * n)} samples above"),
        ]
    else:
        lines.append(("nodes_per_s", res["items_per_call"] / statistics.median(times),
                      "nodes/s", f"2e5 nodes / median of {n} replica times"))
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: print the workload's metric lines and return its result."""
    import gen

    deadline = time.monotonic() + DEADLINE_S
    work = common.work_dir()
    tmp = tempfile.mkdtemp(dir=work)
    try:
        worker_args = [
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--tmp", tmp,
        ]
        setup_s = None
        spans = None
        if trace:
            spans = os.path.join(work, f"spans-{name}-seed{seed}.json")
            worker_args += ["--spans", spans]
        else:
            setup_s = setup_seconds(name, gen.warm_inputs(name, seed, tmp), deadline)
        res = json.loads(run_child("worker.py", worker_args, deadline - time.monotonic()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        layers = res["layers"]
        for metric, m in layers.items():
            value = "absent" if m.get("absent") else repr(m["value"])
            print(f"{name} {metric} = {value} {m['unit']}")
        print(f"{name} tracing overhead = {layers['trace.overhead_frac']['value']:.4f}"
              f" (traced / untraced time - 1, same operations)")
        print(f"{name} spans: {res['spans']} written to {os.path.relpath(spans, common.ROOT)}")
        metrics = layers
    else:
        print(f"{name} setup_s = {setup_s!r} s (median of {SETUP_PROBES} fresh interpreters)")
        print(f"{name} peak_rss_mb = {res['peak_rss_mb']!r} MB")
        for metric, value, unit, note in report_lines(name, res):
            print(f"{name} {metric} = {value!r} {unit} ({note})")
        basis = "median command time" if name == "sweep" else "total operation time"
        print(f"{name} items_per_s = {res['items_per_s']!r} {res['item']}/s (over {basis})")
        print(f"{name} op_s_p50 = {statistics.median(res['times'])!r} s (n={res['ops']})")
        print(f"{name} op_times_s = {[round(t, 4) for t in res['times']]}")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "items_per_s": {"value": res["items_per_s"], "unit": "items/s"},
        }
    env = dict(res["environment"], seed=seed, commit=commit())
    print(f"{name} environment " + json.dumps(env, sort_keys=True))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    common.require_program()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
