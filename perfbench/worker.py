"""One workload in a fresh process: warm-up, the timed loop, the checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --tmp DIR \
        [--spans FILE]

Prints one JSON object as its last stdout line.  With ``--spans`` the
program's layers are wrapped after the warm-up, the spans are written to
FILE, and a few operations are re-run untraced to measure the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time

import common

# stop starting operations after this long even if min_ops is not reached
HARD_STOP_S = 120.0


class PeakRss:
    """Peak resident memory of each operation.

    The kernel's high-water mark of the process (VmHWM) is reset before an
    operation and read after it.  Nothing samples during the operation: a
    sampling thread would take the GIL from a pure-Python operation every
    few milliseconds, which slowed montecarlo replicas by about a fifth on
    a 2-CPU virtual machine and tied their time to when the other CPU was
    free.  The median over operations is reported, so one operation that
    needs far more memory than the rest (a sweep cell that reruns its
    march at doubled resolution) does not decide the run.  Where the mark cannot be reset,
    every operation reads the peak of the process so far.
    """

    def __init__(self):
        self.peaks: list[float] = []

    @staticmethod
    def _reset() -> None:
        try:
            # 5: reset the peak resident set size to the current one
            with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
                fh.write("5")
        except OSError:
            pass

    @staticmethod
    def _peak_mb() -> float:
        try:
            with open("/proc/self/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def begin(self) -> None:
        self._reset()

    def end(self) -> None:
        self.peaks.append(self._peak_mb())


def timed_loop(wl, seconds, tracer=None, indices=None, rss=None):
    """Run operations until ``seconds`` have passed and min_ops are done.

    Returns per-operation (index, seconds, errors).  An exception from
    the program fails that operation and the loop goes on.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if indices is not None:
            if i >= len(indices):
                break
            idx = indices[i]
        else:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (elapsed >= seconds and i >= wl.min_ops):
                break
            idx = i
        if tracer is not None:
            tracer.op = idx
            tracer.enabled = True
        if rss is not None:
            rss.begin()
        t0 = time.perf_counter()
        try:
            out = wl.run(idx)
            err = None
        except Exception as exc:  # the program failed this operation
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if rss is not None:
            rss.end()
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                errors = wl.check(idx, out)
            except Exception as exc:  # malformed output
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            errors = [err] * wl.ops_per_call
        for e in errors[:3]:
            print(f"{wl.name} op {idx} FAILED: {e}", file=sys.stderr, flush=True)
        records.append((idx, dt, errors))
        i += 1
    return records


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    common.require_program()

    import numpy
    import scipy

    import gen
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, args.tmp)
    cls.warm_up(gen.warm_inputs(args.workload, args.seed, args.tmp))

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
    rss = PeakRss()
    records = timed_loop(wl, args.seconds, tracer, rss=rss)
    times = [dt for _, dt, _ in records]
    result = {
        "ops": len(records),
        "attempted": wl.ops_per_call * len(records),
        # a sweep command fails per grid point, anything else as a whole
        "failed": sum(min(len(errs), wl.ops_per_call) for _, _, errs in records),
        "times": times,
        "items_per_s": wl.items_per_s(times),
        "items_per_call": wl.items_per_call,
        "item": wl.item,
        "environment": {
            "nproc": common.NPROC,
            "sweep_threads": common.SWEEP_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        traced = wl.replayed(records)
        # 0 where the workload runs no sweep
        extra = {"measures.sweep.thread_speedup": (0.0, "ratio")}
        if args.workload == "sweep":
            # the last traced command again, untraced, at nproc threads and
            # at 1 thread
            last = traced[-1][0]
            t_n = timed_loop(wl, 0, indices=[last])[0][1]
            wl.threads = 1
            t_1 = timed_loop(wl, 0, indices=[last])[0][1]
            wl.threads = common.SWEEP_THREADS
            extra["measures.sweep.thread_speedup"] = (t_1 / t_n, "ratio")
            plain = t_n
        else:
            wl.reset()
            plain = sum(dt for _, dt, _ in timed_loop(wl, 0, indices=[i for i, _, _ in traced]))
        extra["trace.overhead_frac"] = (sum(dt for _, dt, _ in traced) / plain - 1.0, "ratio")
        ops = wl.ops_per_call * len(records)
        result["layers"] = tracing.layer_metrics(tracer, ops, extra)
        tracer.write(args.spans)
        result["spans"] = len(tracer.spans)
    result["peak_rss_mb"] = statistics.median(rss.peaks)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
