"""Re-measure the single-call stage timings that ROADMAP.md quotes.

    python3 perfbench/stages.py

Single thread, beta 2, exponential q 0.5.  Prints one JSON object:
build_joint_table at theta_max 4; critical_values at theta_max 4, 16
and 24, with the self-time shares of its layers at 24; grow_qpa at 2e5
nodes split into token loop, CSR build and quality sampling; and
empirical_report.  Repeated stages report the median of their runs.
"""

from __future__ import annotations

import json
import statistics
import time

import common


def main() -> None:
    common.require_program()
    from qpanet import analytic, measures, simulate
    from qpanet.analytic import ModelParams
    from qpanet.quality import make_exponential

    import tracing

    tracer = tracing.Tracer()
    tracer.install()

    def params(tm):
        return ModelParams(2, make_exponential(0.5, tm))

    def self_by_name():
        own = tracing.self_times(tracer.spans)
        out: dict = {}
        for s in tracer.spans:
            out[s.name] = out.get(s.name, 0.0) + own[s.sid]
        return out

    def timed(fn, *args):
        tracer.spans.clear()
        tracer.enabled = True
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        tracer.enabled = False
        return out, dt

    result: dict = {}
    joint_s = [timed(analytic.build_joint_table, params(4))[1] for _ in range(5)]
    result["build_joint_table_s"] = statistics.median(joint_s)
    result["build_joint_table_k_max"] = analytic.build_joint_table(params(4)).k_max

    for tm in (4, 16, 24):
        _, dt = timed(measures.critical_values, params(tm))
        result[f"critical_values_s.tm{tm}"] = dt
    shares = self_by_name()
    result["critical_values_tm24_self_share"] = {
        name: round(v / dt, 4) for name, v in sorted(shares.items(), key=lambda kv: -kv[1])
    }

    grows, loops, csrs, samples, reports = [], [], [], [], []
    for seed in range(3):
        net, dt = timed(simulate.grow_qpa, 200_000, params(4), seed)
        own = self_by_name()
        grows.append(dt)
        loops.append(own["simulate.grow"])
        csrs.append(own["simulate.csr"])
        samples.append(own["quality.sample_quality"])
        reports.append(timed(simulate.empirical_report, net)[1])
    result["grow_qpa_2e5_s"] = statistics.median(grows)
    result["grow_qpa_2e5_token_loop_s"] = statistics.median(loops)
    result["grow_qpa_2e5_csr_s"] = statistics.median(csrs)
    result["grow_qpa_2e5_sample_quality_s"] = statistics.median(samples)
    result["empirical_report_2e5_s"] = statistics.median(reports)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
