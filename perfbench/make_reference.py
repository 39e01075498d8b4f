"""Regenerate the sweep reference table checked by the ``sweep`` workload.

Run from the repository root, on the commit whose numbers are the
reference:

    python3 perfbench/make_reference.py

It runs ``qpanet sweep`` once per acceptance-grid decay factor ``q``
(the test suite's SWEEP_QS), over beta {2, 8} x theta_max {4, 16, 24}
at 2 threads, and writes the rows, in grid order under one header, to
``perfbench/sweep_reference.csv``.  Rows carry the integer criticals and
the 6-decimal fractions exactly as the CLI prints them.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import common

SWEEP_QS = [round(0.1 * i, 10) for i in range(1, 21)]


def main() -> int:
    common.require_program()
    from qpanet import cli

    header = None
    rows = []
    with tempfile.TemporaryDirectory(dir=common.work_dir()) as tmp:
        out = os.path.join(tmp, "rows.csv")
        for q in SWEEP_QS:
            t0 = time.perf_counter()
            code = cli.main(common.sweep_argv(q, common.SWEEP_BETAS, common.SWEEP_THETA_MAXES, 2, out))
            if code != 0:
                print(f"sweep at q={q} exited {code}", file=sys.stderr)
                return 1
            with open(out, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            header = lines[0]
            rows.extend(lines[1:])
            print(f"q={q:g}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    with open(common.REFERENCE_CSV, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + rows) + "\n")
    print(f"wrote {len(rows)} rows to {common.REFERENCE_CSV}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
