"""Time ``import qpanet`` plus one workload's warm-up call, in this fresh interpreter.

    python3 perfbench/setup_probe.py NAME WARM_JSON

Prints the elapsed seconds.  Nothing heavy is imported before the clock
starts, so the time includes importing numpy and scipy through qpanet.
"""

import json
import sys
import time

import common


def main() -> None:
    name, warm = sys.argv[1], json.loads(sys.argv[2])
    common.require_program()
    t0 = time.perf_counter()
    import qpanet  # noqa: F401  (timed)

    import workloads

    workloads.WORKLOADS[name].warm_up(warm)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
