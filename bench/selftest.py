"""Benchmark self-test: two traced runs at one seed must agree exactly on work.

    python3 bench/selftest.py [--seed 11] [--workloads a,b]

Work counters and quality numbers (every per-layer metric with unit "count",
plus gh_value_sum and fillrad_err) must repeat bit for bit, and every output
check must pass. Exits 1 otherwise.
"""

import argparse
import sys

from spread import run_once
from workloads import WORKLOADS

EXACT = ("gh_value_sum", "fillrad_err")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        first, second = (run_once(workload, args.seed, 1, 1) for _ in range(2))
        exact = {name for name, m in first["metrics"].items()
                 if m["unit"] == "count" or name in EXACT}
        differ = sorted(n for n in exact
                        if first["metrics"][n]["value"] != second["metrics"][n]["value"])
        good = first["correct"] and second["correct"] and not differ
        ok = ok and good
        print(f"{workload:15s} {'ok' if good else 'FAIL'}: {len(exact)} exact metrics"
              + (f", differ: {differ}" if differ else "")
              + ("" if first["correct"] and second["correct"] else ", output check failed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
