"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads gh-sweep,lemma-trials --seeds 1-10 \
        --seconds 30 [--trace 1] [--out results.json]

Spread is the interquartile range of the per-run values (as
``statistics.quantiles(values, n=4)`` gives it) over their median. Metrics
with a bound in BENCHMARK.json are flagged when the spread exceeds a third of
it. Runs are sequential, each in its own process.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its result line, plus its first line as "detail"."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "detail": json.loads(lines[0])}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, steady = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            started = time.perf_counter()
            result = run_once(workload, seed, seconds, args.trace)
            elapsed = time.perf_counter() - started
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            print(f"{workload} seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag, steady = "  <-- above a third of the bound", False
            print(f"  {workload:15s} {name:26s} median {med:.6g}  spread {spread:.3f}"
                  f"{'  bound ' + str(bounds[name]) if name in bounds else ''}{flag}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": seconds, "trace": args.trace,
                                              "workloads": report}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
