"""ghbound benchmark: drive the CLI in-process on one named workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one process, one thread, the
workload's CLI invocations run one after another as a "pass", passes repeat
until the time is used up. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics. The last stdout line is the
result JSON; the lines before it are the environment and a readable summary.
See bench/README.md for the workloads and metrics.
"""

import os

# Pin numpy's thread pools before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import signal  # noqa: E402
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Checked, Outcome  # noqa: E402

SETUP_REPEATS = 7
# Timings are reported in reference seconds; see Yardstick.
REF_S = 0.04
REF_INTERVAL_S = 0.5
REF_MIN_S = 0.1
PREPARE_TIMEOUT_S = 60
HELD_OUT_SEED = 7919  # kept out of tuning; later changes confirm claims on it

# per-layer metric -> span group whose self time it is
LAYER_TIMES = {
    "cli.self_s": "cli.main",
    "serialize.read_s": "serialize.read",
    "serialize.write_s": "serialize.write",
    "serialize.convert_s": "serialize.convert",
    "sampling.s": "sampling",
    "manifolds.metric_s": "manifolds.metric",
    "manifolds.cross_s": "manifolds.cross",
    "complexes.vr_s": "complexes.vr",
    "complexes.cech_s": "complexes.cech",
    "complexes.maps_s": "complexes.maps",
    "complexes.check_s": "complexes.check",
    "homology.betti_s": "homology.betti",
    "homology.survives_s": "homology.survives",
    "gh.search_s": "gh.search",
    "gh.distortion_s": "gh.distortion",
    "bounds.s": "bounds",
}
# per-layer metric -> tracer counter
LAYER_COUNTS = {
    "serialize.bytes": "serialize.bytes",
    "sampling.points": "sampling.points",
    "manifolds.metric_points": "manifolds.metric_points",
    "complexes.vr_calls": "complexes.vr.calls",
    "complexes.simplices": "complexes.simplices",
    "homology.betti_calls": "homology.betti.calls",
    "homology.survives_calls": "homology.survives.calls",
    "homology.columns": "homology.columns",
    "gh.calls": "gh.search.calls",
    "gh.nodes": "gh.nodes",
    "bounds.calls": "bounds.calls",
}
QUALITY_UNITS = {"gh_unproven": "count", "gh_value_sum": "length", "fillrad_err": "length"}


def environment(seed: int) -> dict:
    def git_rev():
        if not (ROOT / ".git").exists():
            return None
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        return done.stdout.strip() or None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "git_rev": git_rev(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "held_out_seed": HELD_OUT_SEED}


def _reference() -> float:
    """Time one fixed computation: big-int XORs and tuple keys, then numpy."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(1, 30000):
        acc ^= (i * 2654435761) << (i & 255)
        table[(i & 255, (i >> 8) & 3)] = acc.bit_length()
    a = np.linspace(0.0, 1.0, 40)
    for _ in range(1500):
        np.abs(a[:8, None] - a[None, :8]).max(axis=1)
    for _ in range(35):  # small enough (0.5 MB) to stay out of peak_rss_mb
        float(np.abs(a[:, None, None] - a[None, :, None] + a[None, None, :]).min())
    return time.perf_counter() - t0


class Yardstick:
    """Machine speed, sampled with a fixed computation.

    This box's speed changes by up to 2x within seconds and over minutes,
    with its neighbours' load. A time is reported in reference seconds:
    measured seconds times REF_S over the median time of the reference
    computation sampled while it ran, so drift that slows the program and
    the reference alike cancels. REF_S is a fixed scale, near the reference's
    time on the box the baseline was taken on.

    Inside ``during`` a timer signal takes a sample every REF_INTERVAL_S; the
    main thread runs it between two bytecodes of the program, and
    ``paused_between`` gives the time those samples took, to be subtracted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []

    def take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(_reference())
        self.intervals.append((t0, time.perf_counter()))

    def sample(self, seconds: float) -> None:
        """Sample back to back for at least `seconds` (and REF_MIN_S)."""
        end = time.perf_counter() + max(seconds, REF_MIN_S)
        self.take()
        while time.perf_counter() < end:
            self.take()

    @contextmanager
    def during(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def paused_between(self, t0: float, t1: float) -> float:
        return sum(e - s for s, e in self.intervals if t0 <= s and e <= t1)

    def scale(self, seconds: float, samples: list[float] | None = None) -> float:
        return seconds * REF_S / statistics.median(samples or self.samples)


def set_up(name: str, seed: int, workdir: Path,
           yardstick: Yardstick) -> tuple[list[float], list[list[str]]]:
    """Run SETUP_REPEATS fresh set-ups; return their times and the argvs."""
    times, files = [], []
    argvs = None
    for k in range(SETUP_REPEATS):
        yardstick.sample(REF_MIN_S)
        target = workdir / f"setup{k}"
        target.mkdir(parents=True)
        done = subprocess.run([sys.executable, str(BENCH / "prepare.py"), name,
                               str(seed), str(target)],
                              capture_output=True, text=True, timeout=PREPARE_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(report["setup_s"])
        files.append({p.name: p.read_bytes().replace(str(target).encode(), b"")
                      for p in sorted(target.iterdir())})
        argvs = argvs or report["argvs"]
    if any(f != files[0] for f in files):
        raise RuntimeError("set-up is not deterministic: input files differ")
    yardstick.sample(REF_MIN_S)
    return times, argvs


def run_pass(cli, argvs: list[list[str]],
             yardstick: Yardstick | None = None) -> tuple[float, float, list[Outcome]]:
    """Run every invocation once; return plain and reference seconds, and outputs.

    The time covers the CLI calls only. With a yardstick, it is sampled
    during the pass and once after it, and the samples' time is left out;
    without one, both times are plain seconds.
    """
    outs = []
    gc.collect()
    first = len(yardstick.samples) if yardstick else 0
    with yardstick.during() if yardstick else nullcontext():
        t0 = time.perf_counter()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception:  # a crash is a failed invocation, not a dead run
                    code = -1
                    traceback.print_exc(file=err)
            outs.append(Outcome(argv, code, out.getvalue(), err.getvalue()))
        t1 = time.perf_counter()
    if yardstick is None:
        return t1 - t0, t1 - t0, outs
    plain = t1 - t0 - yardstick.paused_between(t0, t1)
    yardstick.take()
    return plain, yardstick.scale(plain, yardstick.samples[first:]), outs


class Ledger:
    """Counts invocations and failures; checks the first pass, compares the rest."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.reference: list[Outcome] | None = None
        self.ok: list[bool] = []
        self.quality: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, outs: list[Outcome]) -> None:
        if self.reference is None:
            try:
                checked = self.workload.check(outs)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                # output in an unexpected shape fails every invocation of the pass
                checked = Checked([False] * len(outs), {})
                self.messages.append(f"check could not read the output: {exc!r}")
            self.reference, self.ok, self.quality = outs, checked.ok, checked.quality
            good = checked.ok
        else:
            good = [ok and (o.code, o.stdout) == (r.code, r.stdout)
                    for ok, o, r in zip(self.ok, outs, self.reference)]
        self.attempted += len(outs)
        for o, ok in zip(outs, good):
            if not ok:
                self.failed += 1
                self.messages.append(f"failed: {' '.join(o.argv)} (exit {o.code}) "
                                     f"{o.stderr.strip()[-300:]}")


def measure(cli, argvs, budget_s: float, ledger: Ledger, yardstick: Yardstick,
            tracer: Tracer | None = None) -> tuple[list[float], list[float], list[float]]:
    """Closed loop: start another round while it is expected to end within budget.

    Without a tracer a round is one pass, timed against the yardstick sampled
    during it. With a tracer it is one untraced and one traced pass, so that
    drift hits both alike, and the yardstick is sampled after the round only,
    so that spans hold program time alone. Returns the untraced passes' plain
    and reference seconds and the traced passes' plain seconds.
    """
    plain, scaled, traced = [], [], []
    start = time.perf_counter()
    while True:
        dt, ref_dt, outs = run_pass(cli, argvs, None if tracer else yardstick)
        plain.append(dt)
        scaled.append(ref_dt)
        ledger.record(outs)
        if tracer is not None:
            tracer.install()
            try:
                dt, _, outs = run_pass(cli, argvs)
            finally:
                tracer.uninstall()
            traced.append(dt)
            ledger.record(outs)
            yardstick.sample(REF_MIN_S)
        expected = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - start + expected > budget_s:
            return plain, scaled, traced


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer(tracer: Tracer, setup_sampling_s: float, untraced_times: list[float],
              traced_times: list[float], yardstick: Yardstick,
              quality: dict[str, float]) -> dict:
    """Per-pass self times and counters of the traced passes.

    Times are plain seconds, so they add up to trace.wall_s.
    """
    passes = len(traced_times)
    self_s = tracer.self_times()
    out = {name: metric(self_s.get(group, 0.0) / passes, "s")
           for name, group in LAYER_TIMES.items()}
    out.update({name: metric(tracer.counters.get(key, 0.0) / passes, "count")
                for name, key in LAYER_COUNTS.items()})
    nodes, calls = tracer.counters.get("gh.nodes", 0.0), tracer.counters.get("gh.search.calls", 0.0)
    search_s = self_s.get("gh.search", 0.0)
    out["gh.us_per_node"] = metric(1e6 * search_s / nodes if nodes else 0.0, "us")
    out["gh.proven_frac"] = metric(tracer.counters.get("gh.proven", 0.0) / calls
                                   if calls else 0.0, "ratio")
    out["manifolds.metric_peak_mb"] = metric(tracer.peaks.get("manifolds.metric", 0.0), "MiB")
    out["sampling.setup_s"] = metric(setup_sampling_s, "s")
    traced_wall = sum(traced_times) / passes
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.ref_s"] = metric(statistics.median(yardstick.samples), "s")
    out["trace_overhead_frac"] = metric(
        statistics.median(traced_times) / statistics.median(untraced_times) - 1.0, "ratio")
    for name, unit in QUALITY_UNITS.items():
        out[name] = metric(float(quality.get(name, 0.0)), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    from ghbound import cli  # fails here, before any result, without the sources

    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"ghbound was imported from {cli.__file__}, not from {ROOT / 'src'}")

    # Input paths inside configs are relative to the checkout, so byte counts
    # do not depend on where the checkout lives.
    os.chdir(ROOT)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(os.path.relpath(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"), ROOT))
    try:
        setup_stick, pass_stick = Yardstick(), Yardstick()
        setup_times, argvs = set_up(args.workload, args.seed, workdir, setup_stick)
        ledger = Ledger(workload)
        if not args.trace:
            times, scaled, _ = measure(cli, argvs, args.seconds, ledger, pass_stick)
            passes = {"untraced": times, "reference": scaled}
            metrics = {
                "setup_s": metric(setup_stick.scale(statistics.median(setup_times)), "s"),
                "wall_s": metric(statistics.median(scaled), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                      / 1024.0, "MiB"),
                "passed_frac": metric(1.0 - ledger.failed / ledger.attempted, "ratio"),
            }
        else:
            tracer = Tracer()
            traced_dir = workdir / "traced"
            traced_dir.mkdir(parents=True)
            tracer.install()
            try:
                workload.prepare(str(traced_dir), args.seed)
            finally:
                tracer.uninstall()
            setup_sampling_s = tracer.self_times().get("sampling", 0.0)
            tracer.reset()
            times, _, traced = measure(cli, argvs, args.seconds, ledger, pass_stick, tracer)
            passes = {"untraced": times, "traced": traced}
            metrics = per_layer(tracer, setup_sampling_s, times, traced, pass_stick,
                                ledger.quality)
            tracer.dump(str(ROOT / ".bench_out"
                            / f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "setup_s": setup_times, "pass_s": passes,
                      "ref_s": {"setup": statistics.median(setup_stick.samples),
                                "passes": statistics.median(pass_stick.samples)},
                      "quality": ledger.quality}))
    for message in ledger.messages[:20]:
        print(message)
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:26s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:15s} plain seconds: set-up {statistics.median(setup_times):.6g}, "
          f"pass {statistics.median(times):.6g}; reference "
          f"{statistics.median(pass_stick.samples):.6g} s against REF_S {REF_S}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
