"""The benchmark's workloads: input generation, CLI invocations, output checks.

Each workload is a list of ``ghbound`` CLI invocations run one after another
(one "pass"), built from input files that ``prepare`` writes from the seed.
``check`` looks only at what the invocations printed (plus independent numpy
recomputation where a check needs ground truth), so it holds whatever
algorithm the program uses. ghbound is imported lazily, inside ``prepare``,
so that its import time can be measured.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-9
TARGET_FILLRAD = math.pi / 3  # filling radius of the unit-radius circle

# gh-sweep: the 18 pairs and node budget. The instances are one fixed draw of
# the CLI's seeded uniform sampler; the benchmark seed only moves them by a
# rigid motion of the circle (see prepare_gh_sweep).
GH_PAIRS = ([(n, n) for n in range(6, 13)] * 2
            + [(8, 12), (12, 8), (10, 11), (11, 10)])
GH_SAMPLER_SEED = 2
GH_NODE_BUDGET = 100_000

LEMMA_TRIALS = 1000

# Subset size -> (columns, rows) of the grid it is stratified on. Plain uniform
# draws change VR/Cech complex sizes by about 8% (standard deviation) from
# seed to seed; one uniform point per cell keeps that below 1%.
TORUS_GRIDS = {120: (12, 10), 180: (15, 12), 240: (16, 15), 300: (20, 15)}
TORUS_VR_SCALE = "0.12"
TORUS_CECH_SCALE = "0.08"

FILLRAD_CONFIG = {"manifold": {"kind": "circle"},
                  "sampler": {"kind": "equispaced"},
                  "count": 60,
                  "max_dim": 2,
                  "scale_grid": {"start": 0.15, "stop": 2.49, "steps": 118}}


@dataclass
class Outcome:
    """One CLI invocation: its argv, exit code and captured streams."""

    argv: list[str]
    code: int
    stdout: str
    stderr: str


@dataclass
class Checked:
    """Per-invocation pass/fail flags and the quality numbers read off outputs."""

    ok: list[bool]
    quality: dict[str, float]


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[str, int], list[list[str]]]
    check: Callable[[list[Outcome]], Checked]


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _json_out(o: Outcome):
    if o.code != 0:
        return None
    try:
        return json.loads(o.stdout)
    except ValueError:
        return None


# fillrad-circle -------------------------------------------------------------

def prepare_fillrad(workdir: str, seed: int) -> list[list[str]]:
    del seed  # the criterion-5 input is deterministic
    path = os.path.join(workdir, "fillrad.json")
    _write(path, FILLRAD_CONFIG)
    return [["fillrad-estimate", "--config", path]]


def check_fillrad(outs: list[Outcome]) -> Checked:
    payload = _json_out(outs[0])
    estimate = None if payload is None else payload.get("estimate")
    ok = (payload is not None and payload.get("censored") is False
          and estimate is not None and abs(estimate - TARGET_FILLRAD) <= 0.03)
    quality = ({"fillrad_err": abs(estimate - TARGET_FILLRAD)}
               if isinstance(estimate, float) else {})
    return Checked([ok], quality)


# gh-sweep -------------------------------------------------------------------

def prepare_gh_sweep(workdir: str, seed: int) -> list[list[str]]:
    """Write the 18 circle pairs, rotated and possibly reflected by the seed.

    GH and Hausdorff distances are invariant under the motion, so every seed
    poses the same search problems in different coordinates.
    """
    from ghbound import serialize
    from ghbound.manifolds import FiniteSubset, circle
    from ghbound.sampling import SplitMix64, uniform_points

    ambient = circle()
    tau = ambient.params[0]
    motion = SplitMix64(seed)
    shift = motion.next_float() * tau
    sign = -1.0 if motion.next_u64() & 1 else 1.0
    master = SplitMix64(GH_SAMPLER_SEED)
    xs, ys = [], []
    for row, sizes in enumerate(GH_PAIRS):
        for side, size in enumerate(sizes):
            drawn = uniform_points(ambient, size, master.child(2 * row + side).next_u64())
            moved = FiniteSubset(ambient, sign * drawn.points + shift)
            path = os.path.join(workdir, f"pair{row:02d}_{'xy'[side]}.json")
            serialize.write_json(serialize.subset_to_dict(moved), path)
            (ys if side else xs).append(path)
    config = os.path.join(workdir, "sweep.json")
    _write(config, {"manifold": {"kind": "circle"},
                    "sampler": {"kind": "file", "x": xs, "y": ys},
                    "pairs": [list(p) for p in GH_PAIRS],
                    "node_budget": GH_NODE_BUDGET})
    return [["circle-sweep", "--config", config]]


def check_gh_sweep(outs: list[Outcome]) -> Checked:
    o = outs[0]
    rows = list(csv.DictReader(io.StringIO(o.stdout))) if o.code == 0 else []
    ok = o.code == 0 and len(rows) == len(GH_PAIRS)
    unproven, value_sum = 0, 0.0
    for r in rows:
        gh, proven = float(r["gh_exact"]), r["proven_optimal"] == "True"
        ok = ok and float(r["pair_bound"]) <= gh + TOL
        ok = ok and (not proven or gh <= float(r["dh_xy"]) + TOL)
        unproven += not proven
        value_sum += gh
    return Checked([ok], {"gh_unproven": unproven, "gh_value_sum": value_sum})


# lemma-trials ---------------------------------------------------------------

def prepare_lemma(workdir: str, seed: int) -> list[list[str]]:
    del workdir  # the CLI draws every trial from the seed
    return [["lemma-check", "--trials", str(LEMMA_TRIALS), "--seed", str(seed)]]


def check_lemma(outs: list[Outcome]) -> Checked:
    payload = _json_out(outs[0])
    ok = (payload is not None and payload.get("all_passed") is True
          and len(payload.get("passes", {})) == 5
          and all(v == LEMMA_TRIALS for v in payload["passes"].values()))
    return Checked([ok], {})


# torus-geometry -------------------------------------------------------------

def prepare_torus(workdir: str, seed: int) -> list[list[str]]:
    """Write a stratified subset of each size and a uniform half-size partner."""
    from ghbound import serialize
    from ghbound.manifolds import FiniteSubset, flat_torus
    from ghbound.sampling import SplitMix64, uniform_points

    torus = flat_torus([1.0, 1.0])
    master = SplitMix64(seed)
    argvs = []
    for k, (m, (cols, rows)) in enumerate(TORUS_GRIDS.items()):
        paths = []
        for side, size in enumerate((m, m // 2)):
            subset = uniform_points(torus, size, master.child(2 * k + side).next_u64())
            if side == 0:
                cell = np.arange(m)
                subset = FiniteSubset(torus, np.stack(
                    [(cell % cols + subset.points[:, 0]) / cols,
                     (cell // cols + subset.points[:, 1]) / rows], axis=1))
            path = os.path.join(workdir, f"torus{m}_{'xy'[side]}.json")
            serialize.write_json(serialize.subset_to_dict(subset), path)
            paths.append(path)
        x, y = paths
        argvs += [["homology", "--subset", x, "--scale", TORUS_VR_SCALE, "--max-dim", "3"],
                  ["homology", "--subset", x, "--cech", "--scale", TORUS_CECH_SCALE,
                   "--max-dim", "3"],
                  ["bounds", "--x", x, "--y", y]]
    return argvs


def _torus_hausdorff(x: np.ndarray, y: np.ndarray) -> float:
    """d_H on the unit flat torus, recomputed here as ground truth."""
    delta = np.abs(x[:, None, :] - y[None, :, :])
    d = np.sqrt((np.minimum(delta, 1.0 - delta) ** 2).sum(axis=-1))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _points(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["points"], dtype=np.float64)


def check_torus(outs: list[Outcome]) -> Checked:
    ok = []
    for o in outs:
        payload = _json_out(o)
        if payload is None:
            ok.append(False)
        elif o.argv[0] == "homology":
            size = len(_points(o.argv[2]))
            good = payload["betti"][0] >= 1
            if "--cech" not in o.argv:
                good = good and payload["simplex_counts"][0] == size
            ok.append(good)
        else:
            dh = _torus_hausdorff(_points(o.argv[2]), _points(o.argv[4]))
            ok.append(all(r["lower_bound"] <= dh + TOL for r in payload["reports"]))
    return Checked(ok, {})


# Why each workload was chosen: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    "fillrad-circle": Workload(prepare_fillrad, check_fillrad),
    "gh-sweep": Workload(prepare_gh_sweep, check_gh_sweep),
    "lemma-trials": Workload(prepare_lemma, check_lemma),
    "torus-geometry": Workload(prepare_torus, check_torus),
}
