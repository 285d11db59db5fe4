"""Command-line harness.

Subcommands:
  bounds            evaluate lower-bound reports for one or two subset files
  circle-sweep      sample circle pairs, compare pair bound vs exact GH vs Hausdorff
  ratio             build and verify the small-ratio family
  homology          Betti numbers of a complex (given, or built from a subset)
  gh-exact          exact GH distance between two metric-space/subset files
  fillrad-estimate  estimate the filling radius from the VR death of the top class
  lemma-check       executable checks of the correspondence/projection lemmas

Exit codes: 0 success, 1 input error, 2 assertion failure (a mathematical
guarantee the run was supposed to witness did not hold).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import serialize
from .bounds import (circle_bound, circle_bound_pair, convexity_bound,
                     convexity_bound_pair, fillrad_bound, fillrad_bound_pair,
                     jung_bound_pair)
# bench/spans.py patches the functions it times by name in this module:
# distortion, fundamental_class_survives and cross_distances are imported for
# that alone, and covering_radius_witness and build_cech_witness must keep
# being called through these names
from .complexes import (build_cech_circle, build_cech_witness, build_vr,
                        check_contiguous, check_simplicial, compose_maps,
                        inclusion_map, induced_vr_map, simplex_diameters,
                        subset_projection_map)
from .gh import distortion, gh_exact, rigid_incumbent
from .homology import betti_numbers, fundamental_class_survives, persistence_bars
from .manifolds import (CIRCLE, EUCLIDEAN, FLAT_TORUS, AmbientManifold,
                        FiniteSubset, circle, covering_radius_circle,
                        covering_radius_witness, cross_distances,
                        hausdorff_subsets)
from .ratio import as_subsets, build_instance, verify_instance
from .sampling import (SplitMix64, equispaced_circle, grid_covering_radius,
                       grid_points, uniform_points)
from .serialize import REQUIRED, read_key

SANDWICH_TOL = 1e-9


class CheckFailed(Exception):
    """A guarantee the command was asked to witness failed (exit code 2)."""


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj, path: str | None) -> None:
    _write_text(serialize.write_json(obj, None), path)


def _default_witness_per_axis(dim: int) -> int:
    return max(2, min(64, int(round(4096 ** (1.0 / dim)))))


def _dh_to_manifold(subset: FiniteSubset,
                    witness_per_axis: int | None) -> tuple[float, float]:
    """d_H(X, M) as (under-estimate, bound on its error): exact on circles.

    On tori the witness-grid value under-estimates by at most the grid's own
    covering radius; callers add that error where an over-estimate is safe.
    """
    m = subset.manifold
    if m.kind == CIRCLE:
        return covering_radius_circle(subset), 0.0
    if m.kind == FLAT_TORUS:
        per_axis = witness_per_axis or _default_witness_per_axis(m.dim)
        return (covering_radius_witness(subset, per_axis),
                grid_covering_radius(m, per_axis))
    raise ValueError("d_H(X, M) is only finite for compact manifolds; "
                     "supply --inputs for abstract evaluations")


# name -> (single form, pair form, required constants), in report order. The
# forms look bound functions up in this module's globals at call time. Every
# term grows with dh_xm and shrinks with dh_ym, so an under-estimate of
# d_H(X, M) and an over-estimate of d_H(Y, M) keep each bound safe.
BOUNDS = {
    "convexity": (lambda c: convexity_bound(c["dh_xm"], c["rho"]),
                  lambda c: convexity_bound_pair(c["dh_xm"], c["rho"], c["dh_ym"]),
                  ()),
    "circle": (lambda c: circle_bound(c["dh_xm"], c["circumference"]),
               lambda c: circle_bound_pair(c["dh_xm"], c["dh_ym"], c["circumference"]),
               ("circumference",)),
    "fillrad": (lambda c: fillrad_bound(c["dh_xm"], c["rho"], c["fill_rad"]),
                lambda c: fillrad_bound_pair(c["dh_xm"], c["rho"], c["fill_rad"],
                                             c["dh_ym"]),
                ("fill_rad",)),
    "jung": (lambda c: jung_bound_pair(c["dh_xm"], c["rho"], c["kappa"], c["n"], 0.0),
             lambda c: jung_bound_pair(c["dh_xm"], c["rho"], c["kappa"], c["n"],
                                       c["dh_ym"]),
             ()),
}


def _missing(name: str, constants: dict) -> list[str]:
    return [k for k in BOUNDS[name][2] if constants.get(k) is None]


def _evaluate(name: str, constants: dict) -> dict:
    if name not in BOUNDS:
        raise ValueError(f"unknown bound name {name!r}")
    missing = _missing(name, constants)
    if missing:
        raise ValueError(f"{name} bound needs the geometry constant {missing[0]!r}")
    single, pair, _ = BOUNDS[name]
    form = pair if "dh_ym" in constants else single
    return serialize.bound_report_to_dict(form(constants))


def cmd_bounds(args) -> int:
    if args.inputs:
        raw = serialize.read_json(args.inputs)
        inputs = {k: read_key(raw, k, kind, "inputs")
                  for k, kind in (("rho", "a number"), ("kappa", "a number"),
                                  ("n", "an integer"), ("fill_rad", "a number or null"),
                                  ("circumference", "a number")) if k in raw}
        inputs["dh_xm"] = float(read_key(raw, "dh_xm", "a number", "inputs"))
        if "dh_ym" in raw:
            inputs["dh_ym"] = float(read_key(raw, "dh_ym", "a number", "inputs"))
    else:
        if not args.x:
            raise ValueError("bounds needs --x (a subset JSON) or --inputs")
        sub_x = serialize.subset_from_dict(serialize.read_json(args.x))
        m = sub_x.manifold
        inputs = {"dh_xm": _dh_to_manifold(sub_x, args.witness_grid)[0],
                  "rho": m.rho, "kappa": m.kappa, "n": m.dim, "fill_rad": m.fill_rad}
        if m.kind == CIRCLE:
            inputs["circumference"] = m.params[0]
        if args.y is not None:
            sub_y = serialize.subset_from_dict(serialize.read_json(args.y))
            if sub_y.manifold != m:
                raise ValueError("X and Y must live on the same manifold")
            dh_ym, error = _dh_to_manifold(sub_y, args.witness_grid)
            inputs["dh_ym"] = dh_ym + error
    constants = {"rho": math.inf, "kappa": 0.0, "n": 1, **inputs}
    requested = (args.theorems.split(",") if args.theorems
                 else [name for name in BOUNDS if not _missing(name, inputs)])
    reports = [_evaluate(name.strip(), constants) for name in requested]
    _emit_json({"inputs": inputs, "reports": reports}, args.out)
    return 0


def _manifold_and_sampler(d: dict, rows: int,
                          sides: str) -> tuple[AmbientManifold, dict, int]:
    """The config keys circle-sweep and fillrad-estimate share, and the seed.

    A file sampler must list a subset path per row under each key in sides.
    """
    manifold = read_key(d, "manifold", "an object", "config", None)
    manifold = circle() if manifold is None else serialize.manifold_from_dict(manifold)
    sampler = read_key(d, "sampler", "a kind name or an object", "config",
                       {"kind": "equispaced"})
    if isinstance(sampler, str):
        sampler = {"kind": sampler}
    kind = sampler.get("kind")
    if kind not in ("equispaced", "uniform", "file"):
        raise ValueError("sampler kind must be equispaced, uniform, or file")
    config_seed = read_key(sampler, "seed", "an integer", f"{kind} sampler",
                           REQUIRED if kind == "uniform" else 0)
    if kind == "file":
        for key in sides:
            paths = read_key(sampler, key, "a list of strings", "file sampler")
            if len(paths) < rows:
                raise ValueError(f"file sampler lists {len(paths)} {key!r} paths, "
                                 f"but the config has {rows} rows")
    return manifold, sampler, int(config_seed)


def _sample(manifold: AmbientManifold, sampler: dict, key: str, row: int,
            size: int, seed: int) -> FiniteSubset:
    """Row's subset for config key "x" or "y"; only the uniform kind reads seed."""
    kind = sampler["kind"]
    if kind == "equispaced":
        if manifold.kind != CIRCLE:
            return grid_points(manifold, size)
        phase = float(read_key(sampler, f"phase_{key}", "a number",
                               "equispaced sampler", 0.0))
        return equispaced_circle(manifold, size, phase)
    if kind == "uniform":
        return uniform_points(manifold, size, seed)
    path = sampler[key][row]
    subset = serialize.subset_from_dict(serialize.read_json(path))
    found = subset.manifold
    if (found.kind, found.dim, found.params) != (manifold.kind, manifold.dim,
                                                 manifold.params):
        raise ValueError(f"row {row}: {path} lies on a {found.kind} of dim "
                         f"{found.dim} with params {list(found.params)}, the "
                         f"config's manifold is a {manifold.kind} of dim "
                         f"{manifold.dim} with params {list(manifold.params)}")
    if subset.size != size:
        raise ValueError(f"row {row}: {path} holds {subset.size} points, "
                         f"the config asks for n_{key} = {size}")
    return subset


def cmd_circle_sweep(args) -> int:
    config = serialize.read_json(args.config)
    pairs = config.get("pairs")
    if not (isinstance(pairs, list) and pairs
            and all(isinstance(p, list) and len(p) == 2
                    and all(type(n) is int for n in p) for p in pairs)):
        raise ValueError("config needs a non-empty 'pairs' list of [n_x, n_y] "
                         "integer sizes")
    manifold, sampler, seed = _manifold_and_sampler(config, len(pairs), "xy")
    if manifold.kind != CIRCLE:
        raise ValueError("circle-sweep needs a circle manifold")
    circumference = manifold.params[0]
    budget = int(read_key(config, "node_budget", "an integer", "config", 10_000_000))
    if budget < 1:
        raise ValueError(f"config 'node_budget' must be an integer >= 1, not {budget}")
    master = SplitMix64(seed)
    rows = []
    for i, (nx, ny) in enumerate(pairs):
        sub_x = _sample(manifold, sampler, "x", i, nx, master.child(2 * i).next_u64())
        sub_y = _sample(manifold, sampler, "y", i, ny,
                        master.child(2 * i + 1).next_u64())
        dh_x = covering_radius_circle(sub_x)
        dh_y = covering_radius_circle(sub_y)
        bound = circle_bound_pair(dh_x, dh_y, circumference).lower_bound
        result = gh_exact(sub_x.to_metric_space(), sub_y.to_metric_space(), budget,
                          incumbent=rigid_incumbent(sub_x, sub_y))
        dh_xy = hausdorff_subsets(sub_x, sub_y)
        rows.append((i, nx, ny, dh_x, dh_y, bound, result.value, dh_xy,
                     result.nodes_explored, result.proven_optimal))
        if bound > result.value + SANDWICH_TOL:
            raise CheckFailed(f"row {i}: pair bound {bound} exceeds GH {result.value}")
        if result.proven_optimal and result.value > dh_xy + SANDWICH_TOL:
            raise CheckFailed(f"row {i}: GH {result.value} exceeds Hausdorff {dh_xy}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "n_x", "n_y", "dh_x_circle", "dh_y_circle",
                     "pair_bound", "gh_exact", "dh_xy", "nodes", "proven_optimal"])
    writer.writerows([list(r) for r in rows])
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_ratio(args) -> int:
    sizes = [int(s) for s in args.n.split(",")]
    out = []
    for n in sizes:
        instance = build_instance(n)
        try:
            report = verify_instance(instance)
        except ValueError as exc:
            raise CheckFailed(f"n={n}: {exc}") from exc
        entry = serialize.ratio_report_to_dict(report)
        if n <= args.crosscheck_max:
            sub, full = as_subsets(instance)
            result = gh_exact(sub.to_metric_space(), full.to_metric_space(),
                              args.budget or 10_000_000)
            entry["gh_exact"] = result.value
            entry["gh_exact_proven"] = result.proven_optimal
            if result.proven_optimal and result.value > report.gh_upper + SANDWICH_TOL:
                raise CheckFailed(f"n={n}: exact GH exceeds the isometry upper bound")
        out.append(entry)
    _emit_json({"instances": out}, args.out)
    return 0


def _complex_from_args(args):
    if args.complex:
        return serialize.complex_from_dict(serialize.read_json(args.complex))
    if not (args.subset and args.scale is not None and 0 < args.scale < math.inf):
        raise ValueError("homology needs --complex, or --subset with a finite "
                         "--scale > 0")
    subset = serialize.subset_from_dict(serialize.read_json(args.subset))
    m = subset.manifold
    max_dim = args.max_dim if args.max_dim is not None else m.dim + 1
    if not args.cech:
        return build_vr(subset.to_metric_space(), args.scale, max_dim)
    if m.kind == CIRCLE:
        return build_cech_circle(subset.to_metric_space(), args.scale, max_dim,
                                 m.params[0])
    if m.kind == EUCLIDEAN:
        raise ValueError("ambient Cech complexes need a compact manifold "
                         "(witness grids are built on circle or torus)")
    per_axis = args.witness_grid or _default_witness_per_axis(m.dim)
    return build_cech_witness(subset, args.scale, max_dim, per_axis)


def cmd_homology(args) -> int:
    cx = _complex_from_args(args)
    up_to = args.up_to if args.up_to is not None else cx.max_dim - 1
    betti = betti_numbers(cx, up_to)
    _emit_json({"scale": cx.scale, "max_dim": cx.max_dim,
                "simplex_counts": cx.simplex_counts(),
                "betti": list(betti)}, args.out)
    return 0


def cmd_gh_exact(args) -> int:
    space_x = serialize.load_space(serialize.read_json(args.x))
    space_y = serialize.load_space(serialize.read_json(args.y))
    result = gh_exact(space_x, space_y, args.budget or 10_000_000)
    _emit_json(serialize.gh_result_to_dict(result), args.out)
    return 0


def cmd_fillrad_estimate(args) -> int:
    config = serialize.read_json(args.config)
    m, sampler, seed = _manifold_and_sampler(config, 1, "x")
    g = read_key(config, "scale_grid", "an object", "config")
    start, stop = (float(read_key(g, k, "a number", "config 'scale_grid'"))
                   for k in ("start", "stop"))
    steps = int(read_key(g, "steps", "an integer", "config 'scale_grid'"))
    if not (start > 0 and stop > start and steps >= 2):
        raise ValueError("scale grid must be strictly increasing")
    n = m.dim
    count = int(read_key(config, "count", "an integer", "config"))
    sample = _sample(m, sampler, "x", 0, count, seed)
    space = sample.to_metric_space()
    grid = np.linspace(start, stop, steps)
    top = build_vr(space, float(grid[-1]), n + 1)
    bars = persistence_bars(top, simplex_diameters(top, space.dist), n)
    betti = np.stack([np.searchsorted(b[:, 0], grid)
                      - np.searchsorted(np.sort(b[:, 1]), grid)
                      for b in bars.values()], axis=1)
    if betti[0, n] != 1:
        raise ValueError(f"sample too sparse: base complex has beta_{n} = "
                         f"{betti[0, n]}, expected 1")
    births, deaths = bars[n].T
    # the fundamental class: the one H_n bar alive at grid[0]
    [death] = deaths[(births < grid[0]) & (grid[0] <= deaths)]
    censored = bool(np.isinf(death))
    _emit_json({"sample_size": sample.size, "scales": grid.tolist(),
                "betti": betti.tolist(),
                "survives": ((grid <= death) & (betti[:, n] == 1)).tolist(),
                "death_scale": None if censored else float(death),
                "censored": censored,
                "estimate": None if censored else float(death) / 2.0}, args.out)
    return 0


def _lemma_trial(trial: int, master: SplitMix64) -> dict:
    rng = master.child(trial)
    ambient = circle()
    nx = 2 + rng.next_below(5)
    ny = 2 + rng.next_below(5)
    eps = 0.05 + rng.next_float() * 1.45
    sub_x = uniform_points(ambient, nx, rng.next_u64())
    sub_y = uniform_points(ambient, ny, rng.next_u64())
    space_x = sub_x.to_metric_space()
    space_y = sub_y.to_metric_space()

    result = gh_exact(space_x, space_y)
    corr = result.correspondence
    r = 2.0 * result.value + 1e-6  # the distortion of corr, exactly

    source_y = build_vr(space_y, eps, ny - 1)
    h_map = induced_vr_map(corr, space_x, space_y, source_y, r, max_dim=nx - 1)
    g_map = induced_vr_map(corr.transpose(), space_y, space_x, h_map.target, r,
                           max_dim=ny - 1)
    roundtrip = compose_maps(g_map, h_map)
    inclusion = inclusion_map(source_y, g_map.target)
    checks = {
        "induced_simplicial_out": check_simplicial(h_map),
        "induced_simplicial_back": check_simplicial(g_map),
        "roundtrip_contiguous": check_contiguous(roundtrip, inclusion),
    }

    merged = np.vstack([sub_y.points, sub_x.points])
    space_z = FiniteSubset(ambient, merged).to_metric_space()
    idx = list(range(ny))
    gap = float(space_z.dist[:, idx].min(axis=1).max())
    r2 = 2.0 * gap + 0.01
    source_z = build_vr(space_z, eps, space_z.size - 1)
    f_map = subset_projection_map(space_z, idx, source_z, r2,
                                  max_dim=space_z.size - 1)
    big_z = build_vr(space_z, r2 + eps, space_z.size - 1)
    into_z = compose_maps(inclusion_map(f_map.target, big_z, idx), f_map)
    checks.update({
        "projection_simplicial": check_simplicial(f_map),
        "projection_contiguous": check_contiguous(into_z, inclusion_map(source_z, big_z)),
    })
    return checks


def cmd_lemma_check(args) -> int:
    master = SplitMix64(args.seed if args.seed is not None else 0)
    totals: dict[str, int] = {}
    for t in range(args.trials):
        for name, ok in _lemma_trial(t, master).items():
            totals[name] = totals.get(name, 0) + int(ok)
    all_passed = all(v == args.trials for v in totals.values())
    _emit_json({"trials": args.trials, "passes": totals,
                "all_passed": all_passed}, args.out)
    if not all_passed:
        raise CheckFailed(f"lemma checks failed: {totals} out of {args.trials}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts, budgets and grid sizes: an integer >= 1."""
    if not (text.strip().isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghbound",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate lower-bound reports")
    p.add_argument("--x", help="subset JSON for X")
    p.add_argument("--y", help="subset JSON for Y (enables pair bounds)")
    p.add_argument("--inputs", help="raw inputs JSON (dh_xm, rho, ...)")
    p.add_argument("--theorems", help="comma list: convexity,circle,fillrad,jung")
    p.add_argument("--witness-grid", type=_positive_int,
                   help="witness points per axis")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("circle-sweep", help="pair bound vs exact GH vs Hausdorff")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_circle_sweep)

    p = sub.add_parser("ratio", help="build and verify the small-ratio family")
    p.add_argument("--n", default="2,3,4,9,100", help="comma list of sizes")
    p.add_argument("--crosscheck-max", type=int, default=5,
                   help="run gh_exact for n up to this size")
    p.add_argument("--budget", type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("homology", help="Betti numbers of one complex")
    p.add_argument("--complex", help="complex JSON")
    p.add_argument("--subset", help="subset JSON (builds a VR complex)")
    p.add_argument("--scale", type=float)
    p.add_argument("--cech", action="store_true",
                   help="ambient Cech instead of VR (circle exact, torus witnessed)")
    p.add_argument("--witness-grid", type=_positive_int)
    p.add_argument("--max-dim", type=int)
    p.add_argument("--up-to", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("gh-exact", help="exact GH between two spaces")
    p.add_argument("--x", required=True, help="metric-space or subset JSON")
    p.add_argument("--y", required=True)
    p.add_argument("--budget", type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gh_exact)

    p = sub.add_parser("fillrad-estimate", help="filling radius via death scale")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fillrad_estimate)

    p = sub.add_parser("lemma-check", help="executable lemma validations")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemma_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags; that is input error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except CheckFailed as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
