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
                        inclusion_map, induced_vr_map, subset_projection_map)
from .gh import NODE_BUDGET, distortion, gh_exact, rigid_incumbent
from .homology import betti_numbers, fundamental_class_survives, vr_persistence_bars
from .manifolds import (CIRCLE, EUCLIDEAN, FLAT_TORUS, AmbientManifold,
                        FiniteSubset, check_table_size, circle,
                        covering_radius_circle, covering_radius_witness,
                        cross_distances, hausdorff_subsets)
from .ratio import as_subsets, build_instance, verify_instance
from .sampling import (SplitMix64, equispaced_circle, grid_covering_radius,
                       grid_points, uniform_points)
from .serialize import REQUIRED, read_key

SANDWICH_TOL = 1e-9
MAX_SCALE_STEPS = 2 ** 16  # fillrad-estimate grid points; the pinned runs use 118


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


# name -> (single form, pair form, the constants both forms read), in report
# order. A bound runs iff each of its constants is present and not null. The
# forms look bound functions up in this module's globals at call time. Every
# term grows with dh_xm and shrinks with dh_ym, so an under-estimate of
# d_H(X, M) and an over-estimate of d_H(Y, M) keep each bound safe.
BOUNDS = {
    "convexity": (lambda c: convexity_bound(c["dh_xm"], c["rho"]),
                  lambda c: convexity_bound_pair(c["dh_xm"], c["rho"], c["dh_ym"]),
                  ("rho",)),
    "circle": (lambda c: circle_bound(c["dh_xm"], c["circumference"]),
               lambda c: circle_bound_pair(c["dh_xm"], c["dh_ym"], c["circumference"]),
               ("circumference",)),
    "fillrad": (lambda c: fillrad_bound(c["dh_xm"], c["rho"], c["fill_rad"]),
                lambda c: fillrad_bound_pair(c["dh_xm"], c["rho"], c["fill_rad"],
                                             c["dh_ym"]),
                ("rho", "fill_rad")),
    "jung": (lambda c: jung_bound_pair(c["dh_xm"], c["rho"], c["kappa"], c["n"], 0.0),
             lambda c: jung_bound_pair(c["dh_xm"], c["rho"], c["kappa"], c["n"],
                                       c["dh_ym"]),
             ("rho", "kappa", "n")),
}


def _given(args, *options: str) -> str:
    """Those of the options that the command line set, comma-separated."""
    values = ((o, getattr(args, o[2:].replace("-", "_"))) for o in options)
    return ", ".join(o for o, v in values if v is not None and v is not False)


def cmd_bounds(args) -> int:
    if args.inputs:
        if given := _given(args, "--x", "--y", "--witness-grid"):
            raise ValueError(f"--inputs takes no subset or witness grid: {given}")
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
        if args.witness_grid is not None and m.kind != FLAT_TORUS:
            raise ValueError(f"--witness-grid samples a torus, not a {m.kind}")
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
    form = 1 if "dh_ym" in inputs else 0
    reports = [serialize.bound_report_to_dict(entry[form](inputs))
               for entry in BOUNDS.values()
               if all(inputs.get(k) is not None for k in entry[2])]
    if not reports:
        raise ValueError("no bound applies to these inputs: " + "; ".join(
            f"{name} needs {', '.join(c)}" for name, (*_, c) in BOUNDS.items()))
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
    points = size ** manifold.dim if kind == "equispaced" else size  # grid: per axis
    check_table_size(points, points)  # every caller builds this table
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
    return FiniteSubset(manifold, subset.points)  # the config's constants


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
    budget = int(read_key(config, "node_budget", "an integer", "config", NODE_BUDGET))
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
                              args.budget)
            entry["gh_exact"] = result.value
            entry["gh_exact_proven"] = result.proven_optimal
            if result.proven_optimal and result.value > report.gh_upper + SANDWICH_TOL:
                raise CheckFailed(f"n={n}: exact GH exceeds the isometry upper bound")
        out.append(entry)
    _emit_json({"instances": out}, args.out)
    return 0


def _complex_from_args(args):
    if args.complex:
        if given := _given(args, "--subset", "--scale", "--cech", "--witness-grid",
                           "--max-dim"):
            raise ValueError(f"{given} shape a complex built from --subset; a "
                             "complex file records its own cap and is read as is")
        return serialize.complex_from_dict(serialize.read_json(args.complex))
    if args.witness_grid is not None and not args.cech:
        raise ValueError("--witness-grid needs --cech on a torus subset")
    if not (args.subset and args.scale is not None and 0 < args.scale < math.inf):
        raise ValueError("homology needs --complex, or --subset with a finite "
                         "--scale > 0")
    subset = serialize.subset_from_dict(serialize.read_json(args.subset))
    m = subset.manifold
    max_dim = args.max_dim if args.max_dim is not None else m.dim + 1
    if args.max_dim is not None and max_dim > subset.size:
        raise ValueError(f"--max-dim {max_dim} exceeds the {subset.size} points of "
                         f"the subset, the most vertices a simplex can have")
    if not args.cech:
        return build_vr(subset.to_metric_space(), args.scale, max_dim)
    if m.kind == CIRCLE:
        if args.witness_grid is not None:
            raise ValueError("--witness-grid samples a torus, not a circle")
        return build_cech_circle(subset.to_metric_space(), args.scale, max_dim,
                                 m.params[0])
    if m.kind == EUCLIDEAN:
        raise ValueError("ambient Cech complexes need a compact manifold "
                         "(witness grids are built on circle or torus)")
    per_axis = args.witness_grid or _default_witness_per_axis(m.dim)
    return build_cech_witness(subset, args.scale, max_dim, per_axis)


def cmd_homology(args) -> int:
    cx = _complex_from_args(args)
    if cx.max_dim < 1:  # beta_0 already needs the edges
        need = ("a complex file that records dimension 1" if args.complex
                else "--max-dim >= 1")
        raise ValueError(f"Betti numbers need {need}; the complex caps at dimension "
                         f"{cx.max_dim}")
    betti = betti_numbers(cx, cx.max_dim - 1)
    _emit_json({"scale": cx.scale, "max_dim": cx.max_dim,
                "simplex_counts": cx.simplex_counts(),
                "betti": list(betti)}, args.out)
    return 0


def cmd_gh_exact(args) -> int:
    space_x = serialize.load_space(serialize.read_json(args.x))
    space_y = serialize.load_space(serialize.read_json(args.y))
    result = gh_exact(space_x, space_y, args.budget)
    _emit_json(serialize.gh_result_to_dict(result), args.out)
    return 0


def cmd_fillrad_estimate(args) -> int:
    config = serialize.read_json(args.config)
    m, sampler, seed = _manifold_and_sampler(config, 1, "x")
    g = read_key(config, "scale_grid", "an object", "config")
    start, stop = (float(read_key(g, k, "a number", "config 'scale_grid'"))
                   for k in ("start", "stop"))
    steps = int(read_key(g, "steps", "an integer", "config 'scale_grid'"))
    if not (start > 0 and stop > start and 2 <= steps <= MAX_SCALE_STEPS):
        raise ValueError(f"scale grid must be strictly increasing, in 2 to "
                         f"{MAX_SCALE_STEPS} steps, not {steps}")
    n = m.dim
    count = int(read_key(config, "count", "an integer", "config"))
    sample = _sample(m, sampler, "x", 0, count, seed)
    space = sample.to_metric_space()
    grid = np.linspace(start, stop, steps)
    bars = vr_persistence_bars(space, float(grid[-1]), n)
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
    # One table for Z, Y's points then X's. Its diagonal blocks are Y's and X's
    # own tables bit for bit: the circle kernel sets each entry from its two
    # points alone, and normalizing the subsets' coordinates again leaves them
    # unchanged (a number in [0, L) is its own remainder mod L).
    merged = np.vstack([sub_y.points, sub_x.points])
    space_z = FiniteSubset(ambient, merged).to_metric_space()
    idx = list(range(ny))
    space_y = space_z.submatrix(idx)
    space_x = space_z.submatrix(range(ny, ny + nx))

    result = gh_exact(space_x, space_y)
    corr = result.correspondence
    dis = 2.0 * result.value  # the distortion of corr, exactly
    r = dis + 1e-6

    source_y = build_vr(space_y, eps, ny - 1)
    h_map = induced_vr_map(corr, space_x, space_y, source_y, r, max_dim=nx - 1,
                           dis=dis)
    g_map = induced_vr_map(corr.transpose(), space_y, space_x, h_map.target, r,
                           max_dim=ny - 1, dis=dis)
    roundtrip = compose_maps(g_map, h_map)
    inclusion = inclusion_map(source_y, g_map.target)
    checks = {
        "induced_simplicial_out": check_simplicial(h_map),
        "induced_simplicial_back": check_simplicial(g_map),
        "roundtrip_contiguous": check_contiguous(roundtrip, inclusion),
    }

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
    master = SplitMix64(args.seed)
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
    p.add_argument("--budget", type=_positive_int, default=NODE_BUDGET)
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
    p.add_argument("--out")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("gh-exact", help="exact GH between two spaces")
    p.add_argument("--x", required=True, help="metric-space or subset JSON")
    p.add_argument("--y", required=True)
    p.add_argument("--budget", type=_positive_int, default=NODE_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gh_exact)

    p = sub.add_parser("fillrad-estimate", help="filling radius via death scale")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fillrad_estimate)

    p = sub.add_parser("lemma-check", help="executable lemma validations")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
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
