"""JSON forms for the file formats the CLI reads and writes.

Subsets: {"manifold": {"kind": "circle"|"flat_torus"|"euclidean", "dim": n,
          "params": [...]}, "points": [[...], ...]} with optional "rho",
          "kappa", "fill_rad" keys on the manifold.
Metric spaces: {"labels": [...], "dist": [[...], ...]} (full symmetric matrix).
Complexes: {"scale": r, "vertex_count": m, "simplices": {"0": [[0], ...], ...}}
          with every dimension up to max_dim present (possibly empty), so the
          construction cap survives the round trip.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bounds import BoundReport
from .complexes import SimplicialComplex
from .gh import GHResult
from .manifolds import (AmbientManifold, FiniteMetricSpace, FiniteSubset,
                        circle, euclidean, flat_torus)
from .ratio import RatioReport


def manifold_to_dict(m: AmbientManifold) -> dict:
    out = {"kind": m.kind, "dim": m.dim, "params": list(m.params)}
    if not math.isinf(m.rho):
        out["rho"] = m.rho
    if m.kappa != 0.0:
        out["kappa"] = m.kappa
    if m.fill_rad is not None:
        out["fill_rad"] = m.fill_rad
    return out


def manifold_from_dict(d: dict) -> AmbientManifold:
    if not isinstance(d, dict):
        raise ValueError("'manifold' must be an object with a 'kind' key, "
                         f"not {json.dumps(d)}")
    kind = d.get("kind")
    extra = {k: d[k] for k in ("rho", "kappa", "fill_rad") if k in d}
    for key, value in extra.items():  # rho and fill_rad may be null: unknown
        if not (_is_number(value) or (value is None and key != "kappa")):
            raise ValueError(f"manifold {key!r} must be a number, "
                             f"not {json.dumps(value)}")
    if kind == "circle":
        return circle(*_params(d.get("params", [math.tau]), kind, 1), **extra)
    if kind == "flat_torus":
        if "params" not in d:
            raise ValueError("flat_torus manifold needs side lengths in 'params'")
        return flat_torus(_params(d["params"], kind), **extra)
    if kind == "euclidean":
        if "dim" not in d:
            raise ValueError("euclidean manifold needs 'dim'")
        return euclidean(int(d["dim"]), **extra)
    raise ValueError(f"unknown manifold kind {kind!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _params(params, kind: str, length: int | None = None) -> list:
    """A manifold's 'params': a list of numbers, of the given length if any."""
    if not (isinstance(params, list) and all(_is_number(p) for p in params)
            and (length is None or len(params) == length)):
        size = "a list of numbers" if length is None else f"a list of {length} number"
        raise ValueError(f"{kind} manifold 'params' must be {size}, "
                         f"not {json.dumps(params)}")
    return params


def subset_to_dict(s: FiniteSubset) -> dict:
    return {"manifold": manifold_to_dict(s.manifold), "points": s.points.tolist()}


def subset_from_dict(d: dict) -> FiniteSubset:
    if "manifold" not in d or "points" not in d:
        raise ValueError("subset JSON needs 'manifold' and 'points'")
    return FiniteSubset(manifold_from_dict(d["manifold"]), np.asarray(d["points"]))


def metric_space_to_dict(s: FiniteMetricSpace) -> dict:
    return {"labels": list(s.labels), "dist": s.dist.tolist()}


def metric_space_from_dict(d: dict) -> FiniteMetricSpace:
    if "dist" not in d:
        raise ValueError("metric space JSON needs 'dist'")
    try:
        dist = np.asarray(d["dist"], dtype=np.float64)
    except (TypeError, ValueError):
        dist = None
    if dist is None or dist.ndim != 2:
        raise ValueError("metric space 'dist' must be a matrix, a list of rows "
                         "of numbers")
    labels = d.get("labels") or [str(i) for i in range(len(dist))]
    if not (isinstance(labels, list)
            and all(isinstance(x, (str, int, float)) for x in labels)):
        raise ValueError("metric space 'labels' must be a list of names, "
                         f"not {json.dumps(labels)}")
    return FiniteMetricSpace(tuple(labels), dist)


def load_space(d: dict) -> FiniteMetricSpace:
    """Accept either a metric-space JSON dict or a subset JSON dict."""
    if "manifold" in d:
        return subset_from_dict(d).to_metric_space()
    return metric_space_from_dict(d)


def complex_to_dict(k: SimplicialComplex) -> dict:
    return {"scale": k.scale, "vertex_count": k.vertex_count,
            "simplices": {str(d): [list(s) for s in k.simplices[d]]
                          for d in range(k.max_dim + 1)}}


def complex_from_dict(d: dict) -> SimplicialComplex:
    if "scale" not in d or "simplices" not in d:
        raise ValueError("complex JSON needs 'scale' and 'simplices'")
    raw = d["simplices"]
    if not isinstance(raw, dict) or not raw:
        raise ValueError("complex JSON 'simplices' must map at least one "
                         "dimension to its simplices")
    simplices = {}
    for dim, entries in raw.items():
        try:
            k = int(dim)
        except ValueError:
            raise ValueError(f"complex JSON 'simplices' key {dim!r} is not a "
                             "dimension") from None
        if not (isinstance(entries, list)
                and all(isinstance(s, list) and all(type(v) is int for v in s)
                        for s in entries)):
            raise ValueError(f"complex JSON 'simplices' entry {dim!r} must be a "
                             "list of vertex lists, e.g. [[0, 1], [1, 2]]")
        simplices[k] = [tuple(s) for s in entries]
    max_dim = max(simplices)
    vertex_count = d.get("vertex_count")
    if vertex_count is None:
        vertex_count = 1 + max((v for entries in simplices.values()
                                for s in entries for v in s), default=0)
    return SimplicialComplex(int(vertex_count), float(d["scale"]), max_dim, simplices)


def bound_report_to_dict(r: BoundReport) -> dict:
    return {"bound": r.bound_id, "terms": {name: value for name, value in r.terms},
            "lower_bound": r.lower_bound, "vacuous": r.vacuous,
            "flags": dict(r.flags), "inputs": dict(r.inputs)}


def gh_result_to_dict(r: GHResult) -> dict:
    return {"value": r.value, "correspondence": [list(p) for p in r.correspondence.pairs],
            "nodes_explored": r.nodes_explored, "proven_optimal": r.proven_optimal}


def ratio_report_to_dict(r: RatioReport) -> dict:
    return {"n": r.n, "hausdorff": r.hausdorff,
            "hausdorff_after_isometry": r.gh_upper,
            "gh_upper": r.gh_upper, "ratio_upper": r.ratio_upper}


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the top-level JSON value must be an object, "
                         f"not {type(obj).__name__}")
    return obj


def write_json(obj, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
