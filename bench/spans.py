"""Spans around calls into ghbound's modules, recorded from outside the program.

``Tracer.install`` replaces each public function with a timing wrapper in the
namespace its caller looks it up in: ``cli`` binds most functions at import,
``complexes.induced_vr_map`` calls ``build_vr`` through the complexes module,
``homology`` calls ``check_simplicial`` and ``inclusion_map`` through its own
globals, and ``to_metric_space`` is a method of ``FiniteSubset``. Every span
records its parent, so a group's self time is its spans' durations minus
their children's. Spans stay in memory until ``dump``.

``homology._gf2_reduce`` and ``_boundary_columns`` are private, so homology is
timed at ``betti_numbers`` and ``fundamental_class_survives``.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

MIB = 1024.0 * 1024.0
# tracemalloc slows every allocation it sees; memory is only taken on metric
# builds at least this large, where the m x m x m triangle check dominates.
PEAK_MIN_POINTS = 64


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack = [0]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # recording -------------------------------------------------------------

    def _wrap(self, group: str, fn, count=None, peak_memory=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            sid, parent = tracer._next_id, tracer._stack[-1]
            tracer._stack.append(sid)
            watch = peak_memory is not None and peak_memory(*args, **kwargs)
            if watch:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, group, t0, t1))
                if watch:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    tracer.peaks[group] = max(tracer.peaks[group], peak)
            tracer.counters[group + ".calls"] += 1
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    tracer.counters[key] += value
            return result

        return wrapper

    def _patch(self, owner, name: str, group: str, **hooks) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, self._wrap(group, original, **hooks))

    def install(self) -> None:
        from ghbound import cli, complexes, gh, homology, manifolds, sampling, serialize

        groups = {
            "complexes.vr": ["build_vr"],
            "complexes.cech": ["build_cech_circle", "build_cech_witness"],
            "complexes.maps": ["induced_vr_map", "subset_projection_map",
                               "inclusion_map", "compose_maps"],
            "complexes.check": ["check_simplicial", "check_contiguous"],
            "gh.search": ["gh_exact"],
            "gh.distortion": ["distortion"],
            "homology.betti": ["betti_numbers"],
            "homology.survives": ["fundamental_class_survives"],
            "manifolds.cross": ["covering_radius_circle", "covering_radius_witness",
                                "cross_distances", "hausdorff_subsets"],
            "sampling": ["equispaced_circle", "grid_points", "uniform_points"],
            "bounds": ["circle_bound", "circle_bound_pair", "convexity_bound",
                       "convexity_bound_pair", "fillrad_bound", "fillrad_bound_pair",
                       "jung_bound_pair"],
        }
        hooks = {"build_vr": _count_simplices, "build_cech_witness": _count_simplices,
                 "gh_exact": _count_gh, "betti_numbers": _count_betti,
                 "fundamental_class_survives": _count_survives,
                 "equispaced_circle": _count_points, "grid_points": _count_points,
                 "uniform_points": _count_points}
        for group, names in groups.items():
            for name in names:
                self._patch(cli, name, group, count=hooks.get(name))
        self._patch(complexes, "build_vr", "complexes.vr", count=_count_simplices)
        self._patch(gh, "distortion", "gh.distortion")  # induced_vr_map imports it late
        self._patch(homology, "check_simplicial", "complexes.check")
        self._patch(homology, "inclusion_map", "complexes.maps")
        for name in groups["sampling"]:
            self._patch(sampling, name, "sampling", count=_count_points)
        self._patch(serialize, "read_json", "serialize.read", count=_count_read)
        self._patch(serialize, "write_json", "serialize.write", count=_count_write)
        for name in ("manifold_from_dict", "subset_from_dict", "subset_to_dict",
                     "load_space", "complex_from_dict", "bound_report_to_dict",
                     "gh_result_to_dict"):
            self._patch(serialize, name, "serialize.convert")
        self._patch(manifolds.FiniteSubset, "to_metric_space", "manifolds.metric",
                    count=_count_metric, peak_memory=_large_metric)
        self._patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # reading ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per group, each span minus the time its children cover."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, group, t0, t1 in self.spans:
            out[group] += (t1 - t0) - child[sid]
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.peaks.clear()

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "group", "t0", "t1"],
                       "spans": self.spans}, fh)


def _count_simplices(cx, *args, **kwargs):
    return {"complexes.simplices": sum(cx.simplex_counts())}


def _count_gh(result, *args, **kwargs):
    return {"gh.nodes": result.nodes_explored, "gh.proven": int(result.proven_optimal)}


def _count_betti(betti, complex_, up_to, *args, **kwargs):
    # boundary matrices d_0 .. d_{up_to+1} have one column per simplex
    return {"homology.columns": sum(complex_.simplex_counts()[:up_to + 2])}


def _count_survives(ok, small, big, dim, *args, **kwargs):
    return {"homology.columns": sum(small.simplex_counts()[dim:dim + 2])
            + sum(big.simplex_counts()[dim:dim + 2])}


def _count_points(subset, *args, **kwargs):
    return {"sampling.points": subset.size}


def _count_read(obj, path, *args, **kwargs):
    return {"serialize.bytes": os.path.getsize(path)}


def _count_write(text, obj, path, *args, **kwargs):
    return {"serialize.bytes": len(text) + (path is not None)}


def _large_metric(subset, *args, **kwargs):
    return subset.size >= PEAK_MIN_POINTS


def _count_metric(space, subset, *args, **kwargs):
    return {"manifolds.metric_points": subset.size}
