"""splitmix64 stream and the deterministic samplers.

The generator is pinned by its recurrence: output k is mix64(seed + (k+1) *
0x9E3779B97F4A7C15) with the standard mix64 finalizer. The reference values
below are computed by a straight-line reimplementation of that recurrence in
this file, so any drift in the library's stream (ordering, masking, float
conversion) fails loudly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ghbound import (SplitMix64, circle, covering_radius_circle,
                     equispaced_circle, euclidean, flat_torus,
                     grid_covering_radius, grid_points, uniform_points)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_outputs(seed: int, count: int) -> list[int]:
    out = []
    for k in range(count):
        z = (seed + (k + 1) * GAMMA) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 1234567, 2 ** 64 - 1])
def test_stream_matches_reference(seed):
    gen = SplitMix64(seed)
    assert [gen.next_u64() for _ in range(8)] == reference_outputs(seed, 8)


def test_floats_are_top_53_bits():
    gen = SplitMix64(99)
    raw = reference_outputs(99, 5)
    other = SplitMix64(99)
    for r in raw:
        f = other.next_float()
        assert f == (r >> 11) * 2.0 ** -53
        assert 0.0 <= f < 1.0
    assert gen.floats(5).tolist() == [(r >> 11) * 2.0 ** -53 for r in raw]


def test_child_streams_are_the_parent_outputs():
    gen = SplitMix64(7)
    child0 = gen.child(0)
    assert child0.next_u64() == reference_outputs(reference_outputs(7, 1)[0], 1)[0]
    # children at distinct indices behave as distinct streams
    a = [gen.child(0).next_u64() for _ in range(1)]
    b = [gen.child(1).next_u64() for _ in range(1)]
    assert a != b


def test_uniform_points_deterministic_and_in_domain():
    c = circle()
    a = uniform_points(c, 12, seed=5)
    b = uniform_points(c, 12, seed=5)
    assert np.array_equal(a.points, b.points)
    assert np.all((0 <= a.points) & (a.points < math.tau))
    t = flat_torus([1.0, 4.0])
    s = uniform_points(t, 9, seed=5)
    assert s.points.shape == (9, 2)
    assert np.all(s.points < [1.0, 4.0])
    e = uniform_points(euclidean(3), 4, seed=8)
    assert np.all((0 <= e.points) & (e.points < 1.0))


def test_uniform_points_row_major_consumption():
    t = flat_torus([1.0, 1.0])
    pts = uniform_points(t, 3, seed=31).points
    expect = [(r >> 11) * 2.0 ** -53 for r in reference_outputs(31, 6)]
    assert pts.ravel().tolist() == pytest.approx(expect, abs=0.0)


def test_equispaced_circle_covering_radius():
    c = circle()
    for n in (3, 7, 24):
        assert covering_radius_circle(equispaced_circle(c, n)) == pytest.approx(
            math.pi / n, abs=1e-12)
    rotated = equispaced_circle(c, 6, phase=0.4)
    assert covering_radius_circle(rotated) == pytest.approx(math.pi / 6, abs=1e-12)


def test_grid_points_torus():
    t = flat_torus([2.0, 2.0])
    g = grid_points(t, 4)
    assert g.size == 16
    assert grid_covering_radius(t, 4) == pytest.approx(math.hypot(0.25, 0.25))
    with pytest.raises(ValueError):
        grid_points(euclidean(2), 4)
