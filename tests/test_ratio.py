"""Staircase family: exact integer Hausdorff values and the sqrt(n) collapse."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ghbound import (apply_cyclic_isometry, as_subsets, build_instance,
                     gh_exact, hausdorff_subsets, ratio, verify_instance)


def test_build_shape_and_rows():
    inst = build_instance(3)
    assert inst.full_points.dtype == np.int64
    expected = np.array([[1, 0, 0], [1, 2, 0], [1, 2, 3]])
    assert np.array_equal(inst.full_points, expected)
    # the retained subset drops the final staircase point
    assert np.array_equal(inst.subset_points, expected[:-1])


def test_cyclic_isometry_is_coordinate_roll():
    inst = build_instance(4)
    rolled = apply_cyclic_isometry(inst.subset_points)
    assert np.array_equal(rolled[:, 0], np.zeros(3, dtype=np.int64))
    assert np.array_equal(rolled[:, 1:], inst.subset_points[:, :-1])


@pytest.mark.parametrize("n", [2, 3, 4, 7, 25, 64])
def test_verify_exact_values(n):
    report = verify_instance(build_instance(n))
    assert report.n == n
    assert report.hausdorff == float(n)
    assert report.gh_upper == pytest.approx(math.sqrt(n))
    assert report.ratio_upper == pytest.approx(1 / math.sqrt(n))


@pytest.mark.parametrize("block", [1, 7, 2 ** 16])
def test_directed_sq_matches_broadcast(block):
    rng = np.random.default_rng(block)
    with mock.patch.object(ratio, "BLOCK", block):
        for _ in range(50):
            rows_a, rows_b, dim = rng.integers(1, 30, size=3)
            a = rng.integers(-60, 60, size=(rows_a, dim))
            b = rng.integers(-60, 60, size=(rows_b, dim))
            delta = a[:, None, :] - b[None, :, :]
            expected = int((delta * delta).sum(axis=-1).min(axis=1).max())
            assert ratio._directed_sq(a, b) == expected


def test_verify_memory_stays_quadratic():
    # the (n-1) x n x n broadcast peaked at 123 MiB here
    instance = build_instance(200)
    tracemalloc.start()
    try:
        verify_instance(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_verify_holds_three_tables():
    # the staircase, its float copy and the rotated subset: a subset copy and
    # per-call float copies of every operand made five (154 MiB)
    n = 2000
    tracemalloc.start()
    try:
        instance = build_instance(n)
        verify_instance(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * n * n * 8
    assert np.shares_memory(instance.subset_points, instance.full_points)


def test_shifted_point_distance_law():
    # rolling row j of the staircase lands near row j+1: the difference is a
    # block of j+1 ones, so the miss distance is exactly sqrt(j+1)
    inst = build_instance(12)
    rolled = apply_cyclic_isometry(inst.full_points)
    for j in range(1, 12):
        gap = inst.full_points[j] - rolled[j - 1]
        assert int((gap.astype(object) ** 2).sum()) == j + 1


def test_gh_crosscheck_small():
    for n in (2, 3, 4, 5):
        inst = build_instance(n)
        sub_x, sub_full = as_subsets(inst)
        x_space = sub_x.to_metric_space()
        full_space = sub_full.to_metric_space()
        result = gh_exact(x_space, full_space)
        assert result.proven_optimal
        report = verify_instance(inst)
        assert result.value <= report.gh_upper + 1e-9
        # and d_H dominates d_GH on the nose
        assert result.value <= hausdorff_subsets(sub_x, sub_full) + 1e-9
        assert hausdorff_subsets(sub_x, sub_full) == pytest.approx(report.hausdorff)


def test_tamper_detection():
    inst = build_instance(5)
    inst.full_points[2, 1] += 1
    with pytest.raises(ValueError, match="hausdorff"):
        verify_instance(inst)


def test_rejects_tiny_n():
    with pytest.raises(ValueError):
        build_instance(1)


def test_rejects_n_past_float64_exactness():
    # The largest value _directed_sq forms is |p_n|^2 + |p_(n-1)|^2 <=
    # 2 * sum(i^2), below n^3 from n = 4 on; float64 holds it exactly while
    # n^3 < 2^53. The check runs before the n x n staircase is allocated.
    assert all(2 * sum(i * i for i in range(1, n + 1)) < n ** 3 for n in range(4, 200))
    assert 208_063 ** 3 < 2 ** 53 <= 208_064 ** 3
    with pytest.raises(ValueError, match=r"2\^53"):
        build_instance(208_064)
