"""A family where Gromov-Hausdorff is arbitrarily smaller than Hausdorff.

In R^n take the staircase points p_j = sum_{i<=j} i*e_i for j = 1..n. The full
set keeps all n points; the subset drops the last one. Removing p_n costs n in
Hausdorff distance (p_n sits at distance exactly n from its nearest neighbor
p_{n-1}). But the cyclic coordinate isometry e_i -> e_{i+1} (indices mod n)
moves every p_j close to p_{j+1}: the image of the subset is within sqrt(n) of
the full set in Hausdorff distance, so d_GH(subset, full) <= sqrt(n) and the
ratio d_GH / d_H is at most 1/sqrt(n), arbitrarily small as n grows.

All coordinates are integers in [0, n], so every norm, dot product and squared
distance here is an integer below n^3 (for n >= 4; tiny n stay tiny). They are
computed with float64 matrix products, which are exact on integers below 2^53,
so build_instance refuses n with n^3 >= 2^53. Such integers convert to float64
exactly and IEEE 754 rounds math.sqrt correctly, so square roots are exact on
perfect squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifolds import BLOCK, MAX_TABLE, FiniteSubset, euclidean


@dataclass(frozen=True)
class RatioInstance:
    """One member of the family: the staircase in R^n and its pruned subset."""

    n: int
    full_points: np.ndarray     # int64, shape (n, n), rows p_1..p_n
    subset_points: np.ndarray   # int64, shape (n-1, n), rows p_1..p_{n-1}, a view


@dataclass(frozen=True)
class RatioReport:
    """Verified quantities for one instance.

    gh_upper is the Hausdorff distance after the cyclic isometry, which bounds
    d_GH from above; ratio_upper = gh_upper / hausdorff.
    """

    n: int
    hausdorff: float
    gh_upper: float
    ratio_upper: float


def build_instance(n: int) -> RatioInstance:
    if n < 2:
        raise ValueError("n must be >= 2 (the subset must be non-empty)")
    if n ** 3 >= 2 ** 53:  # past it, float64 may round the products
        raise ValueError(f"n must have n^3 < 2^53 for exact float64 distances, not {n}")
    if n * n > MAX_TABLE:
        raise ValueError(f"n = {n} needs tables of {n * n} entries, more than the "
                         f"{MAX_TABLE} allowed")
    full = np.tril(np.broadcast_to(np.arange(1, n + 1, dtype=np.int64), (n, n)))
    return RatioInstance(n, full, full[:-1])


def apply_cyclic_isometry(points: np.ndarray) -> np.ndarray:
    """The coordinate rotation e_i -> e_{i+1} (last axis wraps to the first)."""
    return np.roll(points, 1, axis=1)


def _directed_sq(a: np.ndarray, b: np.ndarray) -> int:
    """max over rows of a of the min squared distance to rows of b, exact.

    Uses |x - y|^2 = |x|^2 + |y|^2 - 2 x.y on row blocks of a, so each
    temporary holds about BLOCK entries (one row of len(b), if that is longer).
    The products run in float64 (BLAS); every partial sum is an integer below
    2^53 for integer points within build_instance's bound, so each is exact.
    """
    a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    norms_b = np.einsum("ij,ij->i", b, b)
    rows = max(1, BLOCK // len(b))
    worst = 0
    for lo in range(0, len(a), rows):
        block = a[lo:lo + rows]
        sq = np.einsum("ij,ij->i", block, block)[:, None] + norms_b - 2 * (block @ b.T)
        worst = max(worst, int(sq.min(axis=1).max()))
    return worst


def _hausdorff_sq(a: np.ndarray, b: np.ndarray) -> int:
    return max(_directed_sq(a, b), _directed_sq(b, a))


def verify_instance(instance: RatioInstance) -> RatioReport:
    """Recompute the family's guarantees from scratch in integer arithmetic.

    Checks (and raises on failure) that dropping the last staircase point costs
    exactly n in Hausdorff distance, and that the cyclic isometry witnesses
    d_GH <= sqrt(n): isometries preserve the metric, so d_GH(subset, full) is
    at most d_H(isometry(subset), full).
    """
    n = instance.n
    full = instance.full_points.astype(np.float64)  # the one float copy
    h_sq = _hausdorff_sq(full[:-1], full)  # the subset is the first n - 1 rows
    if h_sq != n * n:
        raise ValueError(f"hausdorff distance squared is {h_sq}, expected {n * n}")
    rotated = apply_cyclic_isometry(full[:-1])
    h_rot_sq = _hausdorff_sq(rotated, full)
    if h_rot_sq != n:
        raise ValueError(f"post-isometry hausdorff squared is {h_rot_sq}, expected {n}")
    hausdorff = math.sqrt(h_sq)
    gh_upper = math.sqrt(h_rot_sq)
    return RatioReport(n, hausdorff, gh_upper, gh_upper / hausdorff)


def as_subsets(instance: RatioInstance) -> tuple[FiniteSubset, FiniteSubset]:
    """The pair as FiniteSubsets of R^n (floats), for cross-checks with gh_exact."""
    ambient = euclidean(instance.n)
    return (FiniteSubset(ambient, instance.subset_points.astype(np.float64)),
            FiniteSubset(ambient, instance.full_points.astype(np.float64)))
