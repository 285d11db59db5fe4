"""Deterministic samplers.

Randomness comes from a splitmix64 generator so that sampled instances are
reproducible from a single 64-bit seed, independent of platform and of numpy
version. The generator is counter-based: output k is mix64(seed + (k+1)*GAMMA),
which also gives cheap independent substreams (substream k is a fresh generator
seeded with output k of the parent).

Floats in [0, 1) take the top 53 bits of an output: (u >> 11) * 2**-53.
Samplers consume one float per coordinate in row-major point order.
"""

from __future__ import annotations

import math

import numpy as np

from .manifolds import (CIRCLE, FLAT_TORUS, AmbientManifold, FiniteSubset,
                        grid_axes)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream over a 64-bit state."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, n: int) -> int:
        # rejection-free modulo is fine here; streams feed float-heavy samplers
        # and the bias at desk-scale n is far below any tolerance in play
        return self.next_u64() % n

    def child(self, index: int) -> "SplitMix64":
        seed = mix64((self._state + (index + 1) * _GAMMA) & _MASK64)
        return SplitMix64(seed)

    def floats(self, count: int) -> np.ndarray:
        return np.array([self.next_float() for _ in range(count)], dtype=np.float64)


def equispaced_circle(manifold: AmbientManifold, count: int, phase: float = 0.0) -> FiniteSubset:
    """count equally spaced points, optionally rotated by phase (arc length)."""
    if manifold.kind != CIRCLE:
        raise ValueError("equispaced_circle needs a circle manifold")
    if count < 1:
        raise ValueError("count must be >= 1")
    circumference = manifold.params[0]
    theta = phase + np.arange(count) * (circumference / count)
    return FiniteSubset(manifold, theta)


def uniform_points(manifold: AmbientManifold, count: int, seed: int) -> FiniteSubset:
    """count points sampled coordinate-wise from splitmix64 floats.

    Circle and torus coordinates are uniform over the fundamental domain.
    Euclidean coordinates are uniform over [0, 1)^n.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = SplitMix64(seed)
    u = rng.floats(count * manifold.dim).reshape(count, manifold.dim)
    if manifold.kind in (CIRCLE, FLAT_TORUS):
        u = u * np.asarray(manifold.params)
    return FiniteSubset(manifold, u)


def grid_points(manifold: AmbientManifold, per_axis: int) -> FiniteSubset:
    """Regular lattice with per_axis points along each axis (witness grids),
    the product of grid_axes in row-major order."""
    mesh = np.meshgrid(*grid_axes(manifold, per_axis), indexing="ij")
    return FiniteSubset(manifold, np.stack([m.ravel() for m in mesh], axis=-1))


def grid_covering_radius(manifold: AmbientManifold, per_axis: int) -> float:
    """Covering radius of grid_points(manifold, per_axis), exact for flat models."""
    if manifold.kind == CIRCLE:
        return manifold.params[0] / (2 * per_axis)
    if manifold.kind == FLAT_TORUS:
        return math.sqrt(sum((side / (2 * per_axis)) ** 2 for side in manifold.params))
    raise ValueError("grid_covering_radius supports circle and flat torus manifolds")
