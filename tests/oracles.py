"""Independent oracles the tests check the library against.

Everything here recomputes results through a different route than the library:
dense numpy Gaussian elimination instead of bitset reduction, full enumeration
instead of branch-and-bound, definitional subset scans instead of clique
expansion, support-set enumeration instead of Welzl's recursion, and one
broadcast (a x b x dim) difference array instead of row-blocked per-axis
accumulation. Keep these naive; clarity beats speed.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from ghbound.complexes import SimplicialComplex
from ghbound.manifolds import (CIRCLE, EUCLIDEAN, AmbientManifold,
                               normalize_points)


def gf2_rank_dense(mat: np.ndarray) -> int:
    """Rank over GF(2) by dense row elimination on a bool matrix."""
    m = mat.astype(bool).copy()
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def naive_boundary_matrix(complex_: SimplicialComplex, dim: int) -> np.ndarray:
    """Dense boundary matrix from dim-chains to (dim-1)-chains."""
    top = complex_.simplices[dim]
    if dim == 0:
        return np.zeros((0, len(top)), dtype=bool)
    faces = {s: i for i, s in enumerate(complex_.simplices[dim - 1])}
    mat = np.zeros((len(faces), len(top)), dtype=bool)
    for j, s in enumerate(top):
        for k in range(len(s)):
            mat[faces[s[:k] + s[k + 1:]], j] = True
    return mat


def naive_betti(complex_: SimplicialComplex, up_to: int) -> list[int]:
    """Betti numbers via dense ranks: beta_k = #S_k - rank d_k - rank d_{k+1}."""
    out = []
    for k in range(up_to + 1):
        n_k = len(complex_.simplices[k])
        r_k = gf2_rank_dense(naive_boundary_matrix(complex_, k))
        r_up = gf2_rank_dense(naive_boundary_matrix(complex_, k + 1))
        out.append(n_k - r_k - r_up)
    return out


def gh_exhaustive(dx: np.ndarray, dy: np.ndarray) -> float:
    """Exact GH by enumerating every function pair phi: X->Y, psi: Y->X.

    Any correspondence contains a sub-correspondence of the form
    graph(phi) union graph(psi)^T with no larger distortion, so minimizing over
    these function pairs is exact. Vectorized over all |Y|^|X| * |X|^|Y|
    combinations; intended for 4-point spaces and below.
    """
    nx, ny = len(dx), len(dy)
    phis = np.array(list(product(range(ny), repeat=nx)), dtype=np.intp)
    psis = np.array(list(product(range(nx), repeat=ny)), dtype=np.intp)
    # distortion within phi pairs alone, then within psi pairs alone
    a = np.abs(dx[None, :, :] - dy[phis[:, :, None], phis[:, None, :]]).max(axis=(1, 2))
    b = np.abs(dx[psis[:, :, None], psis[:, None, :]] - dy[None, :, :]).max(axis=(1, 2))
    # cross terms pair (x, phi(x)) against (psi(y), y)
    lhs = dx[:, psis.T]            # (nx, ny, n_psi): d_X(x, psi_j(y))
    rhs = dy[phis, :]              # (n_phi, nx, ny): d_Y(phi_i(x), y)
    cross = np.abs(lhs.transpose(2, 0, 1)[None, :, :, :]
                   - rhs[:, None, :, :]).max(axis=(2, 3))
    dis = np.maximum(np.maximum(a[:, None], b[None, :]), cross)
    return float(dis.min()) / 2.0


def vr_brute(dist: np.ndarray, scale: float, max_dim: int) -> dict[int, set]:
    """Definitional VR membership: every vertex subset with diameter < scale."""
    m = len(dist)
    out: dict[int, set] = {k: set() for k in range(max_dim + 1)}
    for k in range(max_dim + 1):
        for s in combinations(range(m), k + 1):
            if all(dist[a, b] < scale for a, b in combinations(s, 2)):
                out[k].add(s)
    return out


def _axis_wrap_dist(delta: np.ndarray, sides: np.ndarray) -> np.ndarray:
    d = np.abs(delta)
    return np.minimum(d, sides - d)


def broadcast_cross_distances(manifold: AmbientManifold, a: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
    """Geodesic distance matrix between two point arrays, shape (len(a), len(b))."""
    a = normalize_points(manifold, a)
    b = normalize_points(manifold, b)
    delta = a[:, None, :] - b[None, :, :]
    if manifold.kind == EUCLIDEAN:
        return np.sqrt(np.sum(delta * delta, axis=-1))
    per_axis = _axis_wrap_dist(delta, np.asarray(manifold.params))
    if manifold.kind == CIRCLE:
        return per_axis[:, :, 0]
    return np.sqrt(np.sum(per_axis * per_axis, axis=-1))


def circle_arc_dist(theta: float, points: np.ndarray, circumference: float) -> float:
    """Distance from an angle to a finite set of angles (min over the set)."""
    d = np.abs(points - theta)
    return float(np.minimum(d, circumference - d).min())


def min_enclosing_ball_brute(points: np.ndarray) -> float:
    """Minimal enclosing ball radius by support-subset enumeration.

    The optimal ball is determined by at most dim+1 points on its surface;
    enumerate every subset of size <= dim+1, build its smallest circumsphere,
    and keep the smallest ball that contains everything.
    """
    pts = np.asarray(points, dtype=np.float64)
    m, dim = pts.shape
    best = np.inf
    for k in range(1, min(m, dim + 1) + 1):
        for s in combinations(range(m), k):
            base = pts[s[0]]
            u = pts[list(s[1:])] - base
            if len(u):
                rhs = 0.5 * np.einsum("ij,ij->i", u, u)
                coeff, *_ = np.linalg.lstsq(u @ u.T, rhs, rcond=None)
                center = base + coeff @ u
            else:
                center = base
            r2 = float(np.max(np.sum((pts[list(s)] - center) ** 2, axis=1)))
            if np.all(np.sum((pts - center) ** 2, axis=1) <= r2 * (1 + 1e-10) + 1e-18):
                best = min(best, np.sqrt(r2))
    return float(best)


def random_complex(rng: np.random.Generator, cap: int = 200) -> SimplicialComplex:
    """A random simplicial complex with at most cap simplices.

    Half the draws close random maximal simplices downward, half take VR
    complexes of random Euclidean point clouds; both then shed top simplices
    (largest dimension first, which preserves closure) until under the cap.
    """
    if rng.random() < 0.5:
        vertices = int(rng.integers(3, 13))
        max_dim = int(rng.integers(1, 4))
        picks = int(rng.integers(1, 9))
        chosen: set[tuple[int, ...]] = set()
        for _ in range(picks):
            size = min(int(rng.integers(1, max_dim + 2)), vertices)
            chosen.add(tuple(sorted(rng.choice(vertices, size=size, replace=False))))
        simplices: dict[int, set] = {k: set() for k in range(max_dim + 1)}
        for v in range(vertices):
            simplices[0].add((v,))
        for s in chosen:
            for k in range(len(s)):
                simplices[k].update(combinations(s, k + 1))
        scale = 1.0
    else:
        vertices = int(rng.integers(4, 11))
        max_dim = int(rng.integers(1, 4))
        pts = rng.random((vertices, int(rng.integers(1, 4))))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        d = np.triu(d, 1)
        d += d.T
        scale = float(rng.uniform(0.2, 1.2))
        out: dict[int, set] = {k: set() for k in range(max_dim + 1)}
        for k in range(max_dim + 1):
            for s in combinations(range(vertices), k + 1):
                if all(d[a, b] < scale for a, b in combinations(s, 2)):
                    out[k].add(s)
        simplices = out
    while sum(len(v) for v in simplices.values()) > cap:
        top = max(k for k, v in simplices.items() if v)
        simplices[top].pop()
    return SimplicialComplex(vertices, scale, max_dim,
                             {k: tuple(v) for k, v in simplices.items()})
