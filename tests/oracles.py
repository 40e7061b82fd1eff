"""Slow scalar reference implementations of the vectorized mesh front end.

These are the original per-vertex, per-triangle and per-cell loops of
``blockplan.mesh_io`` and ``blockplan.discretizer``. The randomized
equivalence tests require the numpy implementations to reproduce them
exactly: same vertices, triangles, repair summary and occupied cells.
The weld oracle needs scipy, which is a test-only dependency.
"""
from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
from scipy.spatial import cKDTree

from blockplan.discretizer import _RAY_DIR, SAT_EPSILON, GridSpec, OccupancyGrid
from blockplan.mesh_io import (
    DEFAULT_WELD_TOLERANCE,
    DEGENERATE_AREA,
    RepairSummary,
    TriangleMesh,
    is_manifold,
)

# --- repair ------------------------------------------------------------------


def repair_mesh(
    mesh: TriangleMesh, weld_tolerance: float = DEFAULT_WELD_TOLERANCE
) -> TriangleMesh:
    """Weld, drop degenerate and duplicate triangles, unify windings."""
    if weld_tolerance < 0:
        raise ValueError("weld_tolerance must be >= 0")
    verts = np.array(mesh.vertices, dtype=np.float64)
    tris = np.array(mesh.triangles, dtype=np.int64)

    welded = 0
    if len(verts) > 1 and weld_tolerance > 0:
        verts, tris, welded = weld(verts, tris, weld_tolerance)

    degenerate = 0
    if len(tris):
        distinct = (
            (tris[:, 0] != tris[:, 1])
            & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2])
        )
        degenerate += int((~distinct).sum())
        tris = tris[distinct]
    if len(tris):
        coords = verts[tris]
        areas = 0.5 * np.linalg.norm(
            np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]), axis=1
        )
        thin = areas < DEGENERATE_AREA
        degenerate += int(thin.sum())
        tris = tris[~thin]

    duplicates = 0
    if len(tris):
        keys = np.sort(tris, axis=1)
        _, first = np.unique(keys, axis=0, return_index=True)
        duplicates = len(tris) - len(first)
        tris = tris[np.sort(first)]

    flipped = 0
    if len(tris):
        tris, flipped = unify_windings(tris)

    manifold = is_manifold_triangles(tris)

    if len(tris):
        used = np.unique(tris)
        if len(used) < len(verts):
            remap = np.full(len(verts), -1, dtype=np.int64)
            remap[used] = np.arange(len(used))
            verts = verts[used]
            tris = remap[tris]

    summary = RepairSummary(welded, degenerate, duplicates, flipped, manifold)
    return TriangleMesh(verts, tris, mesh.format_origin, summary)


def weld(
    verts: np.ndarray, tris: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """k-d tree pairs plus union-find; the smaller index is the root."""
    pairs = cKDTree(verts).query_pairs(tolerance, output_type="ndarray")
    if not len(pairs):
        return verts, tris, 0
    parent = np.arange(len(verts))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    roots = np.array([find(i) for i in range(len(verts))])
    reps = np.unique(roots)
    new_index = np.full(len(verts), -1, dtype=np.int64)
    new_index[reps] = np.arange(len(reps))
    mapped = new_index[roots]
    return verts[reps], mapped[tris] if len(tris) else tris, len(verts) - len(reps)


def unify_windings(tris: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first flip so manifold edges run in opposite directions."""
    tris = tris.copy()
    edge_owners: dict[tuple[int, int], list[int]] = defaultdict(list)
    for t, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_owners[(min(u, v), max(u, v))].append(t)

    def directed_edges(t: int) -> tuple[tuple[int, int], ...]:
        a, b, c = tris[t]
        return ((a, b), (b, c), (c, a))

    flipped = 0
    seen = np.zeros(len(tris), dtype=bool)
    for seed in range(len(tris)):
        if seen[seed]:
            continue
        seen[seed] = True
        queue = deque([seed])
        while queue:
            t = queue.popleft()
            for u, v in directed_edges(t):
                owners = edge_owners[(min(u, v), max(u, v))]
                if len(owners) != 2:
                    continue
                other = owners[0] if owners[1] == t else owners[1]
                if seen[other]:
                    continue
                if (u, v) in directed_edges(other):
                    tris[other] = tris[other][::-1]
                    flipped += 1
                seen[other] = True
                queue.append(other)
    return tris, flipped


def is_manifold_triangles(tris: np.ndarray) -> bool:
    if not len(tris):
        return False
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return bool((counts == 2).all())


# --- voxelize ------------------------------------------------------------------


def voxelize(mesh: TriangleMesh, spec: GridSpec) -> OccupancyGrid:
    """Per-triangle, per-candidate-cell SAT plus one parity ray per free cell."""
    cell = spec.cell_size
    origin = np.asarray(spec.origin, dtype=np.float64)
    dims = np.asarray(spec.dims, dtype=np.int64)
    half = cell / 2.0

    occupied: set[tuple[int, int, int]] = set()
    coords = mesh.triangle_coords()
    for tri in coords:
        lo = np.floor((tri.min(axis=0) - origin - SAT_EPSILON) / cell).astype(np.int64)
        hi = np.floor((tri.max(axis=0) - origin + SAT_EPSILON) / cell).astype(np.int64)
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, dims - 1)
        if np.any(hi < lo):
            continue
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                for k in range(lo[2], hi[2] + 1):
                    key = (i, j, k)
                    if key in occupied:
                        continue
                    center = origin + (np.array([i, j, k]) + 0.5) * cell
                    if triangle_box_intersect(tri, center, half):
                        occupied.add(key)

    if len(coords) and is_manifold(mesh):
        for i in range(spec.dims[0]):
            for j in range(spec.dims[1]):
                for k in range(spec.dims[2]):
                    key = (i, j, k)
                    if key in occupied:
                        continue
                    center = origin + (np.array([i, j, k]) + 0.5) * cell
                    if point_inside(center, coords):
                        occupied.add(key)

    return OccupancyGrid(spec, frozenset(occupied))


def triangle_box_intersect(tri: np.ndarray, center: np.ndarray, half: float) -> bool:
    """13-axis SAT (Akenine-Moller): 3 box normals, 1 face normal, 9 edge crosses."""
    v = tri - center
    eps = SAT_EPSILON

    for axis in range(3):
        if v[:, axis].min() > half + eps or v[:, axis].max() < -half - eps:
            return False

    edges = (v[1] - v[0], v[2] - v[1], v[0] - v[2])

    normal = np.cross(edges[0], edges[1])
    length = np.linalg.norm(normal)
    if length > 0:
        normal = normal / length
        dist = float(np.dot(normal, v[0]))
        radius = half * float(np.abs(normal).sum())
        if abs(dist) > radius + eps:
            return False

    for edge in edges:
        for axis in range(3):
            unit = np.zeros(3)
            unit[axis] = 1.0
            sep = np.cross(unit, edge)
            length = np.linalg.norm(sep)
            if length < 1e-12:
                continue
            sep = sep / length
            proj = v @ sep
            radius = half * float(np.abs(sep).sum())
            if proj.min() > radius + eps or proj.max() < -radius - eps:
                return False
    return True


def point_inside(point: np.ndarray, coords: np.ndarray) -> bool:
    """Even-odd ray parity along the tilted ray, Moller-Trumbore per triangle."""
    v0 = coords[:, 0]
    e1 = coords[:, 1] - v0
    e2 = coords[:, 2] - v0
    h = np.cross(_RAY_DIR, e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = point - v0
    u = inv * np.einsum("ij,ij->i", s, h)
    q = np.cross(s, e1)
    view = inv * (q @ _RAY_DIR)
    t = inv * np.einsum("ij,ij->i", e2, q)
    tol = 1e-12
    hits = ok & (u >= -tol) & (view >= -tol) & (u + view <= 1.0 + tol) & (t > tol)
    return bool(hits.sum() % 2 == 1)
