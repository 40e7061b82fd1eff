"""Occupancy-grid discretization of a repaired triangle mesh.

A mesh is scaled into the robot workspace, overlaid with a uniform cubic
grid anchored at the bounding-box minimum, and each cell is marked occupied
if the surface intersects it or if its center lies inside the solid by the
generalized winding number, which also holds on open, non-manifold and
self-overlapping meshes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .mesh_io import Aabb, TriangleMesh, bounding_box

DEFAULT_CELL_SIZE = 10.0  # cm, cubic component edge

# Separating-axis tolerance. Touching counts as intersecting, so a face
# lying exactly on a cell boundary claims both cells.
SAT_EPSILON = 1e-9

# (triangle, cell) pairs per batch of the surface and interior tests; bounds
# the temporaries at a few MB whatever the mesh and grid size
_BATCH_PAIRS = 32768

Cell = tuple[int, int, int]


@dataclass(frozen=True)
class Workspace:
    """Reachable build volume of the placement robot, in cm."""

    extent: tuple[float, float, float] = (60.0, 50.0, 60.0)

    def __post_init__(self) -> None:
        if any(e <= 0 for e in self.extent):
            raise ValueError("workspace extents must be positive")


@dataclass(frozen=True)
class GridSpec:
    origin: tuple[float, float, float]
    cell_size: float
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if not self.cell_size > 0:  # NaN fails too
            raise ValueError("cell_size must be positive")
        if any(int(d) < 1 for d in self.dims):
            raise ValueError("grid dims must be at least 1 per axis")
        far = (o + d * self.cell_size for o, d in zip(self.origin, self.dims))
        if not all(map(math.isfinite, (*self.origin, *far))):
            raise ValueError("grid origin and far corner must be finite")

    @property
    def cell_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def cell_center(self, cell: Cell) -> np.ndarray:
        return np.asarray(self.origin) + (np.asarray(cell) + 0.5) * self.cell_size

    def contains(self, cell: Cell) -> bool:
        return all(0 <= c < d for c, d in zip(cell, self.dims))


@dataclass(frozen=True)
class OccupancyGrid:
    spec: GridSpec
    occupied: frozenset[Cell]

    def __post_init__(self) -> None:
        cells = frozenset(tuple(int(c) for c in cell) for cell in self.occupied)
        for cell in cells:
            if not self.spec.contains(cell):
                raise ValueError(f"cell {cell} outside grid dims {self.spec.dims}")
        object.__setattr__(self, "occupied", cells)

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.occupied)

    def to_json(self) -> bytes:
        obj = {
            "cell_size_cm": float(self.spec.cell_size),
            "origin_cm": [float(v) for v in self.spec.origin],
            "dims": [int(d) for d in self.spec.dims],
            "occupied": [list(c) for c in self.sorted_cells()],
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes | str) -> "OccupancyGrid":
        try:
            obj = json.loads(data)
            spec = GridSpec(
                origin=tuple(float(v) for v in obj["origin_cm"]),
                cell_size=float(obj["cell_size_cm"]),
                dims=tuple(map(whole_number, obj["dims"])),
            )
            occupied = frozenset(tuple(map(whole_number, cell)) for cell in obj["occupied"])
            if len(spec.origin) != 3 or len(spec.dims) != 3:
                raise ValueError("origin_cm and dims must have 3 entries")
            if any(len(cell) != 3 for cell in obj["occupied"]):
                raise ValueError("occupied cells must be index triples")
            return cls(spec, occupied)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise SchemaError(f"not a valid occupancy grid document: {exc}") from exc


def whole_number(value) -> int:
    """A JSON index or count as an int; booleans and fractions raise."""
    whole = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not whole or int(value) != value:  # int() of an infinity overflows
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def component_count(grid: OccupancyGrid) -> int:
    return len(grid.occupied)


def fit_to_workspace(
    mesh: TriangleMesh, workspace: Workspace, max_scale: float | None = 1.0
) -> tuple[TriangleMesh, float]:
    """Uniformly scale and translate the mesh into ``[0, extent]`` per axis.

    The scale factor is the most constraining extent ratio, capped at
    ``max_scale`` (default 1.0: never upscale; pass ``None`` to uncap).
    The bounding-box minimum lands exactly on the origin.
    """
    box = bounding_box(mesh)
    extents = box.extents
    ratios = [
        ws / ext for ws, ext in zip(workspace.extent, extents) if ext > 0.0
    ]
    scale = min(ratios) if ratios else 1.0
    if max_scale is not None:
        scale = min(scale, max_scale)
    offset = np.asarray(box.min_corner)
    return mesh.with_vertices((mesh.vertices - offset) * scale), float(scale)


def build_grid(box: Aabb, cell_size: float = DEFAULT_CELL_SIZE) -> GridSpec:
    """Grid anchored at the box minimum, ceil(extent / cell) cells per axis."""
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    dims = tuple(
        # tiny slack so float noise on exact multiples does not add a layer
        max(1, math.ceil(ext / cell_size - 1e-12))
        for ext in box.extents
    )
    return GridSpec(origin=box.min_corner, cell_size=float(cell_size), dims=dims)


def voxelize(mesh: TriangleMesh, spec: GridSpec) -> OccupancyGrid:
    """Mark every cell the surface intersects, then every cell inside it.

    The surface test is an exact triangle/box separating-axis test with a
    1e-9 epsilon (touching counts), run over every (triangle, cell) pair
    with the cell inside the triangle's bounding range. A cell without
    surface contact is inside when the mesh's generalized winding number at
    its center exceeds 1/2 in magnitude: the solid with its enclosed
    cavities, also for open, non-manifold or overlapping-part meshes. Both
    tests run in fixed-size batches. Deterministic.
    """
    cell = spec.cell_size
    origin = np.asarray(spec.origin, dtype=np.float64)
    filled = np.zeros(spec.dims, dtype=bool)
    coords = mesh.triangle_coords()
    if len(coords):
        _mark_surface(coords, origin, cell, filled)
        _mark_interior(coords, origin, cell, filled)
    occupied = frozenset(map(tuple, np.argwhere(filled).tolist()))
    return OccupancyGrid(spec, occupied)


def _mark_surface(
    coords: np.ndarray, origin: np.ndarray, cell: float, filled: np.ndarray
) -> None:
    dims = np.asarray(filled.shape, dtype=np.int64)
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
    lo = np.floor((_column_min(a, b, c) - origin - SAT_EPSILON) / cell).astype(np.int64)
    hi = np.floor((_column_max(a, b, c) - origin + SAT_EPSILON) / cell).astype(np.int64)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, dims - 1)
    span = np.maximum(hi - lo + 1, 0)
    counts = span[:, 0] * span[:, 1] * span[:, 2]
    ends = np.cumsum(counts)
    # candidate pair p is cell number p - (ends[t] - counts[t]) of triangle t's range
    for begin in range(0, int(ends[-1]), _BATCH_PAIRS):
        pair = np.arange(begin, min(begin + _BATCH_PAIRS, int(ends[-1])))
        tri = np.searchsorted(ends, pair, side="right")
        local = pair - (ends[tri] - counts[tri])
        ny, nz = span[tri, 1], span[tri, 2]
        ijk = lo[tri] + np.stack([local // (ny * nz), local // nz % ny, local % nz], axis=1)
        centers = origin + (ijk + 0.5) * cell
        hit = _triangle_box_intersect(coords[tri], centers, cell / 2.0)
        filled[tuple(ijk[hit].T)] = True


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[r], b[r])`` per row.

    A stacked matmul hands each row to the same BLAS dot kernel ``np.dot``
    uses for one pair of vectors, so the rounding (fused multiply-adds
    included) is that of the per-pair test; a plain sum of products is not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _triangle_box_intersect(tri: np.ndarray, center: np.ndarray, half: float) -> np.ndarray:
    """13-axis SAT (Akenine-Moller) per (triangle, box) row: 3 box normals,
    1 face normal, 9 edge crosses. Returns the rows that intersect."""
    v = tri - center[:, None, :]
    eps = SAT_EPSILON
    low = _column_min(v[:, 0], v[:, 1], v[:, 2]) > half + eps
    high = _column_max(v[:, 0], v[:, 1], v[:, 2]) < -half - eps
    keep = ~(low | high).any(axis=1)

    edges = (v[:, 1] - v[:, 0], v[:, 2] - v[:, 1], v[:, 0] - v[:, 2])

    normal = np.cross(edges[0], edges[1])
    length = np.sqrt(_rowdot(normal, normal))
    tilted = length > 0
    normal = normal / np.where(tilted, length, 1.0)[:, None]
    dist = _rowdot(normal, v[:, 0])
    radius = half * _abs_sum(normal)
    keep &= ~(tilted & (np.abs(dist) > radius + eps))

    for edge in edges:
        for axis in range(3):
            unit = np.zeros(3)
            unit[axis] = 1.0
            sep = np.cross(unit, edge)
            length = np.sqrt(_rowdot(sep, sep))
            usable = length >= 1e-12
            sep = sep / np.where(usable, length, 1.0)[:, None]
            proj = np.matmul(v, sep[:, :, None])[:, :, 0]  # per-row ``v @ sep``
            radius = half * _abs_sum(sep)
            p0, p1, p2 = proj[:, 0], proj[:, 1], proj[:, 2]
            separated = (_column_min(p0, p1, p2) > radius + eps) | (
                _column_max(p0, p1, p2) < -radius - eps
            )
            keep &= ~(usable & separated)
    return keep


def _column_min(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.minimum(np.minimum(a, b), c)


def _column_max(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(a, b), c)


def _abs_sum(rows: np.ndarray) -> np.ndarray:
    """``np.abs(row).sum()`` per row, in its left-to-right order."""
    a = np.abs(rows)
    return a[:, 0] + a[:, 1] + a[:, 2]


def _mark_interior(
    coords: np.ndarray, origin: np.ndarray, cell: float, filled: np.ndarray
) -> None:
    """Fill each free cell whose center has a generalized winding number
    |w| > 1/2 (Jacobson, Kavan & Sorkine-Hornung 2013): the triangles' Van
    Oosterom-Strackee solid angles, tan(omega / 2) = det / den, over 4 pi.
    A free cell's box touches no triangle, so on a closed mesh its center
    is half a cell or more off the surface and w is an integer up to rounding.
    """
    free = np.argwhere(~filled)
    corners = coords.transpose(1, 2, 0)[:, :, None, :]  # corner, axis, 1, triangle
    per_batch = max(1, _BATCH_PAIRS // len(coords))
    for begin in range(0, len(free), per_batch):
        cells = free[begin:begin + per_batch]
        # corner offsets from each center, laid out axis, cell, triangle
        a, b, c = corners - (origin + (cells + 0.5) * cell).T[:, :, None]
        la, lb, lc = (np.sqrt(_dot(v, v)) for v in (a, b, c))
        det = _dot(a, (b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2],
                       b[0] * c[1] - b[1] * c[0]))
        den = la * lb * lc + _dot(a, b) * lc + _dot(b, c) * la + _dot(c, a) * lb
        w = np.arctan2(det, den).sum(axis=1) / (2.0 * np.pi)
        filled[tuple(cells[np.abs(w) > 0.5].T)] = True


def _dot(u, v) -> np.ndarray:
    """Dot product over the leading axis, in x + y + z order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
