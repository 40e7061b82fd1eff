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
from itertools import chain

import numpy as np

from .errors import SchemaError
from .mesh_io import Aabb, TriangleMesh, bounding_box

DEFAULT_CELL_SIZE = 10.0  # cm, cubic component edge

# Separating-axis tolerance. Touching counts as intersecting, so a face
# lying exactly on a cell boundary claims both cells.
SAT_EPSILON = 1e-9

# (triangle, cell) pairs per batch of the surface and interior tests; bounds
# the temporaries near 2 MB per array whatever the mesh and grid size
_BATCH_PAIRS = 8192

# the x, y and z box normals, laid out axis, candidate, 1
_BOX_NORMALS = np.eye(3)[:, :, None]
# per SAT candidate axis, the least length that separates: any for the box
# normals and the face normal, 1e-12 for an edge cross
_LEAST_AXIS_LENGTH = np.array([0.0] * 4 + [1e-12] * 9)[:, None]

Cell = tuple[int, int, int]


@dataclass(frozen=True)
class GridSpec:
    origin: tuple[float, float, float]
    cell_size: float
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if not self.cell_size > 0:  # NaN fails too
            raise ValueError("cell_size must be positive")
        if len(self.origin) != 3 or len(self.dims) != 3:
            raise ValueError("grid origin and dims must have 3 entries")
        if any(int(d) < 1 for d in self.dims):
            raise ValueError("grid dims must be at least 1 per axis")
        far = (o + d * self.cell_size for o, d in zip(self.origin, self.dims))
        if not all(map(math.isfinite, (*self.origin, *far))):
            raise ValueError("grid origin and far corner must be finite")

    @property
    def cell_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def contains(self, cell: Cell) -> bool:
        return all(0 <= c < d for c, d in zip(cell, self.dims))


@dataclass(frozen=True)
class OccupancyGrid:
    spec: GridSpec
    occupied: frozenset[Cell]

    def __post_init__(self) -> None:
        cells = index_triples(self.occupied, "occupied cells")
        occupied = frozenset(cells)
        values = list(chain.from_iterable(cells))
        axes = zip((values[axis::3] for axis in range(3)), self.spec.dims)
        if cells and not all(0 <= min(v) and max(v) < d for v, d in axes):
            bad = next(c for c in cells if not self.spec.contains(c))
            raise ValueError(f"cell {bad} outside grid dims {self.spec.dims}")
        object.__setattr__(self, "occupied", occupied)

    @classmethod
    def from_array(cls, spec: GridSpec, filled: np.ndarray) -> "OccupancyGrid":
        """The grid of the true cells of a boolean array of ``spec.dims``."""
        return cls(spec, map(tuple, np.argwhere(filled).tolist()))

    def to_array(self) -> np.ndarray:
        """The occupied cells as a boolean array of ``spec.dims``."""
        filled = np.zeros(self.spec.dims, dtype=bool)
        filled[tuple(np.array(list(self.occupied), dtype=np.int64).reshape(-1, 3).T)] = True
        return filled

    def to_json(self) -> bytes:
        spec = self.spec
        origin = json_triple(2) % tuple(map(float, spec.origin))
        dims = json_triple(2) % tuple(map(int, spec.dims))
        occupied = json_list(map(json_triple(4).__mod__, sorted(self.occupied)), 2)
        return (
            f'{{\n  "cell_size_cm": {float(spec.cell_size)!r},\n  "origin_cm": {origin},\n'
            f'  "dims": {dims},\n  "occupied": {occupied}\n}}\n'
        ).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes | str) -> "OccupancyGrid":
        try:
            obj = json.loads(data)
            spec = GridSpec(
                origin=tuple(map(real_number, obj["origin_cm"])),
                cell_size=real_number(obj["cell_size_cm"]),
                dims=tuple(map(whole_number, obj["dims"])),
            )
            return cls(spec, obj["occupied"])
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise SchemaError(f"not a valid occupancy grid document: {exc}") from exc


def index_triples(cells, what: str = "cells") -> tuple[Cell, ...]:
    """``cells`` as int triples; ValueError unless each is three whole numbers.
    C-level passes accept lists and tuples of three ints; only when they fail does
    a per-value pass run, which converts 3.0 and numpy integers or names the offender."""
    cells = tuple(cells)
    if set(map(type, cells)) <= {tuple, list} and set(map(len, cells)) <= {3}:
        if set(map(type, chain.from_iterable(cells))) <= {int}:
            return tuple(map(tuple, cells))
    try:
        cells = tuple(tuple(map(whole_number, cell)) for cell in cells)
    except (TypeError, OverflowError) as exc:  # a cell that is no list, an infinity
        raise ValueError(str(exc)) from exc
    if any(len(cell) != 3 for cell in cells):
        raise ValueError(f"{what} must be index triples")
    return cells


def json_triple(indent: int) -> str:
    """The ``json.dumps(indent=2)`` layout of a number triple whose "[" ends a
    line indented by ``indent`` spaces, with a ``%s`` slot per number: ``str``
    prints ints and finite floats as the json module does."""
    pad = " " * indent
    return f"[\n{pad}  %s,\n{pad}  %s,\n{pad}  %s\n{pad}]"


def json_list(items, indent: int) -> str:
    """The ``json.dumps(indent=2)`` layout of a list of already laid out
    values whose "[" ends a line indented by ``indent`` spaces."""
    pad = "\n" + " " * indent
    body = f",{pad}  ".join(items)
    return f"[{pad}  {body}{pad}]" if body else "[]"


def whole_number(value) -> int:
    """A JSON index or count (or a numpy integer) as an int; booleans and fractions raise."""
    whole = isinstance(value, (int, float, np.integer)) and not isinstance(value, bool)
    if not whole or int(value) != value:  # int() of an infinity overflows
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def real_number(value) -> float:
    """A JSON number as a float; float() would also read "5", ".5" and true."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"needs a JSON number, not {type(value).__name__}")
    return float(value)


def fit_to_workspace(
    mesh: TriangleMesh, workspace: tuple[float, float, float], max_scale: float | None = 1.0
) -> tuple[TriangleMesh, float]:
    """Uniformly scale and translate the mesh into ``[0, extent]`` per axis.

    ``workspace`` holds the three extents in cm; each must be positive.
    The scale factor is the most constraining extent ratio, capped at
    ``max_scale`` (default 1.0: never upscale; pass ``None`` to uncap).
    The bounding-box minimum lands exactly on the origin.
    """
    if len(workspace) != 3 or not all(e > 0 for e in workspace):
        raise ValueError("workspace extents must be positive and three in number")
    box = bounding_box(mesh)
    ratios = [ws / ext for ws, ext in zip(workspace, box.extents) if ext > 0.0]
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
    """The grid of the cells ``occupancy`` marks."""
    return OccupancyGrid.from_array(spec, occupancy(mesh, spec))


def occupancy(
    mesh: TriangleMesh, spec: GridSpec, *, surface_limit: int | None = None
) -> np.ndarray:
    """Mark every cell the surface intersects, then every cell inside it, in
    a boolean array of ``spec.dims``.

    The surface test is an exact triangle/box separating-axis test with a
    1e-9 epsilon (touching counts), run over every (triangle, cell) pair
    with the cell inside the triangle's bounding range. A cell without
    surface contact is inside when the mesh's generalized winding number at
    its center exceeds 1/2 in magnitude: the solid with its enclosed
    cavities, also for open, non-manifold or overlapping-part meshes. Both
    tests run in fixed-size batches. Deterministic. A triangle inside one
    cell and an already-filled cell skip the SAT test, and a rescale step
    that cannot fit skips the interior: when the surface alone fills more
    than ``surface_limit`` cells, the array holds those surface cells only.
    """
    cell = spec.cell_size
    origin = np.asarray(spec.origin, dtype=np.float64)
    filled = np.zeros(spec.dims, dtype=bool)
    coords = mesh.triangle_coords()
    if len(coords):
        _mark_surface(coords, origin, cell, filled)
        if surface_limit is None or np.count_nonzero(filled) <= surface_limit:
            _mark_interior(coords, origin, cell, filled)
    return filled


def _mark_surface(
    coords: np.ndarray, origin: np.ndarray, cell: float, filled: np.ndarray
) -> None:
    dims = np.asarray(filled.shape, dtype=np.int64)
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
    lo = np.floor((_column_min(a, b, c) - origin - SAT_EPSILON) / cell).astype(np.int64)
    hi = np.floor((_column_max(a, b, c) - origin + SAT_EPSILON) / cell).astype(np.int64)
    # a triangle whose widened range is one cell of the grid lies at least
    # SAT_EPSILON inside that cell, so it meets the cell without a test
    inner = ((lo == hi) & (lo >= 0) & (hi < dims)).all(axis=1)
    filled[tuple(lo[inner].T)] = True
    coords, lo, hi = coords[~inner], np.maximum(lo[~inner], 0), np.minimum(hi[~inner], dims - 1)
    span = np.maximum(hi - lo + 1, 0)
    counts = span[:, 0] * span[:, 1] * span[:, 2]
    ends = np.cumsum(counts)
    total = int(counts.sum())
    # candidate pair p is cell number p - (ends[t] - counts[t]) of triangle t's range
    for begin in range(0, total, _BATCH_PAIRS):
        pair = np.arange(begin, min(begin + _BATCH_PAIRS, total))
        tri = np.searchsorted(ends, pair, side="right")
        local = pair - (ends[tri] - counts[tri])
        ny, nz = span[tri, 1], span[tri, 2]
        ijk = lo[tri] + np.stack([local // (ny * nz), local // nz % ny, local % nz], axis=1)
        free = ~filled[tuple(ijk.T)]  # a filled cell needs no test
        if not free.any():
            continue
        tri, ijk = tri[free], ijk[free]
        centers = origin + (ijk + 0.5) * cell
        hit = _triangle_box_intersect(coords[tri], centers, cell / 2.0)
        filled[tuple(ijk[hit].T)] = True


def _triangle_box_intersect(tri: np.ndarray, center: np.ndarray, half: float) -> np.ndarray:
    """13-axis SAT (Akenine-Moller) per (triangle, box) row, every axis at
    once: 3 box normals, 1 face normal, 9 edge crosses. Dot products are
    plain sums x + y + z, so no BLAS kernel sets the rounding. Returns the
    rows that intersect."""
    v = (tri - center[:, None, :]).transpose(2, 1, 0)  # axis, corner, row
    ex, ey, ez = edges = v[:, [1, 2, 0]] - v  # v1 - v0, v2 - v1, v0 - v2
    zero = np.zeros_like(ex)
    # axis, candidate, row: the box normals, the face normal and the x, y and
    # z unit vectors crossed with each edge, as np.cross gives them up to the
    # sign of a zero
    axes = np.concatenate(
        [np.broadcast_to(_BOX_NORMALS, (3, 3, len(tri))),
         np.cross(edges[:, 0], edges[:, 1], axis=0)[:, None],
         np.stack((zero, -ez, ey)), np.stack((ez, zero, -ex)), np.stack((-ey, ex, zero))],
        axis=1,
    )
    length = np.sqrt(_dot(axes, axes))
    usable = (length > 0) & (length >= _LEAST_AXIS_LENGTH)
    axes = axes / np.where(usable, length, 1.0)
    p0, p1, p2 = (_dot(v[:, corner, None], axes) for corner in range(3))  # candidate, row
    p1[3] = p2[3] = p0[3]  # the face normal is tested at the first corner
    size = np.abs(axes)
    radius = half * (size[0] + size[1] + size[2])
    separated = (_column_min(p0, p1, p2) > radius + SAT_EPSILON) | (
        _column_max(p0, p1, p2) < -radius - SAT_EPSILON
    )
    return ~(usable & separated).any(axis=0)


def _column_min(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.minimum(np.minimum(a, b), c)


def _column_max(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(a, b), c)


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
    per_slice = _BATCH_PAIRS // per_batch  # all triangles, unless they alone pass the budget
    for begin in range(0, len(free), per_batch):
        cells = free[begin:begin + per_batch]
        centers = (origin + (cells + 0.5) * cell).T[:, :, None]
        # each (cell, triangle) solid angle, filled a triangle slice at a time and
        # summed at once along the triangles, so that w does not depend on the slices
        angles = np.empty((len(cells), len(coords)))
        for start in range(0, len(coords), per_slice):
            # corner offsets from each center, laid out axis, cell, triangle
            a, b, c = corners[..., start:start + per_slice] - centers
            la, lb, lc = (np.sqrt(_dot(v, v)) for v in (a, b, c))
            det = _dot(a, (b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2],
                           b[0] * c[1] - b[1] * c[0]))
            den = la * lb * lc + _dot(a, b) * lc + _dot(b, c) * la + _dot(c, a) * lb
            angles[:, start:start + per_slice] = np.arctan2(det, den)
        w = angles.sum(axis=1) / (2.0 * np.pi)
        filled[tuple(cells[np.abs(w) > 0.5].T)] = True


def _dot(u, v) -> np.ndarray:
    """Dot product over the leading axis, in x + y + z order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
