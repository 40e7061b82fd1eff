"""Triangle mesh ingestion: STL/OBJ parsing, repair, measurement.

All coordinates are centimeters. Parsing keeps the file geometry verbatim,
duplicated vertices included; :func:`repair_mesh` is the canonicalization
step that welds vertices, drops junk triangles and unifies windings.
"""
from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyMesh, MalformedFile, UnsupportedFormat

DEFAULT_WELD_TOLERANCE = 1e-4  # cm; far below the component scale
DEGENERATE_AREA = 1e-9  # cm^2; triangles thinner than this are dropped

# Weld hash grid: cell indices of up to 20 bits per axis, shifted by one so
# the -1 neighbour offsets stay non-negative, pack into one int64 key.
_WELD_CELL_BITS = 20
_WELD_RADIX = (1 << _WELD_CELL_BITS) + 3
# the own cell first, then the 13 neighbours that follow it in key order
_WELD_OFFSETS = tuple(
    (dx * _WELD_RADIX + dy) * _WELD_RADIX + dz
    for dx in (0, 1)
    for dy in ((0, 1) if dx == 0 else (-1, 0, 1))
    for dz in ((0, 1) if dx == dy == 0 else (-1, 0, 1))
)

_BINARY_STL_HEADER = 80
_BINARY_STL_RECORD = 50
_BINARY_STL_DTYPE = np.dtype(
    [("normal", "<f4", 3), ("verts", "<f4", (3, 3)), ("attr", "<u2")]
)


class MeshFormat(Enum):
    STL_ASCII = "stl_ascii"
    STL_BINARY = "stl_binary"
    OBJ = "obj"


@dataclass(frozen=True)
class RepairSummary:
    """Bookkeeping from :func:`repair_mesh`."""

    welded_vertices: int
    removed_degenerate: int
    removed_duplicates: int
    flipped_triangles: int
    manifold: bool

    def to_dict(self) -> dict:
        return {
            "welded_vertices": self.welded_vertices,
            "removed_degenerate": self.removed_degenerate,
            "removed_duplicates": self.removed_duplicates,
            "flipped_triangles": self.flipped_triangles,
            "manifold": self.manifold,
        }


@dataclass(eq=False)
class TriangleMesh:
    """Indexed triangle soup. Treated as immutable after construction."""

    vertices: np.ndarray  # (n, 3) float64, cm
    triangles: np.ndarray  # (m, 3) int64 indices into vertices
    format_origin: MeshFormat | None = None
    repair: RepairSummary | None = None

    def __post_init__(self) -> None:
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if verts.size == 0:
            verts = verts.reshape(0, 3)
        if tris.size == 0:
            tris = tris.reshape(0, 3)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError("vertices must have shape (n, 3)")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("triangles must have shape (m, 3)")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise ValueError("triangle index out of range")
        verts.setflags(write=False)
        tris.setflags(write=False)
        self.vertices = verts
        self.triangles = tris

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def triangle_coords(self) -> np.ndarray:
        """World coordinates per triangle, shape (m, 3, 3)."""
        return self.vertices[self.triangles]

    def with_vertices(self, vertices: np.ndarray) -> "TriangleMesh":
        """Same topology with replaced vertex positions."""
        return TriangleMesh(vertices, self.triangles, self.format_origin, self.repair)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box, inclusive corners."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    def __post_init__(self) -> None:
        if any(lo > hi for lo, hi in zip(self.min_corner, self.max_corner)):
            raise ValueError("min_corner must not exceed max_corner")

    @property
    def extents(self) -> tuple[float, float, float]:
        return tuple(hi - lo for lo, hi in zip(self.min_corner, self.max_corner))


def bounding_box(mesh: TriangleMesh) -> Aabb:
    """Tight box of all vertices. A single vertex yields a zero-extent box."""
    if mesh.vertex_count == 0:
        raise EmptyMesh("mesh has no vertices")
    mins = mesh.vertices.min(axis=0)
    maxs = mesh.vertices.max(axis=0)
    return Aabb(tuple(float(v) for v in mins), tuple(float(v) for v in maxs))


# --- parsing ---------------------------------------------------------------


def parse_mesh(data: bytes, format_hint: MeshFormat | str | None = None) -> TriangleMesh:
    """Parse STL (ASCII or binary) or OBJ bytes into a mesh.

    ``format_hint`` may be a :class:`MeshFormat`, a generic string such as
    ``"stl"`` or ``"obj"``, or ``None`` for full auto-detection.
    """
    if not data:
        raise MalformedFile("empty input")
    fmt = _resolve_format(data, format_hint)
    if fmt is MeshFormat.STL_ASCII:
        mesh = _parse_stl_ascii(data)
    elif fmt is MeshFormat.STL_BINARY:
        mesh = _parse_stl_binary(data)
    else:
        mesh = _parse_obj(data)
    if not finite_extent(mesh.vertices):
        raise MalformedFile("vertex coordinates and their extent must be finite")
    return mesh


def finite_extent(vertices: np.ndarray) -> bool:
    """True when every coordinate and each axis's max - min are finite."""
    if not np.isfinite(vertices).all():
        return False
    with np.errstate(over="ignore"):
        return len(vertices) == 0 or bool(np.isfinite(np.ptp(vertices, axis=0)).all())


def _resolve_format(data: bytes, hint: MeshFormat | str | None) -> MeshFormat:
    if isinstance(hint, MeshFormat):
        return hint
    if isinstance(hint, str):
        name = hint.lower().lstrip(".")
        if name in ("stl_ascii", "stl_binary", "obj"):
            return MeshFormat(name)
        if name == "stl":
            return _sniff_stl(data)
        raise UnsupportedFormat(f"unknown format hint {hint!r}")
    return _sniff(data)


def _sniff(data: bytes) -> MeshFormat:
    # binary length first, as in _sniff_stl: a binary header may say "solid"
    if _binary_stl_length_consistent(data):
        return MeshFormat.STL_BINARY
    head = data[:512].lstrip()
    if head.startswith(b"solid") and b"facet" in data[:4096]:
        return MeshFormat.STL_ASCII
    if _looks_like_obj(data):
        return MeshFormat.OBJ
    raise UnsupportedFormat("could not identify mesh format")


def _sniff_stl(data: bytes) -> MeshFormat:
    if _binary_stl_length_consistent(data):
        return MeshFormat.STL_BINARY
    return MeshFormat.STL_ASCII


def _binary_stl_length_consistent(data: bytes) -> bool:
    if len(data) < _BINARY_STL_HEADER + 4:
        return False
    (count,) = struct.unpack_from("<I", data, _BINARY_STL_HEADER)
    return len(data) == _BINARY_STL_HEADER + 4 + count * _BINARY_STL_RECORD


def _looks_like_obj(data: bytes) -> bool:
    try:
        text = data[:4096].decode("utf-8")
    except UnicodeDecodeError:
        return False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        token = stripped.split(None, 1)[0]
        if token in ("v", "f", "vn", "vt", "o", "g", "s", "mtllib", "usemtl", "l"):
            return True
        return False
    return False


def _parse_stl_ascii(data: bytes) -> TriangleMesh:
    try:
        text = data.decode("utf-8", errors="replace")
    except Exception as exc:  # pragma: no cover - decode with replace cannot raise
        raise MalformedFile("undecodable ASCII STL") from exc
    coords: list[tuple[float, float, float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].lower() != "vertex":
            continue
        if len(parts) < 4:
            raise MalformedFile(f"line {lineno}: vertex needs 3 coordinates")
        try:
            coords.append((float(parts[1]), float(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise MalformedFile(f"line {lineno}: non-numeric vertex coordinate") from exc
    if len(coords) % 3 != 0:
        raise MalformedFile("vertex count is not a multiple of 3")
    verts = np.array(coords, dtype=np.float64).reshape(-1, 3)
    tris = np.arange(len(verts), dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(verts, tris, MeshFormat.STL_ASCII)


def _parse_stl_binary(data: bytes) -> TriangleMesh:
    if len(data) < _BINARY_STL_HEADER + 4:
        raise MalformedFile("binary STL shorter than its header")
    (count,) = struct.unpack_from("<I", data, _BINARY_STL_HEADER)
    expected = _BINARY_STL_HEADER + 4 + count * _BINARY_STL_RECORD
    if len(data) < expected:
        raise MalformedFile(
            f"binary STL truncated: header promises {count} facets, "
            f"{len(data)} of {expected} bytes present"
        )
    records = np.frombuffer(
        data, dtype=_BINARY_STL_DTYPE, count=count, offset=_BINARY_STL_HEADER + 4
    )
    verts = records["verts"].reshape(-1, 3).astype(np.float64)
    tris = np.arange(len(verts), dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(verts, tris, MeshFormat.STL_BINARY)


def _parse_obj(data: bytes) -> TriangleMesh:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile("OBJ is not valid UTF-8") from exc
    verts: list[tuple[float, float, float]] = []
    tris: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise MalformedFile(f"line {lineno}: v needs 3 coordinates")
            try:
                verts.append((float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError as exc:
                raise MalformedFile(f"line {lineno}: non-numeric coordinate") from exc
        elif parts[0] == "f":
            if len(parts) < 4:
                raise MalformedFile(f"line {lineno}: face needs at least 3 vertices")
            idx = [_obj_vertex_index(tok, len(verts), lineno) for tok in parts[1:]]
            # polygons become a fan anchored at the first vertex
            for a, b in zip(idx[1:], idx[2:]):
                tris.append((idx[0], a, b))
        # vn / vt / o / g / s / usemtl and friends are ignored
    tri_arr = np.array(tris, dtype=np.int64).reshape(-1, 3)
    vert_arr = np.array(verts, dtype=np.float64).reshape(-1, 3)
    if tri_arr.size and tri_arr.max() >= len(vert_arr):
        raise MalformedFile("face references a vertex that does not exist")
    return TriangleMesh(vert_arr, tri_arr, MeshFormat.OBJ)


def _obj_vertex_index(token: str, n_vertices: int, lineno: int) -> int:
    head = token.split("/", 1)[0]
    try:
        raw = int(head)
    except ValueError as exc:
        raise MalformedFile(f"line {lineno}: bad face index {token!r}") from exc
    if raw == 0:
        raise MalformedFile(f"line {lineno}: OBJ indices are 1-based, got 0")
    idx = raw - 1 if raw > 0 else n_vertices + raw
    if idx < 0 or idx >= n_vertices:
        raise MalformedFile(f"line {lineno}: face index {raw} out of range")
    return idx


# --- serialization ---------------------------------------------------------


def serialize_mesh(mesh: TriangleMesh, fmt: MeshFormat | str) -> bytes:
    """Write the mesh back out. ASCII floats use repr so round-trips are exact."""
    if isinstance(fmt, str):
        fmt = MeshFormat(fmt.lower())
    if fmt is MeshFormat.STL_ASCII:
        return _write_stl_ascii(mesh)
    if fmt is MeshFormat.STL_BINARY:
        return _write_stl_binary(mesh)
    return _write_obj(mesh)


def _facet_normals(coords: np.ndarray) -> np.ndarray:
    normals = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    lengths = np.linalg.norm(normals, axis=1)
    safe = np.where(lengths > 0, lengths, 1.0)
    return normals / safe[:, None]


def _write_stl_ascii(mesh: TriangleMesh) -> bytes:
    coords = mesh.triangle_coords()
    normals = _facet_normals(coords) if len(coords) else coords.reshape(0, 3)
    lines = ["solid blockplan"]
    for tri, normal in zip(coords, normals):
        nx, ny, nz = (float(v) for v in normal)
        lines.append(f"  facet normal {nx!r} {ny!r} {nz!r}")
        lines.append("    outer loop")
        for vx, vy, vz in tri:
            lines.append(f"      vertex {float(vx)!r} {float(vy)!r} {float(vz)!r}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append("endsolid blockplan")
    return ("\n".join(lines) + "\n").encode("ascii")


def _write_stl_binary(mesh: TriangleMesh) -> bytes:
    coords = mesh.triangle_coords()
    records = np.zeros(len(coords), dtype=_BINARY_STL_DTYPE)
    if len(coords):
        records["normal"] = _facet_normals(coords).astype(np.float32)
        records["verts"] = coords.astype(np.float32)
    header = b"blockplan binary stl".ljust(_BINARY_STL_HEADER, b"\0")
    return header + struct.pack("<I", len(coords)) + records.tobytes()


def _write_obj(mesh: TriangleMesh) -> bytes:
    lines = ["# blockplan mesh"]
    for vx, vy, vz in mesh.vertices:
        lines.append(f"v {float(vx)!r} {float(vy)!r} {float(vz)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


# --- repair ----------------------------------------------------------------


def repair_mesh(
    mesh: TriangleMesh, weld_tolerance: float = DEFAULT_WELD_TOLERANCE
) -> TriangleMesh:
    """Weld near-coincident vertices and clean up the triangle set.

    Degenerate (area < 1e-9 cm^2) and duplicate triangles are removed,
    windings are unified across manifold edges, and the returned mesh
    carries a :class:`RepairSummary` (``.repair``). Non-manifold regions
    are left untouched and only flagged. Idempotent.
    """
    if weld_tolerance < 0:
        raise ValueError("weld_tolerance must be >= 0")
    verts = np.array(mesh.vertices, dtype=np.float64)
    tris = np.array(mesh.triangles, dtype=np.int64)

    welded = 0
    if len(verts) > 1 and weld_tolerance > 0:
        verts, tris, welded = _weld(verts, tris, weld_tolerance)

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
        a, b, c = np.sort(tris, axis=1).T
        order = np.lexsort((c, b, a))  # stable: each group starts at its first triangle
        a, b, c = a[order], b[order], c[order]
        new = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (c[1:] != c[:-1])]
        first = order[new]
        duplicates = len(tris) - len(first)
        tris = tris[np.sort(first)]

    flipped, manifold = 0, False
    if len(tris):
        tris, flipped, manifold = _unify_windings(tris)

    if len(tris):
        used = np.unique(tris)
        if len(used) < len(verts):
            remap = np.full(len(verts), -1, dtype=np.int64)
            remap[used] = np.arange(len(used))
            verts = verts[used]
            tris = remap[tris]

    summary = RepairSummary(welded, degenerate, duplicates, flipped, manifold)
    return TriangleMesh(verts, tris, mesh.format_origin, summary)


def _weld(
    verts: np.ndarray, tris: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray, int]:
    first, second = _close_pairs(verts, tolerance)
    if not len(first):
        return verts, tris, 0
    # the smallest index of each cluster keeps its coordinates
    roots = _component_minima(len(verts), first, second)
    reps = np.unique(roots)
    new_index = np.full(len(verts), -1, dtype=np.int64)
    new_index[reps] = np.arange(len(reps))
    mapped = new_index[roots]
    return verts[reps], mapped[tris] if len(tris) else tris, len(verts) - len(reps)


def _close_pairs(verts: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs whose squared distance is at most ``tolerance**2``.

    A spatial hash: cells are at least twice the tolerance wide, so a close
    pair shares a cell or sits in face/edge/corner-adjacent cells. Each
    unordered pair of occupied cells is visited once, through the own cell
    plus 13 half-neighbour offsets looked up with ``searchsorted`` among the
    sorted cell keys.
    """
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    limit = float(1 << _WELD_CELL_BITS)
    # at most 2**20 cells per axis, so three shifted indices pack in an int64
    size = max(2.0 * tolerance, float((hi / limit - lo / limit).max()))
    cells = np.fmin(np.floor((verts - lo) / size), limit).astype(np.int64) + 1
    keys = (cells[:, 0] * _WELD_RADIX + cells[:, 1]) * _WELD_RADIX + cells[:, 2]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # occupied cells, each a run [begin, end) of positions in sorted order
    begin = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    end = np.r_[begin[1:], len(keys)]
    cell_keys = sorted_keys[begin]
    cell_of = np.repeat(np.arange(len(begin)), end - begin)
    positions = np.arange(len(keys))

    firsts, seconds = [positions[:0]], [positions[:0]]
    for offset in _WELD_OFFSETS:
        if offset == 0:
            start, stop = positions + 1, end[cell_of]  # later members of the own cell
        else:
            target = cell_keys + offset
            found = np.minimum(np.searchsorted(cell_keys, target), len(cell_keys) - 1)
            occupied = cell_keys[found] == target
            if not occupied.any():
                continue
            start = np.where(occupied, begin[found], 0)[cell_of]
            stop = np.where(occupied, end[found], 0)[cell_of]
        counts = stop - start
        total = int(counts.sum())
        if not total:
            continue
        firsts.append(np.repeat(positions, counts))
        seconds.append(np.arange(total) - np.repeat(np.cumsum(counts) - counts - start, counts))
    first = order[np.concatenate(firsts)]
    second = order[np.concatenate(seconds)]
    d = verts[first] - verts[second]
    close = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= tolerance * tolerance
    return first[close], second[close]


def _component_minima(n: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Smallest vertex index of each vertex's component in the pair graph.

    Min-label propagation over the pairs with pointer jumping; labels only
    shrink and always name a vertex of the same component, so the fixpoint
    is the component minimum.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[first], label[second])
        update = label.copy()
        np.minimum.at(update, first, low)
        np.minimum.at(update, second, low)
        update = update[update]
        if np.array_equal(update, label):
            return label
        label = update


def _edge_groups(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges grouped by undirected edge.

    Directed edge 3t+s runs from ``tris[t, s]`` to the next corner. Returns
    the stable edge order that puts each undirected edge's directed edges
    together, and each group's start in that order and its size.
    """
    heads, tails = tris.reshape(-1), tris[:, [1, 2, 0]].reshape(-1)
    keys = np.minimum(heads, tails) * (int(tris.max()) + 1) + np.maximum(heads, tails)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    return order, starts, np.diff(np.r_[starts, len(keys)])


def _unify_windings(tris: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Flip triangles so manifold edges are traversed in opposite directions.

    Works per connected component; edges shared by anything other than
    exactly two triangles are skipped. The breadth-first search visits the
    edges of each triangle in its current winding, so the flipped set is
    well defined on non-orientable input too. Also returns whether every
    edge is shared by exactly two triangles, which flipping cannot change.
    """
    m = len(tris)
    heads = tris.reshape(-1)
    order, starts, sizes = _edge_groups(tris)
    manifold = bool((sizes == 2).all())
    pairs = starts[sizes == 2]
    edge_a, edge_b = order[pairs], order[pairs + 1]
    same_direction = heads[edge_a] == heads[edge_b]
    neighbour = np.full(3 * m, -1, dtype=np.int64)
    neighbour[edge_a] = edge_b // 3
    neighbour[edge_b] = edge_a // 3
    agrees = np.zeros(3 * m, dtype=bool)
    agrees[edge_a] = same_direction
    agrees[edge_b] = same_direction
    if not agrees.any():
        return tris, 0, manifold  # consistently wound already: the search flips nothing

    neighbours = neighbour.reshape(m, 3).tolist()
    agreements = agrees.reshape(m, 3).tolist()
    flip = [False] * m
    seen = [False] * m
    for seed in range(m):
        if seen[seed]:
            continue
        seen[seed] = True
        queue = deque([seed])
        while queue:
            t = queue.popleft()
            flipped_t = flip[t]
            row, agree = neighbours[t], agreements[t]
            # reversing (a, b, c) to (c, b, a) walks slots 1, 0, 2 backwards
            for slot in (1, 0, 2) if flipped_t else (0, 1, 2):
                other = row[slot]
                if other < 0 or seen[other]:
                    continue
                if agree[slot] != flipped_t:
                    flip[other] = True
                seen[other] = True
                queue.append(other)
    flip_mask = np.array(flip, dtype=bool)
    tris = tris.copy()
    tris[flip_mask] = tris[flip_mask, ::-1]
    return tris, int(flip_mask.sum()), manifold


def is_manifold(mesh: TriangleMesh) -> bool:
    """Closed 2-manifold test: every edge belongs to exactly two triangles."""
    if mesh.repair is not None:
        return mesh.repair.manifold
    tris = np.asarray(mesh.triangles)
    return len(tris) > 0 and bool((_edge_groups(tris)[2] == 2).all())
