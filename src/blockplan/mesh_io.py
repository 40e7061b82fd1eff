"""Triangle mesh ingestion: STL/OBJ parsing, repair, measurement.

All coordinates are centimeters. Parsing keeps the file geometry verbatim,
duplicated vertices included; :func:`repair_mesh` is the canonicalization
step that welds vertices, drops junk triangles and unifies windings.
"""
from __future__ import annotations

import re
import struct
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter

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

# str.splitlines breaks, "\r\n" first so that it stays one break
_LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# The rest of each line whose first token is "vertex" in any case, or "v" or "f". Matches
# start at the "\n" before the line, found faster than a MULTILINE "^" would be.
_STL_VERTEX = re.compile(r"\n[^\S\n]*vertex(?!\S)(.*)", re.I)
_OBJ_RECORD = re.compile(r"\n[^\S\n]*([vf])(?!\S)(.*)")
# blank and comment lines, then the first other line and its first token
_OBJ_FIRST_LINE = re.compile(r"(?:[^\S\n]*(?:#.*)?\n)*[^\S\n]*((\S*).*)")
_SLASH_TAIL = re.compile(r"/\S*")  # an OBJ face token's rest after its index
_NO_INDEX = (1 << 63) - 1  # an OBJ face token that is not an integer; out of range

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


def _axis_bounds(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis min and max of a non-empty (n, 3) array, one column at a time:
    ten times faster than along axis 0, and with no copy of the array."""
    columns = [vertices[:, axis] for axis in range(3)]
    return np.array([c.min() for c in columns]), np.array([c.max() for c in columns])


def bounding_box(mesh: TriangleMesh) -> Aabb:
    """Tight box of all vertices. A single vertex yields a zero-extent box."""
    if mesh.vertex_count == 0:
        raise EmptyMesh("mesh has no vertices")
    mins, maxs = _axis_bounds(mesh.vertices)
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
    lo, hi = _axis_bounds(vertices) if len(vertices) else (0.0, 0.0)  # a zero-size min raises
    with np.errstate(over="ignore"):
        return bool(np.isfinite(hi - lo).all())


def _resolve_format(data: bytes, hint: MeshFormat | str | None) -> MeshFormat:
    if isinstance(hint, MeshFormat):
        return hint
    if isinstance(hint, str):
        name = hint.lower().lstrip(".")
        if name in ("stl_ascii", "stl_binary", "obj"):
            return MeshFormat(name)
        if name == "stl":
            binary = _binary_stl_length_consistent(data)
            return MeshFormat.STL_BINARY if binary else MeshFormat.STL_ASCII
        raise UnsupportedFormat(f"unknown format hint {hint!r}")
    return _sniff(data)


def _sniff(data: bytes) -> MeshFormat:
    # binary length first, as for an "stl" hint: a binary header may say "solid"
    if _binary_stl_length_consistent(data):
        return MeshFormat.STL_BINARY
    data = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte order mark; the parsers drop it
    if re.match(rb"\s*solid", data) and b"facet" in data:
        return MeshFormat.STL_ASCII
    if _looks_like_obj(data):
        return MeshFormat.OBJ
    raise UnsupportedFormat("could not identify mesh format")


def _binary_stl_length_consistent(data: bytes) -> bool:
    if len(data) < _BINARY_STL_HEADER + 4:
        return False
    (count,) = struct.unpack_from("<I", data, _BINARY_STL_HEADER)
    return len(data) == _BINARY_STL_HEADER + 4 + count * _BINARY_STL_RECORD


def _looks_like_obj(data: bytes) -> bool:
    # the first line that is neither blank nor a comment decides, wherever it is
    first = _OBJ_FIRST_LINE.match(_text_lines(data.decode("utf-8", "surrogateescape")))
    try:
        first[1].encode("utf-8")  # a byte that is not UTF-8 decoded to a lone surrogate
    except UnicodeEncodeError:
        return False
    return first[2] in ("v", "f", "vn", "vt", "o", "g", "s", "mtllib", "usemtl", "l")


def _parse_stl_ascii(data: bytes) -> TriangleMesh:
    text = _text_lines(data.decode("utf-8-sig", errors="replace"))
    verts, bad = _coordinates(_STL_VERTEX.findall(text))
    if bad:
        what = "vertex needs 3 coordinates" if bad[1] else "non-numeric vertex coordinate"
        raise _malformed(_STL_VERTEX, text, bad[0], what)
    if len(verts) % 3 != 0:
        raise MalformedFile("vertex count is not a multiple of 3")
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
    with np.errstate(invalid="ignore"):  # a signalling NaN; parse_mesh rejects it
        verts = records["verts"].reshape(-1, 3).astype(np.float64)
    tris = np.arange(len(verts), dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(verts, tris, MeshFormat.STL_BINARY)


def _parse_obj(data: bytes) -> TriangleMesh:
    try:
        text = _text_lines(data.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise MalformedFile("OBJ is not valid UTF-8") from exc
    records = _OBJ_RECORD.findall(text)  # vn / vt / o / g / s / usemtl and friends are ignored
    is_face = np.array([kind == "f" for kind, _ in records], dtype=bool)
    verts, bad = _coordinates([body for kind, body in records if kind == "v"])
    bad_v = np.flatnonzero(~is_face)[bad[0]] if bad else len(records)  # the first bad v line
    faces = [body for kind, body in records if kind == "f"]
    sizes = np.fromiter(map(len, map(str.split, faces)), np.int64, len(faces))
    joined = " ".join(faces)
    heads = _SLASH_TAIL.sub("", joined).split()  # "1/2/3" and "1//3" give "1"
    if len(heads) < sizes.sum():  # a token that starts with "/" left none: its head is ""
        heads = [token.split("/", 1)[0] for token in joined.split()]
    try:  # clamped below _NO_INDEX; an index beyond 2**62 is out of range all the same
        raw = np.clip(np.array(heads, dtype=np.int64), -1 << 62, 1 << 62)
    except (ValueError, OverflowError):  # a bad head: only now is each one read on its own
        raw = np.full(len(heads), _NO_INDEX)
        for k, head in enumerate(heads):
            with suppress(ValueError):
                raw[k] = max(-1 << 62, min(int(head), 1 << 62))
    defined = np.repeat(np.cumsum(~is_face)[is_face], sizes)  # vertices before each token's line
    idx = np.where(raw > 0, raw - 1, defined + raw)
    bad_token = (raw == 0) | (idx < 0) | (idx >= defined)
    bad_face = sizes < 3
    bad_face[np.repeat(np.arange(len(faces)), sizes)[bad_token]] = True
    if bad_face.any() and np.flatnonzero(is_face)[face := int(bad_face.argmax())] < bad_v:
        # a bad token of this face is the first of all: no earlier face has one
        token = joined.split()[k := int(bad_token.argmax())] if sizes[face] > 2 else ""
        what = ("face needs at least 3 vertices" if not token
                else f"bad face index {token!r}" if raw[k] == _NO_INDEX
                else f"face index {int(heads[k])} out of range" if raw[k]
                else "OBJ indices are 1-based, got 0")
        raise _malformed(_OBJ_RECORD, text, np.flatnonzero(is_face)[face], what)
    if bad:
        what = "v needs 3 coordinates" if bad[1] else "non-numeric coordinate"
        raise _malformed(_OBJ_RECORD, text, bad_v, what)
    fans = sizes - 2  # polygons become a fan anchored at the first vertex
    first = np.repeat(np.cumsum(sizes) - sizes, fans)
    second = first + np.arange(len(first)) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    tris = np.stack([idx[first], idx[second], idx[second + 1]], axis=1)
    return TriangleMesh(verts, tris, MeshFormat.OBJ)


def _text_lines(text: str) -> str:
    """``text`` with each ``str.splitlines`` break made one "\\n", and one more in front."""
    for brk in _LINE_BREAKS:
        if brk[0] in text:  # a one-character scan; searching for "\r\n" costs far more
            text = text.replace(brk, "\n")
    return "\n" + text


def _malformed(pattern: re.Pattern, text: str, k: int, what: str) -> MalformedFile:
    """The error ``what`` on the line of the k-th match of ``pattern`` in ``text``."""
    line = text.count("\n", 0, [match.start() for match in pattern.finditer(text)][k]) + 1
    return MalformedFile(f"line {line}: {what}")


def _coordinates(bodies: list[str]) -> tuple[np.ndarray | None, tuple[int, bool] | None]:
    """Each body's first three tokens as floats, in one numpy conversion over the distinct
    bodies; or the first position of a body with fewer tokens or a non-number, and whether
    it was short."""
    rows = dict.fromkeys(bodies)
    tokens = list(chain.from_iterable(map(itemgetter(slice(3)), map(str.split, rows))))
    try:  # a short body leaves too few tokens for the reshape
        coords = np.array(tokens, dtype=np.float64).reshape(len(rows), 3)
    except ValueError:  # only now is each body read on its own, to name the first bad one
        for k, body in enumerate(bodies):
            parts = body.split()
            try:
                float(parts[0]), float(parts[1]), float(parts[2])
            except (IndexError, ValueError):
                return None, (k, len(parts) < 3)
    if len(rows) == len(bodies):  # each body is distinct, so rows keep their order
        return coords, None
    rows = dict(zip(rows, range(len(rows))))
    return coords[np.fromiter(map(rows.__getitem__, bodies), np.int64, len(bodies))], None


# --- serialization ---------------------------------------------------------


def serialize_mesh(mesh: TriangleMesh, fmt: MeshFormat | str) -> bytes:
    """Write the mesh back out. ASCII floats use repr so round-trips are exact;
    binary STL raises ValueError for a coordinate float32 cannot hold."""
    if isinstance(fmt, str):
        fmt = MeshFormat(fmt.lower())
    if fmt is MeshFormat.STL_ASCII:
        return _write_stl_ascii(mesh)
    if fmt is MeshFormat.STL_BINARY:
        return _write_stl_binary(mesh)
    return _write_obj(mesh)


def _facet_normals(coords: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # a huge mesh gets inf or nan normals
        normals = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
        lengths = np.linalg.norm(normals, axis=1)
        return normals / np.where(lengths > 0, lengths, 1.0)[:, None]


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
        with np.errstate(over="ignore"):  # an overflow casts to inf, refused below
            records["verts"] = coords.astype(np.float32)
        if not np.isfinite(records["verts"]).all():
            raise ValueError("a vertex coordinate does not fit binary STL's float32")
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
        # an area that overflows is not finite, so it is not thin and the triangle stays
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
            thin = 0.5 * np.linalg.norm(cross, axis=1) < DEGENERATE_AREA
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
        used = np.zeros(len(verts), dtype=bool)
        used[tris] = True
        if not used.all():
            tris = (np.cumsum(used) - 1)[tris]
            verts = verts[used]

    summary = RepairSummary(welded, degenerate, duplicates, flipped, manifold)
    return TriangleMesh(verts, tris, mesh.format_origin, summary)


def _weld(
    verts: np.ndarray, tris: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray, int]:
    heads, first, second = _close_pairs(verts, tolerance)
    # the smallest index of each cluster keeps its coordinates; it is a head
    roots = _component_minima(len(verts), first, second)[heads]
    reps = roots == np.arange(len(verts))  # a representative is its own cluster's minimum
    mapped = (np.cumsum(reps) - 1)[roots]
    return verts[reps], mapped[tris] if len(tris) else tris, len(verts) - int(reps.sum())


def _close_pairs(verts: np.ndarray, tolerance: float) -> tuple[np.ndarray, ...]:
    """Each vertex's head, and the head pairs at squared distance at most ``tolerance**2``.

    Vertices sort by cell key, then by coordinates, so exact copies form one
    run and fold onto its first, smallest index, their head; only heads are
    searched. A spatial hash: cells are at least twice the tolerance wide, so
    a close pair shares a cell or sits in face/edge/corner-adjacent cells.
    Each unordered pair of occupied cells is visited once, through the own
    cell plus 13 half-neighbour offsets looked up with ``searchsorted`` among
    the sorted cell keys.
    """
    lo, hi = _axis_bounds(verts)
    limit = float(1 << _WELD_CELL_BITS)
    # at most 2**20 cells per axis, so three shifted indices pack in an int64
    size = max(2.0 * tolerance, float((hi / limit - lo / limit).max()))
    cells = np.fmin(np.floor((verts - lo) / size), limit).astype(np.int64) + 1
    keys = (cells[:, 0] * _WELD_RADIX + cells[:, 1]) * _WELD_RADIX + cells[:, 2]
    order = np.lexsort((verts[:, 2], verts[:, 1], verts[:, 0], keys))
    ordered = verts[order]
    moved = ordered[1:] != ordered[:-1]
    head = np.r_[True, moved[:, 0] | moved[:, 1] | moved[:, 2]]
    heads = np.empty(len(verts), dtype=np.int64)
    heads[order] = order[head][np.cumsum(head) - 1]
    order = order[head]
    sorted_keys = keys[order]
    # occupied cells, each a run [begin, end) of positions in sorted order
    begin = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    end = np.r_[begin[1:], len(order)]
    cell_keys = sorted_keys[begin]
    cell_of = np.repeat(np.arange(len(begin)), end - begin)
    positions = np.arange(len(order))

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
    return heads, first[close], second[close]


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
    an edge order that puts each undirected edge's directed edges together,
    in no particular order within the group, and each group's start in that
    order and its size.
    """
    heads, tails = tris.reshape(-1), tris[:, [1, 2, 0]].reshape(-1)
    keys = np.minimum(heads, tails) * (int(tris.max()) + 1) + np.maximum(heads, tails)
    order = np.argsort(keys)
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
