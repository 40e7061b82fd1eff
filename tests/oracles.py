"""Slow reference implementations of the mesh front end, the feasibility
rules, the connectivity-aware sort and the build simulation.

These are the original per-line, per-vertex, per-triangle and per-cell
loops of ``blockplan.mesh_io`` and ``blockplan.discretizer``, the per-layer
overhang search, run-list stack rule, full-voxelize rescale loop and rewrite
orchestration and column-scan build replay of ``blockplan.feasibility``,
the all-pairs distance sort of ``blockplan.sequencer``, the
``json.dumps(indent=2)`` writers of every JSON artifact, the per-command
build-time walk of ``blockplan.toolpath``, the per-value
grid and sequence readers, and the restart loop that strips request
scaffolding in ``blockplan.frontend``.
The randomized equivalence tests require the current implementations to
reproduce them exactly: same parsed meshes and parse errors, repaired
vertices, triangles and repair summary, occupied cells, check details,
rewritten and rescaled grids, placement orders, errors, simulation reports,
artifact bytes, build-time estimates to the bit, read documents and reader errors, and stripped request
phrases. The voxelizer has two
interior tests here: the even-odd parity ray it used on closed meshes, and
a per-cell generalized winding number that holds on every mesh.
The weld oracle needs scipy, which is a test-only dependency.
"""
from __future__ import annotations

import json
import math
from collections import defaultdict, deque

import numpy as np
from scipy.spatial import cKDTree

from blockplan import discretizer, mesh_io
from blockplan.discretizer import (
    SAT_EPSILON,
    Cell,
    GridSpec,
    OccupancyGrid,
    build_grid,
    real_number,
    whole_number,
)
from blockplan.config import AssemblyConfig
from blockplan.errors import (
    BlockplanError,
    CannotFit,
    ConfigViolation,
    EmptyAfterModification,
    EmptyAssembly,
    MalformedFile,
    SchemaError,
    Unsequenceable,
)
from blockplan.feasibility import (
    CheckKind,
    CheckResult,
    FeasibilityReport,
    PlacementStep,
    SimulationReport,
    check_component_count,
    check_sequence_connectivity,
)
from blockplan.frontend import _SCAFFOLD_PREFIXES
from blockplan.mesh_io import (
    DEFAULT_WELD_TOLERANCE,
    DEGENERATE_AREA,
    MeshFormat,
    RepairSummary,
    TriangleMesh,
    bounding_box,
    finite_extent,
)
from blockplan.sequencer import AssemblySequence, face_neighbors, naive_sort, require_coverage
from blockplan.toolpath import CommandOp, Toolpath

# --- parsing -------------------------------------------------------------------


def parse_mesh(data: bytes, format_hint: MeshFormat | str | None = None) -> TriangleMesh:
    """``mesh_io.parse_mesh`` with the line-loop ASCII STL and OBJ parsers."""
    if not data:
        raise MalformedFile("empty input")
    fmt = mesh_io._resolve_format(data, format_hint)
    if fmt is MeshFormat.STL_BINARY:
        return mesh_io.parse_mesh(data, fmt)
    data = data.removeprefix(b"\xef\xbb\xbf")  # a text mesh may open with a byte order mark
    mesh = parse_stl_ascii(data) if fmt is MeshFormat.STL_ASCII else parse_obj(data)
    if not finite_extent(mesh.vertices):
        raise MalformedFile("vertex coordinates and their extent must be finite")
    return mesh


def parse_outcome(parse, data: bytes, hint) -> tuple:
    """What ``parse(data, hint)`` gives, as comparable data: the mesh's vertex
    bytes, triangles and format, or the error's type and message."""
    try:
        mesh = parse(data, hint)
    except BlockplanError as exc:
        return type(exc), str(exc)
    return mesh.vertices.tobytes(), mesh.triangles.tolist(), mesh.format_origin


def parse_stl_ascii(data: bytes) -> TriangleMesh:
    text = data.decode("utf-8", errors="replace")
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


def parse_obj(data: bytes) -> TriangleMesh:
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
            idx = [obj_vertex_index(tok, len(verts), lineno) for tok in parts[1:]]
            # polygons become a fan anchored at the first vertex
            for a, b in zip(idx[1:], idx[2:]):
                tris.append((idx[0], a, b))
        # vn / vt / o / g / s / usemtl and friends are ignored
    tri_arr = np.array(tris, dtype=np.int64).reshape(-1, 3)
    vert_arr = np.array(verts, dtype=np.float64).reshape(-1, 3)
    if tri_arr.size and tri_arr.max() >= len(vert_arr):
        raise MalformedFile("face references a vertex that does not exist")
    return TriangleMesh(vert_arr, tri_arr, MeshFormat.OBJ)


def obj_vertex_index(token: str, n_vertices: int, lineno: int) -> int:
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

# Interior parity rays get a slight xy tilt so they cannot run inside an
# axis-aligned face and never graze shared edges of grid-aligned meshes.
_RAY_DIR = np.array([1.2339e-4, 2.7193e-5, 1.0])


def voxelize(mesh: TriangleMesh, spec: GridSpec) -> OccupancyGrid:
    """Per-triangle, per-candidate-cell SAT plus, on a manifold mesh, one
    parity ray per free cell. On a closed mesh without overlapping parts
    this is the winding-number contract; elsewhere it leaves a shell or
    holes."""
    closed = is_manifold_triangles(mesh.triangles)
    return _voxelize(mesh, spec, point_inside if closed else None)


def winding_voxelize(mesh: TriangleMesh, spec: GridSpec) -> OccupancyGrid:
    """Per-triangle, per-candidate-cell SAT plus one winding number per free
    cell, on every mesh."""
    return _voxelize(mesh, spec, winding_inside)


def _voxelize(mesh: TriangleMesh, spec: GridSpec, inside) -> OccupancyGrid:
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

    if len(coords) and inside is not None:
        for i in range(spec.dims[0]):
            for j in range(spec.dims[1]):
                for k in range(spec.dims[2]):
                    key = (i, j, k)
                    if key in occupied:
                        continue
                    center = origin + (np.array([i, j, k]) + 0.5) * cell
                    if inside(center, coords):
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


def winding_inside(point: np.ndarray, coords: np.ndarray) -> bool:
    """|w| > 1/2 for the generalized winding number at ``point``: the sum of
    the triangles' Van Oosterom-Strackee solid angles over 4 pi."""
    a, b, c = (coords[:, v] - point for v in range(3))
    la, lb, lc = (np.linalg.norm(v, axis=1) for v in (a, b, c))
    ab, bc, ca = ((u * v).sum(axis=1) for u, v in ((a, b), (b, c), (c, a)))
    det = (a * np.cross(b, c)).sum(axis=1)
    den = la * lb * lc + ab * lc + bc * la + ca * lb
    return bool(abs(np.arctan2(det, den).sum() / (2.0 * math.pi)) > 0.5)


# --- feasibility rules -----------------------------------------------------------

_LATERAL = ((1, 0), (-1, 0), (0, 1), (0, -1))


def layer_distances(occupied: frozenset[Cell] | set[Cell], k: int) -> dict[Cell, float]:
    """BFS distance of each layer-k cell to the nearest supported cell.

    Supported means sitting on the ground (k = 0) or directly on an occupied
    cell below. Distances run along same-layer face adjacency; cells with no
    path to support get infinity.
    """
    layer = [c for c in occupied if c[2] == k]
    dist: dict[Cell, float] = {c: math.inf for c in layer}
    queue: deque[Cell] = deque()
    for cell in layer:
        if k == 0 or (cell[0], cell[1], k - 1) in occupied:
            dist[cell] = 0
            queue.append(cell)
    while queue:
        cell = queue.popleft()
        for di, dj in _LATERAL:
            nb = (cell[0] + di, cell[1] + dj, k)
            if nb in dist and dist[nb] == math.inf:
                dist[nb] = dist[cell] + 1
                queue.append(nb)
    return dist


def overhang_offenders(grid: OccupancyGrid, limit: int) -> list[Cell]:
    offenders: list[Cell] = []
    for k in range(grid.spec.dims[2]):
        for cell, d in layer_distances(grid.occupied, k).items():
            if d > limit:
                offenders.append(cell)
    return sorted(offenders)


def check_overhang(grid: OccupancyGrid, max_unsupported: int) -> CheckResult:
    offenders = overhang_offenders(grid, max_unsupported)
    if offenders:
        return CheckResult(CheckKind.OVERHANG, tuple(offenders))
    return CheckResult(CheckKind.OVERHANG)


def remove_overhangs(grid: OccupancyGrid, max_unsupported: int) -> OccupancyGrid:
    occupied = grid.occupied
    while True:
        trial = OccupancyGrid(grid.spec, occupied)
        offenders = overhang_offenders(trial, max_unsupported)
        if not offenders:
            return trial
        occupied = occupied - set(offenders)


def free_standing_runs(occupied: frozenset[Cell] | set[Cell]) -> list[list[Cell]]:
    """Maximal vertical runs of occupied cells with no horizontal neighbor.

    A cell braced sideways splits the column; only the unbraced stretches
    count toward the stack limit.
    """
    columns: dict[tuple[int, int], list[int]] = {}
    for i, j, k in occupied:
        columns.setdefault((i, j), []).append(k)
    runs: list[list[Cell]] = []
    for (i, j), ks in sorted(columns.items()):
        run: list[Cell] = []
        prev_k = None
        for k in sorted(ks):
            braced = any((i + di, j + dj, k) in occupied for di, dj in _LATERAL)
            contiguous = prev_k is not None and k == prev_k + 1
            if braced or not contiguous:
                if len(run) > 0:
                    runs.append(run)
                run = []
            if not braced:
                run.append((i, j, k))
            prev_k = k
        if run:
            runs.append(run)
    return runs


def check_vertical_stack(grid: OccupancyGrid, max_stack: int) -> CheckResult:
    excess: list[Cell] = []
    for run in free_standing_runs(grid.occupied):
        if len(run) > max_stack:
            excess.extend(run[max_stack:])
    if excess:
        return CheckResult(CheckKind.VERTICAL_STACK, tuple(sorted(excess)))
    return CheckResult(CheckKind.VERTICAL_STACK)


def truncate_stacks(
    grid: OccupancyGrid, max_stack: int, max_unsupported: int
) -> OccupancyGrid:
    occupied = grid.occupied
    while True:
        trial = OccupancyGrid(grid.spec, occupied)
        stack_result = check_vertical_stack(trial, max_stack)
        if stack_result.failed:
            occupied = occupied - set(stack_result.details)
            continue
        offenders = overhang_offenders(trial, max_unsupported)
        if offenders:
            occupied = occupied - set(offenders)
            continue
        return trial


def rescale_until_fits(
    mesh: TriangleMesh, grid: OccupancyGrid, inventory: int
) -> tuple[OccupancyGrid, float, int]:
    """Shrink by (L - cell) / L per step, each step voxelized in full."""
    cell_size = grid.spec.cell_size
    scale = 1.0
    iterations = 0
    while len(grid.occupied) > inventory:
        box = bounding_box(mesh)
        longest = max(box.extents)
        if longest - cell_size < cell_size:
            raise CannotFit(
                f"{len(grid.occupied)} components exceed the inventory of "
                f"{inventory} and the design cannot shrink "
                f"below one component"
            )
        factor = (longest - cell_size) / longest
        anchor = np.asarray(box.min_corner)
        mesh = mesh.with_vertices(anchor + (mesh.vertices - anchor) * factor)
        scale *= factor
        iterations += 1
        grid = discretizer.voxelize(mesh, build_grid(bounding_box(mesh), cell_size))
    return grid, float(scale), iterations


def run_feasibility(
    mesh: TriangleMesh,
    config: AssemblyConfig | None = None,
    failure_handling: bool = True,
) -> tuple[OccupancyGrid, FeasibilityReport]:
    """First pass voxelized by ``blockplan``, then every check and rewrite
    written out on its own: the overhang and stack checks and rewrites and
    the rescale loop are this module's, and each configured check is spelled
    again where a rewrite needs it."""
    config = config or AssemblyConfig()
    grid = discretizer.voxelize(mesh, build_grid(bounding_box(mesh), config.cell_size))
    if not grid.occupied:
        raise EmptyAssembly("mesh voxelized to zero occupied cells")

    results = (
        check_component_count(grid, config.inventory),
        check_overhang(grid, config.overhang_limit),
        check_vertical_stack(grid, config.stack_limit),
        check_sequence_connectivity(naive_sort(grid), grid),
    )

    modifications: list[dict] = []
    if failure_handling:
        if results[0].failed:
            grid, scale, iterations = rescale_until_fits(mesh, grid, config.inventory)
            modifications.append(
                {"action": "rescale", "iterations": iterations, "scale": scale}
            )
        rewrites = {
            "remove_overhangs": lambda g: remove_overhangs(g, config.overhang_limit),
            "truncate_stacks": lambda g: truncate_stacks(
                g, config.stack_limit, config.overhang_limit
            ),
        }
        for action, rewrite in rewrites.items():
            trimmed = rewrite(grid)
            removed = sorted(grid.occupied - trimmed.occupied)
            if removed:
                modifications.append({"action": action, "removed": [list(c) for c in removed]})
            grid = trimmed
        if not grid.occupied:
            raise EmptyAfterModification("failure handling removed every cell")
        if check_sequence_connectivity(naive_sort(grid), grid).failed:
            modifications.append({"action": "connectivity_sort"})

    report = FeasibilityReport(
        results=results,
        modifications=tuple(modifications),
        final_component_count=len(grid.occupied),
    )
    return grid, report


# --- sequencing ------------------------------------------------------------------


def connectivity_sort(grid: OccupancyGrid) -> tuple[Cell, ...]:
    """Placement order picking, per layer, the candidate with the smallest
    Manhattan distance to any placed cell, ties broken by (i, j)."""
    if not grid.occupied:
        raise EmptyAssembly("grid has no occupied cells")
    order: list[Cell] = []
    placed: set[Cell] = set()
    for k in range(grid.spec.dims[2]):
        remaining = {c for c in grid.occupied if c[2] == k}
        while remaining:
            candidates = [
                c
                for c in remaining
                if k == 0 or any(nb in placed for nb in face_neighbors(c))
            ]
            if not candidates:
                stuck = min(remaining)
                raise Unsequenceable(
                    f"layer {k}: cell {stuck} is unreachable from the structure"
                )
            if not placed:
                pick = min(candidates)
            else:
                pick = min(
                    candidates,
                    key=lambda c: (_nearest_manhattan(c, placed), c[0], c[1]),
                )
            order.append(pick)
            placed.add(pick)
            remaining.remove(pick)
    return tuple(order)


def _nearest_manhattan(cell: Cell, placed: set[Cell]) -> int:
    ci, cj, ck = cell
    return min(abs(ci - i) + abs(cj - j) + abs(ck - k) for i, j, k in placed)


# --- simulation ------------------------------------------------------------------


def simulate_assembly(seq: AssemblySequence, grid: OccupancyGrid, config) -> SimulationReport:
    """Replay that checks each corridor by scanning the column up to the
    grid's height."""
    require_coverage(seq, grid)
    cell_size = grid.spec.cell_size
    origin_z = grid.spec.origin[2]
    placed: set[Cell] = set()
    steps: list[PlacementStep] = []
    top_k = -1
    for cell in seq.cells:
        i, j, k = cell
        supported = k == 0 or any(nb in placed for nb in face_neighbors(cell))
        corridor_clear = not any(
            (i, j, above) in placed for above in range(k + 1, grid.spec.dims[2])
        )
        top_k = max(top_k, k)
        top_z = origin_z + (top_k + 1) * cell_size
        plane_clear = config.movement_plane_z >= top_z + config.clearance - 1e-9
        steps.append(PlacementStep(cell, supported, corridor_clear, plane_clear))
        placed.add(cell)
    first_failure = next((n for n, s in enumerate(steps) if not s.ok), None)
    return SimulationReport(first_failure is None, tuple(steps), first_failure)


# --- artifacts ----------------------------------------------------------------


def canonical_json(document) -> bytes:
    """The layout every JSON artifact keeps, from the standard library's
    indenting encoder."""
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


def grid_json(grid: OccupancyGrid) -> bytes:
    return canonical_json({
        "cell_size_cm": float(grid.spec.cell_size),
        "origin_cm": [float(v) for v in grid.spec.origin],
        "dims": [int(d) for d in grid.spec.dims],
        "occupied": [list(c) for c in sorted(grid.occupied)],
    })


def sequence_json(seq: AssemblySequence) -> bytes:
    return canonical_json({"cells": [list(c) for c in seq.cells]})


def simulation_json(report: SimulationReport) -> bytes:
    return canonical_json({
        "ok": report.ok,
        "first_failure": report.first_failure,
        "steps": [
            {
                "cell": list(step.cell),
                "supported": step.supported,
                "corridor_clear": step.corridor_clear,
                "plane_clear": step.plane_clear,
            }
            for step in report.steps
        ],
    })


def grid_from_json(data: bytes | str) -> OccupancyGrid:
    """``OccupancyGrid.from_json`` checking each index on its own, with the
    constructor's per-cell range check."""
    try:
        obj = json.loads(data)
        spec = GridSpec(
            origin=tuple(map(real_number, obj["origin_cm"])),
            cell_size=real_number(obj["cell_size_cm"]),
            dims=tuple(map(whole_number, obj["dims"])),
        )
        occupied = [tuple(map(whole_number, cell)) for cell in obj["occupied"]]
        if any(len(cell) != 3 for cell in obj["occupied"]):
            raise ValueError("occupied cells must be index triples")
        for cell in occupied:  # the first offender in document order
            if not spec.contains(cell):
                raise ValueError(f"cell {cell} outside grid dims {spec.dims}")
        return OccupancyGrid(spec, frozenset(occupied))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaError(f"not a valid occupancy grid document: {exc}") from exc


def sequence_from_json(data: bytes | str) -> AssemblySequence:
    """``AssemblySequence.from_json`` checking each index on its own."""
    try:
        obj = json.loads(data)
        cells = tuple(tuple(map(whole_number, cell)) for cell in obj["cells"])
        if any(len(cell) != 3 for cell in cells):
            raise ValueError("cells must be index triples")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaError(f"not a valid sequence document: {exc}") from exc
    return AssemblySequence(cells)


def emit_toolpath_json(path: Toolpath) -> bytes:
    """toolpath.json through the standard library's indenting JSON encoder."""
    obj = {
        "params": {
            "velocity": path.params.velocity,
            "acceleration": path.params.acceleration,
        },
        "commands": [
            {"op": "move", "xyz_mm": list(c.xyz_mm)}
            if c.op is CommandOp.MOVE
            else {"op": c.op.value}
            for c in path.commands
        ],
    }
    return canonical_json(obj)


def estimate_duration(path: Toolpath, dwell_s: float = 0.5, unit_scale: float = 1.0) -> float:
    """``toolpath.estimate_duration`` timing every segment as it walks the commands."""
    if dwell_s < 0 or unit_scale <= 0:
        raise ValueError("dwell_s must be >= 0 and unit_scale positive")
    v = path.params.velocity * unit_scale
    a = path.params.acceleration * unit_scale
    if not (v > 0 and a > 0):  # the scaled limits underflowed
        raise ConfigViolation("velocity and acceleration underflow at this motion_unit_scale")
    total = 0.0
    position: tuple[float, float, float] | None = None
    for command in path.commands:
        if command.op is CommandOp.MOVE:
            if position is not None:
                d = math.dist(position, command.xyz_mm)
                if d > 0:
                    if d >= v * v / a:
                        total += d / v + v / a
                    else:
                        total += 2.0 * math.sqrt(d / a)
            position = command.xyz_mm
        else:
            total += dwell_s
    if not math.isfinite(total):
        raise ConfigViolation(f"the estimated build time is not finite ({total} s)")
    return total


# --- request filter ------------------------------------------------------------


def strip_scaffolding(phrase: str) -> str:
    """Drop leading request scaffolding, restarting at the first prefix."""
    changed = True
    while changed:
        changed = False
        for prefix in _SCAFFOLD_PREFIXES:
            if phrase == prefix:
                phrase = ""
            elif phrase.startswith(prefix + " "):
                phrase = phrase[len(prefix) + 1 :]
            else:
                continue
            changed = True
            break
    return phrase
