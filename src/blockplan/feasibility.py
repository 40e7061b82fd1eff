"""Structural feasibility checks, the failure-handling rewrites and the
post-planning validation.

Four checks gate a discretized design: component count against the
inventory, cantilever overhang, free-standing stack height, and placement
connectivity. Each failed check has a deterministic rewrite: iterative
rescaling, overhang removal, stack truncation, and connectivity-aware
re-sorting. One placement replay serves the connectivity check and the build
simulation; the report cross-check reruns the configured checks.
"""
from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .config import DEFAULT_OVERHANG_LIMIT, DEFAULT_STACK_LIMIT, AssemblyConfig
from .discretizer import Cell, OccupancyGrid, build_grid, json_list, json_triple, voxelize
from .errors import CannotFit, EmptyAfterModification, EmptyAssembly
from .mesh_io import TriangleMesh, bounding_box
from .sequencer import AssemblySequence, face_neighbors, naive_sort, require_coverage

_LATERAL = ((1, 0), (-1, 0), (0, 1), (0, -1))


class CheckKind(Enum):
    COMPONENT_COUNT = "component_count"
    OVERHANG = "overhang"
    VERTICAL_STACK = "vertical_stack"
    CONNECTIVITY = "connectivity"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one feasibility check.

    ``details`` lists the offending cells (or, for the count check, the
    offending component count). The check passed exactly when it is empty;
    ``status`` is then "passed", else "failed", as the report prints it.
    """

    check: CheckKind
    details: tuple = ()

    @property
    def status(self) -> str:
        return "failed" if self.details else "passed"

    @property
    def passed(self) -> bool:
        return not self.details

    @property
    def failed(self) -> bool:
        return bool(self.details)


@dataclass(frozen=True)
class FeasibilityReport:
    """Check statuses of the first-pass grid plus the applied rewrites.

    ``results`` records what the checks said before any failure handling,
    so a report from a handled run still shows which hazards the raw design
    carried. ``modifications`` logs the rewrites in application order.
    """

    results: tuple[CheckResult, ...]
    modifications: tuple[dict, ...]
    final_component_count: int

    def to_json(self) -> bytes:
        obj = {
            "checks": {r.check.value: r.status for r in self.results},
            "modifications": list(self.modifications),
            "final_component_count": self.final_component_count,
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


# --- individual checks -------------------------------------------------------


def check_component_count(grid: OccupancyGrid, inventory: int) -> CheckResult:
    count = len(grid.occupied)
    if count == 0:
        raise EmptyAssembly("grid has no occupied cells")
    return CheckResult(CheckKind.COMPONENT_COUNT, (count,) if count > inventory else ())


def check_overhang(
    grid: OccupancyGrid, max_unsupported: int = DEFAULT_OVERHANG_LIMIT
) -> CheckResult:
    """Fails when a cell sits more than ``max_unsupported`` lateral steps
    from a supported cell: one on the ground (k = 0) or directly on an
    occupied cell. One breadth-first search from every supported cell moves
    only within a layer; a cell it never reaches counts as infinitely far.
    """
    occupied = grid.occupied
    dist = {c: 0 for c in occupied if c[2] == 0 or (c[0], c[1], c[2] - 1) in occupied}
    queue = deque(dist)
    while queue:
        cell = queue.popleft()
        for di, dj in _LATERAL:
            nb = (cell[0] + di, cell[1] + dj, cell[2])
            if nb in occupied and nb not in dist:
                dist[nb] = dist[cell] + 1
                queue.append(nb)
    offenders = sorted(c for c in occupied if dist.get(c, float("inf")) > max_unsupported)
    return CheckResult(CheckKind.OVERHANG, tuple(offenders))


def _prune(grid: OccupancyGrid, *checks: Callable[..., CheckResult]) -> OccupancyGrid:
    """Delete the first failing check's offenders until every check passes.

    A check runs only on a grid that passes the ones before it. A grid that
    already passes comes back as it is.
    """
    while True:
        offenders = next(filter(None, (check(grid).details for check in checks)), ())
        if not offenders:
            return grid
        grid = OccupancyGrid(grid.spec, grid.occupied - set(offenders))


def remove_overhangs(
    grid: OccupancyGrid, max_unsupported: int = DEFAULT_OVERHANG_LIMIT
) -> OccupancyGrid:
    """Delete overhang offenders until the check passes.

    Removal can orphan cells above (their support vanishes), so the sweep
    repeats to a fixpoint. Grids that already pass come back unchanged.
    """
    return _prune(grid, partial(check_overhang, max_unsupported=max_unsupported))


def check_vertical_stack(
    grid: OccupancyGrid, max_stack: int = DEFAULT_STACK_LIMIT
) -> CheckResult:
    """Fails when a free-standing column is taller than ``max_stack`` cells.

    A cell braced sideways has height 0; any other cell is one higher than
    the cell below it (0 when absent). Details list the cells above height
    ``max_stack``.
    """
    occupied = grid.occupied
    height: dict[Cell, int] = {}
    for i, j, k in sorted(occupied, key=lambda c: c[2]):
        braced = any((i + di, j + dj, k) in occupied for di, dj in _LATERAL)
        height[(i, j, k)] = 0 if braced else 1 + height.get((i, j, k - 1), 0)
    excess = sorted(c for c, h in height.items() if h > max_stack)
    return CheckResult(CheckKind.VERTICAL_STACK, tuple(excess))


def truncate_stacks(
    grid: OccupancyGrid,
    max_stack: int = DEFAULT_STACK_LIMIT,
    max_unsupported: int = DEFAULT_OVERHANG_LIMIT,
) -> OccupancyGrid:
    """Cut free-standing columns down to ``max_stack`` cells.

    Truncation can orphan whatever rested on the removed cells, so the
    overhang sweep runs interleaved until both rules hold.
    """
    stack = partial(check_vertical_stack, max_stack=max_stack)
    return _prune(grid, stack, partial(check_overhang, max_unsupported=max_unsupported))


def _replay(seq: AssemblySequence, grid: OccupancyGrid) -> Iterator[tuple[Cell, bool, bool]]:
    """Place the cells in order; yield each with whether it is supported (k = 0
    or next to a placed cell) and its corridor clear (nothing placed above)."""
    require_coverage(seq, grid)
    placed: set[Cell] = set()
    column_top: dict[tuple[int, int], int] = {}  # highest placed k per (i, j)
    for cell in seq.cells:
        i, j, k = cell
        top = column_top.get((i, j), -1)
        yield cell, k == 0 or any(nb in placed for nb in face_neighbors(cell)), top < k
        column_top[(i, j)] = max(top, k)
        placed.add(cell)


def check_sequence_connectivity(
    seq: AssemblySequence, grid: OccupancyGrid
) -> CheckResult:
    """Passes when every placement beyond the ground touches an earlier one.

    Ground-layer cells (k = 0) count as connected by definition. The first
    cell with no placed face neighbor fails the check and ends the replay.
    """
    for cell, supported, _ in _replay(seq, grid):
        if not supported:
            return CheckResult(CheckKind.CONNECTIVITY, (cell,))
    return CheckResult(CheckKind.CONNECTIVITY)


def _configured_checks(config: AssemblyConfig) -> tuple[Callable[..., CheckResult], ...]:
    """The count, overhang and stack checks at ``config``'s limits."""
    return (
        partial(check_component_count, inventory=config.inventory),
        partial(check_overhang, max_unsupported=config.overhang_limit),
        partial(check_vertical_stack, max_stack=config.stack_limit),
    )


# --- rescaling ----------------------------------------------------------------


def rescale_until_fits(
    mesh: TriangleMesh, grid: OccupancyGrid, inventory: int
) -> tuple[OccupancyGrid, float, int]:
    """Shrink the design until it voxelizes to at most the inventory.

    ``grid`` is ``mesh`` voxelized on its own bounding grid; its cell size
    is the shrink step. The mesh is repeatedly scaled by (L - cell) / L
    where L is the current longest bounding-box edge, which shaves exactly
    one cell off the longest axis per iteration. Returns the final grid,
    the cumulative shrink factor (1.0 without a shrink; fitting the mesh to
    the workspace is the caller's step) and the iteration count. A step
    that can shrink again skips the interior pass when its surface alone
    exceeds the inventory; the last possible step voxelizes in full, so a
    ``CannotFit`` message reports the complete count.
    """
    cell_size = grid.spec.cell_size
    scale = 1.0
    iterations = 0
    box = bounding_box(mesh)
    while len(grid.occupied) > inventory:
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
        box = bounding_box(mesh)
        last = max(box.extents) - cell_size < cell_size
        grid = voxelize(
            mesh, build_grid(box, cell_size), surface_limit=None if last else inventory
        )
    return grid, float(scale), iterations


# --- orchestration --------------------------------------------------------


def run_feasibility(
    mesh: TriangleMesh,
    config: AssemblyConfig | None = None,
    failure_handling: bool = True,
) -> tuple[OccupancyGrid, FeasibilityReport]:
    """Discretize the mesh, run all four checks, optionally apply rewrites.

    The mesh is voxelized as given, so callers fit it into the workspace
    first (``fit_to_workspace``). The report always carries the first-pass
    statuses; with failure handling enabled the returned grid additionally
    satisfies every check (rescale, overhang removal, stack truncation,
    connectivity re-sort, in that order).
    """
    config = config or AssemblyConfig()
    grid = voxelize(mesh, build_grid(bounding_box(mesh), config.cell_size))
    if not grid.occupied:
        raise EmptyAssembly("mesh voxelized to zero occupied cells")

    count_check, overhang, stack = _configured_checks(config)

    def connectivity(g: OccupancyGrid) -> CheckResult:
        return check_sequence_connectivity(naive_sort(g), g)

    count = count_check(grid)
    results = (count, overhang(grid), stack(grid), connectivity(grid))
    modifications: list[dict] = []
    if failure_handling:
        if count.failed:
            grid, scale, iterations = rescale_until_fits(mesh, grid, config.inventory)
            modifications.append(
                {"action": "rescale", "iterations": iterations, "scale": scale}
            )
        rewrites = (("remove_overhangs", (overhang,)), ("truncate_stacks", (stack, overhang)))
        for action, checks in rewrites:
            trimmed = _prune(grid, *checks)
            removed = sorted(grid.occupied - trimmed.occupied)
            if removed:
                modifications.append({"action": action, "removed": [list(c) for c in removed]})
            grid = trimmed
        if not grid.occupied:
            raise EmptyAfterModification("failure handling removed every cell")
        # the grid passes the overhang check, so connectivity_sort succeeds on it
        if connectivity(grid).failed:
            modifications.append({"action": "connectivity_sort"})

    return grid, FeasibilityReport(results, tuple(modifications), len(grid.occupied))


# --- validation ------------------------------------------------------------


@dataclass(frozen=True)
class PlacementStep:
    cell: Cell
    supported: bool
    corridor_clear: bool
    plane_clear: bool

    @property
    def ok(self) -> bool:
        return self.supported and self.corridor_clear and self.plane_clear


# one step of simulation.json, laid out as json.dumps(indent=2) lays it out
_STEP_JSON = (
    '{\n      "cell": ' + json_triple(6) + ',\n      "supported": %s,\n'
    '      "corridor_clear": %s,\n      "plane_clear": %s\n    }'
)


@dataclass(frozen=True)
class SimulationReport:
    ok: bool
    steps: tuple[PlacementStep, ...]
    first_failure: int | None

    def to_json(self) -> bytes:
        flags = ("false", "true")
        steps = json_list((_STEP_JSON % (*s.cell, flags[s.supported], flags[s.corridor_clear],
                                         flags[s.plane_clear]) for s in self.steps), 2)
        return (
            f'{{\n  "ok": {json.dumps(self.ok)},\n  "first_failure": '
            f'{json.dumps(self.first_failure)},\n  "steps": {steps}\n}}\n'
        ).encode("utf-8")


def simulate_assembly(
    seq: AssemblySequence, grid: OccupancyGrid, config: AssemblyConfig
) -> SimulationReport:
    """Replay the sequence and verify each placement is physically sound.

    Per step: the cell must rest on the ground or touch an already placed
    cell (support), the column straight above it must still be empty so the
    gripper can descend (corridor), and the movement plane must clear the
    structure including the new cell by the configured margin.
    """
    steps: list[PlacementStep] = []
    top_k = -1
    for cell, supported, corridor_clear in _replay(seq, grid):
        top_k = max(top_k, cell[2])
        top_z = grid.spec.origin[2] + (top_k + 1) * grid.spec.cell_size
        steps.append(PlacementStep(cell, supported, corridor_clear, config.plane_clears(top_z)))
    first_failure = next((n for n, s in enumerate(steps) if not s.ok), None)
    return SimulationReport(first_failure is None, tuple(steps), first_failure)


def verify_report_consistency(
    report: FeasibilityReport, grid: OccupancyGrid, config: AssemblyConfig
) -> bool:
    """Recompute the checks on the final grid and recount components.

    True only when the grid is non-empty, everything passes and the report's
    final count matches. Used as the pipeline's last gate against stale or
    tampered reports. Connectivity is not re-sorted: passing the overhang
    check puts every cell of a layer k > 0 in reach, within its layer, of a
    cell resting on layer k - 1, so ``connectivity_sort`` cannot fail there
    and its order passes ``check_sequence_connectivity``.
    """
    if not grid.occupied or report.final_component_count != len(grid.occupied):
        return False
    return not any(check(grid).failed for check in _configured_checks(config))
