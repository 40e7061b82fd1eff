"""Structural feasibility checks, the failure-handling rewrites and the
post-planning validation.

Four checks gate a discretized design: component count against the
inventory, cantilever overhang, free-standing stack height, and placement
connectivity. ``run_feasibility`` applies each failed check's deterministic
rewrite: iterative rescaling, overhang removal and stack truncation (each
prunes the array until the configured rules pass), connectivity re-sorting.
One placement replay serves the connectivity check and the build
simulation; the report cross-check reruns the configured checks.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .config import DEFAULT_OVERHANG_LIMIT, DEFAULT_STACK_LIMIT, AssemblyConfig
from .discretizer import (
    Cell, GridSpec, OccupancyGrid, build_grid, json_list, json_triple, occupancy,
)
from .errors import CannotFit, EmptyAfterModification, EmptyAssembly
from .mesh_io import TriangleMesh, bounding_box
from .sequencer import AssemblySequence, face_neighbors, require_coverage


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
    return _count_check(len(grid.occupied), inventory)


def _count_check(count: int, inventory: int) -> CheckResult:
    if count == 0:
        raise EmptyAssembly("grid has no occupied cells")
    return CheckResult(CheckKind.COMPONENT_COUNT, (count,) if count > inventory else ())


def check_overhang(
    grid: OccupancyGrid, max_unsupported: int = DEFAULT_OVERHANG_LIMIT
) -> CheckResult:
    """Fails when a cell sits more than ``max_unsupported`` lateral steps
    from a supported cell: one on the ground (k = 0) or directly on an
    occupied cell. Steps move only within a layer; a cell no path reaches
    counts as infinitely far."""
    return _result(CheckKind.OVERHANG, _overhang(grid.to_array(), max_unsupported))


def _overhang(filled: np.ndarray, max_unsupported: int) -> np.ndarray:
    """The overhang offenders of an occupancy array: the occupied cells that
    at most ``max_unsupported`` in-layer dilations of the supported mask,
    each kept inside the occupied mask, do not reach."""
    reached = filled & _resting(filled) & (max_unsupported >= 0)
    for _ in range(max_unsupported):
        grown = reached | (_lateral(reached) & filled)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return filled & ~reached


def _resting(filled: np.ndarray) -> np.ndarray:
    """The cells on the ground (k = 0) or directly on an occupied cell."""
    rest = np.ones_like(filled)
    rest[:, :, 1:] = filled[:, :, :-1]
    return rest


def _lateral(mask: np.ndarray) -> np.ndarray:
    """The cells with a face neighbour in ``mask`` within their own layer."""
    near = np.zeros_like(mask)
    near[1:] |= mask[:-1]
    near[:-1] |= mask[1:]
    near[:, 1:] |= mask[:, :-1]
    near[:, :-1] |= mask[:, 1:]
    return near


def _result(check: CheckKind, offenders: np.ndarray) -> CheckResult:
    """The check's result with the true cells of ``offenders``, sorted."""
    return CheckResult(check, tuple(map(tuple, np.argwhere(offenders).tolist())))


def _prune(filled: np.ndarray, *rules: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Delete the first failing rule's offenders until every rule passes; a
    rule runs only on an array that passes the ones before it."""
    while True:
        offenders = next((mask for mask in (rule(filled) for rule in rules) if mask.any()), None)
        if offenders is None:
            return filled
        filled = filled & ~offenders


def check_vertical_stack(
    grid: OccupancyGrid, max_stack: int = DEFAULT_STACK_LIMIT
) -> CheckResult:
    """Fails when a free-standing column is taller than ``max_stack`` cells.

    A cell braced sideways has height 0; any other cell is one higher than
    the cell below it (0 when absent). Details list the cells above height
    ``max_stack``."""
    return _result(CheckKind.VERTICAL_STACK, _stack(grid.to_array(), max_stack))


def _stack(filled: np.ndarray, max_stack: int) -> np.ndarray:
    """The stack offenders of an occupancy array, in one scan up z: a cell's
    height is its column's free-cell count up to it less that count at the
    last cell below it that is braced or empty."""
    free = filled & ~_lateral(filled)
    run = np.cumsum(free, axis=2)
    return filled & (run - np.maximum.accumulate(np.where(free, 0, run), axis=2) > max_stack)


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


def _naive_gap(filled: np.ndarray) -> tuple[Cell, ...]:
    """The connectivity offender of the naive (k, i, j) order, without a sort:
    the least cell in that order with k > 0 and none of (i, j, k - 1),
    (i - 1, j, k) or (i, j - 1, k) occupied, if any."""
    linked = _resting(filled)
    linked[1:] |= filled[:-1]
    linked[:, 1:] |= filled[:, :-1]
    loose = np.argwhere((filled & ~linked).transpose(2, 0, 1))[:1, [1, 2, 0]]
    return tuple(map(tuple, loose.tolist()))


def _configured_rules(config: AssemblyConfig) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """The overhang and stack rules at ``config``'s limits."""
    return (partial(_overhang, max_unsupported=config.overhang_limit),
            partial(_stack, max_stack=config.stack_limit))


# --- rescaling ----------------------------------------------------------------


def rescale_until_fits(
    mesh: TriangleMesh, cell_size: float, count: int, inventory: int
) -> tuple[GridSpec, np.ndarray, float, int]:
    """Shrink the design until it voxelizes to at most the inventory.

    ``count`` is the occupied-cell count of ``mesh`` voxelized on its own
    bounding grid of ``cell_size`` cells, the shrink step. The mesh is
    repeatedly scaled by (L - cell) / L where L is the current longest
    bounding-box edge, which shaves exactly one cell off the longest axis per
    iteration; each step only counts its occupancy array. Returns the final
    grid spec and array, the cumulative shrink factor (1.0 without a shrink;
    fitting the mesh to the workspace is the caller's step) and the
    iteration count. A step that can shrink again skips the interior pass
    when its surface alone exceeds the inventory; the last possible step
    voxelizes in full, so a ``CannotFit`` message reports the complete count."""
    scale, iterations, filled = 1.0, 0, None
    box = bounding_box(mesh)
    spec = build_grid(box, cell_size)
    while count > inventory:
        longest = max(box.extents)
        if longest - cell_size < cell_size:
            raise CannotFit(
                f"{count} components exceed the inventory of "
                f"{inventory} and the design cannot shrink "
                f"below one component"
            )
        factor = (longest - cell_size) / longest
        anchor = np.asarray(box.min_corner)
        mesh = mesh.with_vertices(anchor + (mesh.vertices - anchor) * factor)
        scale *= factor
        iterations += 1
        box = bounding_box(mesh)
        spec = build_grid(box, cell_size)
        last = max(box.extents) - cell_size < cell_size
        filled = occupancy(mesh, spec, surface_limit=None if last else inventory)
        count = np.count_nonzero(filled)
    if filled is None:  # nothing to shrink: the design as given
        filled = occupancy(mesh, spec)
    return spec, filled, float(scale), iterations


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
    connectivity re-sort, in that order). All of it reads the occupancy
    array; only the returned grid is built as a set of cells."""
    config = config or AssemblyConfig()
    spec = build_grid(bounding_box(mesh), config.cell_size)
    filled = occupancy(mesh, spec)
    first = np.count_nonzero(filled)
    if not first:
        raise EmptyAssembly("mesh voxelized to zero occupied cells")

    overhang, stack = _configured_rules(config)
    count = _count_check(first, config.inventory)
    results = (count, _result(CheckKind.OVERHANG, overhang(filled)),
               _result(CheckKind.VERTICAL_STACK, stack(filled)),
               CheckResult(CheckKind.CONNECTIVITY, _naive_gap(filled)))
    modifications: list[dict] = []
    if failure_handling:
        if count.failed:
            spec, filled, scale, iterations = rescale_until_fits(
                mesh, spec.cell_size, first, config.inventory
            )
            modifications.append(
                {"action": "rescale", "iterations": iterations, "scale": scale}
            )
        rewrites = (("remove_overhangs", (overhang,)), ("truncate_stacks", (stack, overhang)))
        for action, rules in rewrites:
            trimmed = _prune(filled, *rules)
            removed = np.argwhere(filled & ~trimmed).tolist()
            if removed:
                modifications.append({"action": action, "removed": removed})
            filled = trimmed
        if not filled.any():
            raise EmptyAfterModification("failure handling removed every cell")
        # the grid passes the overhang check, so connectivity_sort succeeds on it
        if _naive_gap(filled):
            modifications.append({"action": "connectivity_sort"})

    grid = OccupancyGrid.from_array(spec, filled)
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
    filled = grid.to_array()
    return len(grid.occupied) <= config.inventory and not any(
        rule(filled).any() for rule in _configured_rules(config))
