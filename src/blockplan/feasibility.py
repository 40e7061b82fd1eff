"""Structural feasibility checks and the failure-handling rewrites.

Four checks gate a discretized design: component count against the
inventory, cantilever overhang, free-standing stack height, and placement
connectivity. Each failed check has a deterministic rewrite: iterative
rescaling, overhang removal, stack truncation, and connectivity-aware
re-sorting.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .checks import Cell, CheckKind, CheckResult, failed, passed
from .config import DEFAULT_OVERHANG_LIMIT, DEFAULT_STACK_LIMIT, AssemblyConfig
from .discretizer import OccupancyGrid, build_grid, voxelize
from .errors import CannotFit, EmptyAfterModification, EmptyAssembly
from .mesh_io import TriangleMesh, bounding_box
from .sequencer import check_sequence_connectivity, naive_sort

_LATERAL = ((1, 0), (-1, 0), (0, 1), (0, -1))


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

    def result_for(self, kind: CheckKind) -> CheckResult:
        for result in self.results:
            if result.check is kind:
                return result
        raise KeyError(kind.value)

    def to_json(self) -> bytes:
        obj = {
            "checks": {r.check.value: r.status.value for r in self.results},
            "modifications": list(self.modifications),
            "final_component_count": self.final_component_count,
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


# --- individual checks -------------------------------------------------------


def check_component_count(grid: OccupancyGrid, inventory: int) -> CheckResult:
    count = len(grid.occupied)
    if count == 0:
        raise EmptyAssembly("grid has no occupied cells")
    if count <= inventory:
        return passed(CheckKind.COMPONENT_COUNT)
    return failed(CheckKind.COMPONENT_COUNT, (count,))


def _overhang_offenders(grid: OccupancyGrid, limit: int) -> list[Cell]:
    """Cells more than ``limit`` lateral steps from a supported cell.

    Supported means on the ground (k = 0) or directly on an occupied cell.
    One breadth-first search from every supported cell moves only within a
    layer; a cell it never reaches has no path to support.
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
    return sorted(c for c in occupied if dist.get(c, limit + 1) > limit)


def check_overhang(
    grid: OccupancyGrid, max_unsupported: int = DEFAULT_OVERHANG_LIMIT
) -> CheckResult:
    """Fails when a cell sits farther than ``max_unsupported`` lateral steps
    from any supported cell of its layer (unreachable counts as infinite)."""
    offenders = _overhang_offenders(grid, max_unsupported)
    if offenders:
        return failed(CheckKind.OVERHANG, tuple(offenders))
    return passed(CheckKind.OVERHANG)


def remove_overhangs(
    grid: OccupancyGrid, max_unsupported: int = DEFAULT_OVERHANG_LIMIT
) -> OccupancyGrid:
    """Delete overhang offenders until the check passes.

    Removal can orphan cells above (their support vanishes), so the sweep
    repeats to a fixpoint. Grids that already pass come back unchanged.
    """
    occupied = grid.occupied
    while True:
        trial = OccupancyGrid(grid.spec, occupied)
        offenders = _overhang_offenders(trial, max_unsupported)
        if not offenders:
            return trial
        occupied = occupied - set(offenders)


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
    if excess:
        return failed(CheckKind.VERTICAL_STACK, tuple(excess))
    return passed(CheckKind.VERTICAL_STACK)


def truncate_stacks(
    grid: OccupancyGrid,
    max_stack: int = DEFAULT_STACK_LIMIT,
    max_unsupported: int = DEFAULT_OVERHANG_LIMIT,
) -> OccupancyGrid:
    """Cut free-standing columns down to ``max_stack`` cells.

    Truncation can orphan whatever rested on the removed cells, so the
    overhang sweep runs interleaved until both rules hold.
    """
    occupied = grid.occupied
    while True:
        trial = OccupancyGrid(grid.spec, occupied)
        stack_result = check_vertical_stack(trial, max_stack)
        if stack_result.failed:
            occupied = occupied - set(stack_result.details)
            continue
        offenders = _overhang_offenders(trial, max_unsupported)
        if offenders:
            occupied = occupied - set(offenders)
            continue
        return trial


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
    the workspace is the caller's step) and the iteration count.
    """
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
        grid = voxelize(mesh, build_grid(bounding_box(mesh), cell_size))
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
            # a grid that already passes comes back with its cells unchanged
            trimmed = rewrite(grid)
            removed = sorted(grid.occupied - trimmed.occupied)
            if removed:
                modifications.append({"action": action, "removed": [list(c) for c in removed]})
            grid = trimmed
        if not grid.occupied:
            raise EmptyAfterModification("failure handling removed every cell")
        # the grid passes the overhang check, so connectivity_sort succeeds on it
        if check_sequence_connectivity(naive_sort(grid), grid).failed:
            modifications.append({"action": "connectivity_sort"})

    report = FeasibilityReport(
        results=results,
        modifications=tuple(modifications),
        final_component_count=len(grid.occupied),
    )
    return grid, report
