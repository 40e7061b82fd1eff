"""Post-planning validation: simulate the build and cross-check reports."""
from __future__ import annotations

import json
from dataclasses import dataclass

from .config import AssemblyConfig
from .discretizer import Cell, OccupancyGrid
from .feasibility import (
    FeasibilityReport,
    check_component_count,
    check_overhang,
    check_vertical_stack,
)
from .sequencer import AssemblySequence, face_neighbors, require_coverage


@dataclass(frozen=True)
class PlacementStep:
    cell: Cell
    supported: bool
    corridor_clear: bool
    plane_clear: bool

    @property
    def ok(self) -> bool:
        return self.supported and self.corridor_clear and self.plane_clear


@dataclass(frozen=True)
class SimulationReport:
    ok: bool
    steps: tuple[PlacementStep, ...]
    first_failure: int | None

    def to_json(self) -> bytes:
        obj = {
            "ok": self.ok,
            "first_failure": self.first_failure,
            "steps": [
                {
                    "cell": list(step.cell),
                    "supported": step.supported,
                    "corridor_clear": step.corridor_clear,
                    "plane_clear": step.plane_clear,
                }
                for step in self.steps
            ],
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def simulate_assembly(
    seq: AssemblySequence, grid: OccupancyGrid, config: AssemblyConfig
) -> SimulationReport:
    """Replay the sequence and verify each placement is physically sound.

    Per step: the cell must rest on the ground or touch an already placed
    cell (support), the column straight above it must still be empty so the
    gripper can descend (corridor), and the movement plane must clear the
    structure including the new cell by the configured margin.
    """
    require_coverage(seq, grid)
    cell_size = grid.spec.cell_size
    origin_z = grid.spec.origin[2]
    placed: set[Cell] = set()
    column_top: dict[tuple[int, int], int] = {}  # highest placed k per (i, j)
    steps: list[PlacementStep] = []
    top_k = -1
    for cell in seq.cells:
        i, j, k = cell
        supported = k == 0 or any(nb in placed for nb in face_neighbors(cell))
        corridor_clear = column_top.get((i, j), -1) < k
        column_top[(i, j)] = max(column_top.get((i, j), -1), k)
        top_k = max(top_k, k)
        top_z = origin_z + (top_k + 1) * cell_size
        plane_clear = config.movement_plane_z >= top_z + config.clearance - 1e-9
        steps.append(PlacementStep(cell, supported, corridor_clear, plane_clear))
        placed.add(cell)
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
    return not (
        check_component_count(grid, config.inventory).failed
        or check_overhang(grid, config.overhang_limit).failed
        or check_vertical_stack(grid, config.stack_limit).failed
    )
