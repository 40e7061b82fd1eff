"""Feasibility checks, failure-handling rewrites, and the orchestrator."""
from __future__ import annotations

import json
import math
import random

import pytest

from blockplan import feasibility
from blockplan.checks import CheckKind, CheckStatus
from blockplan.config import AssemblyConfig
from blockplan.discretizer import build_grid, voxelize
from blockplan.errors import CannotFit, EmptyAssembly
from blockplan.feasibility import (
    FeasibilityReport,
    check_component_count,
    check_overhang,
    check_vertical_stack,
    remove_overhangs,
    rescale_until_fits,
    run_feasibility,
    truncate_stacks,
)
from blockplan.mesh_io import bounding_box
from blockplan.sequencer import check_sequence_connectivity, connectivity_sort
from blockplan.shapes import box_mesh
from tests.conftest import make_grid


def column(i: int, j: int, height: int, base: int = 0):
    return [(i, j, k) for k in range(base, base + height)]


def all_checks_pass(grid, config: AssemblyConfig) -> bool:
    # Connectivity counts as satisfied when some buildable order exists,
    # not just the naive one; connectivity_sort raises if there is none.
    return (
        check_component_count(grid, config.inventory).passed
        and check_overhang(grid, config.overhang_limit).passed
        and check_vertical_stack(grid, config.stack_limit).passed
        and check_sequence_connectivity(connectivity_sort(grid), grid).passed
    )


# --- component count -----------------------------------------------------


def test_count_at_inventory_limit_passes(grid_factory):
    cells = [(i, j, 0) for i in range(5) for j in range(5)] + column(0, 0, 3, base=1)
    grid = grid_factory(cells + column(1, 1, 3, base=1) + column(2, 2, 3, base=1)
                        + column(3, 3, 3, base=1) + column(4, 4, 3, base=1))
    assert len(grid.occupied) == 40
    assert check_component_count(grid, 40).passed


def test_count_over_inventory_fails_with_count(grid_factory):
    cells = [(i, j, k) for i in range(5) for j in range(4) for k in range(2)] + [(0, 4, 0)]
    grid = grid_factory(cells)
    result = check_component_count(grid, 40)
    assert result.failed
    assert result.details == (41,)


def test_count_single_cell_single_inventory(grid_factory):
    assert check_component_count(grid_factory([(0, 0, 0)]), 1).passed


def test_count_rejects_empty_grid(grid_factory):
    with pytest.raises(EmptyAssembly):
        check_component_count(grid_factory([]), 40)


# --- overhang ------------------------------------------------------------


def overhang_arm(length: int):
    """A supported anchor at (0, 0, 1) with an arm reaching ``length`` cells out."""
    return [(0, 0, 0), (0, 0, 1)] + [(i, 0, 1) for i in range(1, length + 1)]


def test_overhang_within_limit_passes(grid_factory):
    grid = grid_factory(overhang_arm(3))
    assert check_overhang(grid, max_unsupported=3).passed


def test_overhang_past_limit_reports_offender(grid_factory):
    grid = grid_factory(overhang_arm(4))
    result = check_overhang(grid, max_unsupported=3)
    assert result.failed
    assert result.details == ((4, 0, 1),)


def test_overhang_single_ground_cell(grid_factory):
    assert check_overhang(grid_factory([(0, 0, 0)])).passed


def test_overhang_unreachable_cell_counts_as_infinite(grid_factory):
    # No supported cell anywhere in layer 1, so BFS never reaches it.
    result = check_overhang(grid_factory([(0, 0, 1)]))
    assert result.failed
    assert result.details == ((0, 0, 1),)


def test_overhang_distance_is_per_layer(grid_factory):
    # An offender in layer 1 cannot borrow support through layer 2.
    cells = overhang_arm(4) + [(4, 0, 2)]
    result = check_overhang(grid_factory(cells))
    assert (4, 0, 1) in result.details


def test_remove_overhangs_deletes_only_offenders(grid_factory):
    grid = grid_factory(overhang_arm(5))
    trimmed = remove_overhangs(grid, max_unsupported=3)
    assert trimmed.occupied == grid.occupied - {(4, 0, 1), (5, 0, 1)}
    assert check_overhang(trimmed, max_unsupported=3).passed


def test_remove_overhangs_keeps_passing_grid(grid_factory):
    grid = grid_factory(overhang_arm(3))
    assert remove_overhangs(grid, max_unsupported=3).occupied == grid.occupied


def test_remove_overhangs_sweeps_orphans_to_fixpoint(grid_factory):
    # Deleting the arm tip strands the cell that rested on it; the next
    # sweep must catch that orphan too.
    grid = grid_factory(overhang_arm(4) + [(4, 0, 2)])
    trimmed = remove_overhangs(grid, max_unsupported=3)
    assert trimmed.occupied == grid.occupied - {(4, 0, 1), (4, 0, 2)}
    assert check_overhang(trimmed).passed


# --- vertical stack ------------------------------------------------------


def test_stack_of_five_fails_above_allowed_height(grid_factory):
    result = check_vertical_stack(grid_factory(column(0, 0, 5)), max_stack=4)
    assert result.failed
    assert result.details == ((0, 0, 4),)


def test_stack_of_four_passes(grid_factory):
    assert check_vertical_stack(grid_factory(column(0, 0, 4)), max_stack=4).passed


def test_braced_cell_splits_the_run(grid_factory):
    # Six cells tall, but the lateral brace at height 3 leaves only runs of
    # three and two free-standing cells.
    grid = grid_factory(column(0, 0, 6) + [(1, 0, 3)])
    assert check_vertical_stack(grid, max_stack=4).passed


def test_stack_reports_all_offending_columns_sorted(grid_factory):
    grid = grid_factory(column(0, 0, 5) + column(2, 2, 5))
    result = check_vertical_stack(grid, max_stack=4)
    assert result.details == ((0, 0, 4), (2, 2, 4))


def test_truncate_keeps_bottom_of_tall_column(grid_factory):
    grid = grid_factory(column(0, 0, 6))
    trimmed = truncate_stacks(grid, max_stack=4)
    assert trimmed.occupied == frozenset(column(0, 0, 4))


def test_truncate_orphaned_rider_swept_by_overhang_pass(grid_factory):
    # The rider braces the topmost cell, so the run below it is the
    # offender; cutting that run orphans both the top cell and the rider.
    grid = grid_factory(column(0, 0, 6) + [(1, 0, 5)])
    trimmed = truncate_stacks(grid, max_stack=4, max_unsupported=3)
    assert trimmed.occupied == frozenset(column(0, 0, 4))
    assert check_vertical_stack(trimmed).passed
    assert check_overhang(trimmed).passed


def test_truncate_keeps_passing_grid(grid_factory):
    grid = grid_factory(column(0, 0, 4) + [(1, 0, 0)])
    assert truncate_stacks(grid).occupied == grid.occupied


# --- rescaling -----------------------------------------------------------


def box_rescale_oracle(extents, cell: float, inventory: int):
    """Replay the shrink loop arithmetically for a box anchored at the origin.

    A box occupies every cell of its bounding grid, so the component count
    is just the product of the grid dimensions.
    """
    ext = list(extents)
    scale, iterations = 1.0, 0

    def count() -> int:
        dims = [max(1, math.ceil(e / cell - 1e-12)) for e in ext]
        return dims[0] * dims[1] * dims[2]

    while count() > inventory:
        longest = max(ext)
        factor = (longest - cell) / longest
        ext = [e * factor for e in ext]
        scale *= factor
        iterations += 1
    return count(), scale, iterations


def grid_of(mesh):
    """The first-pass 10 cm grid the orchestrator hands to the shrink loop."""
    return voxelize(mesh, build_grid(bounding_box(mesh), 10.0))


def test_rescale_not_needed_when_within_inventory():
    mesh = box_mesh((0.0, 0.0, 0.0), (20.0, 10.0, 10.0))
    grid, scale, iterations = rescale_until_fits(mesh, grid_of(mesh), 40)
    assert (len(grid.occupied), scale, iterations) == (2, 1.0, 0)


def test_rescale_single_step_halves_two_cell_box():
    mesh = box_mesh((0.0, 0.0, 0.0), (20.0, 10.0, 10.0))
    grid, scale, iterations = rescale_until_fits(mesh, grid_of(mesh), 1)
    assert (len(grid.occupied), scale, iterations) == (1, 0.5, 1)


def test_rescale_matches_box_oracle():
    extents = (60.0, 50.0, 60.0)
    mesh = box_mesh((0.0, 0.0, 0.0), extents)
    grid, scale, iterations = rescale_until_fits(mesh, grid_of(mesh), 40)
    count, expected_scale, expected_iterations = box_rescale_oracle(extents, 10.0, 40)
    assert len(grid.occupied) == count == 27
    assert iterations == expected_iterations == 3
    assert scale == pytest.approx(expected_scale, rel=1e-12)
    assert scale == pytest.approx(0.5, rel=1e-12)


def test_rescale_raises_when_design_cannot_shrink():
    mesh = box_mesh((0.0, 0.0, 0.0), (15.0, 15.0, 15.0))
    with pytest.raises(CannotFit):
        rescale_until_fits(mesh, grid_of(mesh), 1)


# --- orchestration -------------------------------------------------------


def statuses(report: FeasibilityReport) -> tuple[str, ...]:
    return tuple(r.status.value for r in report.results)


def test_orchestrator_oversized_block(demo_meshes, config):
    grid, report = run_feasibility(demo_meshes["block"], config)
    assert statuses(report) == ("failed", "passed", "passed", "passed")
    assert report.result_for(CheckKind.COMPONENT_COUNT).details == (180,)
    assert [m["action"] for m in report.modifications] == ["rescale"]
    assert report.modifications[0]["iterations"] == 3
    assert report.modifications[0]["scale"] == pytest.approx(0.5, rel=1e-12)
    assert report.final_component_count == len(grid.occupied) == 27
    assert all_checks_pass(grid, config)


def test_block_demo_voxelizes_once_per_rescale_iteration(demo_meshes, config, monkeypatch):
    calls = []

    def counting_voxelize(mesh, spec):
        calls.append(spec)
        return voxelize(mesh, spec)

    monkeypatch.setattr(feasibility, "voxelize", counting_voxelize)
    _, report = run_feasibility(demo_meshes["block"], config)
    iterations = report.modifications[0]["iterations"]
    assert iterations == 3
    assert len(calls) == 1 + iterations


def test_orchestrator_shelf(demo_meshes, config):
    grid, report = run_feasibility(demo_meshes["shelf"], config)
    assert statuses(report) == ("failed", "failed", "passed", "passed")
    assert report.modifications[0]["action"] == "rescale"
    assert report.final_component_count == len(grid.occupied) <= 40
    assert all_checks_pass(grid, config)


def test_orchestrator_tee(demo_meshes, config):
    grid, report = run_feasibility(demo_meshes["tee"], config)
    assert statuses(report) == ("passed", "passed", "failed", "passed")
    assert report.result_for(CheckKind.VERTICAL_STACK).details == ((1, 0, 5),)
    assert [m["action"] for m in report.modifications] == ["truncate_stacks"]
    assert report.modifications[0]["removed"] == [[1, 0, 5]]
    assert report.final_component_count == len(grid.occupied) == 7
    assert all_checks_pass(grid, config)


def test_orchestrator_table(demo_meshes, config):
    grid, report = run_feasibility(demo_meshes["table"], config)
    assert statuses(report) == ("passed", "passed", "passed", "failed")
    assert report.modifications == ({"action": "connectivity_sort"},)
    assert report.final_component_count == len(grid.occupied) == 24
    assert all_checks_pass(grid, config)


def test_orchestrator_reports_raw_statuses_without_handling(demo_meshes, config):
    for name in ("block", "shelf", "tee", "table"):
        handled_grid, handled = run_feasibility(demo_meshes[name], config)
        raw_grid, raw = run_feasibility(demo_meshes[name], config, failure_handling=False)
        # The report always describes the first-pass grid.
        assert raw.results == handled.results
        assert raw.modifications == ()
        assert raw.final_component_count == len(raw_grid.occupied)
        assert len(handled_grid.occupied) <= len(raw_grid.occupied)


def test_orchestrator_removals_are_subsets(demo_meshes, config):
    raw_grid, _ = run_feasibility(demo_meshes["tee"], config, failure_handling=False)
    grid, report = run_feasibility(demo_meshes["tee"], config)
    assert grid.occupied <= raw_grid.occupied
    removed = {tuple(c) for m in report.modifications for c in m.get("removed", [])}
    assert removed == raw_grid.occupied - grid.occupied


def test_rewrites_only_remove_cells_random_grids():
    rng = random.Random(516)
    nx, ny, nz = 5, 4, 6
    universe = [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]
    for _ in range(50):
        cells = rng.sample(universe, rng.randint(1, 30))
        grid = make_grid(cells, dims=(nx, ny, nz))
        trimmed = remove_overhangs(grid)
        assert trimmed.occupied <= grid.occupied
        assert check_overhang(trimmed).passed
        cut = truncate_stacks(grid)
        assert cut.occupied <= grid.occupied
        assert check_vertical_stack(cut).passed
        assert check_overhang(cut).passed


def test_report_json_document(demo_meshes, config):
    _, report = run_feasibility(demo_meshes["tee"], config)
    doc = json.loads(report.to_json())
    assert doc["checks"] == {
        "component_count": "passed",
        "overhang": "passed",
        "vertical_stack": "failed",
        "connectivity": "passed",
    }
    assert doc["modifications"] == [
        {"action": "truncate_stacks", "removed": [[1, 0, 5]]}
    ]
    assert doc["final_component_count"] == 7


def test_report_result_for_missing_kind():
    report = FeasibilityReport(
        results=(), modifications=(), final_component_count=1
    )
    with pytest.raises(KeyError):
        report.result_for(CheckKind.OVERHANG)


def test_check_result_status_objects(demo_meshes, config):
    _, report = run_feasibility(demo_meshes["table"], config, failure_handling=False)
    for result in report.results:
        assert result.passed == (result.status is CheckStatus.PASSED)
        assert result.failed == (not result.passed)
        assert bool(result.details) == result.failed
