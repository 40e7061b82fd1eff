"""Build simulation and report cross-checking."""
from __future__ import annotations

import dataclasses
import json
import random

import pytest

from blockplan.errors import SequenceGridMismatch
from blockplan.feasibility import (
    FeasibilityReport,
    PlacementStep,
    SimulationReport,
    run_feasibility,
    simulate_assembly,
    verify_report_consistency,
)
from blockplan.sequencer import AssemblySequence, connectivity_sort


def column(height: int):
    return [(0, 0, k) for k in range(height)]


# --- simulation -------------------------------------------------------------


def test_simulate_single_ground_cell(grid_factory, config):
    grid = grid_factory([(0, 0, 0)])
    report = simulate_assembly(AssemblySequence(((0, 0, 0),)), grid, config)
    assert report.ok
    assert report.first_failure is None
    (step,) = report.steps
    assert step == PlacementStep((0, 0, 0), True, True, True)
    assert step.ok


def test_simulate_floating_first_placement(grid_factory, config):
    grid = grid_factory(column(2))
    seq = AssemblySequence(((0, 0, 1), (0, 0, 0)))
    report = simulate_assembly(seq, grid, config)
    assert not report.ok
    assert report.first_failure == 0
    assert not report.steps[0].supported
    # The late ground cell is then blocked from above as well.
    assert not report.steps[1].corridor_clear


def test_simulate_blocked_descent_corridor(grid_factory, config):
    grid = grid_factory([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)])
    seq = AssemblySequence(((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)))
    report = simulate_assembly(seq, grid, config)
    assert report.first_failure == 3
    assert all(step.ok for step in report.steps[:3])
    last = report.steps[3]
    assert last.supported and not last.corridor_clear


def test_simulate_plane_clearance_tracks_structure_top(grid_factory, config):
    # With 20 cm of required clearance the fifth cell tops out at 50 cm and
    # the 65 cm plane is no longer high enough.
    grid = grid_factory(column(5))
    seq = AssemblySequence(tuple(column(5)))
    tight = dataclasses.replace(config, clearance=20.0)
    report = simulate_assembly(seq, grid, tight)
    assert report.first_failure == 4
    assert [s.plane_clear for s in report.steps] == [True, True, True, True, False]


def test_simulate_rejects_mismatched_sequence(grid_factory, config):
    grid = grid_factory([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(SequenceGridMismatch):
        simulate_assembly(AssemblySequence(((0, 0, 0),)), grid, config)
    with pytest.raises(SequenceGridMismatch):
        simulate_assembly(
            AssemblySequence(((0, 0, 0), (0, 0, 0))), grid, config
        )


def test_simulate_connectivity_sorted_grids_always_build(
    buildable_grid_factory, config
):
    rng = random.Random(4820)
    for _ in range(50):
        grid = buildable_grid_factory(rng)
        seq = connectivity_sort(grid)
        report = simulate_assembly(seq, grid, config)
        assert report.ok
        # Independent replay of the support rule.
        placed = set()
        for step in report.steps:
            i, j, k = step.cell
            expected = k == 0 or any(
                nb in placed
                for nb in ((i + 1, j, k), (i - 1, j, k), (i, j + 1, k),
                           (i, j - 1, k), (i, j, k + 1), (i, j, k - 1))
            )
            assert step.supported == expected
            placed.add(step.cell)


def test_simulation_report_json_shape(grid_factory, config):
    grid = grid_factory(column(2))
    report = simulate_assembly(AssemblySequence(((0, 0, 1), (0, 0, 0))), grid, config)
    doc = json.loads(report.to_json())
    assert doc["ok"] is False
    assert doc["first_failure"] == 0
    assert doc["steps"][0] == {
        "cell": [0, 0, 1],
        "supported": False,
        "corridor_clear": True,
        "plane_clear": True,
    }


# --- report consistency -----------------------------------------------------


def test_verify_accepts_handled_runs(demo_meshes, config):
    for name in ("block", "shelf", "tee", "table"):
        grid, report = run_feasibility(demo_meshes[name], config)
        assert verify_report_consistency(report, grid, config)


def test_verify_rejects_tampered_count(demo_meshes, config):
    grid, report = run_feasibility(demo_meshes["tee"], config)
    forged = dataclasses.replace(
        report, final_component_count=report.final_component_count + 1
    )
    assert not verify_report_consistency(forged, grid, config)


def test_verify_rejects_wrong_grid(demo_meshes, config):
    raw_grid, _ = run_feasibility(demo_meshes["shelf"], config, failure_handling=False)
    _, report = run_feasibility(demo_meshes["shelf"], config)
    assert not verify_report_consistency(report, raw_grid, config)


def test_verify_recomputes_checks_not_just_counts(grid_factory, config):
    # Count matches, but the five-high free-standing column fails the
    # stack check when recomputed.
    grid = grid_factory(column(5))
    report = FeasibilityReport(results=(), modifications=(), final_component_count=5)
    assert not verify_report_consistency(report, grid, config)


def test_verify_rejects_empty_grid(grid_factory, config):
    report = FeasibilityReport(results=(), modifications=(), final_component_count=0)
    assert not verify_report_consistency(report, grid_factory([]), config)
