"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line so the run log doubles as the acceptance record."""
from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from blockplan.cli import EXIT_OK, main
from blockplan.discretizer import GridSpec, OccupancyGrid, build_grid, fit_to_workspace, voxelize
from blockplan.feasibility import (
    check_component_count,
    check_overhang,
    check_sequence_connectivity,
    check_vertical_stack,
    simulate_assembly,
)
from blockplan.config import AssemblyConfig
from blockplan.frontend import ObjectRequest, Rejection, fallback_filter
from blockplan.mesh_io import bounding_box
from blockplan.sequencer import connectivity_sort
from blockplan.shapes import box_mesh, icosphere
from blockplan.toolpath import (
    CommandOp,
    MotionParams,
    SpeedRatio,
    Toolpath,
    calibration_schedule,
    emit_toolpath,
    estimate_duration,
    move,
    parse_toolpath,
    plan_toolpath,
)
from tests.conftest import make_grid, random_buildable_grid
from tests.oracles import naive_sort


@contextmanager
def reported(criterion: int, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: PASS")


EXPECTED_PATTERNS = {
    "block": ("failed", "passed", "passed", "passed"),
    "shelf": ("failed", "failed", "passed", "passed"),
    "tee": ("passed", "passed", "failed", "passed"),
    "table": ("passed", "passed", "passed", "failed"),
}
CHECK_ORDER = ("component_count", "overhang", "vertical_stack", "connectivity")


def report_statuses(out_dir: Path) -> tuple[str, ...]:
    checks = json.loads((out_dir / "report.json").read_bytes())["checks"]
    return tuple(checks[kind] for kind in CHECK_ORDER)


def test_acceptance_1_fixture_check_patterns(demo_mesh_files, tmp_path, capsys):
    with reported(1, capsys):
        start = time.perf_counter()
        seen = {}
        for name, mesh_path in demo_mesh_files.items():
            out = tmp_path / name
            code = main([
                "check", "--mesh", mesh_path,
                "--no-failure-handling", "--out-dir", str(out),
            ])
            assert code == EXIT_OK
            seen[name] = report_statuses(out)
        assert seen == EXPECTED_PATTERNS  # all 16 statuses
        assert time.perf_counter() - start < 5.0


def test_acceptance_2_failure_handling_closure(demo_mesh_files, tmp_path, capsys, config):
    with reported(2, capsys):
        start = time.perf_counter()
        for name, mesh_path in demo_mesh_files.items():
            out = tmp_path / name
            assert main(["pipeline", "--mesh", mesh_path, "--out-dir", str(out)]) == EXIT_OK
            report = json.loads((out / "report.json").read_bytes())
            assert report["final_component_count"] <= 40
            # Every check must pass when recomputed on the handled grid.
            grid = OccupancyGrid.from_json((out / "grid.json").read_bytes())
            assert not check_component_count(grid, config.inventory).failed
            assert not check_overhang(grid, config.overhang_limit).failed
            assert not check_vertical_stack(grid, config.stack_limit).failed
            assert not check_sequence_connectivity(connectivity_sort(grid), grid).failed
            code = main([
                "validate", "--grid", str(out / "grid.json"),
                "--sequence", str(out / "sequence.json"), "--out-dir", str(out),
            ])
            assert code == EXIT_OK
        assert time.perf_counter() - start < 10.0


def sampled_fraction(spec: GridSpec, cell, inside) -> float:
    lo = np.asarray(spec.origin) + np.asarray(cell) * spec.cell_size
    hi = lo + spec.cell_size
    axes = [np.linspace(lo[a], hi[a], 4) for a in range(3)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return sum(1 for p in points if inside(p)) / len(points)


def assert_matches_sampling(grid: OccupancyGrid, inside) -> None:
    nx, ny, nz = grid.spec.dims
    for cell in ((i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)):
        fraction = sampled_fraction(grid.spec, cell, inside)
        if fraction == 0:
            assert cell not in grid.occupied
        elif fraction >= 0.05:
            assert cell in grid.occupied
        # Grazing cells (0 < fraction < 0.05) may be caught by the exact
        # intersection test even when the sample lattice barely sees them.


def test_acceptance_3_voxelization_sampling_oracle(capsys):
    with reported(3, capsys):
        start = time.perf_counter()
        box = box_mesh((0.0, 0.0, 0.0), (35.0, 25.0, 15.0))
        box_grid = voxelize(box, GridSpec((0.0, 0.0, 0.0), 10.0, (5, 4, 3)))
        assert_matches_sampling(
            box_grid,
            lambda p: 0 <= p[0] <= 35 and 0 <= p[1] <= 25 and 0 <= p[2] <= 15,
        )
        sphere = icosphere(15.0, center=(20.0, 20.0, 20.0))
        sphere_grid = voxelize(sphere, GridSpec((0.0, 0.0, 0.0), 10.0, (4, 4, 4)))
        assert_matches_sampling(
            sphere_grid, lambda p: math.dist(p, (20.0, 20.0, 20.0)) <= 15.0
        )
        assert time.perf_counter() - start < 2.0


def test_acceptance_4_workspace_constants(capsys):
    with reported(4, capsys):
        mesh = box_mesh((0.0, 0.0, 0.0), (120.0, 100.0, 120.0))
        fitted, scale = fit_to_workspace(mesh, AssemblyConfig().workspace)
        box = bounding_box(fitted)
        assert scale == 0.5
        assert box.extents == (60.0, 50.0, 60.0)
        spec = build_grid(box, 10.0)
        assert spec.dims == (6, 5, 6)
        assert spec.cell_size == 10.0


def test_acceptance_5_sequencing_properties(capsys, config):
    with reported(5, capsys):
        start = time.perf_counter()
        rng = random.Random(20260825)
        for _ in range(100):
            grid = random_buildable_grid(rng)
            seq = connectivity_sort(grid)
            assert len(seq) == len(set(seq.cells)) == len(grid.occupied)
            assert set(seq.cells) == grid.occupied
            layers = [c[2] for c in seq.cells]
            assert layers == sorted(layers)
            assert not check_sequence_connectivity(seq, grid).failed
            assert simulate_assembly(seq, grid, config).ok
            assert set(naive_sort(grid).cells) == set(seq.cells)
        assert time.perf_counter() - start < 10.0


def test_acceptance_6_toolpath_law(capsys, config):
    with reported(6, capsys):
        params = MotionParams(2.0, 1.0)
        source_mm = tuple(v * 10.0 for v in config.source)
        grids = {
            1: make_grid([(0, 0, 0)]),
            5: make_grid([(i, 0, 0) for i in range(5)]),
            40: make_grid([(i, j, k) for i in range(5) for j in range(4) for k in range(2)]),
        }
        for n, grid in grids.items():
            seq = connectivity_sort(grid)
            path = plan_toolpath(seq, grid, config, params)
            assert len(path) == 1 + 8 * n
            for c, (_i, _j, k) in enumerate(seq.cells):
                grip = path.commands[8 * c + 3]
                assert grip.op is CommandOp.GRIP
                assert path.commands[8 * c + 2].xyz_mm == source_mm
                release = path.commands[8 * c + 7]
                assert release.op is CommandOp.RELEASE
                descent = path.commands[8 * c + 6]
                assert descent.xyz_mm[2] == (k + 1) * 100.0
            assert parse_toolpath(emit_toolpath(path)) == path


def test_acceptance_7_calibration_schedule(capsys):
    with reported(7, capsys):
        schedule = calibration_schedule()
        assert [(p.velocity, p.acceleration) for p in schedule] == [
            (1.0, 1.0), (1.0, 0.5),
            (1.5, 1.5), (1.5, 0.75),
            (2.0, 2.0), (2.0, 1.0),
            (2.5, 2.5), (2.5, 1.25),
        ]
        operating_point = schedule[5]
        assert operating_point == MotionParams(2.0, 1.0)
        assert operating_point.ratio is SpeedRatio.TWO_TO_ONE


def test_acceptance_8_duration_model(capsys, config):
    with reported(8, capsys):
        trapezoid = Toolpath((move(0, 0, 0), move(100, 0, 0)), MotionParams(10.0, 10.0))
        assert estimate_duration(trapezoid) == pytest.approx(11.0, rel=1e-9)
        triangle = Toolpath((move(0, 0, 0), move(0, 0, 5)), MotionParams(10.0, 10.0))
        assert estimate_duration(triangle) == pytest.approx(2 * math.sqrt(0.5), rel=1e-9)

        grid = make_grid([(i, j, 0) for i in range(5) for j in range(2)])
        seq = connectivity_sort(grid)
        durations = [
            estimate_duration(plan_toolpath(seq, grid, config, MotionParams(v, 1.0)))
            for v in (1.0, 1.5, 2.0, 2.5)
        ]
        assert all(a > b for a, b in zip(durations, durations[1:]))


def test_acceptance_9_request_filter_fixtures(capsys):
    with reported(9, capsys):
        assert fallback_filter("make me a coffee table") == ObjectRequest(
            "make me a coffee table", "coffee table"
        )
        assert fallback_filter("I want a simple stool") == ObjectRequest(
            "I want a simple stool", "simple stool"
        )
        assert isinstance(fallback_filter("create beauty"), Rejection)
        assert isinstance(fallback_filter("Knowledge"), Rejection)
        assert fallback_filter("I need a box to hold memories") == ObjectRequest(
            "I need a box to hold memories", "box"
        )


def test_acceptance_10_reproducible_artifacts(demo_mesh_files, tmp_path, capsys):
    with reported(10, capsys):
        artifacts = ("grid.json", "report.json", "sequence.json", "toolpath.json", "summary.txt")
        runs = []
        for n in (1, 2):
            out = tmp_path / f"run{n}"
            code = main(["pipeline", "--mesh", demo_mesh_files["table"], "--out-dir", str(out)])
            assert code == EXIT_OK
            runs.append({name: (out / name).read_bytes() for name in artifacts})
        assert runs[0] == runs[1]
