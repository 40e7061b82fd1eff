"""Command-line interface: exit codes, artifacts, config plumbing."""
from __future__ import annotations

import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from blockplan.cli import EXIT_OK, EXIT_USAGE, main
from blockplan.config import MAX_GRID_CELLS, AssemblyConfig
from blockplan.discretizer import build_grid, fit_to_workspace, voxelize
from blockplan.errors import (
    BlockplanError,
    CannotFit,
    ClientUnavailable,
    ConfigViolation,
    EmptyAssembly,
    EmptyMesh,
    MalformedFile,
    RequestRejected,
    SchemaError,
    SequenceGridMismatch,
    UnsupportedFormat,
    Unsequenceable,
    ValidationFailed,
)
from blockplan.mesh_io import MeshFormat, bounding_box, parse_mesh, repair_mesh, serialize_mesh
from blockplan.sequencer import AssemblySequence
from blockplan.shapes import box_mesh, icosphere
from tests.conftest import make_grid

SRC = Path(__file__).resolve().parent.parent / "src"
PIPELINE_ARTIFACTS = ("grid.json", "report.json", "sequence.json", "toolpath.json", "summary.txt")


def read_artifacts(out_dir: Path, names=PIPELINE_ARTIFACTS):
    return {name: (out_dir / name).read_bytes() for name in names}


# --- exit codes --------------------------------------------------------------


def test_each_error_type_carries_its_documented_exit_code():
    subclasses = BlockplanError.__subclasses__()
    codes = {e.__name__: e.exit_code for e in subclasses}
    assert codes == {
        "MalformedFile": 3, "UnsupportedFormat": 4, "EmptyMesh": 5, "RequestRejected": 6,
        "ClientUnavailable": 7, "CannotFit": 8, "EmptyAfterModification": 9,
        "Unsequenceable": 10, "SequenceGridMismatch": 11, "ConfigViolation": 12,
        "EmptyAssembly": 13, "ValidationFailed": 14, "SchemaError": 15,
    }
    assert len(set(codes.values())) == len(codes)
    assert BlockplanError.exit_code == 1
    assert all("exit_code" in vars(e) for e in subclasses)  # none inherits the base's 1
    outcomes = {EXIT_OK, EXIT_USAGE}
    assert outcomes == {0, 2} and not outcomes & set(codes.values())


# --- pipeline ----------------------------------------------------------------


def test_pipeline_from_mesh_file(demo_mesh_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["pipeline", "--mesh", demo_mesh_files["table"], "--out-dir", str(out)])
    assert code == EXIT_OK
    for name in PIPELINE_ARTIFACTS:
        assert (out / name).is_file()
    summary = (out / "summary.txt").read_text()
    assert "simulate=ok" in summary and "report=consistent" in summary
    assert "pipeline ok" in capsys.readouterr().out


def test_pipeline_runs_are_reproducible(demo_mesh_files, tmp_path):
    outs = []
    for n in (1, 2):
        out = tmp_path / f"run{n}"
        assert main(["pipeline", "--mesh", demo_mesh_files["shelf"], "--out-dir", str(out)]) == EXIT_OK
        outs.append(read_artifacts(out))
    assert outs[0] == outs[1]


def test_pipeline_equals_composed_stages(demo_mesh_files, tmp_path):
    whole = tmp_path / "whole"
    assert main(["pipeline", "--mesh", demo_mesh_files["tee"], "--out-dir", str(whole)]) == EXIT_OK

    staged = tmp_path / "staged"
    grid = str(staged / "grid.json")
    seq = str(staged / "sequence.json")
    assert main(["check", "--mesh", demo_mesh_files["tee"], "--out-dir", str(staged)]) == EXIT_OK
    assert main(["sequence", "--grid", grid, "--out-dir", str(staged)]) == EXIT_OK
    assert main(["toolpath", "--grid", grid, "--sequence", seq, "--out-dir", str(staged)]) == EXIT_OK
    assert main(["validate", "--grid", grid, "--sequence", seq, "--out-dir", str(staged)]) == EXIT_OK

    names = ("grid.json", "report.json", "sequence.json", "toolpath.json")
    assert read_artifacts(whole, names) == read_artifacts(staged, names)
    assert json.loads((staged / "simulation.json").read_bytes())["ok"] is True


def test_fine_grid_pipeline_equals_composed_stages(tmp_path):
    # 720 cells of 5 cm: large enough that a super-linear rule or sort shows
    mesh = tmp_path / "sphere.stl"
    sphere = icosphere(25.0, (25.0, 25.0, 25.0), 3)
    mesh.write_bytes(serialize_mesh(sphere, MeshFormat.STL_BINARY))
    cfg = ["--set", "cell_size=5", "--set", "inventory=1000"]
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert main(["pipeline", "--mesh", str(mesh), *cfg, "--out-dir", str(whole)]) == EXIT_OK
    grid, seq = str(staged / "grid.json"), str(staged / "sequence.json")
    assert main(["check", "--mesh", str(mesh), *cfg, "--out-dir", str(staged)]) == EXIT_OK
    assert main(["sequence", "--grid", grid, "--out-dir", str(staged)]) == EXIT_OK
    for stage in ("toolpath", "validate"):
        code = main([stage, "--grid", grid, "--sequence", seq, *cfg, "--out-dir", str(staged)])
        assert code == EXIT_OK

    names = ("grid.json", "report.json", "sequence.json", "toolpath.json")
    assert read_artifacts(whole, names) == read_artifacts(staged, names)
    assert len(json.loads((whole / "grid.json").read_bytes())["occupied"]) >= 500


def test_pipeline_without_handling_reports_failure(demo_mesh_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"],
        "--no-failure-handling", "--out-dir", str(out),
    ])
    assert code == ValidationFailed.exit_code
    assert capsys.readouterr() == ("", "error: validation failed; see summary.txt\n")
    report = json.loads((out / "report.json").read_bytes())
    assert report["checks"]["vertical_stack"] == "failed"
    assert report["modifications"] == []


def test_pipeline_robot_script_format(demo_mesh_files, tmp_path):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"],
        "--format", "robot_script", "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    script = (out / "toolpath.txt").read_text()
    assert script.startswith("MOVE ")
    assert not (out / "toolpath.json").exists()


def test_pipeline_from_text_with_manifest(demo_mesh_files, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"coffee table": demo_mesh_files["table"]}))
    out = tmp_path / "out"
    code = main([
        "pipeline", "--text", "make me a coffee table",
        "--mesh-manifest", str(manifest), "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    assert (out / "grid.json").is_file()
    assert 'phrase "coffee table"' in (out / "summary.txt").read_text()


def test_pipeline_rejects_abstract_text(tmp_path, capsys):
    code = main(["pipeline", "--text", "Knowledge", "--out-dir", str(tmp_path / "out")])
    assert code == RequestRejected.exit_code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "restate" in err.lower()


@pytest.mark.parametrize("argv, code", [
    (["filter", "--text", ""], RequestRejected.exit_code),
    (["pipeline", "--text", "   "], RequestRejected.exit_code),
    (["pipeline", "--mesh", ""], MalformedFile.exit_code),  # reads the directory "."
    (["filter", "--text", "\x01\x02"], RequestRejected.exit_code),
    (["filter", "--text", "\u200b"], RequestRejected.exit_code),
], ids=["filter-empty", "pipeline-blank", "mesh-empty", "filter-control", "filter-invisible"])
def test_blank_source_arguments_exit_with_their_codes(tmp_path, capsys, argv, code):
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == code
    if code == RequestRejected.exit_code:
        assert "restate" in capsys.readouterr().err.lower()


def test_pipeline_text_needs_mesh_source(tmp_path):
    code = main(["pipeline", "--text", "a chair", "--out-dir", str(tmp_path / "out")])
    assert code == ClientUnavailable.exit_code


def test_pipeline_cannot_fit(tmp_path):
    mesh_path = tmp_path / "cube.stl"
    mesh_path.write_bytes(
        serialize_mesh(box_mesh((0, 0, 0), (15.0, 15.0, 15.0)), MeshFormat.STL_BINARY)
    )
    code = main([
        "pipeline", "--mesh", str(mesh_path),
        "--set", "inventory=1", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == CannotFit.exit_code


TABLE_REQUEST = ["pipeline", "--text", "make me a coffee table", "--mesh-manifest"]


@pytest.mark.parametrize("argv, code, message", [
    (["pipeline", "--mesh", "{missing}"], MalformedFile.exit_code, "cannot read"),
    (["check", "--mesh", "a.stl", "--config", "{missing}"], SchemaError.exit_code, "cannot load config"),
    (["check", "--mesh", "a.stl", "--config", "{listed}"], SchemaError.exit_code, "must be a JSON object"),
    ([*TABLE_REQUEST, "{missing}"], ClientUnavailable.exit_code, "cannot load mesh manifest"),
    ([*TABLE_REQUEST, "{listed}"], ClientUnavailable.exit_code, "must be a JSON object"),
], ids=["mesh", "config", "config-not-object", "manifest", "manifest-not-object"])
def test_errors_escape_control_characters_in_paths(tmp_path, capsys, argv, code, message):
    listed = tmp_path / "c\x1b[31md.json"
    listed.write_text("[]")
    paths = {"missing": tmp_path / "a\x1b[31mb", "listed": listed}
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert message in err
    assert err.rstrip("\n").isprintable()


# --- single stages -----------------------------------------------------------


def test_filter_prints_phrase(capsys):
    assert main(["filter", "--text", "make me a coffee table"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "coffee table"


def test_filter_rejects(capsys):
    assert main(["filter", "--text", "Knowledge"]) == RequestRejected.exit_code
    assert "restate" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("name", ["block", "shelf", "tee", "table"])
def test_check_without_handling_writes_the_voxelized_grid(demo_mesh_files, tmp_path, name):
    # the raw grid of the fitted mesh, before any check rewrites it
    out = tmp_path / "out"
    argv = ["check", "--mesh", demo_mesh_files[name], "--no-failure-handling"]
    assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
    cfg = AssemblyConfig()
    mesh = repair_mesh(parse_mesh(Path(demo_mesh_files[name]).read_bytes()), cfg.weld_tolerance)
    fitted = fit_to_workspace(mesh, cfg.workspace, cfg.max_upscale)[0]
    grid = voxelize(fitted, build_grid(bounding_box(fitted), cfg.cell_size))
    assert (out / "grid.json").read_bytes() == grid.to_json()


def test_check_writes_grid_and_report(demo_mesh_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "check", "--mesh", demo_mesh_files["block"],
        "--no-failure-handling", "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_bytes())
    assert report["checks"]["component_count"] == "failed"
    assert report["final_component_count"] == 180
    assert "component_count=failed" in capsys.readouterr().out


def test_sequence_unbuildable_grid(tmp_path):
    arch = make_grid(
        [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 2), (2, 0, 2), (2, 0, 1)],
        dims=(3, 1, 3),
    )
    grid_path = tmp_path / "grid.json"
    grid_path.write_bytes(arch.to_json())
    code = main(["sequence", "--grid", str(grid_path), "--out-dir", str(tmp_path)])
    assert code == Unsequenceable.exit_code


def test_toolpath_config_violation(tmp_path):
    grid = make_grid([(0, 0, 0)])
    seq = AssemblySequence(((0, 0, 0),))
    (tmp_path / "grid.json").write_bytes(grid.to_json())
    (tmp_path / "seq.json").write_bytes(seq.to_json())
    code = main([
        "toolpath", "--grid", str(tmp_path / "grid.json"),
        "--sequence", str(tmp_path / "seq.json"),
        "--set", "movement_plane_z=10", "--out-dir", str(tmp_path),
    ])
    assert code == ConfigViolation.exit_code


def test_validate_reports_bad_sequence(tmp_path, capsys):
    grid = make_grid([(0, 0, 0), (0, 0, 1)])
    seq = AssemblySequence(((0, 0, 1), (0, 0, 0)))
    (tmp_path / "grid.json").write_bytes(grid.to_json())
    (tmp_path / "seq.json").write_bytes(seq.to_json())
    code = main([
        "validate", "--grid", str(tmp_path / "grid.json"),
        "--sequence", str(tmp_path / "seq.json"), "--out-dir", str(tmp_path),
    ])
    assert code == ValidationFailed.exit_code
    assert json.loads((tmp_path / "simulation.json").read_bytes())["first_failure"] == 0
    path = tmp_path / "simulation.json"
    assert capsys.readouterr() == ("", f"error: simulation failed at step 0 -> {path}\n")


def _stage(tmp_path, grid_doc: str, cells: str = "[[0, 0, 0]]") -> list[str]:
    """Write a raw grid and sequence document; return their CLI arguments."""
    (tmp_path / "grid.json").write_text(grid_doc)
    (tmp_path / "seq.json").write_text(f'{{"cells": {cells}}}')
    return ["--grid", str(tmp_path / "grid.json"), "--sequence", str(tmp_path / "seq.json")]


def _grid_doc(cell_size="10.0", dims="[2, 2, 2]", occupied="[[0, 0, 0]]",
              origin="[0, 0, 0]") -> str:
    return (f'{{"cell_size_cm": {cell_size}, "origin_cm": {origin}, '
            f'"dims": {dims}, "occupied": {occupied}}}')


def _run_cli_process(argv: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    return subprocess.run(
        [sys.executable, "-m", "blockplan.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def _run_quickly(argv: list[str]) -> None:
    """Run the CLI in a subprocess that must exit 0 within 10 s."""
    done = _run_cli_process(argv, timeout=10)
    assert done.returncode == EXIT_OK, done.stderr


def test_tall_one_cell_grid_sequences_and_validates_quickly(tmp_path):
    # nothing walks the grid's height: a 1e8-layer grid holding one cell is instant
    files = _stage(tmp_path, _grid_doc(dims="[2, 2, 100000000]"))
    for argv in (["sequence", *files[:2]], ["validate", *files]):
        _run_quickly([*argv, "--out-dir", str(tmp_path / "out")])
    order = json.loads((tmp_path / "out" / "sequence.json").read_bytes())["cells"]
    assert order == [[0, 0, 0]]


@pytest.mark.parametrize("dims, cells, second", [
    # 800 one-cell islands, so 800 island starts: an all-pairs search per
    # start is O(n^3)
    ("[40, 40, 1]", [[i, j, 0] for i in range(40) for j in range(40) if (i + j) % 2 == 0],
     [0, 2, 0]),
    # islands far apart: a search that walks the empty cells between them hangs
    ("[1000000000, 1000000000, 1]", [[0, 0, 0], [999999999, 999999999, 0], [5, 10**8, 0]],
     [5, 10**8, 0]),
], ids=["checkerboard", "far-apart"])
def test_ground_islands_sequence_quickly(tmp_path, dims, cells, second):
    files = _stage(tmp_path, _grid_doc(dims=dims, occupied=json.dumps(cells)))
    _run_quickly(["sequence", *files[:2], "--out-dir", str(tmp_path / "out")])
    order = json.loads((tmp_path / "out" / "sequence.json").read_bytes())["cells"]
    assert sorted(order) == sorted(cells)
    assert order[:2] == [[0, 0, 0], second]  # then the nearest island, ties by (i, j)


@pytest.mark.parametrize("where", ["grid", "sequence"])
@pytest.mark.parametrize("index", ["0.7", "true", "1e400", "NaN", "\"0\""])
def test_stage_documents_take_whole_number_indices(tmp_path, where, index):
    cells = f"[[{index}, 0, 0]]"
    if where == "grid":
        files = _stage(tmp_path, _grid_doc(occupied=cells))
    else:
        files = _stage(tmp_path, _grid_doc(), cells)
    for command in ("toolpath", "validate"):
        assert main([command, *files, "--out-dir", str(tmp_path / "out")]) == SchemaError.exit_code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dims", ["[2, 2.5, 2]", "[2, true, 2]", "[2, 2, 1e400]",
                                  f"[2, 2, 1{'0' * 400}]"])
def test_grid_dims_must_be_whole_numbers(tmp_path, dims):
    files = _stage(tmp_path, _grid_doc(dims=dims))
    assert main(["sequence", *files[:2], "--out-dir", str(tmp_path / "out")]) == SchemaError.exit_code


@pytest.mark.parametrize("cell_size", ["NaN", "Infinity", "1e308"])
def test_grid_with_non_finite_geometry_is_schema_error(tmp_path, cell_size):
    files = _stage(tmp_path, _grid_doc(cell_size=cell_size))
    assert main(["toolpath", *files, "--out-dir", str(tmp_path / "out")]) == SchemaError.exit_code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["toolpath", "validate"])
def test_sequence_that_misses_a_cell_is_a_mismatch(demo_mesh_files, tmp_path, capsys, command):
    staged = tmp_path / "staged"
    assert main(["check", "--mesh", demo_mesh_files["tee"], "--out-dir", str(staged)]) == EXIT_OK
    assert main(["sequence", "--grid", str(staged / "grid.json"), "--out-dir", str(staged)]) == EXIT_OK
    cells = json.loads((staged / "sequence.json").read_bytes())["cells"]
    (tmp_path / "short.json").write_text(json.dumps({"cells": cells[:-1]}))
    capsys.readouterr()
    code = main([command, "--grid", str(staged / "grid.json"), "--sequence",
                 str(tmp_path / "short.json"), "--out-dir", str(tmp_path / "out")])
    assert code == SequenceGridMismatch.exit_code == 11
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: sequence covers {len(cells) - 1} cells, grid has {len(cells)}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sequence", "toolpath", "validate"])
def test_empty_grid_is_an_empty_assembly(tmp_path, capsys, command):
    files = _stage(tmp_path, _grid_doc(occupied="[]"), cells="[]")
    code = main([command, *files[: 2 if command == "sequence" else 4],
                 "--out-dir", str(tmp_path / "out")])
    assert code == EmptyAssembly.exit_code == 13
    assert capsys.readouterr() == ("", "error: grid has no occupied cells\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override", ["tool_offset_z=1e999", "movement_plane_z=1e999", "source=[1e999,0,0]"]
)
def test_toolpath_rejects_infinite_coordinates(tmp_path, override):
    files = _stage(tmp_path, _grid_doc())
    out = tmp_path / "out"
    code = main(["toolpath", *files, "--set", override, "--out-dir", str(out)])
    assert code == ConfigViolation.exit_code
    assert not out.exists()


@pytest.mark.parametrize("origin, cell_size, overrides", [
    # finite coordinates whose distance overflows a float (the release is at 0 cm)
    ("[1e307, 0, -1e306]", "1e306", ["source=[-1e307,0,0]"]),
    # limits whose scaled product underflows to zero
    ("[0, 0, 0]", "10.0", ["velocity=1e-200", "motion_unit_scale=1e-200"]),
], ids=["distance-overflow", "limit-underflow"])
def test_toolpath_rejects_a_non_finite_estimate(tmp_path, origin, cell_size, overrides):
    files = _stage(tmp_path, _grid_doc(cell_size=cell_size, dims="[1, 1, 1]", origin=origin))
    out = tmp_path / "out"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["toolpath", *files, *sets, "--out-dir", str(out)]) == ConfigViolation.exit_code
    assert not out.exists()


@pytest.mark.parametrize("source, code", [
    ("[-3,-3,10]", ConfigViolation.exit_code),
    ("[-5,-5,10]", ConfigViolation.exit_code),  # the held component touches cell (0, 0, 0)
    ("[-5.001,-5.001,10]", EXIT_OK),
])
def test_pipeline_rejects_a_held_component_over_the_footprint(
    demo_mesh_files, tmp_path, capsys, source, code
):
    out = tmp_path / "out"
    argv = ["pipeline", "--mesh", demo_mesh_files["block"], "--set", f"source={source}"]
    assert main([*argv, "--out-dir", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)


@pytest.mark.parametrize("override, code", [
    ("tool_offset_z=100", ConfigViolation.exit_code),  # released at 140 cm
    ("source=[-15,-15,100]", ConfigViolation.exit_code),
    ("source=[-15,-15,65]", ConfigViolation.exit_code),  # picked at the plane itself
    ("source=[-15,-15,64.999]", EXIT_OK),
], ids=["release-above", "pick-above", "pick-at", "pick-below"])
def test_pipeline_ends_every_descent_below_the_plane(
    demo_mesh_files, tmp_path, capsys, override, code
):
    out = tmp_path / "out"
    argv = ["pipeline", "--mesh", demo_mesh_files["table"], "--set", override]
    assert main([*argv, "--out-dir", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    if code != EXIT_OK:
        assert "is not below the movement plane" in capsys.readouterr().err


def test_toolpath_refuses_a_release_at_or_above_the_plane(tmp_path, capsys):
    # two cells stacked from 40 cm: the top, at 60 cm, clears the 65 cm plane
    # by the 2 cm clearance, and the upper cell is released at 60 cm plus the offset
    files = _stage(tmp_path, _grid_doc(origin="[0, 0, 40]", dims="[1, 1, 2]",
                                       occupied="[[0, 0, 0], [0, 0, 1]]"),
                   cells="[[0, 0, 0], [0, 0, 1]]")
    for offset, code in (("5", ConfigViolation.exit_code), ("4.999", EXIT_OK)):
        out = tmp_path / f"out{offset}"
        argv = ["toolpath", *files, "--set", f"tool_offset_z={offset}", "--out-dir", str(out)]
        assert main(argv) == code
        assert out.exists() == (code == EXIT_OK)
    assert "highest release at 65.0 cm is not below" in capsys.readouterr().err


def test_toolpath_refuses_a_plane_below_the_structure(tmp_path, capsys):
    # two cells stacked from 50 cm top out at 70 cm, above the 65 cm plane,
    # although the upper one is released below it, at 64.999 cm
    files = _stage(tmp_path, _grid_doc(origin="[0, 0, 50]", dims="[1, 1, 2]",
                                       occupied="[[0, 0, 0], [0, 0, 1]]"),
                   cells="[[0, 0, 0], [0, 0, 1]]")
    out = tmp_path / "out"
    argv = ["toolpath", *files, "--set", "tool_offset_z=-5.001", "--out-dir", str(out)]
    assert main(argv) == ConfigViolation.exit_code
    assert not out.exists()
    assert "below the structure's top at 70.0 cm" in capsys.readouterr().err


def test_pipeline_refuses_a_plane_below_the_top_plus_clearance(tmp_path, capsys):
    # a 60 cm wall in 8 cm cells is 8 layers, 64 cm tall: the 65 cm plane
    # clears it by 1 cm, less than the 2 cm clearance
    mesh = tmp_path / "wall.stl"
    mesh.write_bytes(serialize_mesh(box_mesh((0, 0, 0), (24, 8, 60)), MeshFormat.STL_BINARY))
    out = tmp_path / "out"
    argv = ["pipeline", "--mesh", str(mesh), "--set", "cell_size=8", "--out-dir", str(out)]
    assert main(argv) == ConfigViolation.exit_code
    assert not out.exists()
    assert "below the structure's top at 64.0 cm" in capsys.readouterr().err


@pytest.mark.parametrize("fmt, code", [
    ("robot_script", ConfigViolation.exit_code),
    ("json", EXIT_OK),
])
def test_pipeline_refuses_a_robot_script_that_misstates_the_limits(
    demo_mesh_files, tmp_path, capsys, fmt, code
):
    out = tmp_path / "out"
    argv = ["pipeline", "--mesh", demo_mesh_files["tee"], "--format", fmt]
    argv += ["--set", "velocity=0.0004", "--set", "acceleration=0.0002"]
    assert main([*argv, "--out-dir", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)  # refused before any artifact is written
    if code != EXIT_OK:
        assert capsys.readouterr().err == (
            "error: the robot script states the motion limit 0.0004 as 0.000, more than 1 % off\n"
        )


def test_pipeline_rejects_a_non_finite_estimate(demo_mesh_files, tmp_path):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"], "--set", "velocity=1e-200",
        "--set", "motion_unit_scale=1e-200", "--out-dir", str(out),
    ])
    assert code == ConfigViolation.exit_code
    assert not out.exists()


def test_mesh_welded_to_nothing_is_empty_mesh(demo_mesh_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"],
        "--set", "mesh_unit_scale=1e-9", "--out-dir", str(out),
    ])
    assert code == EmptyMesh.exit_code
    err = capsys.readouterr().err
    assert "no triangles" in err
    assert err == "error: repair left no triangles (weld_tolerance 0.0001)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, content",
    [("facet.stl", "solid x\nfacet\nendsolid\n"), ("points.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n")],
    ids=["stl-facet-without-vertices", "obj-vertices-without-faces"],
)
def test_mesh_file_without_triangles_is_empty_before_repair(tmp_path, capsys, name, content):
    mesh = tmp_path / name
    mesh.write_text(content)
    out = tmp_path / "out"
    assert main(["pipeline", "--mesh", str(mesh), "--out-dir", str(out)]) == EmptyMesh.exit_code
    assert capsys.readouterr().err == "error: mesh has no triangles\n"
    assert not out.exists()


# --- input errors ----------------------------------------------------------


def _check_raw(mesh: Path, out_dir: Path) -> int:
    return main(["check", "--mesh", str(mesh), "--no-failure-handling", "--out-dir", str(out_dir)])


def test_malformed_mesh_file(tmp_path):
    bad = tmp_path / "bad.stl"
    bad.write_text("solid x\nfacet\nvertex 1 2\nendfacet\nendsolid x\n")
    assert _check_raw(bad, tmp_path) == MalformedFile.exit_code


def test_non_finite_vertex_mesh_file(tmp_path):
    bad = tmp_path / "nan.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0 nan 0\nf 1 2 3\n")
    code = main(["pipeline", "--mesh", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == MalformedFile.exit_code


def test_signalling_nan_binary_stl_is_malformed_without_a_warning(tmp_path):
    snan = struct.pack("<I", 0x7F800001)  # float32 NaN with the quiet bit clear
    bad = tmp_path / "snan.stl"
    bad.write_bytes(bytes(80) + struct.pack("<I", 1) + bytes(12) + snan * 9 + bytes(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pipeline", "--mesh", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == MalformedFile.exit_code


def test_mesh_scale_that_overflows_triangle_areas_plans_without_a_warning(
    demo_mesh_files, tmp_path, capsys
):
    # at 1e160 cm the table's triangle areas overflow; fitting scales it back down
    argv = ["pipeline", "--mesh", demo_mesh_files["table"], "--set", "mesh_unit_scale=1e160"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize("span", ["9e307", "1e308"])
def test_overflowing_mesh_extent_is_malformed(tmp_path, span):
    # finite coordinates whose max - min is inf would fit at scale 0
    big = tmp_path / "big.obj"
    big.write_text(f"v -{span} 0 0\nv {span} 1 0\nv 0 1 1\nf 1 2 3\n")
    code = main(["pipeline", "--mesh", str(big), "--out-dir", str(tmp_path / "out")])
    assert code == MalformedFile.exit_code


def test_suffixless_binary_stl_with_solid_header(tmp_path):
    data = serialize_mesh(box_mesh((0.0, 0.0, 0.0), (20.0, 10.0, 10.0)), MeshFormat.STL_BINARY)
    mesh = tmp_path / "box"
    mesh.write_bytes(b"solid box, one facet per face".ljust(80) + data[80:])
    assert main(["pipeline", "--mesh", str(mesh), "--out-dir", str(tmp_path / "out")]) == EXIT_OK


def test_unrecognizable_mesh_file(tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_bytes(b"garbage")
    assert _check_raw(bad, tmp_path) == UnsupportedFormat.exit_code


def test_empty_mesh_file(tmp_path):
    empty = tmp_path / "empty.stl"
    empty.write_text("solid x\nendsolid x\n")
    assert _check_raw(empty, tmp_path) == EmptyMesh.exit_code


def test_junk_grid_document(tmp_path):
    bad = tmp_path / "grid.json"
    bad.write_text("{\"cells\": 1}")
    assert main(["sequence", "--grid", str(bad), "--out-dir", str(tmp_path)]) == SchemaError.exit_code


# --- configuration ----------------------------------------------------------


def test_set_overrides_inventory(demo_mesh_files, tmp_path):
    out = tmp_path / "out"
    code = main([
        "check", "--mesh", demo_mesh_files["tee"],
        "--set", "inventory=5", "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    assert json.loads((out / "report.json").read_bytes())["final_component_count"] <= 5


def test_set_rejects_unknown_key(demo_mesh_files, tmp_path):
    code = main([
        "check", "--mesh", demo_mesh_files["tee"],
        "--set", "warp_speed=9", "--out-dir", str(tmp_path),
    ])
    assert code == SchemaError.exit_code


def test_set_requires_key_value(demo_mesh_files, tmp_path):
    code = main([
        "check", "--mesh", demo_mesh_files["tee"],
        "--set", "inventory", "--out-dir", str(tmp_path),
    ])
    assert code == SchemaError.exit_code


def test_config_file_applies(demo_mesh_files, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inventory": 3, "cell_size": 10.0}))
    out = tmp_path / "out"
    code = main([
        "check", "--mesh", demo_mesh_files["tee"],
        "--config", str(cfg), "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    assert json.loads((out / "report.json").read_bytes())["final_component_count"] <= 3


def test_config_file_rejects_bad_documents(tmp_path):
    not_json = tmp_path / "cfg.json"
    not_json.write_text("{nope")
    assert main(["check", "--mesh", "a.stl", "--config", str(not_json)]) == SchemaError.exit_code
    not_object = tmp_path / "cfg2.json"
    not_object.write_text("[]")
    assert main(["check", "--mesh", "a.stl", "--config", str(not_object)]) == SchemaError.exit_code


def test_config_file_that_is_not_text(tmp_path):
    binary = tmp_path / "cfg.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["check", "--mesh", "a.stl", "--config", str(binary)]) == SchemaError.exit_code


@pytest.mark.parametrize(
    "override",
    [
        "inventory=0",
        'inventory="abc"',
        "cell_size=-1",
        "workspace=[0,1,1]",
        "velocity=0",
        "cell_size=NaN",
        "weld_tolerance=-1",
        "motion_unit_scale=0",
        "gripper_dwell_s=-1",
        "mesh_manifest=5",
        "inventory=1.5",
        "client_timeout_s=30",
        "max_upscale=0",
        "max_upscale=-2",
        "mesh_unit_scale=-1",
        "mesh_unit_scale=0",
        "inventory=true",
        "cell_size=true",
        "source=[true,0,0]",
        "velocity=1e999",
        "acceleration=1e999",
        'cell_size="5"',
        "cell_size=.5",
        'source=["1",0,0]',
    ],
)
def test_set_rejects_bad_values(demo_mesh_files, tmp_path, override):
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"],
        "--set", override, "--out-dir", str(tmp_path / "out"),
    ])
    assert code == SchemaError.exit_code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", ["source=[1,2]", "workspace=[60,50]", "source=[]"])
def test_set_refuses_a_triple_of_the_wrong_length(demo_mesh_files, tmp_path, capsys, override):
    # AssemblyConfig itself refuses the length, as it does for library callers
    code = main([
        "pipeline", "--mesh", demo_mesh_files["table"],
        "--set", override, "--out-dir", str(tmp_path / "out"),
    ])
    assert code == SchemaError.exit_code
    assert "workspace and source must have 3 entries" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_rejects_bad_values(demo_mesh_files, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inventory": 0}))
    code = main([
        "check", "--mesh", demo_mesh_files["tee"],
        "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == SchemaError.exit_code


# 100000 nested arrays: Python's json reader raises RecursionError on them
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["check", "--mesh", "a.stl", "--config", "{deep}"], SchemaError.exit_code),
        (["check", "--mesh", "a.stl", "--set", "cell_size=" + _DEEP], SchemaError.exit_code),
        (["sequence", "--grid", "{deep}"], SchemaError.exit_code),
        (["validate", "--grid", "{grid}", "--sequence", "{deep}"], SchemaError.exit_code),
        (
            ["pipeline", "--text", "make me a coffee table", "--mesh-manifest", "{deep}"],
            ClientUnavailable.exit_code,
        ),
    ],
    ids=["config", "set", "grid", "sequence", "mesh-manifest"],
)
def test_deeply_nested_json_exits_with_its_code(tmp_path, argv, expected):
    (tmp_path / "deep.json").write_text(_DEEP)
    (tmp_path / "grid.json").write_bytes(make_grid([(0, 0, 0)]).to_json())
    paths = {"deep": tmp_path / "deep.json", "grid": tmp_path / "grid.json"}
    argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", ["motion_unit_scale=0", "gripper_dwell_s=-1"])
def test_toolpath_rejects_bad_motion_values(tmp_path, override):
    grid = make_grid([(0, 0, 0)])
    (tmp_path / "grid.json").write_bytes(grid.to_json())
    (tmp_path / "seq.json").write_bytes(AssemblySequence(((0, 0, 0),)).to_json())
    out = tmp_path / "out"
    code = main([
        "toolpath", "--grid", str(tmp_path / "grid.json"),
        "--sequence", str(tmp_path / "seq.json"),
        "--set", override, "--out-dir", str(out),
    ])
    assert code == SchemaError.exit_code
    assert not out.exists()


def test_text_input_rejects_undecodable_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b"\xff\xfe{}")
    code = main([
        "pipeline", "--text", "make me a coffee table",
        "--mesh-manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == ClientUnavailable.exit_code


def test_text_input_rejects_non_string_manifest(tmp_path):
    code = main([
        "pipeline", "--text", "make me a coffee table",
        "--set", "mesh_manifest=5", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == SchemaError.exit_code


@pytest.mark.parametrize("entry", [5, ["a"], "\u0000", "a\u0000b"],
                         ids=["number", "list", "null-byte", "inner-null-byte"])
def test_text_input_rejects_bad_manifest_entries(tmp_path, capsys, entry):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"coffee table": entry}))
    code = main([
        "pipeline", "--text", "make me a coffee table",
        "--mesh-manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == ClientUnavailable.exit_code
    assert "\x00" not in capsys.readouterr().err  # the message quotes the file name


def test_mesh_file_and_manifest_entry_share_the_suffix_rule(demo_mesh_files, tmp_path):
    # a binary STL under a suffix that is no format hint is sniffed on both routes
    mesh = tmp_path / "tee.ply"
    mesh.write_bytes(Path(demo_mesh_files["tee"]).read_bytes())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tee": "tee.ply"}))
    runs = {
        "file": ["--mesh", str(mesh)],
        "text": ["--text", "make me a tee", "--mesh-manifest", str(manifest)],
    }
    for name, source in runs.items():
        assert main(["pipeline", *source, "--out-dir", str(tmp_path / name)]) == EXIT_OK
    grids = {name: (tmp_path / name / "grid.json").read_bytes() for name in runs}
    assert grids["file"] == grids["text"]


def test_mesh_unit_scale_applies_to_text_input(demo_mesh_files, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"coffee table": demo_mesh_files["table"]}))
    text = ["--text", "make me a coffee table", "--mesh-manifest", str(manifest)]
    runs = {
        "text": [*text, "--set", "mesh_unit_scale=0.5"],
        "file": ["--mesh", demo_mesh_files["table"], "--set", "mesh_unit_scale=0.5"],
        "unscaled": text,
    }
    for name, source in runs.items():
        assert main(["pipeline", *source, "--out-dir", str(tmp_path / name)]) == EXIT_OK
    names = ("grid.json", "report.json", "sequence.json", "toolpath.json")
    scaled = read_artifacts(tmp_path / "text", names)
    assert scaled == read_artifacts(tmp_path / "file", names)
    assert scaled["grid.json"] != read_artifacts(tmp_path / "unscaled", names)["grid.json"]


def test_overflowing_mesh_unit_scale_is_config_violation(demo_mesh_files, tmp_path):
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"],
        "--set", "mesh_unit_scale=1e308", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == ConfigViolation.exit_code
    assert not (tmp_path / "out").exists()


def test_mesh_unit_scale_overflowing_the_extent_is_config_violation(tmp_path):
    # each scaled coordinate stays finite, the span from -1e308 to 1e308 does not
    box = tmp_path / "box.obj"
    box.write_bytes(serialize_mesh(box_mesh((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), MeshFormat.OBJ))
    code = main([
        "pipeline", "--mesh", str(box),
        "--set", "mesh_unit_scale=1e308", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == ConfigViolation.exit_code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override",
    [
        "cell_size=1e-3",
        "cell_size=1e-300",
        "workspace=[1e308,1e308,1e308]",
        "workspace=[Infinity,50,60]",
    ],
)
def test_voxelize_rejects_too_fine_a_grid(demo_mesh_files, tmp_path, override):
    code = main([
        "check", "--mesh", demo_mesh_files["tee"], "--no-failure-handling",
        "--set", override, "--out-dir", str(tmp_path / "out"),
    ])
    assert code == SchemaError.exit_code
    assert not (tmp_path / "out").exists()


def test_grid_cell_cap_boundary():
    # 241 x 201 x 241 cells fit under the cap, 301 x 251 x 301 do not
    assert (60 / 0.25 + 1) * (50 / 0.25 + 1) * (60 / 0.25 + 1) <= MAX_GRID_CELLS
    AssemblyConfig(cell_size=0.25)
    with pytest.raises(ValueError, match="cells"):
        AssemblyConfig(cell_size=0.2)


# A valid non-default value for every config key, and the demo mesh on which
# it changes the outcome of a pipeline run.
KEY_PROBES = {
    "workspace": ("tee", [40.0, 40.0, 40.0]),
    "cell_size": ("tee", 5.0),
    "inventory": ("tee", 5),
    "source": ("tee", [-20.0, -20.0, 10.0]),
    "movement_plane_z": ("tee", 70.0),
    "clearance": ("tee", 10.0),  # the plane no longer clears the workspace
    "overhang_limit": ("shelf", 4),
    "stack_limit": ("tee", 6),
    "tool_offset_z": ("tee", 1.5),
    "max_upscale": ("tee", 0.5),
    "velocity": ("tee", 1.0),
    "acceleration": ("tee", 2.0),
    "gripper_dwell_s": ("tee", 1.0),
    "motion_unit_scale": ("tee", 2.0),
    "mesh_unit_scale": ("tee", 0.5),
    "weld_tolerance": ("tee", 0.0),
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(AssemblyConfig)])
def test_every_config_key_changes_the_outcome(demo_mesh_files, tmp_path, key):
    mesh, value = KEY_PROBES[key]
    source = ["--mesh", demo_mesh_files[mesh]]
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({key: value}))

    def outcome(name, *extra):
        out = tmp_path / name
        code = main(["pipeline", *source, *extra, "--out-dir", str(out)])
        return code, read_artifacts(out, sorted(p.name for p in out.glob("*")))

    default = outcome("default")
    by_set = outcome("set", "--set", f"{key}={json.dumps(value)}")
    assert by_set != default
    assert outcome("file", "--config", str(config_file)) == by_set


def test_config_tuple_override_shape():
    cfg = AssemblyConfig.from_mapping({"workspace": [30, 30, 30]})
    assert cfg.workspace == (30.0, 30.0, 30.0)
    with pytest.raises(SchemaError):
        AssemblyConfig.from_mapping({"workspace": [30, 30]})


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main(["pipeline"])  # needs --mesh or --text


@pytest.mark.parametrize("argv", [
    ["sequence", "--grid", "grid.json", "--set", "cell_size=5"],
    ["sequence", "--grid", "grid.json", "--config", "cfg.json"],
    ["filter", "--text", "a box", "--config", "cfg.json"],
    ["filter", "--text", "a box", "--set", "inventory=0"],
    ["pipeline", "--mesh", "tee.stl", "--mesh-manifest", "manifest.json"],
], ids=["sequence-set", "sequence-config", "filter-config", "filter-set", "mesh-manifest"])
def test_options_a_command_does_not_read_are_usage_errors(tmp_path, argv):
    # sequence and filter read no setting; the manifest serves --text only
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--out-dir", str(tmp_path / "out")])
    assert excinfo.value.code == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_mesh_manifest_is_not_a_config_key(demo_mesh_files, tmp_path, capsys):
    argv = ["pipeline", "--mesh", demo_mesh_files["tee"], "--set", "mesh_manifest=x"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == SchemaError.exit_code
    assert "unknown config key 'mesh_manifest'" in capsys.readouterr().err


def test_in_process_calls_leave_no_state_behind(demo_mesh_files, tmp_path, capsys, monkeypatch):
    # main() builds its argument parser once per process: what one call
    # parses must not reach the next, which must match a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    source = ["pipeline", "--mesh", demo_mesh_files["shelf"]]
    first = [*source, "--set", "inventory=12", "--format", "robot_script"]
    assert main([*first, "--out-dir", str(tmp_path / "first")]) == EXIT_OK
    assert main([*source, "--out-dir", str(tmp_path / "second")]) == EXIT_OK
    assert _run_cli_process([*source, "--out-dir", str(tmp_path / "fresh")]).returncode == EXIT_OK
    assert read_artifacts(tmp_path / "second") == read_artifacts(tmp_path / "fresh")
    assert not (tmp_path / "second" / "toolpath.txt").exists()
    capsys.readouterr()

    for argv in (["pipeline"], ["--help"], ["toolpath", "--help"], ["filter", "--bogus"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        fresh = _run_cli_process(argv)
        assert (excinfo.value.code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_cli_runs_without_scipy(demo_mesh_files, tmp_path):
    # scipy is a test-only dependency: neither the import nor a plan needs it
    script = (
        "import sys\n"
        "import blockplan.cli\n"
        "assert blockplan.cli.main(sys.argv[1:]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    argv = ["pipeline", "--mesh", demo_mesh_files["tee"], "--out-dir", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
