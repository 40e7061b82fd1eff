"""Command-line interface: exit codes, artifacts, config plumbing."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blockplan.cli import (
    EXIT_CANNOT_FIT,
    EXIT_CLIENT_UNAVAILABLE,
    EXIT_CONFIG_VIOLATION,
    EXIT_EMPTY_MESH,
    EXIT_MALFORMED_FILE,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_SCHEMA,
    EXIT_UNSEQUENCEABLE,
    EXIT_UNSUPPORTED_FORMAT,
    EXIT_VALIDATION_FAILED,
    main,
)
from blockplan.config import MAX_GRID_CELLS, AssemblyConfig
from blockplan.discretizer import Workspace
from blockplan.errors import SchemaError
from blockplan.mesh_io import MeshFormat, serialize_mesh
from blockplan.sequencer import AssemblySequence
from blockplan.shapes import box_mesh, icosphere
from tests.conftest import make_grid

SRC = Path(__file__).resolve().parent.parent / "src"
PIPELINE_ARTIFACTS = ("grid.json", "report.json", "sequence.json", "toolpath.json", "summary.txt")


def read_artifacts(out_dir: Path, names=PIPELINE_ARTIFACTS):
    return {name: (out_dir / name).read_bytes() for name in names}


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
    assert main(["sequence", "--grid", grid, *cfg, "--out-dir", str(staged)]) == EXIT_OK
    for stage in ("toolpath", "validate"):
        code = main([stage, "--grid", grid, "--sequence", seq, *cfg, "--out-dir", str(staged)])
        assert code == EXIT_OK

    names = ("grid.json", "report.json", "sequence.json", "toolpath.json")
    assert read_artifacts(whole, names) == read_artifacts(staged, names)
    assert len(json.loads((whole / "grid.json").read_bytes())["occupied"]) >= 500


def test_pipeline_without_handling_reports_failure(demo_mesh_files, tmp_path):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"],
        "--no-failure-handling", "--out-dir", str(out),
    ])
    assert code == EXIT_VALIDATION_FAILED
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
    assert code == EXIT_REJECTED
    assert "restate" in capsys.readouterr().err.lower()


def test_pipeline_text_needs_mesh_source(tmp_path):
    code = main(["pipeline", "--text", "a chair", "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CLIENT_UNAVAILABLE


def test_pipeline_cannot_fit(tmp_path):
    mesh_path = tmp_path / "cube.stl"
    mesh_path.write_bytes(
        serialize_mesh(box_mesh((0, 0, 0), (15.0, 15.0, 15.0)), MeshFormat.STL_BINARY)
    )
    code = main([
        "pipeline", "--mesh", str(mesh_path),
        "--set", "inventory=1", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_CANNOT_FIT


# --- single stages -----------------------------------------------------------


def test_filter_prints_phrase(capsys):
    assert main(["filter", "--text", "make me a coffee table"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "coffee table"


def test_filter_rejects(capsys):
    assert main(["filter", "--text", "Knowledge"]) == EXIT_REJECTED
    assert "restate" in capsys.readouterr().err.lower()


def test_voxelize_writes_grid(demo_mesh_files, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["voxelize", "--mesh", demo_mesh_files["tee"], "--out-dir", str(out)]) == EXIT_OK
    doc = json.loads((out / "grid.json").read_bytes())
    assert len(doc["occupied"]) == 8
    assert "8 occupied cells" in capsys.readouterr().out


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
    assert code == EXIT_UNSEQUENCEABLE


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
    assert code == EXIT_CONFIG_VIOLATION


def test_validate_reports_bad_sequence(tmp_path, capsys):
    grid = make_grid([(0, 0, 0), (0, 0, 1)])
    seq = AssemblySequence(((0, 0, 1), (0, 0, 0)))
    (tmp_path / "grid.json").write_bytes(grid.to_json())
    (tmp_path / "seq.json").write_bytes(seq.to_json())
    code = main([
        "validate", "--grid", str(tmp_path / "grid.json"),
        "--sequence", str(tmp_path / "seq.json"), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_VALIDATION_FAILED
    assert json.loads((tmp_path / "simulation.json").read_bytes())["first_failure"] == 0
    assert "failed at step 0" in capsys.readouterr().err


def _stage(tmp_path, grid_doc: str, cells: str = "[[0, 0, 0]]") -> list[str]:
    """Write a raw grid and sequence document; return their CLI arguments."""
    (tmp_path / "grid.json").write_text(grid_doc)
    (tmp_path / "seq.json").write_text(f'{{"cells": {cells}}}')
    return ["--grid", str(tmp_path / "grid.json"), "--sequence", str(tmp_path / "seq.json")]


def _grid_doc(cell_size="10.0", dims="[2, 2, 2]", occupied="[[0, 0, 0]]",
              origin="[0, 0, 0]") -> str:
    return (f'{{"cell_size_cm": {cell_size}, "origin_cm": {origin}, '
            f'"dims": {dims}, "occupied": {occupied}}}')


def _run_quickly(argv: list[str]) -> None:
    """Run the CLI in a subprocess that must exit 0 within 10 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-m", "blockplan.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )
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
        assert main([command, *files, "--out-dir", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dims", ["[2, 2.5, 2]", "[2, true, 2]", "[2, 2, 1e400]",
                                  f"[2, 2, 1{'0' * 400}]"])
def test_grid_dims_must_be_whole_numbers(tmp_path, dims):
    files = _stage(tmp_path, _grid_doc(dims=dims))
    assert main(["sequence", *files[:2], "--out-dir", str(tmp_path / "out")]) == EXIT_SCHEMA


@pytest.mark.parametrize("cell_size", ["NaN", "Infinity", "1e308"])
def test_grid_with_non_finite_geometry_is_schema_error(tmp_path, cell_size):
    files = _stage(tmp_path, _grid_doc(cell_size=cell_size))
    assert main(["toolpath", *files, "--out-dir", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override", ["tool_offset_z=1e999", "movement_plane_z=1e999", "source=[1e999,0,0]"]
)
def test_toolpath_rejects_infinite_coordinates(tmp_path, override):
    files = _stage(tmp_path, _grid_doc())
    out = tmp_path / "out"
    code = main(["toolpath", *files, "--set", override, "--out-dir", str(out)])
    assert code == EXIT_CONFIG_VIOLATION
    assert not out.exists()


@pytest.mark.parametrize("origin, cell_size, overrides", [
    # finite coordinates whose distance overflows a float
    ("[1e307, 0, 0]", "1e306", ["source=[-1e307,0,0]"]),
    # limits whose scaled product underflows to zero
    ("[0, 0, 0]", "10.0", ["velocity=1e-200", "motion_unit_scale=1e-200"]),
], ids=["distance-overflow", "limit-underflow"])
def test_toolpath_rejects_a_non_finite_estimate(tmp_path, origin, cell_size, overrides):
    files = _stage(tmp_path, _grid_doc(cell_size=cell_size, dims="[1, 1, 1]", origin=origin))
    out = tmp_path / "out"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["toolpath", *files, *sets, "--out-dir", str(out)]) == EXIT_CONFIG_VIOLATION
    assert not out.exists()


def test_pipeline_rejects_a_non_finite_estimate(demo_mesh_files, tmp_path):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"], "--set", "velocity=1e-200",
        "--set", "motion_unit_scale=1e-200", "--out-dir", str(out),
    ])
    assert code == EXIT_CONFIG_VIOLATION
    assert not out.exists()


def test_mesh_welded_to_nothing_is_empty_mesh(demo_mesh_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--mesh", demo_mesh_files["tee"],
        "--set", "mesh_unit_scale=1e-9", "--out-dir", str(out),
    ])
    assert code == EXIT_EMPTY_MESH
    assert "no triangles" in capsys.readouterr().err
    assert not out.exists()


# --- input errors ----------------------------------------------------------


def test_malformed_mesh_file(tmp_path):
    bad = tmp_path / "bad.stl"
    bad.write_text("solid x\nfacet\nvertex 1 2\nendfacet\nendsolid x\n")
    assert main(["voxelize", "--mesh", str(bad), "--out-dir", str(tmp_path)]) == EXIT_MALFORMED_FILE


def test_non_finite_vertex_mesh_file(tmp_path):
    bad = tmp_path / "nan.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0 nan 0\nf 1 2 3\n")
    code = main(["pipeline", "--mesh", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_MALFORMED_FILE


@pytest.mark.parametrize("span", ["9e307", "1e308"])
def test_overflowing_mesh_extent_is_malformed(tmp_path, span):
    # finite coordinates whose max - min is inf would fit at scale 0
    big = tmp_path / "big.obj"
    big.write_text(f"v -{span} 0 0\nv {span} 1 0\nv 0 1 1\nf 1 2 3\n")
    code = main(["pipeline", "--mesh", str(big), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_MALFORMED_FILE


def test_suffixless_binary_stl_with_solid_header(tmp_path):
    data = serialize_mesh(box_mesh((0.0, 0.0, 0.0), (20.0, 10.0, 10.0)), MeshFormat.STL_BINARY)
    mesh = tmp_path / "box"
    mesh.write_bytes(b"solid box, one facet per face".ljust(80) + data[80:])
    assert main(["pipeline", "--mesh", str(mesh), "--out-dir", str(tmp_path / "out")]) == EXIT_OK


def test_unrecognizable_mesh_file(tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_bytes(b"garbage")
    assert main(["voxelize", "--mesh", str(bad), "--out-dir", str(tmp_path)]) == EXIT_UNSUPPORTED_FORMAT


def test_empty_mesh_file(tmp_path):
    empty = tmp_path / "empty.stl"
    empty.write_text("solid x\nendsolid x\n")
    assert main(["voxelize", "--mesh", str(empty), "--out-dir", str(tmp_path)]) == EXIT_EMPTY_MESH


def test_junk_grid_document(tmp_path):
    bad = tmp_path / "grid.json"
    bad.write_text("{\"cells\": 1}")
    assert main(["sequence", "--grid", str(bad), "--out-dir", str(tmp_path)]) == EXIT_SCHEMA


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
    assert code == EXIT_SCHEMA


def test_set_requires_key_value(demo_mesh_files, tmp_path):
    code = main([
        "check", "--mesh", demo_mesh_files["tee"],
        "--set", "inventory", "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_SCHEMA


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
    assert main(["filter", "--text", "a box", "--config", str(not_json)]) == EXIT_SCHEMA
    not_object = tmp_path / "cfg2.json"
    not_object.write_text("[]")
    assert main(["filter", "--text", "a box", "--config", str(not_object)]) == EXIT_SCHEMA


def test_config_file_that_is_not_text(tmp_path):
    binary = tmp_path / "cfg.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["filter", "--text", "a box", "--config", str(binary)]) == EXIT_SCHEMA


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
    assert code == EXIT_SCHEMA
    assert not (tmp_path / "out").exists()


def test_config_file_rejects_bad_values(demo_mesh_files, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inventory": 0}))
    code = main([
        "check", "--mesh", demo_mesh_files["tee"],
        "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_SCHEMA


# 100000 nested arrays: Python's json reader raises RecursionError on them
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["filter", "--text", "a box", "--config", "{deep}"], EXIT_SCHEMA),
        (["filter", "--text", "a box", "--set", "cell_size=" + _DEEP], EXIT_SCHEMA),
        (["sequence", "--grid", "{deep}"], EXIT_SCHEMA),
        (["validate", "--grid", "{grid}", "--sequence", "{deep}"], EXIT_SCHEMA),
        (
            ["pipeline", "--text", "make me a coffee table", "--mesh-manifest", "{deep}"],
            EXIT_CLIENT_UNAVAILABLE,
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
    assert code == EXIT_SCHEMA
    assert not out.exists()


def test_text_input_rejects_undecodable_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b"\xff\xfe{}")
    code = main([
        "pipeline", "--text", "make me a coffee table",
        "--mesh-manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_CLIENT_UNAVAILABLE


def test_text_input_rejects_non_string_manifest(tmp_path):
    code = main([
        "pipeline", "--text", "make me a coffee table",
        "--set", "mesh_manifest=5", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_SCHEMA


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
    assert code == EXIT_CONFIG_VIOLATION
    assert not (tmp_path / "out").exists()


def test_mesh_unit_scale_overflowing_the_extent_is_config_violation(tmp_path):
    # each scaled coordinate stays finite, the span from -1e308 to 1e308 does not
    box = tmp_path / "box.obj"
    box.write_bytes(serialize_mesh(box_mesh((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), MeshFormat.OBJ))
    code = main([
        "pipeline", "--mesh", str(box),
        "--set", "mesh_unit_scale=1e308", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_CONFIG_VIOLATION
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
        "voxelize", "--mesh", demo_mesh_files["tee"],
        "--set", override, "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_SCHEMA
    assert not (tmp_path / "out").exists()


def test_grid_cell_cap_boundary():
    # 241 x 201 x 241 cells fit under the cap, 301 x 251 x 301 do not
    assert (60 / 0.25 + 1) * (50 / 0.25 + 1) * (60 / 0.25 + 1) <= MAX_GRID_CELLS
    AssemblyConfig(cell_size=0.25)
    with pytest.raises(ValueError, match="cells"):
        AssemblyConfig(cell_size=0.2)


# A valid non-default value for every config key, and the demo mesh on which
# it changes the outcome of a pipeline run. For mesh_manifest the value is
# the manifest path and the input is a text request.
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
    "mesh_manifest": ("table", None),
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(AssemblyConfig)])
def test_every_config_key_changes_the_outcome(demo_mesh_files, tmp_path, key):
    mesh, value = KEY_PROBES[key]
    source = ["--mesh", demo_mesh_files[mesh]]
    if key == "mesh_manifest":
        value = str(tmp_path / "manifest.json")
        Path(value).write_text(json.dumps({"coffee table": demo_mesh_files[mesh]}))
        source = ["--text", "make me a coffee table"]
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
    assert cfg.workspace == Workspace((30.0, 30.0, 30.0))
    with pytest.raises(SchemaError):
        AssemblyConfig.from_mapping({"workspace": [30, 30]})


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main(["pipeline"])  # needs --mesh or --text


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
