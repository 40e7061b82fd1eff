"""Pinned sha256 of the ``pipeline`` artifacts.

A speed-up of the voxelizer, the rescale loop or a writer must keep every
byte. The hashes were recorded before the voxelizer's one-cell and
filled-cell shortcuts and the rescale loop's interior pruning, for the four
demos and for the r15 subdivision-3 icosphere, closed and with its first
triangle dropped, at 10 and 5 cm cells (both spheres rescale at 5 cm).
The block at 1 cm, whose first pass is 60 x 50 x 60 cells and which takes
57 rescale steps, was recorded before the first pass and the rescale steps
kept the occupancy array instead of building a set of cells.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from blockplan.cli import EXIT_OK, main
from blockplan.errors import ValidationFailed
from blockplan.mesh_io import MeshFormat, TriangleMesh, serialize_mesh
from blockplan.sequencer import AssemblySequence
from blockplan.shapes import icosphere

ARTIFACTS = ("grid.json", "report.json", "sequence.json", "toolpath.json")

GOLDEN = {
    ("block", 10): {
        "grid.json": "c9a7d469a469edb0d4b18b16df558637eb7ca7a07d6767b35d876138a6dce884",
        "report.json": "56bd3a2cb3f57897c49a66ddd7bd5de3b443abab8d16dc7aa27b0aab641c9136",
        "sequence.json": "36df692f367f35404f1b0cf0486444d41cabf64ed1cb16e96cb80b7be047d92c",
        "toolpath.json": "8327acd8aa5632a059728de7235c270b2106ce0022c40102ef9c17795a942deb",
    },
    ("block", 1): {
        "grid.json": "1a2954b42a139cf4304918f97bde7ea6e02a37d69cd00ef115e45ba67921a9c0",
        "report.json": "29aa7f7c5823b9a406dc0fd1ea67d8fa501624568b402350e49f29afeace42a4",
        "sequence.json": "36df692f367f35404f1b0cf0486444d41cabf64ed1cb16e96cb80b7be047d92c",
        "toolpath.json": "f81d4020c85ddfe5d27d3bb915269f822698e3147429e0ff4db81d75338c373d",
    },
    ("shelf", 10): {
        "grid.json": "6a213937b772b41ab1124393ca0ddc6253e8ee03dd09a32a9a8e42ccedf8ae48",
        "report.json": "c153aaaa42e68c9900bfd59ed4fc2e63c8450029f7a7d110e8af81ee6f68c817",
        "sequence.json": "2729d7b3aeb3a83b23f29cd4b384caec00beea07cb343a3bd2bd5295785935ab",
        "toolpath.json": "2e178b9a7c8808e0cde69e336360532cb4f2a3fca33f45d132a8e9f69f82788a",
    },
    ("tee", 10): {
        "grid.json": "83e4b36710faaea8ca4a0e2e97a344d00c7958dced02ba2048c49d7f31d00d1b",
        "report.json": "2aafda42c0696b7b853d168b4ffcd98ba4c644125f411c84127cd86a5737aeda",
        "sequence.json": "2a8732b0f9719b79c9ffbd95101c1a0a9c135140cc925135706c069e9b391919",
        "toolpath.json": "62aeb1b9ba707d0eb3ef5cac7bb261cd16747acfde5fd4f744c7cfb80e8d53ba",
    },
    ("table", 10): {
        "grid.json": "c660c6ff3d7469c8aa8cc4b6f585ee8b6998ca592651c7e498cbe8ef12320849",
        "report.json": "94d30ab0c71da08e0a603f06e58c8780fa8b7d7d90a02e55d93f84d09fd074fe",
        "sequence.json": "4a841335bbc616a7bf3a970f47597ae662551a60f2e096e8ca175acced5e2803",
        "toolpath.json": "a44622c5d76b59843346d32a5e4743b3ba6d24c30df84e7a910eadcdf084cd36",
    },
    ("sphere", 10): {
        "grid.json": "c9a7d469a469edb0d4b18b16df558637eb7ca7a07d6767b35d876138a6dce884",
        "report.json": "0ca11d32c3cee7550d72bc9f61f29281f0da5534bfc1e206abb56fbe6eb0027e",
        "sequence.json": "36df692f367f35404f1b0cf0486444d41cabf64ed1cb16e96cb80b7be047d92c",
        "toolpath.json": "8327acd8aa5632a059728de7235c270b2106ce0022c40102ef9c17795a942deb",
    },
    ("sphere", 5): {
        "grid.json": "f7b98308537ba03ac413c4128854198341cbd38688e1506fb0f80fd30fb585c1",
        "report.json": "46634c59087937375be9abda2fc3e3a3ced0ef1f0fc784d67e8810dbe2ba8c12",
        "sequence.json": "36df692f367f35404f1b0cf0486444d41cabf64ed1cb16e96cb80b7be047d92c",
        "toolpath.json": "f83df12e17adc33d2c557791073a2f9026cffcb55dfc183a698fdc90196284b4",
    },
    ("open_sphere", 10): {
        "grid.json": "c9a7d469a469edb0d4b18b16df558637eb7ca7a07d6767b35d876138a6dce884",
        "report.json": "0ca11d32c3cee7550d72bc9f61f29281f0da5534bfc1e206abb56fbe6eb0027e",
        "sequence.json": "36df692f367f35404f1b0cf0486444d41cabf64ed1cb16e96cb80b7be047d92c",
        "toolpath.json": "8327acd8aa5632a059728de7235c270b2106ce0022c40102ef9c17795a942deb",
    },
    ("open_sphere", 5): {
        "grid.json": "f7b98308537ba03ac413c4128854198341cbd38688e1506fb0f80fd30fb585c1",
        "report.json": "46634c59087937375be9abda2fc3e3a3ced0ef1f0fc784d67e8810dbe2ba8c12",
        "sequence.json": "36df692f367f35404f1b0cf0486444d41cabf64ed1cb16e96cb80b7be047d92c",
        "toolpath.json": "f83df12e17adc33d2c557791073a2f9026cffcb55dfc183a698fdc90196284b4",
    },
}


def sphere_mesh(closed: bool) -> TriangleMesh:
    mesh = icosphere(15.0, subdivisions=3)
    return mesh if closed else TriangleMesh(mesh.vertices, mesh.triangles[1:])


def run_pipeline(mesh_path, out_dir, cell_size: float) -> dict[str, str]:
    argv = ["pipeline", "--mesh", str(mesh_path), "--out-dir", str(out_dir)]
    argv += ["--set", f"cell_size={cell_size:g}"]
    assert main(argv) == EXIT_OK
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


@pytest.mark.parametrize("name", ["block", "shelf", "tee", "table"])
def test_demo_artifacts_match_golden_hashes(name, demo_mesh_files, tmp_path, capsys):
    assert run_pipeline(demo_mesh_files[name], tmp_path, 10) == GOLDEN[name, 10]


def test_fine_block_artifacts_match_golden_hashes(demo_mesh_files, tmp_path, capsys):
    assert run_pipeline(demo_mesh_files["block"], tmp_path, 1) == GOLDEN["block", 1]


@pytest.mark.parametrize("cell_size", [10, 5])
@pytest.mark.parametrize("shape", ["sphere", "open_sphere"])
def test_sphere_artifacts_match_golden_hashes(shape, cell_size, tmp_path, capsys):
    mesh_path = tmp_path / f"{shape}.stl"
    mesh_path.write_bytes(serialize_mesh(sphere_mesh(shape == "sphere"), MeshFormat.STL_BINARY))
    got = run_pipeline(mesh_path, tmp_path / "out", cell_size)
    assert got == GOLDEN[shape, cell_size]


# ``summary.txt`` per pipeline case, with the mesh named by its bare file name
# (its ``validation:`` line comes from the build simulation and the report
# cross-check), and the ``simulation.json`` that ``validate`` writes for each
# demo's grid, with the sequence as written (exit 0) and reversed (exit 14).
SUMMARY = {
    ("block", 10): "8835d4b440cabd790bc59dbc17833bec67773367f98464c4459645b5621262af",
    ("shelf", 10): "b4f81d8918b6f5c3628de6185d1e6572009af583fa22cc9f55fd35249063175e",
    ("tee", 10): "dac535cf66bc35a36c0706d096e8adfe210468f2d242834ced5fa0f88e2ef406",
    ("table", 10): "093b94ff87ffd25c8599af5204565e8bfd1727fa68e757d68cd59f7c622da734",
    ("sphere", 10): "bc49f117eab14bfd5c514dc9f9dc19f880a16f8ba1073b24092f1bd082a55339",
    ("sphere", 5): "c10c3a0a37c0a50b919bafbe76b41d7638540b27b05e1775202d1d0bfbd937c6",
    ("open_sphere", 10): "857c944f3cfa43481fbf17b9ab677d383e363a5eff6989886767a80ee2e2a4f5",
    ("open_sphere", 5): "3a75431068840d8d3edb383814a29bcb99fbf55c1ce19e50f03a101259877573",
}

SIMULATION = {
    "block": {
        "sequence.json": "8d3af36c35a2a1ec6cb6cb3c5c923a1e1f08844306cdecac8952f2c08ea67303",
        "reversed.json": "9f96c7b64e1ecda3755698789081397d6127bfb5b8a1bc95a036f51864453a08",
    },
    "shelf": {
        "sequence.json": "796057675820a5c59a0ef446bd0167edba96bd65768b4f79031826dab24d77a3",
        "reversed.json": "eef1b8a2d52a0e9f4c4d0bb05baa6a7cd6e6e9a31ea11e3f2e5ca444c6ac266f",
    },
    "tee": {
        "sequence.json": "979d14a4a0adb80ccf325bf7b3128e8c17cd2d84a8dd3d77177be427b84abf50",
        "reversed.json": "06cc292361135e14219dc56fd280522d39dbd317f5dabb64f974982be22f88f6",
    },
    "table": {
        "sequence.json": "d9d4adddffde49f9f460f0668420e9d809e6421f55e3be3c0c88f1dc705a794d",
        "reversed.json": "94ab1a12071fcbfc4429a8d57e1a3ca10c23fbd3982cf26a5d70cc9933d91f70",
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_hash(mesh_path, out_dir, cell_size: float, monkeypatch) -> str:
    monkeypatch.chdir(mesh_path.parent)  # the summary names the mesh as given
    run_pipeline(Path(mesh_path.name), out_dir, cell_size)
    return sha256(out_dir / "summary.txt")


@pytest.mark.parametrize("name", ["block", "shelf", "tee", "table"])
def test_demo_summary_and_simulation_match_golden_hashes(
    name, demo_mesh_files, tmp_path, monkeypatch, capsys
):
    mesh_path = Path(demo_mesh_files[name])
    assert summary_hash(mesh_path, tmp_path, 10, monkeypatch) == SUMMARY[name, 10]
    seq = AssemblySequence.from_json((tmp_path / "sequence.json").read_bytes())
    (tmp_path / "reversed.json").write_bytes(AssemblySequence(seq.cells[::-1]).to_json())
    got = {}
    codes = {"sequence.json": EXIT_OK, "reversed.json": ValidationFailed.exit_code}
    for seq_name, code in codes.items():
        out_dir = tmp_path / seq_name.removesuffix(".json")
        argv = ["validate", "--grid", str(tmp_path / "grid.json")]
        argv += ["--sequence", str(tmp_path / seq_name), "--out-dir", str(out_dir)]
        assert main(argv) == code
        got[seq_name] = sha256(out_dir / "simulation.json")
    assert got == SIMULATION[name]


@pytest.mark.parametrize("cell_size", [10, 5])
@pytest.mark.parametrize("shape", ["sphere", "open_sphere"])
def test_sphere_summary_matches_golden_hash(shape, cell_size, tmp_path, monkeypatch, capsys):
    mesh_path = tmp_path / f"{shape}.stl"
    mesh_path.write_bytes(serialize_mesh(sphere_mesh(shape == "sphere"), MeshFormat.STL_BINARY))
    got = summary_hash(mesh_path, tmp_path / "out", cell_size, monkeypatch)
    assert got == SUMMARY[shape, cell_size]


# ``toolpath.txt``, the robot-facing script that ``pipeline --format
# robot_script`` writes for each demo at the default config.
ROBOT_SCRIPT = {
    "block": "e7dbbe9eed098901216856ebe6486167db6175a5eedb3d37d5ccd6a655367a15",
    "shelf": "7306afd258cf590c82d2848dec2cdca4c3af5e7d631a04e13b3b5e20ded8a816",
    "tee": "5fa7e63510de9feb2944d49147838da59147cb33a51b1b13470c49a0bf8ecbe9",
    "table": "098af4af89a00acc6b311a0a7feb5685cc3b09d21f892467c8bc7dc0e87d6f34",
}


@pytest.mark.parametrize("name", ["block", "shelf", "tee", "table"])
def test_demo_robot_script_matches_golden_hash(name, demo_mesh_files, tmp_path, capsys):
    argv = ["pipeline", "--mesh", str(demo_mesh_files[name]), "--out-dir", str(tmp_path)]
    assert main(argv + ["--format", "robot_script"]) == EXIT_OK
    assert sha256(tmp_path / "toolpath.txt") == ROBOT_SCRIPT[name]
