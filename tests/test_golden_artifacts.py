"""Pinned sha256 of the ``pipeline`` artifacts.

A speed-up of the voxelizer, the rescale loop or a writer must keep every
byte. The hashes were recorded before the voxelizer's one-cell and
filled-cell shortcuts and the rescale loop's interior pruning, for the four
demos and for the r15 subdivision-3 icosphere, closed and with its first
triangle dropped, at 10 and 5 cm cells (both spheres rescale at 5 cm).
"""
from __future__ import annotations

import hashlib

import pytest

from blockplan.cli import EXIT_OK, main
from blockplan.mesh_io import MeshFormat, TriangleMesh, serialize_mesh
from blockplan.shapes import icosphere

ARTIFACTS = ("grid.json", "report.json", "sequence.json", "toolpath.json")

GOLDEN = {
    ("block", 10): {
        "grid.json": "c9a7d469a469edb0d4b18b16df558637eb7ca7a07d6767b35d876138a6dce884",
        "report.json": "56bd3a2cb3f57897c49a66ddd7bd5de3b443abab8d16dc7aa27b0aab641c9136",
        "sequence.json": "36df692f367f35404f1b0cf0486444d41cabf64ed1cb16e96cb80b7be047d92c",
        "toolpath.json": "8327acd8aa5632a059728de7235c270b2106ce0022c40102ef9c17795a942deb",
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


@pytest.mark.parametrize("cell_size", [10, 5])
@pytest.mark.parametrize("shape", ["sphere", "open_sphere"])
def test_sphere_artifacts_match_golden_hashes(shape, cell_size, tmp_path, capsys):
    mesh_path = tmp_path / f"{shape}.stl"
    mesh_path.write_bytes(serialize_mesh(sphere_mesh(shape == "sphere"), MeshFormat.STL_BINARY))
    got = run_pipeline(mesh_path, tmp_path / "out", cell_size)
    assert got == GOLDEN[shape, cell_size]
