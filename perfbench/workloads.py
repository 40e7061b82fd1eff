"""Seeded inputs and job mixes of the two benchmark workloads.

A job is one input and the way users run it: ``plan`` (one
``blockplan pipeline`` call), ``staged`` (check -> sequence -> toolpath ->
validate into one directory) or ``filter`` (one ``blockplan filter`` call).
One pass runs every job of the workload once; the timed phase runs whole
passes, so every run sees the same input mix.

Everything is built from ``blockplan.shapes`` and the seed. The seed moves
and reorders the meshes, so the bytes differ
from seed to seed while the work per pass stays about the same.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("demo", "dense_mesh")

# Request fixtures for `filter`: accepted (text, expected phrase) pairs, and
# texts that must be rejected with exit code 6.
_ACCEPTED = (
    ("I need a shelf", "shelf"),
    ("build me a box to hold memories", "box"),
    ("could you make me a stool", "stool"),
    ("I would like a chair that rocks", "chair"),
)
_REJECTED = ("Knowledge", "love", "make me something", "I want happiness")

# Phrasings that the offline filter reduces to the bare object phrase.
_TEMPLATES = ("make me a {}", "I need a {}", "could you build me a {}")

EXIT_REJECTED = 6


def build(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's input files into ``directory``; return its jobs."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "demo":
        return _demo(seed, directory)
    if workload == "dense_mesh":
        return _dense_mesh(seed, directory)
    raise ValueError(f"unknown workload {workload!r}")


def input_digests(jobs: list[dict]) -> dict[str, str]:
    """sha256 of every input file the jobs read, by file name."""
    files = set()
    for job in jobs:
        files.update(job[key] for key in ("mesh", "manifest", "mesh_of") if key in job)
    return {
        Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest()
        for f in sorted(files)
    }


def cli_argv(job: dict, out_dir: str) -> list[list[str]]:
    """The ``blockplan.cli.main`` argument lists of one job, in order."""
    if job["kind"] == "filter":
        return [["filter", "--text", job["text"], "--out-dir", out_dir]]
    if job["kind"] == "staged":
        grid, seq = f"{out_dir}/grid.json", f"{out_dir}/sequence.json"
        common = ["--out-dir", out_dir]
        return [
            ["check", "--mesh", job["mesh"], *common],
            ["sequence", "--grid", grid, *common],
            ["toolpath", "--grid", grid, "--sequence", seq, *common],
            ["validate", "--grid", grid, "--sequence", seq, *common],
        ]
    if "text" in job:
        source = ["--text", job["text"], "--mesh-manifest", job["manifest"]]
    else:
        source = ["--mesh", job["mesh"]]
    return [["pipeline", *source, "--out-dir", out_dir]]


def pass_order(jobs: list[dict], seed: int, pass_no: int) -> list[dict]:
    """The jobs of one pass in a seeded order (each staged chain stays whole)."""
    order = list(jobs)
    random.Random(seed * 1_000_003 + pass_no).shuffle(order)
    return order


def write_probe_mesh(directory: Path) -> str:
    """The tee demo mesh, planned once by every set-up probe."""
    from blockplan import MeshFormat
    from blockplan.shapes import tee_mesh

    directory.mkdir(parents=True, exist_ok=True)
    return _write_mesh(tee_mesh(), directory / "tee.stl", MeshFormat.STL_BINARY)


def _write_mesh(mesh, path: Path, fmt) -> str:
    from blockplan import serialize_mesh

    path.write_bytes(serialize_mesh(mesh, fmt))
    return str(path)


def _write_manifest(path: Path, entries: dict[str, str]) -> str:
    # Paths relative to the manifest, which the mesh generator resolves.
    rel = {phrase: Path(mesh).name for phrase, mesh in entries.items()}
    path.write_text(json.dumps(rel, indent=2, sort_keys=True) + "\n", "utf-8")
    return str(path)


def _shuffled(mesh, rng, offset: float):
    """Same solid, moved by a seeded offset, with its triangles reordered."""
    from blockplan import TriangleMesh

    shift = rng.uniform(-offset, offset, size=3)
    order = rng.permutation(mesh.triangle_count)
    return TriangleMesh(mesh.vertices + shift, mesh.triangles[order])


def _demo(seed: int, d: Path) -> list[dict]:
    from blockplan.shapes import write_demo_meshes

    rng = random.Random(seed)
    meshes = write_demo_meshes(d)
    manifest = _write_manifest(
        d / "manifest.json",
        {"coffee table": meshes["table"], "shelf": meshes["shelf"]},
    )
    jobs: list[dict] = []
    for name in ("block", "shelf", "tee", "table"):
        jobs.append({"name": name, "kind": "plan", "mesh": meshes[name]})
        jobs.append({"name": f"{name}-staged", "kind": "staged", "mesh": meshes[name]})
    for phrase in ("coffee table", "shelf"):
        text = rng.choice(_TEMPLATES).format(phrase)
        jobs.append(
            {"name": f"text-{phrase.replace(' ', '_')}", "kind": "plan",
             "text": text, "manifest": manifest, "mesh_of": meshes[
                 "table" if phrase == "coffee table" else "shelf"]}
        )
    for i, (text, phrase) in enumerate(rng.sample(_ACCEPTED, 2)):
        jobs.append({"name": f"filter-ok{i}", "kind": "filter", "text": text,
                     "expect": 0, "phrase": phrase})
    for i, text in enumerate(rng.sample(_REJECTED, 2)):
        jobs.append({"name": f"filter-reject{i}", "kind": "filter", "text": text,
                     "expect": EXIT_REJECTED})
    return jobs


def _dense_mesh(seed: int, d: Path) -> list[dict]:
    import numpy as np

    from blockplan import MeshFormat, TriangleMesh
    from blockplan.shapes import icosphere

    rng = np.random.default_rng(seed)
    # Spheres of radius 15 fit without a rescale, so their time sits in
    # parsing, repair and voxelization; the radius-20 one takes one rescale
    # iteration. Sizes and formats are graded so that operation costs spread
    # evenly (0.04-0.4 s here) and no percentile sits in a gap between
    # groups of operations of unequal cost.
    tiny = _shuffled(icosphere(15.0, subdivisions=2), rng, 40.0)
    small = _shuffled(icosphere(15.0, subdivisions=3), rng, 40.0)
    medium = _shuffled(icosphere(15.0, subdivisions=4), rng, 40.0)
    rescaled = _shuffled(icosphere(20.0, subdivisions=3), rng, 40.0)
    drop = int(rng.integers(small.triangle_count))
    open_small = TriangleMesh(small.vertices, np.delete(small.triangles, drop, axis=0))
    files = {
        "s320_obj": ("s320.obj", tiny, MeshFormat.OBJ),
        "s320_ascii": ("s320_ascii.stl", tiny, MeshFormat.STL_ASCII),
        "s1k_obj": ("s1k.obj", small, MeshFormat.OBJ),
        "s1k_ascii": ("s1k_ascii.stl", small, MeshFormat.STL_ASCII),
        "s1k_binary": ("s1k_binary.stl", small, MeshFormat.STL_BINARY),
        "s1k_open": ("s1k_open.stl", open_small, MeshFormat.STL_BINARY),
        "r20_binary": ("r20_binary.stl", rescaled, MeshFormat.STL_BINARY),
        "s5k_obj": ("s5k.obj", medium, MeshFormat.OBJ),
        "s5k_ascii": ("s5k_ascii.stl", medium, MeshFormat.STL_ASCII),
        "s5k_binary": ("s5k_binary.stl", medium, MeshFormat.STL_BINARY),
    }
    jobs = [
        {"name": name, "kind": "plan", "mesh": _write_mesh(mesh, d / file, fmt)}
        for name, (file, mesh, fmt) in files.items()
    ]
    ball = str(d / "s1k_binary.stl")
    manifest = _write_manifest(d / "manifest.json", {"ball": ball})
    text = _TEMPLATES[seed % len(_TEMPLATES)].format("ball")
    jobs.append({"name": "text-ball", "kind": "plan", "text": text,
                 "manifest": manifest, "mesh_of": ball})
    return jobs
