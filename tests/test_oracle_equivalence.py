"""The regex text parsers, the numpy weld, winding and voxelization, the
feasibility rules and the connectivity-aware sort against the slow oracles.

Every case compares exactly: repaired vertices and triangles, the repair
summary, and the occupied cells of the fitted mesh. Cases are seeded and
cover cell designs, jittered and duplicated triangle soups, open spheres
and randomly flipped Moebius strips at several cell sizes, plus the four
demo meshes and icospheres. Every grid matches the per-cell winding-number
oracle; the closed ones (cell designs, demos, icospheres) also match the
parity-ray oracle. The weld, which folds exact copies before its neighbour
search, matches the k-d tree weld on copies around another position in one
weld cell, signed zeros, near-copies chained across cells, a single
position and a derandomized property over repeated and jittered vertices,
at tolerances of 1e-12, 1e-4 and 1e-3. Seeded sub-cell triangles on cell
faces, edges and corners hold the one-cell surface shortcut to the
per-pair SAT oracle, and the rescale loop that skips the interior on steps
that cannot fit matches the loop that voxelizes every step in full, errors
included. Random occupancy grids hold the overhang and stack checks, both
rewrites and the placement order (or its error) to the old per-layer
searches, and random placement orders hold the build simulation to the old
column scan.
``run_feasibility`` writes the grid and report bytes (or the error) of the
orchestration it replaced, on the demos and on cell designs with riders on
tall columns, over overhang limits 0-3, stack limits 1-4 and both
failure-handling settings. ``parse_mesh`` gives the line-loop parsers' mesh
or error, line number included, on seeded ASCII STL and OBJ files: every
``str.splitlines`` break and ``str.split`` gap, keyword case and position,
polygons, negative, slashed and forward indices, Python-only number forms,
invalid UTF-8, and the dense_mesh spheres, and on seeded files at the edges
of the one-call numpy conversions of tokens. Winding unification matches the
oracle on spheres with flipped caps, holes and fins. ``estimate_duration``
gives the per-segment walk's float bits, or its refusal, on seeded paths of
shared command objects with signed zeros and overflowing distances, and on
planned paths. The fallback filter's one
scaffolding match strips what the restart loop over the prefixes strips, on
seeded phrases of prefix words, whole prefixes and near-misses.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan import mesh_io
from blockplan.config import AssemblyConfig
from blockplan.discretizer import (
    SAT_EPSILON,
    GridSpec,
    OccupancyGrid,
    build_grid,
    fit_to_workspace,
    voxelize,
)
from blockplan.errors import BlockplanError, CannotFit, MalformedFile, SchemaError
from blockplan.frontend import _SCAFFOLD, _SCAFFOLD_PREFIXES
from blockplan.feasibility import (
    check_overhang,
    check_sequence_connectivity,
    check_vertical_stack,
    SimulationReport,
    remove_overhangs,
    rescale_until_fits,
    run_feasibility,
    simulate_assembly,
    truncate_stacks,
)
from blockplan.mesh_io import (
    DEFAULT_WELD_TOLERANCE,
    MeshFormat,
    TriangleMesh,
    bounding_box,
    parse_mesh,
    repair_mesh,
    serialize_mesh,
)
from blockplan.sequencer import (
    AssemblySequence,
    connectivity_sort,
    face_neighbors,
)
from blockplan.shapes import (
    box_mesh,
    cell_design_mesh,
    combine_meshes,
    icosphere,
    oversized_block_mesh,
    shelf_mesh,
    table_mesh,
    tee_mesh,
)
from blockplan.toolpath import (
    Command,
    CommandOp,
    MotionParams,
    Toolpath,
    emit_toolpath,
    estimate_duration,
    move,
    parse_toolpath,
    plan_toolpath,
)
from tests import oracles

CELL_SIZES = (2.5, 5.0, 10.0)
# small enough that the scalar oracle stays fast at 2.5 cm cells
WORKSPACE = (25.0, 20.0, 25.0)
DEFAULT_WORKSPACE = AssemblyConfig().workspace


def as_soup(mesh: TriangleMesh, rng: np.random.Generator, flip: float) -> TriangleMesh:
    """Unwelded triangles in shuffled order, a ``flip`` share reversed."""
    coords = mesh.triangle_coords()[rng.permutation(mesh.triangle_count)]
    reverse = rng.random(len(coords)) < flip
    coords[reverse] = coords[reverse, ::-1]
    tris = np.arange(3 * len(coords), dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(coords.reshape(-1, 3), tris)


def random_design(rng: np.random.Generator) -> TriangleMesh:
    cuboids = []
    for _ in range(int(rng.integers(1, 5))):
        lo = [int(rng.integers(0, d)) for d in (5, 4, 5)]
        hi = [lo[a] + int(rng.integers(0, 3)) for a in range(3)]
        cuboids.append((tuple(lo), tuple(hi)))
    mesh = cell_design_mesh(cuboids, cell_size=5.0, margin=float(rng.uniform(0.05, 1.0)))
    return as_soup(mesh, rng, flip=0.3)


def jittered_soup(rng: np.random.Generator) -> TriangleMesh:
    """Shape soup with vertices moved up to 1.5 weld tolerances and some
    triangles repeated, so some copies weld and some do not."""
    base = icosphere(float(rng.uniform(4.0, 10.0)), (10.0, 10.0, 10.0), int(rng.integers(0, 3)))
    if rng.random() < 0.5:
        base = combine_meshes([base, box_mesh((0.0, 0.0, 0.0), tuple(rng.uniform(2.0, 8.0, 3)))])
    soup = as_soup(base, rng, flip=0.2)
    coords = soup.triangle_coords()
    repeat = rng.random(len(coords)) < 0.1
    coords = np.concatenate([coords, coords[repeat][:, rng.permutation(3)]])
    flat = coords.reshape(-1, 3)
    scale = 1.5 * DEFAULT_WELD_TOLERANCE / np.sqrt(3.0)
    flat = flat + rng.uniform(-scale, scale, flat.shape) * (rng.random((len(flat), 1)) < 0.5)
    tris = np.arange(len(flat), dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(flat, tris)


def open_sphere(rng: np.random.Generator) -> TriangleMesh:
    sphere = icosphere(float(rng.uniform(5.0, 11.0)), (12.0, 12.0, 12.0), int(rng.integers(1, 3)))
    keep = np.ones(sphere.triangle_count, dtype=bool)
    keep[rng.choice(sphere.triangle_count, int(rng.integers(1, 6)), replace=False)] = False
    return as_soup(TriangleMesh(sphere.vertices, sphere.triangles[keep]), rng, flip=0.3)


def moebius_strip(rng: np.random.Generator) -> TriangleMesh:
    """Triangulated Moebius band, one to three quads wide: non-orientable,
    so winding unification cannot succeed and the flipped set depends on
    the order in which the search visits each triangle's edges."""
    n, rows = int(rng.integers(6, 30)), int(rng.integers(1, 4))
    radius, width = float(rng.uniform(5.0, 10.0)), float(rng.uniform(1.0, 4.0))
    angle = 2.0 * np.pi * np.arange(n)[:, None] / n
    w = np.linspace(-width / 2.0, width / 2.0, rows + 1)[None, :]
    ring = radius + w * np.cos(angle / 2.0)
    verts = np.stack(
        [ring * np.cos(angle), ring * np.sin(angle), w * np.sin(angle / 2.0)], axis=-1
    ).reshape(-1, 3) + radius + width

    def index(i: int, r: int) -> int:
        # the half twist joins row r at the seam to row (rows - r) at the start
        return r + (rows + 1) * i if i < n else rows - r

    tris = []
    for i in range(n):
        for r in range(rows):
            a, b = index(i, r), index(i, r + 1)
            c, d = index(i + 1, r), index(i + 1, r + 1)
            tris += [(a, c, b), (b, c, d)]
    strip = TriangleMesh(verts, np.array(tris, dtype=np.int64))
    return as_soup(strip, rng, flip=0.5)


FAMILIES = {
    "design": random_design,
    "jitter": jittered_soup,
    "open": open_sphere,
    "moebius": moebius_strip,
}


def assert_same_repair(mesh: TriangleMesh) -> TriangleMesh:
    ours = repair_mesh(mesh)
    theirs = oracles.repair_mesh(mesh)
    np.testing.assert_array_equal(ours.vertices, theirs.vertices)
    np.testing.assert_array_equal(ours.triangles, theirs.triangles)
    assert ours.repair == theirs.repair
    return ours


def assert_same_grid(
    mesh: TriangleMesh, cell: float, workspace: tuple[float, float, float], closed: bool = True
) -> None:
    fitted, _ = fit_to_workspace(mesh, workspace)
    spec = build_grid(bounding_box(fitted), cell)
    occupied = voxelize(fitted, spec).occupied
    assert occupied == oracles.winding_voxelize(fitted, spec).occupied
    if closed:
        assert occupied == oracles.voxelize(fitted, spec).occupied


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_cases_match_oracle(family, seed):
    rng = np.random.default_rng([seed, sorted(FAMILIES).index(family)])
    mesh = FAMILIES[family](rng)
    repaired = assert_same_repair(mesh)
    assert_same_grid(repaired, CELL_SIZES[seed % 3], WORKSPACE, closed=family == "design")


@pytest.mark.parametrize(
    "make", [oversized_block_mesh, shelf_mesh, tee_mesh, table_mesh], ids=lambda f: f.__name__
)
def test_demo_meshes_match_oracle(make):
    rng = np.random.default_rng(7)
    mesh = make()
    repaired = assert_same_repair(as_soup(mesh, rng, flip=0.25))
    assert_same_repair(mesh)
    assert_same_grid(repaired, 10.0, DEFAULT_WORKSPACE)


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_icospheres_match_oracle(subdivisions):
    rng = np.random.default_rng(subdivisions)
    sphere = icosphere(14.0, (20.0, 20.0, 20.0), subdivisions)
    repaired = assert_same_repair(as_soup(sphere, rng, flip=0.1))
    for cell in CELL_SIZES[1:]:
        assert_same_grid(repaired, cell, DEFAULT_WORKSPACE)


def test_moebius_windings_match_oracle():
    # which triangles end up flipped on a non-orientable band turns on the
    # exact visit order, and only some bands expose a wrong order
    for seed in range(150):
        assert_same_repair(moebius_strip(np.random.default_rng([seed, 99])))


def test_manifold_test_matches_oracle():
    rng = np.random.default_rng(3)
    meshes = [FAMILIES[family](rng) for family in sorted(FAMILIES)]
    # two closed boxes sharing one edge: four triangles meet there
    meshes.append(combine_meshes([box_mesh((0, 0, 0), (1, 1, 1)), box_mesh((1, 1, 0), (2, 2, 1))]))
    for mesh in meshes:
        repaired = repair_mesh(mesh, weld_tolerance=1e-3)
        expected = oracles.is_manifold_triangles(repaired.triangles)
        assert repaired.repair.manifold == expected


def test_weld_of_coincident_copies_matches_oracle():
    # a tolerance far below the spacing: only exact copies (distance zero) weld
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 5.0, (40, 3))
    verts = points[rng.integers(0, 40, 400)]
    tris = np.arange(399, dtype=np.int64).reshape(-1, 3)
    ours = repair_mesh(TriangleMesh(verts[:399], tris), weld_tolerance=1e-12)
    theirs = oracles.repair_mesh(TriangleMesh(verts[:399], tris), weld_tolerance=1e-12)
    np.testing.assert_array_equal(ours.vertices, theirs.vertices)
    np.testing.assert_array_equal(ours.triangles, theirs.triangles)
    assert ours.repair == theirs.repair


def test_weld_pair_at_exactly_the_tolerance_matches_oracle():
    # squared distance equal to tolerance**2 in float64 counts as close
    verts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.75]])
    tris = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int64)
    for tolerance in (0.5, 0.25, 0.4999999):
        ours = repair_mesh(TriangleMesh(verts, tris), weld_tolerance=tolerance)
        theirs = oracles.repair_mesh(TriangleMesh(verts, tris), weld_tolerance=tolerance)
        np.testing.assert_array_equal(ours.vertices, theirs.vertices)
        assert ours.repair == theirs.repair


def triangles_on(points, far: float = 50.0) -> TriangleMesh:
    """A soup of one triangle per point, its other two corners far away; the
    far corners repeat in every triangle, so they are exact copies too."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    corners = np.array([[far, 0.0, 0.0], [0.0, far, 0.0]])
    verts = np.concatenate([np.concatenate([[p], corners]) for p in points])
    return TriangleMesh(verts, np.arange(len(verts), dtype=np.int64).reshape(-1, 3))


def assert_same_weld(mesh: TriangleMesh, tolerance: float) -> None:
    ours = repair_mesh(mesh, weld_tolerance=tolerance)
    theirs = oracles.repair_mesh(mesh, weld_tolerance=tolerance)
    assert ours.vertices.tobytes() == theirs.vertices.tobytes()  # -0.0 differs from 0.0
    np.testing.assert_array_equal(ours.triangles, theirs.triangles)
    assert ours.repair == theirs.repair


A, B = (1.00002, 0.0, 0.0), (1.00017, 0.0, 0.0)  # one 2e-4 weld cell, 1.5e-4 apart
CHAIN = [(1.0 + 0.9e-4 * k, 0.5, 0.5) for k in range(25)]  # steps below 1e-4, across cells
WELD_CASES = {
    "copies-around-another-position": triangles_on([A, B, A, B, A]),
    "copies-split-by-another-cell": triangles_on([A, (3, 3, 3), A, (0.5, 0.5, 0.5), A]),
    "signed-zero-copies": triangles_on([(-0.0, 1, 0), (0.0, 1, 0), (0, 1, -0.0), (-0.0, 1, 0)]),
    "zero-then-negative-zero": triangles_on([(0, 0, 2), (-0.0, -0.0, 2), (0, -0.0, 2)]),
    "chained-near-copies": triangles_on(CHAIN[::2] + CHAIN[::-1] + CHAIN[1::2]),
    "one-position": TriangleMesh(np.full((9, 3), 2.0), np.arange(9).reshape(-1, 3)),
}


@pytest.mark.parametrize("tolerance", [1e-12, 1e-4, 1e-3])
@pytest.mark.parametrize("name", sorted(WELD_CASES))
def test_weld_folds_exact_copies_like_oracle(name, tolerance):
    assert_same_weld(WELD_CASES[name], tolerance)


def test_copies_apart_in_sort_order_stay_in_the_search():
    # A, B, A share a weld cell; the sort by coordinates within a cell puts
    # the second A right after the first, so it folds onto it as its head
    mesh = triangles_on([A, B, A])
    heads, _, _ = mesh_io._close_pairs(mesh.vertices, 1e-4)
    assert heads[[0, 3, 6]].tolist() == [0, 3, 0]
    assert repair_mesh(mesh).repair.welded_vertices == 5  # the second A and four far corners


@pytest.mark.parametrize("radius, subdivisions, tolerance", [
    (15.0, 3, 1.0),  # a 1280-triangle sphere: only exact copies weld
    (3.0, 2, 1.0),  # edges shorter than the tolerance: neighbours chain into one
    (15.0, 1, 100.0),  # every vertex in one weld cell
])
def test_weld_of_sphere_soups_at_coarse_tolerances_matches_oracle(radius, subdivisions, tolerance):
    rng = np.random.default_rng(subdivisions)
    sphere = icosphere(radius, subdivisions=subdivisions)
    assert_same_weld(as_soup(sphere, rng, flip=0.2), tolerance)


def test_weld_searches_each_position_once():
    # at a tolerance wider than the sphere its 3840 soup vertices share one
    # weld cell; every exact copy folds first, so only its 642 positions pair
    sphere = as_soup(icosphere(15.0, subdivisions=3), np.random.default_rng(4), flip=0.0)
    heads, first, _ = mesh_io._close_pairs(sphere.vertices, 100.0)
    assert len(np.unique(heads)) == 642
    assert len(first) <= 642 * 641 // 2


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 30),
    triangles=st.integers(1, 40),
    spread=st.sampled_from([1e-3, 1.0, 100.0]),
    tolerance=st.sampled_from([1e-12, 1e-4, 1e-3]),
)
def test_weld_of_repeated_and_jittered_vertices_matches_oracle(
    seed, distinct, triangles, spread, tolerance
):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-spread, spread, (distinct, 3))
    base[rng.random(base.shape) < 0.1] = 0.0
    base[rng.random(base.shape) < 0.1] = -0.0
    verts = base[rng.integers(0, distinct, 3 * triangles)]
    jitter = rng.random(len(verts)) < 0.3
    verts[jitter] += rng.uniform(-1.5, 1.5, (int(jitter.sum()), 3)) * tolerance
    assert_same_weld(TriangleMesh(verts, np.arange(len(verts)).reshape(-1, 3)), tolerance)


# --- surface shortcut and rescale pruning ----------------------------------------


def lattice_triangles(
    rng: np.random.Generator, spec: GridSpec, count: int
) -> TriangleMesh:
    """Triangles smaller than a cell, each with one vertex on a cell face,
    edge or corner of the grid lattice: at the exact lattice coordinate, or
    off it by one or two SAT_EPSILON or by up to 3e-9. Along a lattice axis a
    triangle lies in the plane or reaches into one side of it."""
    origin, cell = np.asarray(spec.origin), spec.cell_size
    nudges = (0.0, SAT_EPSILON, -SAT_EPSILON, 2 * SAT_EPSILON, -2 * SAT_EPSILON)
    coords = np.empty((count, 3, 3))
    for t in range(count):
        on_lattice = rng.permutation(3) < int(rng.integers(1, 4))  # face, edge or corner
        anchor = np.where(
            on_lattice,
            rng.integers(0, np.asarray(spec.dims) + 1),
            rng.integers(0, spec.dims) + rng.uniform(0.1, 0.9, 3),
        ) * cell + origin
        nudge = np.where(rng.random(3) < 0.5, rng.choice(nudges, 3), rng.uniform(-3e-9, 3e-9, 3))
        anchor = anchor + np.where(on_lattice, nudge, 0.0)
        reach = np.where(
            on_lattice,
            rng.choice((0.0, 1.0, -1.0), 3) * rng.uniform(0.0, 0.4, 3),
            rng.uniform(-0.08, 0.08, 3),
        ) * cell
        coords[t] = anchor + np.vstack([np.zeros(3), rng.random((2, 3)) * reach])
    return TriangleMesh(coords.reshape(-1, 3), np.arange(3 * count).reshape(-1, 3))


def one_cell_triangles(mesh: TriangleMesh, spec: GridSpec) -> int:
    """Triangles whose SAT_EPSILON-widened index range is one grid cell."""
    coords = mesh.triangle_coords() - np.asarray(spec.origin)
    lo = np.floor((coords.min(axis=1) - SAT_EPSILON) / spec.cell_size)
    hi = np.floor((coords.max(axis=1) + SAT_EPSILON) / spec.cell_size)
    inside = (lo == hi) & (lo >= 0) & (hi < np.asarray(spec.dims))
    return int(inside.all(axis=1).sum())


SHORTCUT_GRIDS = (
    GridSpec((0.0, 0.0, 0.0), 10.0, (4, 4, 4)),
    GridSpec((0.0, 0.0, 0.0), 2.5, (4, 4, 4)),
    GridSpec((-3.7, 12.1, 0.45), 10.0, (4, 4, 4)),
    # a 1e6 cm workspace, where coordinate rounding comes near SAT_EPSILON
    GridSpec((0.0, 0.0, 0.0), 2.5e5, (4, 4, 4)),
)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("grid", range(len(SHORTCUT_GRIDS)))
def test_surface_shortcut_matches_per_pair_oracle(grid, seed):
    rng = np.random.default_rng([seed, grid, 31])
    spec = SHORTCUT_GRIDS[grid]
    mesh = lattice_triangles(rng, spec, 60)
    # both paths run: one-cell triangles skip the SAT test, the rest do not
    assert 0 < one_cell_triangles(mesh, spec) < 60
    assert voxelize(mesh, spec).occupied == oracles.winding_voxelize(mesh, spec).occupied


def rescale_outcome(rescale, mesh: TriangleMesh, cell: float, inventory: int):
    grid = voxelize(mesh, build_grid(bounding_box(mesh), cell))
    try:
        final, scale, iterations = rescale(mesh, grid, inventory)
    except CannotFit as exc:
        return str(exc)
    return final, scale, iterations


RESCALE_MESHES = {
    "block": oversized_block_mesh,
    "shelf": shelf_mesh,
    "tee": tee_mesh,
    "table": table_mesh,
    "sphere": lambda: icosphere(15.0, subdivisions=3),
    "open_sphere": lambda: first_triangle_dropped(icosphere(15.0, subdivisions=3)),
}


def first_triangle_dropped(mesh: TriangleMesh) -> TriangleMesh:
    return TriangleMesh(mesh.vertices, mesh.triangles[1:])


@pytest.mark.parametrize("name", sorted(RESCALE_MESHES))
def test_pruned_rescale_matches_full_voxelize_loop(name):
    mesh, _ = fit_to_workspace(RESCALE_MESHES[name](), DEFAULT_WORKSPACE)
    refusals = 0
    # 7 and 4 cm leave some designs wider than one cell but unable to shrink
    for cell in (10.0, 7.0, 4.0):
        for inventory in (1, 4, 12, 40):
            ours = rescale_outcome(rescale_until_fits, mesh, cell, inventory)
            assert ours == rescale_outcome(oracles.rescale_until_fits, mesh, cell, inventory)
            refusals += isinstance(ours, str)
    # the cases include both a fitted grid and a CannotFit message
    assert 0 < refusals < 12


def corner_plates(at: float, span: float) -> TriangleMesh:
    """Three open squares on the planes x, y and z = ``at``, each spanning
    [0, span] on its other two axes, wound alike about the origin."""
    square = np.array([(at, 0.0, 0.0), (at, span, 0.0), (at, span, span), (at, 0.0, span)])
    verts = np.concatenate([np.roll(square, axis, axis=1) for axis in range(3)])
    tris = np.array([(q, q + 1, q + 2) for q in (0, 4, 8)] + [(q, q + 2, q + 3) for q in (0, 4, 8)])
    return TriangleMesh(verts, tris)


def test_cannot_fit_reports_the_complete_count():
    # one shrink takes the plates from 2.9 to 1.9 cells, which cannot shrink
    # again; the 10 cm cell at the origin touches no plate, but its center
    # sees them under more than 2 pi, so only the interior pass fills it
    stretch = 2.9 / 1.9
    mesh = corner_plates(10.5 * stretch, 19.0 * stretch)
    for inventory in (5, 6):
        message = rescale_outcome(rescale_until_fits, mesh, 10.0, inventory)
        assert message == rescale_outcome(oracles.rescale_until_fits, mesh, 10.0, inventory)
        assert message.startswith("8 components exceed")


# --- feasibility rules and sequencing ------------------------------------------


def random_grid(rng: np.random.Generator) -> OccupancyGrid:
    """Random fill of a small grid plus a few full-height pillars, so some
    columns stand free and some layers float or split into islands."""
    dims = tuple(int(rng.integers(1, 7)) for _ in range(3))
    fill = rng.random(dims) < rng.uniform(0.1, 0.8)
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(rng.integers(0, d)) for d in dims[:2])
        fill[i, j, : int(rng.integers(1, dims[2] + 1))] = True
    cells = frozenset(tuple(c) for c in np.argwhere(fill).tolist())
    return OccupancyGrid(GridSpec((0.0, 0.0, 0.0), 5.0, dims), cells)


def outcome(sort, grid: OccupancyGrid):
    try:
        order = sort(grid)
    except BlockplanError as exc:
        return type(exc).__name__, str(exc)
    return tuple(getattr(order, "cells", order))


def ground_islands(order) -> int:
    """Ground-layer placements that touch nothing placed before them."""
    placed: set = set()
    islands = 0
    for cell in order:
        islands += cell[2] == 0 and not any(nb in placed for nb in face_neighbors(cell))
        placed.add(cell)
    return islands


@pytest.mark.parametrize("seed", range(4))
def test_feasibility_rules_match_oracle(seed):
    rng = np.random.default_rng([seed, 5])
    for _ in range(50):
        grid = random_grid(rng)
        for limit in range(5):
            assert list(check_overhang(grid, limit).details) == oracles.overhang_offenders(grid, limit)
            assert check_overhang(grid, limit) == oracles.check_overhang(grid, limit)
            assert remove_overhangs(grid, limit) == oracles.remove_overhangs(grid, limit)
            stack = limit + 1
            assert check_vertical_stack(grid, stack) == oracles.check_vertical_stack(grid, stack)
            for unsupported in (0, 2):
                assert truncate_stacks(grid, stack, unsupported) == oracles.truncate_stacks(
                    grid, stack, unsupported
                )


def rider_design(rng: np.random.Generator) -> tuple[list, set]:
    """Sparse random cells plus tall columns with a rider beside the top
    cell. The rider is braced, so it is never a stack offender, but
    truncating its column leaves it floating, and only the stack rewrite's
    interleaved overhang sweep removes it. The ground cell at the origin
    pins the design's bounding box to the grid. Returns (cells, riders)."""
    dims = tuple(int(rng.integers(lo, hi)) for lo, hi in ((3, 6), (3, 6), (4, 8)))
    cells = {tuple(c) for c in np.argwhere(rng.random(dims) < rng.uniform(0.0, 0.08)).tolist()}
    riders = set()
    for _ in range(int(rng.integers(1, 4))):
        i, j = int(rng.integers(1, dims[0] - 1)), int(rng.integers(1, dims[1] - 1))
        top = int(rng.integers(3, dims[2]))
        cells.update((i, j, k) for k in range(top + 1))
        di, dj = ((1, 0), (-1, 0), (0, 1), (0, -1))[int(rng.integers(4))]
        riders.add((i + di, j + dj, top))
    return sorted(cells | riders | {(0, 0, 0)}), riders


def feasibility_outcome(run, mesh: TriangleMesh, config: AssemblyConfig, handling: bool):
    try:
        grid, report = run(mesh, config, handling)
    except BlockplanError as exc:
        return type(exc).__name__, str(exc)
    return grid.to_json(), report.to_json()


def logged_actions(mesh: TriangleMesh, config: AssemblyConfig, handling: bool) -> list[dict]:
    """The modification log of ``run_feasibility``, after checking that its
    grid and report (or its error) match the orchestration oracle's."""
    ours = feasibility_outcome(run_feasibility, mesh, config, handling)
    assert ours == feasibility_outcome(oracles.run_feasibility, mesh, config, handling)
    return json.loads(ours[1])["modifications"] if isinstance(ours[1], bytes) else []


FEASIBILITY_DEMOS = (oversized_block_mesh, shelf_mesh, tee_mesh, table_mesh)


@pytest.mark.parametrize("seed", range(4))
def test_run_feasibility_matches_orchestration_oracle(seed):
    rng = np.random.default_rng([seed, 31])
    designs = [rider_design(rng) for _ in range(2)]
    cases = [(fit_to_workspace(FEASIBILITY_DEMOS[seed](), DEFAULT_WORKSPACE)[0], set())]
    cases += [(cell_design_mesh([(c, c) for c in cells]), riders) for cells, riders in designs]
    actions: set[str] = set()
    swept_riders = 0
    for mesh, riders in cases:
        for overhang, stack in itertools.product(range(4), range(1, 5)):
            config = AssemblyConfig(overhang_limit=overhang, stack_limit=stack)
            assert logged_actions(mesh, config, False) == []
            for entry in logged_actions(mesh, config, True):
                actions.add(entry["action"])
                if entry["action"] == "truncate_stacks":
                    swept_riders += len(riders & {tuple(c) for c in entry["removed"]})
    assert {"remove_overhangs", "truncate_stacks"} <= actions
    assert swept_riders > 0
    # one component short, each design fails its count and logs the rescale
    for (mesh, _), (cells, _) in zip(cases[1:], designs):
        config = AssemblyConfig(inventory=len(cells) - 1)
        assert logged_actions(mesh, config, False) == []
        assert logged_actions(mesh, config, True)[0]["action"] == "rescale"


def test_truncation_runs_the_overhang_sweep():
    # a four-cell column whose top carries a rider: cutting the column to two
    # cells strands the top cell and the rider, and only the overhang sweep
    # inside the stack rewrite removes them
    cells = [(0, 0, k) for k in range(4)] + [(1, 0, 3)]
    mesh = cell_design_mesh([(c, c) for c in cells])
    config = AssemblyConfig(overhang_limit=1, stack_limit=1)
    grid, report = run_feasibility(mesh, config)
    assert report.modifications == (
        {"action": "truncate_stacks", "removed": [[0, 0, 1], [0, 0, 2], [0, 0, 3], [1, 0, 3]]},
    )
    assert feasibility_outcome(oracles.run_feasibility, mesh, config, True) == (
        grid.to_json(),
        report.to_json(),
    )


def test_connectivity_sort_matches_oracle():
    rng = np.random.default_rng(17)
    unsequenceable = multi_island = 0
    for _ in range(600):
        grid = random_grid(rng)
        ours = outcome(connectivity_sort, grid)
        assert ours == outcome(oracles.connectivity_sort, grid)
        if ours and isinstance(ours[0], str):  # (error name, message)
            unsequenceable += ours[0] == "Unsequenceable"
        else:
            multi_island += ground_islands(ours) > 1
    # the seeded grids exercise both the error and the new-island search
    assert unsequenceable >= 100 and multi_island >= 100


def test_overhang_pass_guarantees_a_connected_sort():
    # run_feasibility and verify_report_consistency skip the sort on grids
    # that pass the overhang check; this is the fact they rely on
    rng = np.random.default_rng(23)
    cases = 0
    for _ in range(300):
        grid = random_grid(rng)
        for limit in range(4):
            for candidate in (grid, remove_overhangs(grid, limit)):
                if not candidate.occupied or check_overhang(candidate, limit).failed:
                    continue
                order = connectivity_sort(candidate)
                assert check_sequence_connectivity(order, candidate).passed
                cases += 1
    assert cases >= 1000


def test_simulation_matches_column_scan_oracle():
    rng = np.random.default_rng(29)
    passes = failures = 0
    for _ in range(300):
        grid = random_grid(rng)
        if not grid.occupied:
            continue
        cells = sorted(grid.occupied)
        orders = [AssemblySequence(tuple(cells[n] for n in rng.permutation(len(cells))))]
        if not isinstance(outcome(connectivity_sort, grid)[0], str):
            orders.append(connectivity_sort(grid))
        for order in orders:
            for plane in (65.0, 20.0):  # 20 cm fails the plane clearance on tall grids
                config = AssemblyConfig(movement_plane_z=plane)
                report = simulate_assembly(order, grid, config)
                assert report == oracles.simulate_assembly(order, grid, config)
                # the connectivity check is the same replay, stopped at its first unsupported step
                unsupported = tuple(step.cell for step in report.steps if not step.supported)
                assert check_sequence_connectivity(order, grid).details == unsupported[:1]
                passes += report.ok
                failures += not report.ok
    assert passes >= 100 and failures >= 100


# --- artifact writers and readers ----------------------------------------------


def moved(grid: OccupancyGrid, rng: np.random.Generator) -> OccupancyGrid:
    """``grid`` at a random origin and cell size, so floats of every length
    (and a signed zero) reach the writers."""
    choices = (rng.uniform(-50.0, 50.0), -0.0, 1e-7, 12.5)
    origin = tuple(float(rng.choice(choices)) for _ in range(3))
    return OccupancyGrid(GridSpec(origin, float(rng.uniform(0.5, 20.0)), grid.spec.dims),
                         grid.occupied)


def test_artifact_writers_match_the_json_module():
    rng = np.random.default_rng(37)
    flags = set()
    for _ in range(200):
        grid = moved(random_grid(rng), rng)
        assert grid.to_json() == oracles.grid_json(grid)
        cells = sorted(grid.occupied)
        order = AssemblySequence(tuple(cells[n] for n in rng.permutation(len(cells))))
        assert order.to_json() == oracles.sequence_json(order)
        if not cells:
            continue
        for plane in (65.0, 20.0):
            report = simulate_assembly(order, grid, AssemblyConfig(movement_plane_z=plane))
            assert report.to_json() == oracles.simulation_json(report)
            flags |= {(report.first_failure is None, *astuple(step)[1:]) for step in report.steps}
    # a null and an int first failure, and each flag false somewhere
    assert {f[0] for f in flags} == {True, False}
    assert all({f[n] for f in flags} == {True, False} for n in range(1, 4))


def test_artifact_writers_match_the_json_module_on_empty_lists():
    grid = OccupancyGrid(GridSpec((0.0, -0.0, 1.5), 10.0, (1, 2, 3)), frozenset())
    assert grid.to_json() == oracles.grid_json(grid)
    assert AssemblySequence(()).to_json() == oracles.sequence_json(AssemblySequence(()))
    report = SimulationReport(True, (), None)
    assert report.to_json() == oracles.simulation_json(report)
    path = Toolpath((), MotionParams(2.0, 1.0))
    assert emit_toolpath(path) == oracles.emit_toolpath_json(path)


def test_toolpath_writers_print_each_signed_zero_as_itself():
    # the two moves are equal (0.0 == -0.0) but print differently, and each repeats
    zero, negative = move(0.0, 0.0, 0.0), move(-0.0, -0.0, -0.0)
    assert zero == negative
    grip = Command(CommandOp.GRIP)
    path = Toolpath((zero, negative, grip, negative, zero, grip), MotionParams(2.0, 1.0))
    assert emit_toolpath(path) == oracles.emit_toolpath_json(path)
    script = emit_toolpath(path, "robot_script").decode().splitlines()
    assert script == [
        "MOVE 0.000 0.000 0.000 2.000 1.000", "MOVE -0.000 -0.000 -0.000 2.000 1.000", "GRIP",
        "MOVE -0.000 -0.000 -0.000 2.000 1.000", "MOVE 0.000 0.000 0.000 2.000 1.000", "GRIP",
    ]
    assert emit_toolpath(parse_toolpath(emit_toolpath(path))) == emit_toolpath(path)


@pytest.mark.parametrize("seed", range(3))
def test_planned_toolpath_round_trips_through_the_json_module(seed):
    rng = np.random.default_rng([seed, 41])
    grid = random_grid(rng)
    while check_overhang(grid, 0).failed or not grid.occupied:
        grid = remove_overhangs(random_grid(rng), 0)
    grid = OccupancyGrid(GridSpec((0.0, -0.0, 0.0), 5.0, grid.spec.dims), grid.occupied)
    path = plan_toolpath(connectivity_sort(grid), grid, AssemblyConfig(), MotionParams(2.0, 1.0))
    emitted = emit_toolpath(path)
    assert emitted == oracles.emit_toolpath_json(path)
    parsed = parse_toolpath(emitted)  # every command its own object
    assert parsed == path and emit_toolpath(parsed) == emitted
    for fmt in ("json", "robot_script"):
        assert emit_toolpath(parsed, fmt) == emit_toolpath(path, fmt)


# signed zeros, subnormals, and finite values whose distance overflows to inf
_DURATION_COORDINATES = (0.0, -0.0, 1.0, -1.0, 2.5, 1e-3, 1e3, 5e-324, 1e308, -1e308)


def random_toolpath(rng: random.Random) -> Toolpath:
    """Commands drawn from a small pool of objects, so (from, to) pairs repeat
    as a planned path's fetch legs do, mixed with moves of their own."""
    def point() -> Command:
        far = rng.random() < 0.05
        return move(*(rng.choice(_DURATION_COORDINATES[: None if far else 7]) for _ in range(3)))

    pool = [point() for _ in range(rng.randint(1, 5))]
    pool += [Command(CommandOp.GRIP), Command(CommandOp.RELEASE)]
    commands = [rng.choice(pool) if rng.random() < 0.7 else point() for _ in range(rng.randint(0, 30))]
    v, a = (rng.choice((1e-3, 0.5, 1.0, 2.0, 7.5)) for _ in range(2))
    return Toolpath(tuple(commands), MotionParams(v, a))


def duration_outcome(estimate, path: Toolpath, dwell_s: float, unit_scale: float):
    """The estimate's exact bits, or its error's type and message."""
    try:
        return estimate(path, dwell_s, unit_scale).hex()
    except BlockplanError as exc:
        return type(exc), str(exc)


def test_duration_matches_the_per_segment_walk_bit_for_bit():
    rng = random.Random(43)
    outcomes = []
    for _ in range(600):
        path = random_toolpath(rng)
        dwell_s = rng.choice((0.0, -0.0, 0.5, 1.25))
        unit_scale = rng.choice((1.0, 1.0, 2.0, 0.1, 1e-322))
        ours = duration_outcome(estimate_duration, path, dwell_s, unit_scale)
        assert ours == duration_outcome(oracles.estimate_duration, path, dwell_s, unit_scale)
        outcomes.append(ours)
    # non-finite totals and underflowed limits are refused, and 0.0 sums are met
    assert any("not finite" in o[1] for o in outcomes if type(o) is tuple)
    assert any("underflow" in o[1] for o in outcomes if type(o) is tuple)
    assert (0.0).hex() in outcomes


@pytest.mark.parametrize("seed", range(3))
def test_duration_of_planned_paths_matches_the_per_segment_walk(seed):
    rng = np.random.default_rng([seed, 43])
    grid = remove_overhangs(random_grid(rng), 0)
    while not grid.occupied:
        grid = remove_overhangs(random_grid(rng), 0)
    config = AssemblyConfig(source=(-0.0, -20.0, 0.0))
    path = plan_toolpath(connectivity_sort(grid), grid, config, MotionParams(2.0, 1.0))
    for dwell_s, unit_scale in ((0.5, 1.0), (0.0, 3.0), (-0.0, 0.25)):
        assert estimate_duration(path, dwell_s, unit_scale).hex() == (
            oracles.estimate_duration(path, dwell_s, unit_scale).hex()
        )


_BASE_GRID = {"cell_size_cm": 10.0, "origin_cm": [0, 0, 0], "dims": [3, 3, 3]}
# each is the grid's occupied list and the sequence's cells
_CELL_LISTS = {
    "valid": [[0, 1, 2], [2, 2, 2], [1, 0, 0]],
    "empty": [],
    "true": [[0, 0, 0], [True, 0, 0]],
    "false-last": [[0, 0, 0], [1, 1, False]],
    "fraction": [[1.5, 0, 0]],
    "whole-float": [[2.0, 0, 0], [0, 2.0, 1]],
    "string": [[0, "3", 0]],
    "string-cell": ["abc"],
    "empty-string-cell": [""],
    "nested": [[[0], 0, 0]],
    "nested-cell": [[[0, 0, 0]]],
    "pair": [[0, 0], [1, 1, 1]],
    "quad": [[0, 0, 0, 0]],
    "pair-then-true": [[0, 0], [True, 1, 1]],
    "int-cell": [[0, 0, 0], 5],
    "null-cell": [None],
    "null": None,
    "number": 7,
    "string-list": "abc",
    "dict": {"abc": 1},
    "empty-dict": {},
    "dict-cell": [{"a": 1, "b": 2, "c": 3}],
    "huge": [[10**400, 0, 0]],
    "negative": [[0, -1, 0]],
    "outside": [[5, 0, 0], [0, 7, 0], [0, 0, 9], [4, 4, 4], [1, 1, 1]],
    "infinity": "[[1e400, 0, 0]]",
    "nan": "[[NaN, 0, 0]]",
}


def read_outcome(read, data: str):
    try:
        return read(data)
    except SchemaError as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(_CELL_LISTS))
def test_bulk_readers_match_the_per_value_readers(case):
    cells = _CELL_LISTS[case]
    text = cells if case in ("infinity", "nan") else json.dumps(cells)
    grid = json.dumps(_BASE_GRID)[:-1] + f', "occupied": {text}}}'
    sequence = f'{{"cells": {text}}}'
    outcomes = [read_outcome(OccupancyGrid.from_json, grid),
                read_outcome(AssemblySequence.from_json, sequence)]
    assert outcomes == [read_outcome(oracles.grid_from_json, grid),
                        read_outcome(oracles.sequence_from_json, sequence)]
    if case in ("valid", "whole-float", "empty", "empty-dict"):
        assert not any(isinstance(outcome, str) for outcome in outcomes)


# --- parsing -------------------------------------------------------------------

_SMALL = combine_meshes([box_mesh((0, 0, 0), (2, 1, 1)), box_mesh((0, 0, 1), (1, 1, 3))])
_STL = serialize_mesh(_SMALL, MeshFormat.STL_ASCII)
_OBJ = serialize_mesh(_SMALL, MeshFormat.OBJ)
_TRIANGLE_OBJ = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nv 0 0 1\n"


def dense_sphere_files() -> dict[str, bytes]:
    """Moved icospheres of 320, 1280 and 5120 triangles as OBJ and ASCII STL,
    like the benchmark's dense_mesh inputs: long coordinate reprs, and each
    ASCII STL vertex repeated on about six lines."""
    rng = np.random.default_rng(11)
    files = {}
    for subdivisions in (2, 3, 4):
        sphere = icosphere(15.0, subdivisions=subdivisions)
        mesh = TriangleMesh(
            sphere.vertices + rng.uniform(-40.0, 40.0, 3),
            sphere.triangles[rng.permutation(sphere.triangle_count)],
        )
        for fmt in (MeshFormat.OBJ, MeshFormat.STL_ASCII):
            files[f"s{mesh.triangle_count}-{fmt.value}"] = serialize_mesh(mesh, fmt)
    return files


PARSE_CASES = {
    **{
        f"{kind}-break-{brk.encode().hex()}": seed.replace(b"\n", brk.encode())
        for brk in ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
        for kind, seed in (("stl", _STL), ("obj", _OBJ))
    },
    **{
        f"{kind}-space-{gap.encode().hex()}": seed.replace(b" ", gap.encode())
        for gap in ("\t", "\x1f", "\xa0")
        for kind, seed in (("stl", _STL), ("obj", _OBJ))
    },
    "mixed-breaks": b"solid x\r\nfacet\r\rvertex 0 0 0\x0bvertex 1 0 0\xe2\x80\xa8vertex 0 1 0\xc2\x85endsolid\n",
    "vertex-case": _STL.replace(b"vertex", b"VERTEX", 5).replace(b"vertex", b"Vertex", 5),
    "vertex-extra-tokens": _STL.replace(b"vertex 0.0", b"vertex 0.0 1.0 2.0 3.0 junk"),
    "vertex-not-first": _STL.replace(b"vertex", b"x vertex", 1),
    "vertex-glued": _STL.replace(b"vertex", b"vertex1", 1),
    "stl-numbers": _STL.replace(b"1.0", b"1_0", 2).replace(b"0.0", b"+1", 2),
    "stl-infinity": _STL.replace(b"3.0", b"infinity", 1),
    "stl-invalid-utf8": _STL.replace(b"facet", b"fa\xffcet\xc3", 3),
    "stl-invalid-utf8-in-number": _STL.replace(b"2.0", b"2.\xff0", 1),
    "stl-short-vertex": _STL.replace(b"vertex 0.0 0.0 0.0", b"vertex 0.0 0.0", 1),
    "stl-bad-then-short": _STL.replace(b"vertex 0.0 0.0 0.0", b"vertex a 0.0 0.0", 1).replace(
        b"vertex 1.0", b"vertex", 1
    ),
    "stl-count": _STL.replace(b"vertex", b"vertex 0 0 0\nvertex", 1),
    "obj-quads": _TRIANGLE_OBJ + b"f 1 2 4 3\nf 1 2 5\n",
    "obj-ngon": _TRIANGLE_OBJ + b"f 1 2 4 3 5\n# comment\nf 5 4 3 2 1\n",
    "obj-negative": _TRIANGLE_OBJ + b"f -1 -2 -3\nf -5 1 -4\n",
    "obj-slashed": _TRIANGLE_OBJ + b"f 1/1/1 2//2 3/3 4/\n",
    "obj-forward": b"v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n",
    "obj-negative-past-start": _TRIANGLE_OBJ + b"f -6 1 2\n",
    "obj-interleaved-negative": b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 1 1 0\nf -3 -2 -1\n",
    "obj-zero": _TRIANGLE_OBJ + b"f 1 0 2\n",
    "obj-bad-token": _TRIANGLE_OBJ + b"f 1 x 2\n",
    "obj-empty-head": _TRIANGLE_OBJ + b"f /1 2 3\n",
    "obj-huge-index": _TRIANGLE_OBJ + b"f 1 2 " + b"9" * 30 + b"\n",
    "obj-huge-negative": _TRIANGLE_OBJ + b"f 1 2 -" + b"9" * 30 + b"\n",
    "obj-short-face-with-zero": _TRIANGLE_OBJ + b"f 0 1\n",
    "obj-lone-f": _TRIANGLE_OBJ + b"f\n",
    "obj-numbers": b"v 1_0 +1 0\nv 0 0 0\nv 0 1 0\nf 1 2 3\n",
    "obj-infinity": b"v 0 0 infinity\nv 0 0 0\nv 0 1 0\nf 1 2 3\n",
    "obj-nan": b"v nan 0 0\nv 0 0 0\nv 0 1 0\nf 1 2 3\n",
    "obj-extra-coordinates": b"v 0 0 0 1\nv 1 0 0 1 0.5 0.5\nv 0 1 0\nf 1 2 3\n",
    "obj-keyword-lookalikes": _TRIANGLE_OBJ + b"vn 0 0 1\nvt 0 0\nfo 1 2 3\nV 1 1 1\nF 1 2 3\nf 1 2 3\n",
    "obj-indented": b"  v 0 0 0\n\tv 1 0 0\n\x0cv 0 1 0\n  f 1 2 3\n",
    "obj-bad-f-before-bad-v": _TRIANGLE_OBJ + b"f 1 2 9\nv 1 2\nf 1 2 3\n",
    "obj-bad-v-before-bad-f": b"v 0 0 0\nv 1 a 0\nv 0 1 0\nf 1 2 9\n",
    "obj-short-v": b"v 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "obj-invalid-utf8": _OBJ.replace(b"mesh", b"m\xffesh"),
}


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parser_matches_line_loop_oracle(name):
    data = PARSE_CASES[name]
    for hint in (None, "stl", "obj", *MeshFormat):
        assert oracles.parse_outcome(parse_mesh, data, hint) == oracles.parse_outcome(
            oracles.parse_mesh, data, hint
        )


@pytest.mark.parametrize("name", sorted(dense_sphere_files()))
def test_parser_matches_line_loop_oracle_on_dense_spheres(name):
    data = dense_sphere_files()[name]
    hint = "obj" if name.endswith("obj") else "stl"
    ours = oracles.parse_outcome(parse_mesh, data, hint)
    assert len(ours) == 3  # a mesh, not an error
    assert ours == oracles.parse_outcome(oracles.parse_mesh, data, hint)


FIRST_BAD_LINE = {
    "obj-bad-f-before-bad-v": "line 6: face index 9 out of range",
    "obj-bad-v-before-bad-f": "line 2: non-numeric coordinate",
    "obj-forward": "line 3: face index 3 out of range",
    "obj-huge-index": "line 6: face index " + "9" * 30 + " out of range",
    "obj-short-face-with-zero": "line 6: face needs at least 3 vertices",
    "obj-empty-head": "line 6: bad face index '/1'",
    "stl-bad-then-short": "line 4: non-numeric vertex coordinate",
    "stl-count": "vertex count is not a multiple of 3",
}


@pytest.mark.parametrize("name", sorted(FIRST_BAD_LINE))
def test_parser_errors_name_the_first_bad_line(name):
    with pytest.raises(MalformedFile) as caught:
        parse_mesh(PARSE_CASES[name], "obj" if name.startswith("obj") else "stl")
    assert str(caught.value) == FIRST_BAD_LINE[name]


# Tokens at the edges of the one-call numpy conversions: forms only Python's
# float() and int() read, non-finite numbers, slashed, relative, zero, huge and
# int64-limit face indices, and tokens that are no number at all.
_COORDINATES = ("0", "-2.5", "1e3", "+7", "1_0", "\u0663", "\uff13.5", "\u0661\u0662")
_ODD_COORDINATES = ("nan", "inf", "-infinity", "1e400", "0x10", "x", "1__0")
_ODD_INDICES = (
    "0", "x", "/5", "99999999999999999999", "9223372036854775807", "-9223372036854775808",
    "1.5", "\u0663", "1_0",
)


def _edge_coordinates(rng: random.Random) -> str:
    """Three coordinates, now and then two or five, rarely an odd one."""
    count = rng.choices((2, 3, 5), (1, 16, 3))[0]
    odd = rng.random() < 0.04
    return " ".join(rng.choice(_ODD_COORDINATES if odd else _COORDINATES) for _ in range(count))


def _edge_index(rng: random.Random, defined: int) -> str:
    """A face token: an absolute or relative index, perhaps with texture and
    normal indices, rarely an odd token."""
    if rng.random() < 0.03 or not defined:
        return rng.choice(_ODD_INDICES)
    index = rng.randint(1, defined)
    head = str(index if rng.random() < 0.7 else index - defined - 1)
    return head + rng.choice(("", "", "/1/2", "//3", "/4"))


def edge_case_file(fmt: str, seed: int) -> bytes:
    """An ASCII STL or an OBJ of a few dozen lines that runs into the
    conversions' edges; OBJ lines interleave v and f records."""
    rng = random.Random(seed)
    if fmt == "stl":
        lines = ["solid edge"]
        for _ in range(rng.randint(1, 8)):
            lines += ["facet normal 0 0 1", "outer loop"]
            lines += [f"vertex {_edge_coordinates(rng)}" for _ in range(3)]
            lines += ["endloop", "endfacet"]
        return "\n".join(lines + ["endsolid edge"]).encode()
    lines, defined = [], 0
    for _ in range(rng.randint(3, 30)):
        if rng.random() < 0.5:
            lines.append(f"v {_edge_coordinates(rng)}")
            defined += 1
        else:
            size = rng.choices((2, 3, 4, 6), (1, 12, 4, 2))[0]
            lines.append("f " + " ".join(_edge_index(rng, defined) for _ in range(size)))
    return "\n".join(lines).encode()


@pytest.mark.parametrize("fmt", ["obj", "stl"])
def test_parser_matches_line_loop_oracle_at_the_conversion_edges(fmt):
    meshes = 0
    for seed in range(300):
        data = edge_case_file(fmt, seed)
        ours = oracles.parse_outcome(parse_mesh, data, fmt)
        assert ours == oracles.parse_outcome(oracles.parse_mesh, data, fmt), data
        meshes += len(ours) == 3
    assert 30 < meshes < 270  # both meshes and errors are compared


def winding_tangle(rng: np.random.Generator) -> np.ndarray:
    """A sphere's triangles with flipped caps, holes (edges of one triangle)
    and fins (edges of three), in shuffled order."""
    sphere = icosphere(10.0, subdivisions=int(rng.integers(1, 3)))
    tris = sphere.triangles.copy()
    centroids = sphere.vertices[tris].mean(axis=1)
    for _ in range(int(rng.integers(1, 4))):
        cap = centroids @ rng.normal(size=3) > rng.uniform(0.0, 10.0)
        tris[cap] = tris[cap, ::-1]
    tris = tris[rng.random(len(tris)) > 0.05]
    hosts = tris[rng.random(len(tris)) < 0.1]
    fins = np.stack([hosts[:, 1], hosts[:, 0], rng.integers(0, sphere.vertex_count, len(hosts))], 1)
    fins = fins[(fins[:, 2] != fins[:, 0]) & (fins[:, 2] != fins[:, 1])]
    tris = np.concatenate([tris, fins])
    return tris[rng.permutation(len(tris))]


@pytest.mark.parametrize("seed", range(20))
def test_unify_windings_matches_oracle_on_holes_fins_and_flipped_caps(seed):
    tris = winding_tangle(np.random.default_rng([seed, 7]))
    ours, flipped, _manifold = mesh_io._unify_windings(tris)
    theirs, theirs_flipped = oracles.unify_windings(tris)
    np.testing.assert_array_equal(ours, theirs)
    assert flipped == theirs_flipped


# words of the prefixes, the prefixes whole, and words that start like one
SCAFFOLD_WORDS = sorted(
    {w for prefix in _SCAFFOLD_PREFIXES for w in prefix.split()}
    | set(_SCAFFOLD_PREFIXES)
    | {"apple", "thee", "makes", "ann", "i'", "assembled", "box", "table", "to"}
)


def test_scaffold_match_strips_what_the_restart_loop_strips():
    rng = random.Random(18)
    for _ in range(20_000):
        words = rng.choices(SCAFFOLD_WORDS, k=rng.randrange(8))
        phrase = " ".join(words) + ("\n" if rng.random() < 0.05 else "")
        assert phrase[_SCAFFOLD.match(phrase).end() :] == oracles.strip_scaffolding(phrase)
