"""The numpy weld, winding and voxelization, the feasibility rules and the
connectivity-aware sort against the slow oracles.

Every case compares exactly: repaired vertices and triangles, the repair
summary, and the occupied cells of the fitted mesh. Cases are seeded and
cover cell designs, jittered and duplicated triangle soups, open spheres
and randomly flipped Moebius strips at several cell sizes, plus the four
demo meshes and icospheres. Every grid matches the per-cell winding-number
oracle; the closed ones (cell designs, demos, icospheres) also match the
parity-ray oracle. Random occupancy grids hold the overhang and
stack checks, both rewrites and the placement order (or its error) to the
old per-layer searches, and random placement orders hold the build
simulation to the old column scan.
"""
from __future__ import annotations

import numpy as np
import pytest

from blockplan.config import AssemblyConfig
from blockplan.discretizer import (
    GridSpec,
    OccupancyGrid,
    Workspace,
    build_grid,
    fit_to_workspace,
    voxelize,
)
from blockplan.errors import BlockplanError
from blockplan.feasibility import (
    _overhang_offenders,
    check_overhang,
    check_vertical_stack,
    remove_overhangs,
    truncate_stacks,
)
from blockplan.mesh_io import (
    DEFAULT_WELD_TOLERANCE,
    TriangleMesh,
    bounding_box,
    is_manifold,
    repair_mesh,
)
from blockplan.sequencer import (
    AssemblySequence,
    check_sequence_connectivity,
    connectivity_sort,
    face_neighbors,
)
from blockplan.validator import simulate_assembly
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
from tests import oracles

CELL_SIZES = (2.5, 5.0, 10.0)
# small enough that the scalar oracle stays fast at 2.5 cm cells
WORKSPACE = Workspace((25.0, 20.0, 25.0))


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
    assert ours.repair.to_dict() == theirs.repair.to_dict()
    return ours


def assert_same_grid(
    mesh: TriangleMesh, cell: float, workspace: Workspace, closed: bool = True
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
    assert_same_grid(repaired, 10.0, Workspace())


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_icospheres_match_oracle(subdivisions):
    rng = np.random.default_rng(subdivisions)
    sphere = icosphere(14.0, (20.0, 20.0, 20.0), subdivisions)
    repaired = assert_same_repair(as_soup(sphere, rng, flip=0.1))
    for cell in CELL_SIZES[1:]:
        assert_same_grid(repaired, cell, Workspace())


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
        # without a repair summary the test runs on the triangles themselves
        assert is_manifold(TriangleMesh(repaired.vertices, repaired.triangles)) == expected


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
            assert _overhang_offenders(grid, limit) == oracles.overhang_offenders(grid, limit)
            assert check_overhang(grid, limit) == oracles.check_overhang(grid, limit)
            assert remove_overhangs(grid, limit) == oracles.remove_overhangs(grid, limit)
            stack = limit + 1
            assert check_vertical_stack(grid, stack) == oracles.check_vertical_stack(grid, stack)
            for unsupported in (0, 2):
                assert truncate_stacks(grid, stack, unsupported) == oracles.truncate_stacks(
                    grid, stack, unsupported
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
                passes += report.ok
                failures += not report.ok
    assert passes >= 100 and failures >= 100
