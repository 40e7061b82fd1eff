"""Workspace fitting, grid construction, and voxelization."""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from blockplan.config import AssemblyConfig
from blockplan.discretizer import (
    GridSpec,
    OccupancyGrid,
    build_grid,
    fit_to_workspace,
    voxelize,
)
from blockplan.errors import EmptyMesh, SchemaError
from blockplan.mesh_io import TriangleMesh, bounding_box, repair_mesh
from blockplan.shapes import box_mesh, combine_meshes, icosphere, tee_mesh

WORKSPACE = AssemblyConfig().workspace
GOLDEN = Path(__file__).parent / "golden"


def sampled_inside_fraction(spec: GridSpec, cell, inside, per_axis: int = 4) -> float:
    """Fraction of a regular corner-inclusive sample lattice inside the solid."""
    lo = np.asarray(spec.origin) + np.asarray(cell) * spec.cell_size
    hi = lo + spec.cell_size
    axes = [np.linspace(lo[a], hi[a], per_axis) for a in range(3)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return sum(1 for p in points if inside(p)) / len(points)


def all_cells(spec: GridSpec):
    nx, ny, nz = spec.dims
    return [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]


# --- fit_to_workspace ---------------------------------------------------------


def test_fit_halves_double_size_mesh():
    mesh = box_mesh((0.0, 0.0, 0.0), (120.0, 100.0, 120.0))
    fitted, scale = fit_to_workspace(mesh, WORKSPACE)
    assert scale == 0.5
    box = bounding_box(fitted)
    assert box.min_corner == (0.0, 0.0, 0.0)
    assert box.max_corner == (60.0, 50.0, 60.0)


def test_fit_never_upscales_by_default():
    mesh = box_mesh((5.0, 5.0, 5.0), (35.0, 35.0, 35.0))
    fitted, scale = fit_to_workspace(mesh, WORKSPACE)
    assert scale == 1.0
    box = bounding_box(fitted)
    assert box.min_corner == (0.0, 0.0, 0.0)  # translated only
    assert box.max_corner == (30.0, 30.0, 30.0)


def test_fit_uses_most_constraining_axis():
    mesh = box_mesh((0.0, 0.0, 0.0), (90.0, 40.0, 60.0))
    fitted, scale = fit_to_workspace(mesh, WORKSPACE)
    assert scale == pytest.approx(2.0 / 3.0, rel=1e-12)
    box = bounding_box(fitted)
    assert box.max_corner[0] == pytest.approx(60.0)
    assert box.max_corner[1] == pytest.approx(80.0 / 3.0)
    assert box.max_corner[2] == pytest.approx(40.0)


def test_fit_with_uncapped_upscaling():
    mesh = box_mesh((0.0, 0.0, 0.0), (30.0, 30.0, 30.0))
    _, scale = fit_to_workspace(mesh, WORKSPACE, max_scale=None)
    assert scale == pytest.approx(5.0 / 3.0)
    _, capped = fit_to_workspace(mesh, WORKSPACE, max_scale=1.2)
    assert capped == 1.2


def test_fit_ignores_zero_extent_axes():
    verts = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
    flat = TriangleMesh(verts, np.array([[0, 1, 2]]))
    _, scale = fit_to_workspace(flat, WORKSPACE)
    assert scale == 1.0


def test_fit_empty_mesh():
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    with pytest.raises(EmptyMesh):
        fit_to_workspace(empty, WORKSPACE)


@pytest.mark.parametrize("workspace", [
    (0.0, 50.0, 60.0),
    (60.0, -1.0, 60.0),
    (60.0, 50.0, float("nan")),
])
def test_fit_refuses_a_workspace_without_positive_extents(workspace):
    with pytest.raises(ValueError, match="workspace extents must be positive"):
        fit_to_workspace(tee_mesh(), workspace)


@pytest.mark.parametrize("call", [
    # a box 500 cm tall would be left unscaled in a workspace with no height
    lambda: fit_to_workspace(box_mesh((0, 0, 0), (10, 10, 500)), (60.0, 50.0)),
    # a two-entry grid would take the cell (0, 0, 7) and fail to write it
    lambda: GridSpec((0.0, 0.0), 10.0, (2, 2)),
    # a two-entry source would reach planning and fail there with an IndexError
    lambda: AssemblyConfig(source=(-15.0, -15.0)),
    lambda: AssemblyConfig(workspace=(60.0, 50.0, 60.0, 1.0)),
], ids=["fit", "grid", "source", "workspace"])
def test_triples_of_the_wrong_length_are_refused(call):
    with pytest.raises(ValueError, match="3 entries|three in number"):
        call()


# --- build_grid -----------------------------------------------------------------


@pytest.mark.parametrize(
    "extent, dims",
    [
        ((60.0, 50.0, 60.0), (6, 5, 6)),
        ((10.0, 10.0, 10.0), (1, 1, 1)),
        ((10.1, 10.0, 10.0), (2, 1, 1)),
        ((30.0, 0.0, 9.9), (3, 1, 1)),
    ],
)
def test_build_grid_dims(extent, dims):
    corner = tuple(e for e in extent)
    mesh_box = bounding_box(
        TriangleMesh(
            np.array([[0.0, 0.0, 0.0], list(corner), [0.0, 0.0, 0.0]]),
            np.empty((0, 3), dtype=np.int64),
        )
    )
    spec = build_grid(mesh_box, 10.0)
    assert spec.dims == dims
    assert spec.origin == (0.0, 0.0, 0.0)


def test_build_grid_rejects_bad_cell_size():
    mesh = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        build_grid(bounding_box(mesh), 0.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0, 0.0), 10.0, (0, 1, 1))
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (3, 3, 3))
    assert spec.cell_count == 27
    assert spec.contains((2, 2, 2))
    assert not spec.contains((3, 0, 0))


@pytest.mark.parametrize(
    "origin, cell_size, dims",
    [
        ((0.0, float("nan"), 0.0), 10.0, (1, 1, 1)),
        ((float("-inf"), 0.0, 0.0), 10.0, (1, 1, 1)),
        ((0.0, 0.0, 0.0), float("nan"), (1, 1, 1)),
        ((0.0, 0.0, 0.0), float("inf"), (1, 1, 1)),
        ((0.0, 0.0, 0.0), 1e308, (2, 1, 1)),  # the far corner overflows
        ((1e308, 0.0, 0.0), 1e308, (1, 1, 1)),
    ],
)
def test_grid_spec_rejects_non_finite_geometry(origin, cell_size, dims):
    with pytest.raises(ValueError):
        GridSpec(origin, cell_size, dims)


# --- voxelize --------------------------------------------------------------------


def test_voxelize_single_cell_cube():
    mesh = repair_mesh(box_mesh((0.0, 0.0, 0.0), (10.0, 10.0, 10.0)))
    grid = voxelize(mesh, build_grid(bounding_box(mesh), 10.0))
    assert grid.occupied == {(0, 0, 0)}


def test_voxelize_long_box_three_cells():
    mesh = repair_mesh(box_mesh((0.0, 0.0, 0.0), (30.0, 10.0, 10.0)))
    spec = build_grid(bounding_box(mesh), 10.0)
    grid = voxelize(mesh, spec)
    assert grid.occupied == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}
    # cross-check with the sampling oracle: box fills every cell completely
    for cell in all_cells(spec):
        frac = sampled_inside_fraction(
            spec, cell, lambda p: all(0 <= p[a] <= (30, 10, 10)[a] for a in range(3))
        )
        assert frac == 1.0 and cell in grid.occupied


def test_voxelize_interior_cell_needs_no_watertight_mesh():
    # 3x3x3 solid: the center cell touches no surface and is found by the
    # interior rule alone, which still finds it with one triangle removed.
    solid = repair_mesh(box_mesh((0.0, 0.0, 0.0), (30.0, 30.0, 30.0)))
    spec = build_grid(bounding_box(solid), 10.0)
    assert voxelize(solid, spec).occupied == set(all_cells(spec))

    open_mesh = repair_mesh(
        TriangleMesh(solid.vertices, solid.triangles[:-1]), weld_tolerance=0.0
    )
    assert open_mesh.repair.manifold is False
    assert voxelize(open_mesh, spec).occupied == set(all_cells(spec))


@pytest.mark.parametrize("cell, count", [(10.0, 27), (5.0, 184), (2.5, 1256)])
def test_open_sphere_voxelizes_like_the_closed_one(cell, count):
    # the parity ray ran on closed meshes only: 26 / 152 / 656 cells here
    sphere = icosphere(15.0, (20.0, 20.0, 20.0), subdivisions=3)
    opened = TriangleMesh(sphere.vertices, sphere.triangles[1:])
    grids = []
    for mesh in (sphere, opened):
        fitted, _ = fit_to_workspace(repair_mesh(mesh), WORKSPACE)
        grids.append(voxelize(fitted, build_grid(bounding_box(fitted), cell)).occupied)
    assert len(grids[0]) == count
    assert grids[1] == grids[0]


def test_overlapping_boxes_fill_their_overlap():
    # two closed boxes sharing x in [20, 50]: even-odd parity left (3, 1, 1)
    # empty, where a ray from its center crosses both boxes' walls
    mesh = repair_mesh(combine_meshes([
        box_mesh((0.0, 0.0, 0.0), (50.0, 30.0, 30.0)),
        box_mesh((20.0, 0.0, 0.0), (70.0, 30.0, 30.0)),
    ]))
    spec = build_grid(bounding_box(mesh), 10.0)
    assert spec.dims == (7, 3, 3)
    assert voxelize(mesh, spec).occupied == set(all_cells(spec))


def test_voxelize_sphere_matches_sampling_oracle():
    center = np.array([20.0, 20.0, 20.0])
    radius = 15.0
    mesh = repair_mesh(icosphere(radius, tuple(center), subdivisions=3))
    assert mesh.repair.manifold is True
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (4, 4, 4))
    grid = voxelize(mesh, spec)

    def inside(p):
        return float(np.linalg.norm(p - center)) < radius

    for cell in all_cells(spec):
        frac = sampled_inside_fraction(spec, cell, inside)
        if frac >= 0.05:
            assert cell in grid.occupied, (cell, frac)
        elif frac == 0.0:
            assert cell not in grid.occupied, (cell, frac)


def test_voxelize_translation_by_whole_cells_shifts_indices():
    mesh = repair_mesh(box_mesh((2.5, 2.5, 2.5), (27.5, 17.5, 7.5)))
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (3, 2, 1))
    base = voxelize(mesh, spec)
    moved = mesh.with_vertices(mesh.vertices + np.array([10.0, 0.0, 0.0]))
    shifted_spec = GridSpec((0.0, 0.0, 0.0), 10.0, (4, 2, 1))
    shifted = voxelize(moved, shifted_spec)
    assert shifted.occupied == {(i + 1, j, k) for i, j, k in base.occupied}


def test_voxelize_monotone_under_containment():
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (3, 2, 2))
    inner = voxelize(repair_mesh(box_mesh((5.0, 5.0, 5.0), (25.0, 15.0, 15.0))), spec)
    outer = voxelize(repair_mesh(box_mesh((0.0, 0.0, 0.0), (30.0, 20.0, 20.0))), spec)
    assert inner.occupied <= outer.occupied


def test_voxelize_touching_face_claims_both_cells():
    # a box whose face lies exactly on the cell boundary plane x = 10
    mesh = repair_mesh(box_mesh((10.0, 2.0, 2.0), (18.0, 8.0, 8.0)))
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (2, 1, 1))
    grid = voxelize(mesh, spec)
    assert grid.occupied == {(0, 0, 0), (1, 0, 0)}


def test_voxelize_is_deterministic():
    mesh = repair_mesh(icosphere(12.0, (15.0, 15.0, 15.0), subdivisions=2))
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (3, 3, 3))
    first = voxelize(mesh, spec)
    second = voxelize(mesh, spec)
    assert first.occupied == second.occupied
    assert first.to_json() == second.to_json()


# --- OccupancyGrid --------------------------------------------------------------


def test_grid_rejects_out_of_range_cells():
    with pytest.raises(ValueError):
        OccupancyGrid(GridSpec((0.0, 0.0, 0.0), 10.0, (2, 2, 2)), frozenset({(2, 0, 0)}))


def test_grid_document_names_its_first_outside_cell():
    doc = {"cell_size_cm": 10.0, "origin_cm": [0, 0, 0], "dims": [3, 3, 3],
           "occupied": [[0, 0, 0], [5, 0, 0], [0, 7, 0]]}
    with pytest.raises(SchemaError, match=re.escape("cell (5, 0, 0) outside grid dims (3, 3, 3)")):
        OccupancyGrid.from_json(json.dumps(doc))


_BAD_CELLS = [
    ((1, 1), "occupied cells must be index triples"),
    ((1, 1, 1, 1), "occupied cells must be index triples"),
    ((1.7, 0, 0), "1.7 is not a whole number"),
    ((True, 0, 0), "True is not a whole number"),
    ((np.bool_(True), 0, 0), "True_ is not a whole number"),
    (("1", 0, 0), "'1' is not a whole number"),
    ((float("inf"), 0, 0), "cannot convert float infinity to integer"),
    (5, "'int' object is not iterable"),
]


@pytest.mark.parametrize("cell, message", _BAD_CELLS)
def test_grid_cells_must_be_three_whole_numbers(cell, message):
    # a pair used to build, and connectivity_sort then failed with an IndexError;
    # 1.7 used to become 1
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (2, 2, 2))
    with pytest.raises(ValueError, match=re.escape(message)):
        OccupancyGrid(spec, [(0, 0, 0), cell])


def test_grid_cells_may_be_numpy_integers_and_whole_floats():
    spec = GridSpec((0.0, 0.0, 0.0), 10.0, (2, 2, 2))
    cells = [(np.int64(1), np.int32(0), np.uint8(1)), np.array([0, 1, 0]),
             [1.0, 1, np.float64(1.0)]]
    grid = OccupancyGrid(spec, cells)
    assert grid.occupied == {(1, 0, 1), (0, 1, 0), (1, 1, 1)}
    assert {type(v) for cell in grid.occupied for v in cell} == {int}


def test_grid_json_round_trip(grid_factory):
    grid = grid_factory({(0, 0, 0), (1, 0, 0), (1, 0, 1)}, dims=(2, 1, 2))
    again = OccupancyGrid.from_json(grid.to_json())
    assert again == grid
    assert again.to_json() == grid.to_json()


@pytest.mark.parametrize(
    "data",
    [b"{}", b"not json", b'{"cell_size_cm": 1}', b'{"cell_size_cm": 10, "origin_cm": [0,0,0], "dims": [1,1,1], "occupied": [[0,0]]}',
     # documents take JSON numbers only, not strings or booleans
     b'{"cell_size_cm": true, "origin_cm": [0,0,0], "dims": [1,1,1], "occupied": [[0,0,0]]}',
     b'{"cell_size_cm": "5", "origin_cm": [0,0,0], "dims": [1,1,1], "occupied": [[0,0,0]]}',
     b'{"cell_size_cm": 10, "origin_cm": ["0",0,0], "dims": [1,1,1], "occupied": [[0,0,0]]}'],
)
def test_grid_from_json_rejects_bad_documents(data):
    with pytest.raises(SchemaError):
        OccupancyGrid.from_json(data)


def test_tee_grid_matches_golden_bytes():
    mesh = repair_mesh(tee_mesh())
    grid = voxelize(mesh, build_grid(bounding_box(mesh), 10.0))
    assert grid.to_json() == (GOLDEN / "tee_grid.json").read_bytes()
