"""Parsing, serialization, repair, and measurement of triangle meshes."""
from __future__ import annotations

import random
import struct
import warnings

import numpy as np
import pytest

from blockplan.errors import EmptyMesh, MalformedFile, UnsupportedFormat
from blockplan.mesh_io import (
    MeshFormat,
    TriangleMesh,
    bounding_box,
    parse_mesh,
    repair_mesh,
    serialize_mesh,
)
from blockplan.shapes import box_mesh, combine_meshes, icosphere, tee_mesh

ONE_TRIANGLE_ASCII = b"""solid demo
  facet normal 0 0 1
    outer loop
      vertex 0.0 0.0 0.0
      vertex 1.0 0.0 0.0
      vertex 0.0 1.0 0.0
    endloop
  endfacet
endsolid demo
"""


def _binary_stl(triangles: np.ndarray) -> bytes:
    """Hand-packed binary STL, independent of the library's serializer."""
    blob = b"\0" * 80 + struct.pack("<I", len(triangles))
    for tri in triangles:
        blob += struct.pack("<3f", 0.0, 0.0, 0.0)
        for vertex in tri:
            blob += struct.pack("<3f", *(float(v) for v in vertex))
        blob += struct.pack("<H", 0)
    return blob


def _unwelded_cube() -> TriangleMesh:
    """Unit cube as 12 loose triangles: 36 vertices, all duplicated."""
    cube = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    coords = cube.triangle_coords().reshape(-1, 3)
    tris = np.arange(36, dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(coords, tris)


# --- parsing ---------------------------------------------------------------


def test_parse_ascii_stl_single_triangle():
    mesh = parse_mesh(ONE_TRIANGLE_ASCII)
    assert mesh.triangle_count == 1
    assert mesh.vertex_count == 3
    assert mesh.format_origin is MeshFormat.STL_ASCII
    assert mesh.vertices[1].tolist() == [1.0, 0.0, 0.0]


def test_parse_binary_stl_cube():
    coords = box_mesh((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)).triangle_coords()
    mesh = parse_mesh(_binary_stl(coords))
    assert mesh.format_origin is MeshFormat.STL_BINARY
    assert mesh.triangle_count == 12
    np.testing.assert_array_equal(mesh.triangle_coords(), coords)


def test_parse_obj_quad_fans_to_two_triangles():
    data = b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    mesh = parse_mesh(data)
    assert mesh.format_origin is MeshFormat.OBJ
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_parse_obj_negative_and_slash_indices():
    data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3/1 -2/2 -1/3\n"
    mesh = parse_mesh(data)
    assert mesh.triangles.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize(
    "data",
    [
        b"v 0 0 0\nv 1 0 0\nf 1 2 5\n",  # index out of range
        b"v 0 0 x\n",  # non-numeric coordinate
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n",  # zero index
        b"v 0 0 0\nf 1\n",  # too few face vertices
    ],
)
def test_parse_obj_rejects_malformed(data):
    with pytest.raises(MalformedFile):
        parse_mesh(data, "obj")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_obj_vertex(value):
    data = f"v 0 0 0\nv 1 0 0\nv 0 {value} 0\nf 1 2 3\n".encode()
    with pytest.raises(MalformedFile):
        parse_mesh(data, "obj")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_ascii_stl_vertex(value):
    data = ONE_TRIANGLE_ASCII.replace(b"vertex 1.0 0.0 0.0", f"vertex 1.0 {value} 0.0".encode())
    with pytest.raises(MalformedFile):
        parse_mesh(data)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_parse_rejects_non_finite_binary_stl_vertex(value):
    coords = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).triangle_coords()
    coords[4, 1, 2] = value
    with pytest.raises(MalformedFile):
        parse_mesh(_binary_stl(coords), MeshFormat.STL_BINARY)


def test_parse_truncated_binary_stl():
    coords = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).triangle_coords()
    blob = _binary_stl(coords)
    with pytest.raises(MalformedFile):
        parse_mesh(blob[:-10], MeshFormat.STL_BINARY)


def test_parse_ascii_stl_with_bad_vertex_line():
    with pytest.raises(MalformedFile):
        parse_mesh(b"solid x\nfacet\nvertex 1 2\nendfacet\nendsolid x\n")


def test_parse_empty_input():
    with pytest.raises(MalformedFile):
        parse_mesh(b"")


def test_parse_unidentifiable_bytes():
    with pytest.raises(UnsupportedFormat):
        parse_mesh(b"\x01\x02\x03 nothing mesh-like here")


def test_parse_unknown_hint():
    with pytest.raises(UnsupportedFormat):
        parse_mesh(ONE_TRIANGLE_ASCII, "ply")


def test_generic_stl_hint_sniffs_both_variants():
    ascii_mesh = parse_mesh(ONE_TRIANGLE_ASCII, "stl")
    assert ascii_mesh.format_origin is MeshFormat.STL_ASCII
    coords = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).triangle_coords()
    binary_mesh = parse_mesh(_binary_stl(coords), "stl")
    assert binary_mesh.format_origin is MeshFormat.STL_BINARY


def test_sniffing_prefers_exact_binary_length_over_solid_header():
    coords = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).triangle_coords()
    data = b"solid box, one facet per face".ljust(80) + _binary_stl(coords)[80:]
    sniffed, hinted = parse_mesh(data), parse_mesh(data, "stl")
    assert sniffed.format_origin is hinted.format_origin is MeshFormat.STL_BINARY
    np.testing.assert_array_equal(sniffed.vertices, hinted.vertices)
    np.testing.assert_array_equal(sniffed.triangles, hinted.triangles)


BOM = b"\xef\xbb\xbf"
TETRA_OBJ = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n"


@pytest.mark.parametrize("hint", [None, "obj", MeshFormat.OBJ])
def test_byte_order_mark_keeps_the_first_obj_vertex(hint):
    mesh = parse_mesh(BOM + TETRA_OBJ, hint)
    assert mesh.format_origin is MeshFormat.OBJ
    np.testing.assert_array_equal(mesh.vertices, parse_mesh(TETRA_OBJ, "obj").vertices)
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 1, 3]]


@pytest.mark.parametrize("hint", [None, "stl", MeshFormat.STL_ASCII])
def test_byte_order_mark_before_ascii_stl(hint):
    mesh = parse_mesh(BOM + ONE_TRIANGLE_ASCII, hint)
    assert mesh.format_origin is MeshFormat.STL_ASCII
    np.testing.assert_array_equal(mesh.vertices, parse_mesh(ONE_TRIANGLE_ASCII).vertices)


@pytest.mark.parametrize("hint", ["stl", MeshFormat.STL_ASCII])
def test_byte_order_mark_keeps_a_first_line_stl_vertex(hint):
    data = b"vertex 2 2 2\nvertex 3 2 2\nvertex 2 3 2\n"  # no solid line to sniff
    mesh = parse_mesh(BOM + data, hint)
    np.testing.assert_array_equal(mesh.vertices, [[2, 2, 2], [3, 2, 2], [2, 3, 2]])


def test_byte_order_mark_stays_in_a_binary_stl_header():
    coords = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).triangle_coords()
    data = (BOM + b"box").ljust(80) + _binary_stl(coords)[80:]
    for hint in (None, "stl", MeshFormat.STL_BINARY):
        mesh = parse_mesh(data, hint)
        assert mesh.format_origin is MeshFormat.STL_BINARY
        np.testing.assert_array_equal(mesh.triangle_coords(), coords)


@pytest.mark.parametrize(
    "header",
    [b"# " + b"x" * 5000 + b"\n", b"#" + b"x" * 4094 + "é".encode() + b"\n", b"\n" * 5000],
    ids=["long-comment", "split-character", "blank-lines"],
)
def test_obj_is_recognized_after_the_first_4096_bytes(header):
    sniffed = parse_mesh(header + TETRA_OBJ)
    assert sniffed.format_origin is MeshFormat.OBJ
    np.testing.assert_array_equal(sniffed.vertices, parse_mesh(TETRA_OBJ, "obj").vertices)
    assert sniffed.triangles.tolist() == [[0, 1, 2], [0, 1, 3]]


def test_ascii_stl_is_recognized_after_a_long_solid_line():
    data = ONE_TRIANGLE_ASCII.replace(b"solid demo", b"solid " + b"x" * 5000, 1)
    assert parse_mesh(data).format_origin is MeshFormat.STL_ASCII


@pytest.mark.parametrize(
    "data",
    [
        b"# v 0 0 0\n  # f 1 2 3\n\n# v",  # comments only, the last without a break
        b"v\xff 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",  # not UTF-8 on the deciding line
        b"x\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",  # the deciding line is not OBJ
        BOM + BOM + TETRA_OBJ,  # only one byte order mark is dropped
    ],
)
def test_obj_sniff_decides_on_the_first_line_that_is_not_blank_or_a_comment(data):
    with pytest.raises(UnsupportedFormat):
        parse_mesh(data)


def test_bytes_that_are_not_utf8_before_the_deciding_line_reach_the_obj_parser():
    with pytest.raises(MalformedFile, match="OBJ is not valid UTF-8"):
        parse_mesh(b"# \xff\n" + TETRA_OBJ)


# --- serialization round-trips ----------------------------------------------


def test_ascii_stl_round_trip_is_exact():
    rng = np.random.default_rng(7)
    verts = rng.uniform(-5, 5, size=(30, 3))
    mesh = TriangleMesh(verts, np.arange(30, dtype=np.int64).reshape(-1, 3))
    back = parse_mesh(serialize_mesh(mesh, MeshFormat.STL_ASCII))
    np.testing.assert_array_equal(back.triangle_coords(), mesh.triangle_coords())


def test_binary_stl_round_trip_is_float32_exact():
    rng = np.random.default_rng(8)
    verts = rng.uniform(-5, 5, size=(30, 3))
    mesh = TriangleMesh(verts, np.arange(30, dtype=np.int64).reshape(-1, 3))
    back = parse_mesh(serialize_mesh(mesh, MeshFormat.STL_BINARY))
    expected = mesh.triangle_coords().astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(back.triangle_coords(), expected)


def test_binary_stl_refuses_coordinates_beyond_float32():
    tee = tee_mesh()
    huge = tee.with_vertices(tee.vertices * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float32"):
            serialize_mesh(huge, MeshFormat.STL_BINARY)
        large = tee.with_vertices(tee.vertices * 1e30)
        assert parse_mesh(serialize_mesh(large, MeshFormat.STL_BINARY)).triangle_count == 24
        # the text writers hold any float64 and round-trip it exactly
        for fmt in (MeshFormat.STL_ASCII, MeshFormat.OBJ):
            back = parse_mesh(serialize_mesh(huge, fmt))
            np.testing.assert_array_equal(back.triangle_coords(), huge.triangle_coords())


def test_obj_round_trip_preserves_topology():
    mesh = box_mesh((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    back = parse_mesh(serialize_mesh(mesh, "obj"))
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)


# --- repair ------------------------------------------------------------------


def test_weld_cube_to_eight_vertices():
    mesh = _unwelded_cube()
    repaired = repair_mesh(mesh, 1e-4)
    assert repaired.vertex_count == 8
    assert repaired.triangle_count == 12
    assert repaired.repair.welded_vertices == 28
    assert repaired.repair.manifold is True


def test_weld_keeps_first_occurrence_coordinates():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5e-5, 0.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    repaired = repair_mesh(TriangleMesh(verts, tris), 1e-4)
    # near-duplicate collapses onto the earlier vertex, degenerating the triangle
    assert repaired.repair.welded_vertices == 1
    assert repaired.repair.removed_degenerate == 1
    assert repaired.triangle_count == 0


def test_repair_removes_zero_area_triangle():
    mesh = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    tris = np.vstack([mesh.triangles, [[0, 1, 1]]])
    noisy = TriangleMesh(mesh.vertices, tris)
    repaired = repair_mesh(noisy)
    assert repaired.triangle_count == 12
    assert repaired.repair.removed_degenerate == 1


def test_repair_removes_collinear_sliver():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    tris = np.array([[0, 1, 2], [0, 1, 3]])
    repaired = repair_mesh(TriangleMesh(verts, tris), weld_tolerance=0.0)
    assert repaired.triangle_count == 1
    assert repaired.repair.removed_degenerate == 1


def test_repair_removes_duplicate_triangles():
    mesh = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    tris = np.vstack([mesh.triangles, mesh.triangles[:1], mesh.triangles[:1][:, ::-1]])
    repaired = repair_mesh(TriangleMesh(mesh.vertices, tris))
    # same sorted vertex triple counts as a duplicate regardless of winding
    assert repaired.triangle_count == 12
    assert repaired.repair.removed_duplicates == 2


def test_repair_unifies_opposite_windings():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    flipped = np.array([[0, 1, 2], [3, 2, 0]])  # second triangle reversed
    good = repair_mesh(TriangleMesh(verts, tris), weld_tolerance=0.0)
    fixed = repair_mesh(TriangleMesh(verts, flipped), weld_tolerance=0.0)
    assert good.repair.flipped_triangles == 0
    assert fixed.repair.flipped_triangles == 1

    def directed_edges(t):
        a, b, c = t
        return {(a, b), (b, c), (c, a)}

    e0 = directed_edges(fixed.triangles[0])
    e1 = directed_edges(fixed.triangles[1])
    shared = {(u, v) for u, v in e0 if (v, u) in e1}
    assert shared  # the common edge runs in opposite directions


def test_repair_is_idempotent():
    repaired = repair_mesh(_unwelded_cube())
    again = repair_mesh(repaired)
    np.testing.assert_array_equal(again.vertices, repaired.vertices)
    np.testing.assert_array_equal(again.triangles, repaired.triangles)
    assert again.repair.welded_vertices == 0
    assert again.repair.flipped_triangles == 0


def test_repair_keeps_triangles_whose_area_overflows_without_a_warning():
    sphere = icosphere(15.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = repair_mesh(sphere.with_vertices(sphere.vertices * 1e200))
    plain = repair_mesh(sphere)
    np.testing.assert_array_equal(huge.triangles, plain.triangles)
    assert huge.repair == plain.repair


def test_ascii_stl_of_an_overflowing_mesh_round_trips_without_a_warning():
    tee = tee_mesh()
    huge = tee.with_vertices(tee.vertices * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = serialize_mesh(huge, MeshFormat.STL_ASCII)
    back = parse_mesh(data, MeshFormat.STL_ASCII)
    np.testing.assert_array_equal(back.triangle_coords(), huge.triangle_coords())


def test_repair_prunes_unreferenced_vertices():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [9.0, 9.0, 9.0]]
    )
    repaired = repair_mesh(TriangleMesh(verts, np.array([[0, 1, 2]])))
    assert repaired.vertex_count == 3


def test_manifold_flag_false_for_open_surface():
    cube = repair_mesh(_unwelded_cube())
    open_mesh = TriangleMesh(cube.vertices, cube.triangles[:-1])
    assert cube.repair.manifold is True
    assert repair_mesh(open_mesh).repair.manifold is False


def test_two_disjoint_closed_boxes_are_manifold():
    mesh = combine_meshes(
        [
            box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
            box_mesh((3.0, 0.0, 0.0), (4.0, 1.0, 1.0)),
        ]
    )
    assert repair_mesh(mesh).repair.manifold is True


def test_repair_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        repair_mesh(_unwelded_cube(), weld_tolerance=-1.0)


# --- measurement --------------------------------------------------------------


def test_bounding_box_unit_cube():
    box = bounding_box(box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    assert box.min_corner == (0.0, 0.0, 0.0)
    assert box.max_corner == (1.0, 1.0, 1.0)
    assert box.extents == (1.0, 1.0, 1.0)


def test_bounding_box_single_vertex():
    mesh = TriangleMesh(np.array([[2.0, 3.0, 4.0]]), np.empty((0, 3), dtype=np.int64))
    box = bounding_box(mesh)
    assert box.min_corner == box.max_corner == (2.0, 3.0, 4.0)


def test_bounding_box_matches_direct_scan():
    rng = random.Random(123)
    points = np.array(
        [[rng.uniform(-50, 50) for _ in range(3)] for _ in range(1000)]
    )
    mesh = TriangleMesh(points, np.empty((0, 3), dtype=np.int64))
    box = bounding_box(mesh)
    for axis in range(3):
        assert box.min_corner[axis] == min(p[axis] for p in points)
        assert box.max_corner[axis] == max(p[axis] for p in points)


def test_bounding_box_scales_with_mesh():
    mesh = box_mesh((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    scaled = mesh.with_vertices(mesh.vertices * 2.0)
    box = bounding_box(scaled)
    assert box.min_corner == (2.0, 4.0, 6.0)
    assert box.max_corner == (8.0, 10.0, 12.0)


def test_bounding_box_empty_mesh():
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    with pytest.raises(EmptyMesh):
        bounding_box(empty)


def test_mesh_rejects_bad_indices():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))
