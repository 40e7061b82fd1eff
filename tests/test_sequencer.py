"""Placement ordering: naive sort, connectivity check, connectivity-aware sort."""
from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

from blockplan.errors import (
    EmptyAssembly,
    SchemaError,
    SequenceGridMismatch,
    Unsequenceable,
)
from blockplan.feasibility import check_sequence_connectivity
from blockplan.sequencer import (
    AssemblySequence,
    connectivity_sort,
    face_neighbors,
    naive_sort,
)

TABLE_CELLS = (
    [(i, j, 0) for i in (1, 2) for j in (0, 2)]
    + [(i, j, 1) for i in (1, 2) for j in (0, 2)]
    + [(i, j, 2) for i in (1, 2) for j in (0, 2)]
    + [(i, j, 3) for i in range(4) for j in range(3)]
)


def independently_connected(seq: AssemblySequence) -> bool:
    """Re-derive the connectivity rule without the library's check."""
    placed = set()
    for i, j, k in seq.cells:
        if k > 0:
            touches = any(
                nb in placed for nb in ((i + 1, j, k), (i - 1, j, k), (i, j + 1, k),
                                        (i, j - 1, k), (i, j, k + 1), (i, j, k - 1))
            )
            if not touches:
                return False
        placed.add((i, j, k))
    return True


# --- sequence cells -------------------------------------------------------


@pytest.mark.parametrize("cell, message", [
    ((1, 1), "cells must be index triples"),
    ((1.7, 0, 0), "1.7 is not a whole number"),
    ((0, False, 0), "False is not a whole number"),
    ((0, 0, "2"), "'2' is not a whole number"),
    (None, "'NoneType' object is not iterable"),
])
def test_sequence_cells_must_be_three_whole_numbers(cell, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        AssemblySequence(((0, 0, 0), cell))


def test_sequence_cells_may_be_numpy_integers_and_whole_floats():
    seq = AssemblySequence(((np.int64(2), 0, np.uint16(1)), [1.0, 0, 0], np.array([0, 0, 0])))
    assert seq.cells == ((2, 0, 1), (1, 0, 0), (0, 0, 0))
    assert {type(v) for cell in seq.cells for v in cell} == {int}


# --- naive sort ----------------------------------------------------------


def test_naive_orders_by_layer_then_x_then_y(grid_factory):
    grid = grid_factory([(0, 0, 1), (1, 0, 0), (0, 0, 0)])
    assert naive_sort(grid).cells == ((0, 0, 0), (1, 0, 0), (0, 0, 1))


def test_naive_single_layer_row_major(grid_factory):
    grid = grid_factory([(1, 1, 0), (0, 1, 0), (1, 0, 0), (0, 0, 0)])
    assert naive_sort(grid).cells == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))


def test_naive_order_fails_on_table(grid_factory):
    # The slab row at x = 0 has no leg below it, and (0, 0, 3) sorts first
    # within its layer, before any neighbor it could attach to.
    grid = grid_factory(TABLE_CELLS, dims=(4, 3, 4))
    result = check_sequence_connectivity(naive_sort(grid), grid)
    assert result.failed
    assert result.details == ((0, 0, 3),)


def test_naive_rejects_empty_grid(grid_factory):
    with pytest.raises(EmptyAssembly):
        naive_sort(grid_factory([]))


# --- connectivity check ----------------------------------------------------


def test_check_single_ground_cell(grid_factory):
    grid = grid_factory([(0, 0, 0)])
    assert check_sequence_connectivity(AssemblySequence(((0, 0, 0),)), grid).passed


def test_check_vertical_pair_bottom_up(grid_factory):
    grid = grid_factory([(0, 0, 0), (0, 0, 1)])
    seq = AssemblySequence(((0, 0, 0), (0, 0, 1)))
    assert check_sequence_connectivity(seq, grid).passed


def test_check_vertical_pair_top_down_fails(grid_factory):
    grid = grid_factory([(0, 0, 0), (0, 0, 1)])
    seq = AssemblySequence(((0, 0, 1), (0, 0, 0)))
    result = check_sequence_connectivity(seq, grid)
    assert result.failed
    assert result.details == ((0, 0, 1),)


def test_check_ground_cells_need_no_neighbor(grid_factory):
    # Disconnected islands are fine as long as they sit on the ground.
    grid = grid_factory([(0, 0, 0), (5, 4, 0)])
    seq = AssemblySequence(((5, 4, 0), (0, 0, 0)))
    assert check_sequence_connectivity(seq, grid).passed


def test_check_reports_first_offender(grid_factory):
    grid = grid_factory([(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 0, 1)])
    seq = AssemblySequence(((0, 0, 0), (2, 0, 1), (1, 0, 0), (2, 0, 0)))
    result = check_sequence_connectivity(seq, grid)
    assert result.details == ((2, 0, 1),)


def test_check_rejects_repeated_cell(grid_factory):
    grid = grid_factory([(0, 0, 0), (1, 0, 0)])
    seq = AssemblySequence(((0, 0, 0), (0, 0, 0)))
    with pytest.raises(SequenceGridMismatch):
        check_sequence_connectivity(seq, grid)


def test_check_rejects_incomplete_coverage(grid_factory):
    grid = grid_factory([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(SequenceGridMismatch):
        check_sequence_connectivity(AssemblySequence(((0, 0, 0),)), grid)


def test_check_rejects_foreign_cells(grid_factory):
    grid = grid_factory([(0, 0, 0)])
    seq = AssemblySequence(((0, 0, 0), (3, 3, 0)))
    with pytest.raises(SequenceGridMismatch):
        check_sequence_connectivity(seq, grid)


# --- connectivity-aware sort -----------------------------------------------


def test_sort_walks_outward_from_lexicographic_minimum(grid_factory):
    grid = grid_factory([(1, 1, 0), (1, 0, 0), (0, 0, 0)])
    assert connectivity_sort(grid).cells == ((0, 0, 0), (1, 0, 0), (1, 1, 0))


def test_sort_column_bottom_up(grid_factory):
    grid = grid_factory([(0, 0, 2), (0, 0, 0), (0, 0, 1)])
    assert connectivity_sort(grid).cells == ((0, 0, 0), (0, 0, 1), (0, 0, 2))


def test_sort_ties_break_by_row_then_column(grid_factory):
    # A plus sign: after the center, three arms are equidistant.
    grid = grid_factory([(1, 1, 0), (0, 1, 0), (1, 0, 0), (2, 1, 0), (1, 2, 0)])
    assert connectivity_sort(grid).cells == (
        (0, 1, 0),
        (1, 1, 0),
        (1, 0, 0),
        (1, 2, 0),
        (2, 1, 0),
    )


def test_sort_arch_is_unsequenceable(grid_factory):
    # The right pillar's middle cell only connects through the span above
    # it, which layer order forbids.
    arch = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 2), (2, 0, 2), (2, 0, 1)]
    with pytest.raises(Unsequenceable, match=r"layer 1.*\(2, 0, 1\)"):
        connectivity_sort(grid_factory(arch))


def test_sort_rejects_empty_grid(grid_factory):
    with pytest.raises(EmptyAssembly):
        connectivity_sort(grid_factory([]))


def test_sort_solves_the_table(grid_factory):
    grid = grid_factory(TABLE_CELLS, dims=(4, 3, 4))
    seq = connectivity_sort(grid)
    assert check_sequence_connectivity(seq, grid).passed
    assert independently_connected(seq)


def test_sort_is_deterministic(buildable_grid_factory):
    rng = random.Random(90125)
    for _ in range(20):
        grid = buildable_grid_factory(rng)
        assert connectivity_sort(grid).cells == connectivity_sort(grid).cells


def test_sort_properties_on_random_buildable_grids(buildable_grid_factory):
    rng = random.Random(2112)
    for _ in range(100):
        grid = buildable_grid_factory(rng)
        seq = connectivity_sort(grid)
        assert len(seq) == len(set(seq.cells)) == len(grid.occupied)
        assert set(seq.cells) == grid.occupied
        layers = [c[2] for c in seq.cells]
        assert layers == sorted(layers)
        assert independently_connected(seq)
        assert check_sequence_connectivity(seq, grid).passed
        assert set(naive_sort(grid).cells) == set(seq.cells)


# --- sequence document -------------------------------------------------------


def test_sequence_json_round_trip():
    seq = AssemblySequence(((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)))
    assert AssemblySequence.from_json(seq.to_json()) == seq


def test_sequence_json_shape():
    seq = AssemblySequence(((0, 0, 0), (2, 1, 0)))
    doc = json.loads(seq.to_json())
    assert doc == {"cells": [[0, 0, 0], [2, 1, 0]]}


@pytest.mark.parametrize(
    "data",
    [
        b"not json",
        b"{}",
        b'{"cells": "yes"}',
        b'{"cells": [[0, 0]]}',
        b'{"cells": [[0, 0, "a"]]}',
    ],
)
def test_sequence_from_json_rejects_bad_documents(data):
    with pytest.raises(SchemaError):
        AssemblySequence.from_json(data)


def test_face_neighbors_enumerates_six():
    nbs = set(face_neighbors((1, 2, 3)))
    assert len(nbs) == 6
    assert (0, 2, 3) in nbs and (1, 2, 4) in nbs
