"""Assembly sequencing: turn an occupancy grid into a placement order.

Components are placed layer by layer from the ground up, and each placement
touches the structure built so far. The naive (z, x, y) order is never
built: the first-pass connectivity check reads its first gap off the
occupancy array (``feasibility._naive_gap``).
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

from .discretizer import Cell, OccupancyGrid, index_triples, json_list, json_triple
from .errors import EmptyAssembly, SchemaError, SequenceGridMismatch, Unsequenceable

FACE_NEIGHBORS: tuple[Cell, ...] = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)


def face_neighbors(cell: Cell):
    i, j, k = cell
    for di, dj, dk in FACE_NEIGHBORS:
        yield i + di, j + dj, k + dk


@dataclass(frozen=True)
class AssemblySequence:
    """Placement order over the occupied cells of one grid."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", index_triples(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def to_json(self) -> bytes:
        cells = json_list(map(json_triple(4).__mod__, self.cells), 2)
        return f'{{\n  "cells": {cells}\n}}\n'.encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes | str) -> "AssemblySequence":
        try:
            return cls(json.loads(data)["cells"])
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise SchemaError(f"not a valid sequence document: {exc}") from exc


def require_coverage(seq: AssemblySequence, grid: OccupancyGrid) -> None:
    """Raise :class:`SequenceGridMismatch` unless the sequence places each
    occupied cell exactly once, and :class:`EmptyAssembly` if there are none."""
    if len(seq.cells) != len(set(seq.cells)):
        raise SequenceGridMismatch("sequence repeats a cell")
    if set(seq.cells) != grid.occupied:
        raise SequenceGridMismatch(
            f"sequence covers {len(set(seq.cells))} cells, "
            f"grid has {len(grid.occupied)}"
        )
    if not grid.occupied:
        raise EmptyAssembly("grid has no occupied cells")


def connectivity_sort(grid: OccupancyGrid) -> AssemblySequence:
    """Layer-by-layer order in which every placement touches the structure.

    Each occupied layer keeps a heap of the cells touching the structure:
    those resting on the finished layer below, plus each placed cell's
    neighbours in the layer. The next cell is the heap's smallest (i, j), as
    none is closer. When it runs empty on the ground, a cell nearest the
    placed ones (ties by (i, j)) starts a new island, so the very first cell
    is the lexicographic minimum of layer 0. Ground cells keep their distance
    to the placed ones, updated at each island start. Raises
    :class:`Unsequenceable` when a higher layer cannot be completed, e.g. an
    arch whose keystone column only connects from above.
    """
    if not grid.occupied:
        raise EmptyAssembly("grid has no occupied cells")
    layers: dict[int, set[Cell]] = {}
    for cell in grid.occupied:
        layers.setdefault(cell[2], set()).add(cell)
    order: list[Cell] = []
    placed: set[Cell] = set()
    # ground cell -> Manhattan distance to the first `measured` placements
    gap = dict.fromkeys(layers.get(0, ()), math.inf)
    measured = 0
    for k in sorted(layers):
        remaining = layers[k]
        heap = sorted(c for c in remaining if (c[0], c[1], k - 1) in placed)
        queued = set(heap)
        while remaining:
            if heap:
                pick = heapq.heappop(heap)
            elif k == 0:  # one layer, so the cell itself orders by (i, j)
                for i, j, _ in order[measured:]:
                    for c in remaining:
                        gap[c] = min(gap[c], abs(c[0] - i) + abs(c[1] - j))
                measured = len(order)
                pick = min(remaining, key=lambda c: (gap[c], c))
            else:
                raise Unsequenceable(
                    f"layer {k}: cell {min(remaining)} is unreachable from the structure"
                )
            order.append(pick)
            placed.add(pick)
            remaining.remove(pick)
            for nb in face_neighbors(pick):
                if nb in remaining and nb not in queued:
                    queued.add(nb)
                    heapq.heappush(heap, nb)
    return AssemblySequence(tuple(order))

