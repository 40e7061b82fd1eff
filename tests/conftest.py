"""Shared fixtures: demo meshes, grid builders, and a random-grid generator."""
from __future__ import annotations

import random

import pytest

from blockplan import AssemblyConfig, GridSpec, OccupancyGrid
from blockplan.feasibility import _configured_rules, _prune
from blockplan.sequencer import face_neighbors
from blockplan.shapes import (
    oversized_block_mesh,
    shelf_mesh,
    table_mesh,
    tee_mesh,
    write_demo_meshes,
)


@pytest.fixture(scope="session")
def config() -> AssemblyConfig:
    return AssemblyConfig()


@pytest.fixture(scope="session")
def demo_meshes():
    """The four fixture meshes, keyed by name."""
    return {
        "block": oversized_block_mesh(),
        "shelf": shelf_mesh(),
        "tee": tee_mesh(),
        "table": table_mesh(),
    }


@pytest.fixture(scope="session")
def demo_mesh_files(tmp_path_factory):
    """Fixture meshes written out as binary STL, keyed by name."""
    directory = tmp_path_factory.mktemp("meshes")
    return write_demo_meshes(directory)


def make_grid(cells, dims=(6, 5, 6), cell_size=10.0, origin=(0.0, 0.0, 0.0)):
    return OccupancyGrid(GridSpec(origin, cell_size, tuple(dims)), frozenset(cells))


@pytest.fixture
def grid_factory():
    return make_grid


def pruned(grid: OccupancyGrid, stacks: bool = False, **limits) -> OccupancyGrid:
    """``grid`` after the rewrite ``run_feasibility`` ships: ``_prune`` with the
    rules ``_configured_rules`` gives at the ``AssemblyConfig`` ``limits``.
    That is the overhang rule alone (``remove_overhangs`` in the report), or
    with ``stacks`` the stack rule, then the overhang rule (``truncate_stacks``)."""
    overhang, stack = _configured_rules(AssemblyConfig(**limits))
    rules = (stack, overhang) if stacks else (overhang,)
    return OccupancyGrid.from_array(grid.spec, _prune(grid.to_array(), *rules))


def random_buildable_grid(
    rng: random.Random, dims=(6, 5, 6), max_cells: int = 40
) -> OccupancyGrid:
    """Random connected grid buildable layer by layer.

    Growth only adds cells that are on the ground, rest on an occupied cell,
    or touch a lateral neighbor already in the set — so every layer stays
    reachable from its supported cells and connectivity_sort must succeed.
    """
    nx, ny, nz = dims
    seed = (rng.randrange(nx), rng.randrange(ny), 0)
    cells = {seed}
    target = rng.randint(1, max_cells)
    while len(cells) < target:
        frontier = set()
        for cell in cells:
            for nb in face_neighbors(cell):
                i, j, k = nb
                if nb in cells or not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
                    continue
                supported = k == 0 or (i, j, k - 1) in cells
                braced = any(
                    (i + di, j + dj, k) in cells
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                )
                if supported or braced:
                    frontier.add(nb)
        if not frontier:
            break
        cells.add(rng.choice(sorted(frontier)))
    return make_grid(cells, dims)


@pytest.fixture
def buildable_grid_factory():
    return random_buildable_grid
