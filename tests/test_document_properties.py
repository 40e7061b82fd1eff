"""Property tests: any grid or sequence document ends in a documented exit code.

Each example is a valid grid and sequence document with up to two values
replaced by fractional, boolean, negative, huge or non-finite numbers, run
through ``sequence``, ``toolpath`` and ``validate``. No run may end in
a traceback, and no written ``toolpath.json`` may carry a non-finite
coordinate. The runs are derandomized, so the examples are the same on
every run.
"""
from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan import cli
from blockplan.errors import BlockplanError

DOCUMENTED_CODES = {value for name, value in vars(cli).items() if name.startswith("EXIT_")} | {
    e.exit_code for e in BlockplanError.__subclasses__()
}

_odd_numbers = st.one_of(
    st.floats(),
    st.booleans(),
    st.integers(),
    st.integers(0, 3).map(lambda n: n + 0.5),
    st.sampled_from([-1, 0, 10**8, 10**30, 10**400, 1e308, -1e308]),
)

# overrides that push a robot-facing coordinate towards or past the float range
_OVERRIDES = st.sampled_from([
    [],
    ["tool_offset_z=1e999"],
    ["tool_offset_z=-1e308"],
    ["movement_plane_z=1e308"],
    ["source=[1e308, 0, 0]"],
    ["source=[-1e999, 0, 0]"],
])


@st.composite
def documents(draw):
    """A valid grid and a sequence of some of its cells, with up to two
    values swapped for odd numbers."""
    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    cell = st.tuples(*(st.integers(0, d - 1) for d in dims)).map(list)
    occupied = draw(st.lists(cell, min_size=1, max_size=6, unique_by=tuple))
    grid = {
        "cell_size_cm": draw(st.floats(0.5, 20.0)),
        "origin_cm": draw(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3)),
        "dims": dims,
        "occupied": occupied,
    }
    # most sequences place the grid's own cells, in some order
    cells = [list(c) for c in draw(st.one_of(st.permutations(occupied), st.lists(cell, max_size=6)))]
    slots = [(grid, "cell_size_cm")] + [
        (values, n) for values in (grid["origin_cm"], dims, *occupied, *cells) for n in range(3)
    ]
    for _ in range(draw(st.integers(0, 2))):
        values, key = draw(st.sampled_from(slots))
        values[key] = draw(_odd_numbers)
    return json.dumps(grid), json.dumps({"cells": cells})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(docs=documents(), overrides=_OVERRIDES)
def test_stage_documents_exit_with_documented_codes(tmp_path_factory, docs, overrides):
    directory = tmp_path_factory.mktemp("document")
    (directory / "grid.json").write_text(docs[0])
    (directory / "sequence.json").write_text(docs[1])
    grid = ["--grid", str(directory / "grid.json")]
    sequence = ["--sequence", str(directory / "sequence.json")]
    sets = [arg for override in overrides for arg in ("--set", override)]
    out = ["--out-dir", str(directory / "out")]
    for argv in (
        ["sequence", *grid],  # reads no setting, so takes none
        ["toolpath", *grid, *sequence, *sets],
        ["validate", *grid, *sequence, *sets],
    ):
        assert cli.main([*argv, *out]) in DOCUMENTED_CODES
    toolpath = directory / "out" / "toolpath.json"
    if toolpath.exists():
        text = toolpath.read_text()
        assert "NaN" not in text and "Infinity" not in text
