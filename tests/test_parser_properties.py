"""Property tests: untrusted bytes end in the documented errors.

``parse_mesh`` gets arbitrary bytes and mutated STL and OBJ files under
every format hint and may raise only ``BlockplanError``. The grid, sequence
and toolpath readers get arbitrary JSON (deep nesting included) and may
raise only ``SchemaError``. The runs are derandomized, so the examples are
the same on every run.
"""
from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan.discretizer import OccupancyGrid
from blockplan.errors import BlockplanError, SchemaError
from blockplan.mesh_io import MeshFormat, parse_mesh, serialize_mesh
from blockplan.sequencer import AssemblySequence
from blockplan.shapes import box_mesh, combine_meshes
from blockplan.toolpath import parse_toolpath

HINTS = [None, "stl", "obj", "ply", *MeshFormat]

_MESH = combine_meshes([box_mesh((0, 0, 0), (2, 1, 1)), box_mesh((0, 0, 1), (1, 1, 3))])
SEEDS = [serialize_mesh(_MESH, fmt) for fmt in MeshFormat]

# pieces that steer a mutation into the parsers' number, index and keyword paths
_TOKENS = st.sampled_from([
    b" nan", b" inf", b" -1e999", b" 1e308", b" 1_0", b" 0x10", b" ", b"\n", b"\r\n",
    b"\nv 1 2\n", b"\nf 1 2 99\n", b"\nf 0 1 2\n", b"\nf -9 1 2\n", b"\nf 1/2/3 a 2\n",
    b"\nvertex 1 2\n", b"\nvertex a b c\n", b"solid x\nfacet", b"endfacet", b"\xff\xfe",
])


@st.composite
def mutated_meshes(draw):
    """A seed file with one to four overwrites, deletions, insertions,
    truncations or a new binary STL facet count."""
    data = bytearray(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.one_of(_TOKENS, st.binary(min_size=1, max_size=8)))
        kind = draw(st.sampled_from(["overwrite", "delete", "insert", "truncate", "count"]))
        if kind == "overwrite":
            data[at:at + len(chunk)] = chunk
        elif kind == "delete":
            del data[at:at + len(chunk)]
        elif kind == "insert":
            data[at:at] = chunk
        elif kind == "truncate":
            del data[at:]
        else:
            data[80:84] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
    return bytes(data)


def _parses_or_raises_blockplan_error(data: bytes) -> None:
    for hint in HINTS:
        try:
            parse_mesh(data, hint)
        except BlockplanError:
            pass


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.binary(max_size=300))
def test_parse_mesh_on_arbitrary_bytes(data):
    _parses_or_raises_blockplan_error(data)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=mutated_meshes())
def test_parse_mesh_on_mutated_files(data):
    _parses_or_raises_blockplan_error(data)


# --- stage documents ----------------------------------------------------------

_KEYS = [
    "cell_size_cm", "origin_cm", "dims", "occupied", "cells",
    "params", "velocity", "acceleration", "commands", "op", "xyz_mm",
]
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([10**400, -(10**400), "move", "grip", "release", "1", ""]),
    st.text(max_size=4),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(_KEYS), st.text(max_size=3)), inner, max_size=4),
    ),
    max_leaves=16,
)
_triples = st.one_of(st.lists(_scalars, min_size=3, max_size=3), _json)

# documents with the right top-level keys, so that examples reach the
# per-value checks rather than stopping at a missing key
_shaped = st.one_of(
    st.fixed_dictionaries({
        "cell_size_cm": _scalars, "origin_cm": _triples, "dims": _triples,
        "occupied": st.lists(_triples, max_size=3),
    }),
    st.fixed_dictionaries({"cells": st.one_of(st.lists(_triples, max_size=3), _json)}),
    st.fixed_dictionaries({
        "params": st.one_of(
            st.fixed_dictionaries({"velocity": _scalars, "acceleration": _scalars}), _json
        ),
        "commands": st.lists(
            st.one_of(
                st.fixed_dictionaries({"op": _scalars, "xyz_mm": _triples}),
                st.fixed_dictionaries({"op": st.sampled_from(["grip", "release"])}),
                _json,
            ),
            max_size=3,
        ),
    }),
)
_documents = st.one_of(
    _json.map(json.dumps),
    _shaped.map(json.dumps),
    st.binary(max_size=40),
    st.text(max_size=40),
)

READERS = [OccupancyGrid.from_json, AssemblySequence.from_json, parse_toolpath]


def _reads_or_raises_schema_error(document) -> None:
    for reader in READERS:
        try:
            reader(document)
        except SchemaError:
            pass


@settings(derandomize=True, max_examples=600, deadline=None)
@given(document=_documents)
def test_stage_readers_on_arbitrary_json(document):
    _reads_or_raises_schema_error(document)


@pytest.mark.parametrize(
    "document",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
        '{"cells": ' + "[" * 100_000,
        '{"params": {"velocity": 1, "acceleration": 1}, "commands": [{"op": "move", "xyz_mm": '
        + "[" * 100_000 + "]" * 100_000 + "}]}",
    ],
    ids=["arrays", "objects", "unclosed", "in-a-field"],
)
def test_stage_readers_on_deep_nesting(document):
    for reader in READERS:
        with pytest.raises(SchemaError):
            reader(document)
