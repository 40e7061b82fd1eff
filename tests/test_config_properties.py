"""Property tests: any ``--set`` value ends in a documented exit code.

Keys are drawn from the config fields plus names the config does not have;
values are arbitrary JSON (NaN and infinities included) or raw text. The
runs are derandomized, so the examples are the same on every run.
"""
from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockplan import cli
from blockplan.config import AssemblyConfig
from blockplan.errors import BlockplanError
from blockplan.sequencer import connectivity_sort
from tests.conftest import make_grid

DOCUMENTED_CODES = {value for name, value in vars(cli).items() if name.startswith("EXIT_")} | {
    e.exit_code for e in BlockplanError.__subclasses__()
}
KEYS = [f.name for f in dataclasses.fields(AssemblyConfig)] + ["client_timeout_s", "nope", ""]

_numbers = st.one_of(st.floats(), st.integers(), st.floats(-1.0, 100.0), st.integers(-1, 50))
_scalars = st.one_of(_numbers, st.none(), st.booleans(), st.text(max_size=8))
_json = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=4),
    st.dictionaries(st.text(max_size=3), _scalars, max_size=2),
)
# well-typed numbers half the time, so that many examples get past the schema
RAW_VALUES = st.one_of(
    _numbers.map(json.dumps),
    st.lists(_numbers, min_size=3, max_size=3).map(json.dumps),
    _json.map(json.dumps),
    st.text(max_size=12),
)

# Planning time grows with the cube of 1 / cell_size; below this a single
# accepted example on the tee would take seconds.
_MIN_PLANNED_CELL = 2.5


def _fine_cell_size(raw: str) -> bool:
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    try:
        return 0 < float(value) < _MIN_PLANNED_CELL
    except (TypeError, ValueError, OverflowError):
        return False


@pytest.fixture(scope="module")
def staged_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("staged")
    grid = make_grid([(0, 0, 0), (1, 0, 0), (1, 0, 1), (2, 1, 0)])
    (directory / "grid.json").write_bytes(grid.to_json())
    (directory / "sequence.json").write_bytes(connectivity_sort(grid).to_json())
    return directory


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(KEYS), RAW_VALUES), min_size=1, max_size=2))
def test_toolpath_and_validate_exit_with_documented_codes(staged_inputs, pairs):
    sets = [arg for key, raw in pairs for arg in ("--set", f"{key}={raw}")]
    files = ["--grid", str(staged_inputs / "grid.json"),
             "--sequence", str(staged_inputs / "sequence.json")]
    out = ["--out-dir", str(staged_inputs / "out")]
    for command in ("toolpath", "validate"):
        assert cli.main([command, *files, *sets, *out]) in DOCUMENTED_CODES


@settings(derandomize=True, max_examples=60, deadline=None)
@given(key=st.sampled_from(KEYS), raw=RAW_VALUES)
def test_check_exits_with_documented_codes(demo_mesh_files, tmp_path_factory, key, raw):
    assume(not (key == "cell_size" and _fine_cell_size(raw)))
    out = tmp_path_factory.getbasetemp() / "check-property"
    argv = ["check", "--mesh", demo_mesh_files["tee"], "--set", f"{key}={raw}",
            "--out-dir", str(out)]
    assert cli.main(argv) in DOCUMENTED_CODES
