"""Toolpath planning, the trapezoidal duration model, and serialization."""
from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockplan.config import AssemblyConfig
from blockplan.errors import ConfigViolation, SchemaError, SequenceGridMismatch
from blockplan.feasibility import simulate_assembly
from blockplan.sequencer import AssemblySequence, connectivity_sort
from blockplan.toolpath import (
    Command,
    CommandOp,
    MotionParams,
    SpeedRatio,
    Toolpath,
    calibration_schedule,
    emit_toolpath,
    estimate_duration,
    move,
    parse_toolpath,
    plan_toolpath,
)
from tests.conftest import make_grid, random_buildable_grid
from tests.oracles import emit_toolpath_json

OPERATING_POINT = MotionParams(2.0, 1.0)


def planned(grid, config, params=OPERATING_POINT):
    return plan_toolpath(connectivity_sort(grid), grid, config, params)


def segment_lengths(path: Toolpath) -> list[float]:
    lengths = []
    position = None
    for command in path.commands:
        if command.op is CommandOp.MOVE:
            if position is not None:
                lengths.append(math.dist(position, command.xyz_mm))
            position = command.xyz_mm
    return lengths


def closed_form_duration(path: Toolpath, dwell_s: float = 0.5) -> float:
    """Re-derive the duration from segment lengths and the profile formulas."""
    v, a = path.params.velocity, path.params.acceleration
    total = dwell_s * sum(1 for c in path.commands if c.op is not CommandOp.MOVE)
    for d in segment_lengths(path):
        if d == 0:
            continue
        total += d / v + v / a if d >= v * v / a else 2.0 * math.sqrt(d / a)
    return total


# --- motion parameters ---------------------------------------------------


@pytest.mark.parametrize("velocity,acceleration", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
def test_params_must_be_positive(velocity, acceleration):
    with pytest.raises(ValueError):
        MotionParams(velocity, acceleration)


@pytest.mark.parametrize(
    "velocity,acceleration",
    [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)],
)
def test_params_must_be_finite(velocity, acceleration):
    with pytest.raises(ValueError):
        MotionParams(velocity, acceleration)


def test_params_ratio_classification():
    assert MotionParams(1.0, 1.0).ratio is SpeedRatio.ONE_TO_ONE
    assert MotionParams(2.0, 1.0).ratio is SpeedRatio.TWO_TO_ONE
    assert MotionParams(2.0, 0.7).ratio is None


# --- planning -------------------------------------------------------------


def test_single_cell_cycle(grid_factory, config):
    path = planned(grid_factory([(0, 0, 0)]), config)
    source_plane = move(-150.0, -150.0, 650.0)
    assert path.commands == (
        source_plane,
        source_plane,
        move(-150.0, -150.0, 100.0),
        Command(CommandOp.GRIP),
        source_plane,
        move(50.0, 50.0, 650.0),
        move(50.0, 50.0, 100.0),
        Command(CommandOp.RELEASE),
        move(50.0, 50.0, 650.0),
    )


@pytest.mark.parametrize("cells", [1, 5, 40])
def test_command_count_law(cells, config):
    rng = random.Random(cells)
    grid = None
    while grid is None or len(grid.occupied) != cells:
        grid = random_buildable_grid(rng, max_cells=40)
        if len(grid.occupied) > cells:
            grid = None
    path = planned(grid, config)
    assert len(path) == 1 + 8 * cells


def test_grip_and_release_positions(grid_factory, config):
    grid = grid_factory([(0, 0, 0), (1, 0, 0), (1, 0, 1)])
    path = planned(grid, config)
    for c in range(3):
        assert path.commands[8 * c + 3].op is CommandOp.GRIP
        assert path.commands[8 * c + 7].op is CommandOp.RELEASE
    ops = [c.op for c in path.commands]
    assert ops.count(CommandOp.GRIP) == ops.count(CommandOp.RELEASE) == 3


def test_descents_are_vertical_and_transit_stays_on_plane(grid_factory, config):
    grid = grid_factory([(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)])
    seq = connectivity_sort(grid)
    path = planned(grid, config)
    plane_mm = config.movement_plane_z * 10.0
    for c, (_i, _j, k) in enumerate(seq.cells):
        base = 1 + 8 * c
        src_plane, src_down = path.commands[base], path.commands[base + 1]
        assert src_down.xyz_mm[:2] == src_plane.xyz_mm[:2]
        assert src_down.xyz_mm[2] == config.source[2] * 10.0
        tgt_plane, tgt_down = path.commands[base + 4], path.commands[base + 5]
        assert tgt_down.xyz_mm[:2] == tgt_plane.xyz_mm[:2]
        assert tgt_down.xyz_mm[2] == (k + 1) * 100.0
        for idx in (base, base + 3, base + 4, base + 7):
            assert path.commands[idx].xyz_mm[2] == plane_mm


def test_release_height_includes_origin_and_tool_offset(grid_factory, config):
    grid = grid_factory([(0, 0, 0)], origin=(5.0, 0.0, 20.0))
    lifted = dataclasses.replace(config, tool_offset_z=1.5)
    path = planned(grid, lifted)
    assert path.commands[6].xyz_mm == (100.0, 50.0, (20.0 + 10.0 + 1.5) * 10.0)


def test_plan_rejects_sequence_grid_mismatch(grid_factory, config):
    grid = grid_factory([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(SequenceGridMismatch):
        plan_toolpath(AssemblySequence(((0, 0, 0),)), grid, config, OPERATING_POINT)


def test_plan_rejects_low_movement_plane(grid_factory, config):
    grid = grid_factory([(0, 0, 0)])
    low = dataclasses.replace(config, movement_plane_z=61.0)
    with pytest.raises(ConfigViolation):
        planned(grid, low)


def test_plan_accepts_plane_at_exact_clearance(grid_factory, config):
    grid = grid_factory([(0, 0, 0)])
    boundary = dataclasses.replace(config, movement_plane_z=62.0)
    assert len(planned(grid, boundary)) == 9


def test_plan_rejects_source_inside_footprint(grid_factory, config):
    grid = grid_factory([(0, 0, 0)])
    inside = dataclasses.replace(config, source=(5.0, 5.0, 10.0))
    with pytest.raises(ConfigViolation):
        planned(grid, inside)


@pytest.mark.parametrize("xy, rejected", [
    ((-5.0, 5.0), True),  # the held square's edge touches the cell's edge
    ((15.0, 15.0), True),  # corner to corner
    ((5.0, -5.0), True),
    ((-5.001, 5.0), False),
    ((15.001, 5.0), False),
    ((5.0, 15.001), False),
])
def test_plan_tests_the_held_component_against_the_footprint(grid_factory, config, xy, rejected):
    grid = grid_factory([(0, 0, 0)])
    near = dataclasses.replace(config, source=(*xy, 10.0))
    if rejected:
        with pytest.raises(ConfigViolation, match="component held at source"):
            planned(grid, near)
    else:
        assert len(planned(grid, near)) == 9


@pytest.mark.parametrize("change, refused", [
    # two layers of 10 cm cells: the top one is released at 20 cm plus the offset
    ({"tool_offset_z": 45.0}, "highest release at 65.0 cm"),
    ({"tool_offset_z": 44.999}, None),
    ({"source": (-15.0, -15.0, 65.0)}, "pick at 65.0 cm"),
    ({"source": (-15.0, -15.0, 64.999)}, None),
    ({"source": (-15.0, -15.0, 65.0), "movement_plane_z": 65.001}, None),
])
def test_plan_ends_every_descent_below_the_plane(grid_factory, config, change, refused):
    grid = grid_factory([(0, 0, 0), (0, 0, 1)])
    if refused:
        with pytest.raises(ConfigViolation, match=f"{refused} is not below the movement plane"):
            planned(grid, dataclasses.replace(config, **change))
    else:
        path = planned(grid, dataclasses.replace(config, **change))
        plane = path.commands[0].xyz_mm[2]
        assert all(c.xyz_mm[2] < plane for c in path.commands if c.xyz_mm and c.xyz_mm[2] != plane)


@pytest.mark.parametrize("clearance, refused", [(2.0, False), (2.001, True)])
def test_plan_clears_the_finished_structure(grid_factory, config, clearance, refused):
    # three layers from 33 cm top out at 63 cm: the 65 cm plane clears them by 2 cm,
    # though the highest release, at 63 cm, is below it either way
    grid = grid_factory([(0, 0, 0), (0, 0, 1), (0, 0, 2)], origin=(0.0, 0.0, 33.0))
    margin = dataclasses.replace(config, clearance=clearance)
    if refused:
        with pytest.raises(ConfigViolation, match="below the structure's top at 63.0 cm"):
            planned(grid, margin)
    else:
        assert len(planned(grid, margin)) == 25


def test_every_accepted_plan_clears_the_plane_in_the_replay(config):
    # the planner refuses every plan whose replay flags the movement plane
    rng = random.Random(20)
    accepted = unclear = 0
    for _ in range(400):
        cells = random_buildable_grid(rng, max_cells=12).occupied
        origin = (0.0, 0.0, rng.uniform(-10.0, 40.0))
        grid = make_grid(cells, cell_size=rng.choice((5.0, 8.0, 10.0, 11.0)), origin=origin)
        changed = dataclasses.replace(
            config, clearance=rng.uniform(0.0, 5.0), tool_offset_z=rng.uniform(-10.0, 5.0)
        )
        seq = connectivity_sort(grid)
        steps = simulate_assembly(seq, grid, changed).steps
        if not steps[-1].plane_clear:  # the finished structure is the tallest
            unclear += 1
            with pytest.raises(ConfigViolation):
                plan_toolpath(seq, grid, changed, OPERATING_POINT)
            continue
        try:
            plan_toolpath(seq, grid, changed, OPERATING_POINT)
        except ConfigViolation:
            continue
        accepted += 1
        assert all(step.plane_clear for step in steps)
    assert accepted >= 100 and unclear >= 10


@pytest.mark.parametrize(
    "change",
    [
        {"tool_offset_z": math.inf},
        {"tool_offset_z": -1e308},  # finite in cm, past the float range in mm
        {"movement_plane_z": math.inf},
        {"source": (-math.inf, 0.0, 0.0)},
    ],
)
def test_plan_rejects_non_finite_coordinates(grid_factory, config, change):
    grid = grid_factory([(0, 0, 0)])
    with pytest.raises(ConfigViolation):
        planned(grid, dataclasses.replace(config, **change))


# --- duration model --------------------------------------------------------


def test_duration_trapezoidal_segment():
    path = Toolpath((move(0, 0, 0), move(100, 0, 0)), MotionParams(10.0, 10.0))
    assert estimate_duration(path) == pytest.approx(11.0, rel=1e-12)


def test_duration_triangular_segment():
    # d = 5 < v^2/a = 10, so cruise speed is never reached.
    path = Toolpath((move(0, 0, 0), move(0, 0, 5)), MotionParams(10.0, 10.0))
    assert estimate_duration(path) == pytest.approx(2 * math.sqrt(0.5), rel=1e-9)


def test_duration_first_move_is_free():
    path = Toolpath((move(500, 500, 500),), MotionParams(1.0, 1.0))
    assert estimate_duration(path) == 0.0


def test_duration_zero_length_move_costs_nothing():
    path = Toolpath((move(5, 5, 5), move(5, 5, 5)), MotionParams(1.0, 1.0))
    assert estimate_duration(path) == 0.0


def test_duration_counts_gripper_dwells():
    path = Toolpath(
        (Command(CommandOp.GRIP), Command(CommandOp.RELEASE)), MotionParams(1.0, 1.0)
    )
    assert estimate_duration(path) == 1.0
    assert estimate_duration(path, dwell_s=0.25) == 0.5


def test_duration_rejects_bad_arguments():
    path = Toolpath((move(0, 0, 0),), MotionParams(1.0, 1.0))
    with pytest.raises(ValueError):
        estimate_duration(path, dwell_s=-0.1)
    with pytest.raises(ValueError):
        estimate_duration(path, unit_scale=0.0)


def test_duration_single_cell_closed_form(grid_factory, config):
    # Four 550 mm vertical legs, one 200*sqrt(2) mm diagonal transit, all
    # trapezoidal at v=2, a=1, plus two 0.5 s dwells:
    # 4*(550/2 + 2) + (200*sqrt(2)/2 + 2) + 1 = 1111 + 100*sqrt(2).
    path = planned(grid_factory([(0, 0, 0)]), config)
    expected = 1111.0 + 100.0 * math.sqrt(2.0)
    assert estimate_duration(path) == pytest.approx(expected, rel=1e-12)


def test_duration_matches_closed_form_on_random_paths(buildable_grid_factory, config):
    rng = random.Random(815)
    for _ in range(10):
        grid = buildable_grid_factory(rng)
        path = planned(grid, config)
        assert estimate_duration(path) == pytest.approx(
            closed_form_duration(path), rel=1e-12
        )


def test_duration_decreases_with_velocity(buildable_grid_factory, config):
    grid = buildable_grid_factory(random.Random(5150), max_cells=10)
    seq = connectivity_sort(grid)
    for params_for in (
        lambda v: MotionParams(v, v),
        lambda v: MotionParams(v, 1.0),
    ):
        durations = [
            estimate_duration(plan_toolpath(seq, grid, config, params_for(v)))
            for v in (1.0, 1.5, 2.0, 2.5)
        ]
        assert all(a > b for a, b in zip(durations, durations[1:]))


def test_duration_unit_scale_matches_scaled_params(grid_factory, config):
    path = planned(grid_factory([(0, 0, 0), (1, 0, 0)]), config)
    doubled = Toolpath(path.commands, MotionParams(4.0, 2.0))
    assert estimate_duration(path, unit_scale=2.0) == pytest.approx(
        estimate_duration(doubled), rel=1e-12
    )


# --- calibration ------------------------------------------------------------


def test_calibration_schedule_default_eight_points():
    schedule = calibration_schedule()
    assert [(p.velocity, p.acceleration) for p in schedule] == [
        (1.0, 1.0),
        (1.0, 0.5),
        (1.5, 1.5),
        (1.5, 0.75),
        (2.0, 2.0),
        (2.0, 1.0),
        (2.5, 2.5),
        (2.5, 1.25),
    ]
    assert [p.ratio for p in schedule] == [
        SpeedRatio.ONE_TO_ONE,
        SpeedRatio.TWO_TO_ONE,
    ] * 4


def test_calibration_schedule_contains_operating_point():
    assert OPERATING_POINT in calibration_schedule()


def test_calibration_schedule_single_velocity():
    schedule = calibration_schedule(2.5, 0.5, 2.5)
    assert [(p.velocity, p.acceleration) for p in schedule] == [(2.5, 2.5), (2.5, 1.25)]


def test_calibration_schedule_rejects_bad_ranges():
    with pytest.raises(ValueError):
        calibration_schedule(increment=0.0)
    with pytest.raises(ValueError):
        calibration_schedule(start_velocity=3.0, max_velocity=2.5)


@pytest.mark.parametrize("bounds", [
    {"max_velocity": math.inf},  # the sweep would never end
    {"max_velocity": math.nan},
    {"start_velocity": -math.inf},
    {"increment": math.inf},
])
def test_calibration_schedule_refuses_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="must be finite"):
        calibration_schedule(**bounds)


# --- serialization -----------------------------------------------------------


def test_command_validation():
    with pytest.raises(ValueError):
        Command(CommandOp.MOVE)
    with pytest.raises(ValueError):
        Command(CommandOp.MOVE, (1.0, 2.0))
    with pytest.raises(ValueError):
        Command(CommandOp.GRIP, (0.0, 0.0, 0.0))


def test_json_round_trip(grid_factory, config):
    path = planned(grid_factory([(0, 0, 0), (0, 1, 0)]), config)
    assert parse_toolpath(emit_toolpath(path)) == path


def test_json_document_shape(grid_factory, config):
    path = planned(grid_factory([(0, 0, 0)]), config)
    doc = json.loads(emit_toolpath(path))
    assert doc["params"] == {"velocity": 2.0, "acceleration": 1.0}
    assert len(doc["commands"]) == 9
    assert doc["commands"][0] == {"op": "move", "xyz_mm": [-150.0, -150.0, 650.0]}
    assert doc["commands"][3] == {"op": "grip"}
    assert doc["commands"][7] == {"op": "release"}


_SPECIAL_FLOATS = (-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf)
_coordinates = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_commands = st.lists(
    st.sampled_from([Command(CommandOp.GRIP), Command(CommandOp.RELEASE)])
    | st.tuples(_coordinates, _coordinates, _coordinates).map(lambda xyz: move(*xyz)),
    max_size=20,
)
# every kind of number MotionParams accepts: ints, floats, a float subclass, True
_limits = (
    st.integers(1, 10**30)
    | st.floats(min_value=5e-324, allow_infinity=False)
    | st.floats(min_value=5e-324, allow_infinity=False).map(np.float64)
    | st.just(True)
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(commands=_commands, velocity=_limits, acceleration=_limits)
@example(commands=[], velocity=2.0, acceleration=1.0)
@example(
    commands=[Command(CommandOp.GRIP)] * 2 + [Command(CommandOp.RELEASE)] * 3,
    velocity=2, acceleration=True,
)
@example(
    commands=[move(*_SPECIAL_FLOATS[:3]), move(*_SPECIAL_FLOATS[3:]), move(0, -0.0, 1)],
    velocity=1e308, acceleration=5e-324,
)
def test_json_writer_matches_the_json_module(commands, velocity, acceleration):
    path = Toolpath(tuple(commands), MotionParams(velocity, acceleration))
    assert emit_toolpath(path) == emit_toolpath_json(path)


def test_robot_script_format(grid_factory, config):
    path = planned(grid_factory([(0, 0, 0)]), config)
    script = emit_toolpath(path, fmt="robot_script").decode("ascii")
    assert script.endswith("\n")
    lines = script.splitlines()
    assert len(lines) == 9
    assert lines[0] == "MOVE -150.000 -150.000 650.000 2.000 1.000"
    assert lines[3] == "GRIP"
    assert lines[7] == "RELEASE"
    for line in lines:
        if line.startswith("MOVE"):
            assert len(line.split()) == 6


@pytest.mark.parametrize("velocity, acceleration, refused", [
    (0.0004, 0.0002, "0.0004 as 0.000"),  # both read back as zero
    (2.0, 0.0005, "0.0005 as 0.001"),  # read back as twice the limit
    (0.0995, 0.0495, "0.0495 as 0.050"),  # 0.5 % off, then 1.01 % off
    (0.05, 0.0505, None),  # exactly 0.050, then 0.99 % off
    (1e300, 1e-3, None),
])
def test_robot_script_refuses_limits_it_would_misstate(
    grid_factory, config, velocity, acceleration, refused
):
    path = planned(grid_factory([(0, 0, 0)]), config, MotionParams(velocity, acceleration))
    if refused:
        with pytest.raises(ConfigViolation, match=f"motion limit {refused}, more than 1 % off"):
            emit_toolpath(path, fmt="robot_script")
    else:
        line = emit_toolpath(path, fmt="robot_script").decode("ascii").splitlines()[0]
        v, a = map(float, line.split()[4:])
        assert v == pytest.approx(velocity, rel=0.01) and a == pytest.approx(acceleration, rel=0.01)
    assert emit_toolpath(path)  # the JSON plan states every limit as given


def test_emit_rejects_unknown_format(grid_factory, config):
    path = planned(grid_factory([(0, 0, 0)]), config)
    with pytest.raises(ValueError):
        emit_toolpath(path, fmt="gcode")


@pytest.mark.parametrize(
    "data",
    [
        b"junk",
        b"{}",
        b'{"params": {"velocity": 1.0}, "commands": []}',
        b'{"params": {"velocity": 1.0, "acceleration": 1.0}, "commands": [{"op": "fly"}]}',
        b'{"params": {"velocity": 1.0, "acceleration": 1.0}, "commands": [{"op": "move", "xyz_mm": [1, 2]}]}',
        # JSON numbers only: no strings, booleans, or a string read as three digits
        b'{"params": {"velocity": "2", "acceleration": 1.0}, "commands": []}',
        b'{"params": {"velocity": 1.0, "acceleration": true}, "commands": []}',
        b'{"params": {"velocity": 1.0, "acceleration": 1.0}, "commands": [{"op": "move", "xyz_mm": "123"}]}',
    ],
)
def test_parse_toolpath_rejects_bad_documents(data):
    with pytest.raises(SchemaError):
        parse_toolpath(data)


@pytest.mark.parametrize(
    "xyz, message",
    [
        ("[1, 2]", "move command needs an xyz_mm triple"),
        ("[1, 2, 3, 4]", "move command needs an xyz_mm triple"),
        ("[]", "move command needs an xyz_mm triple"),
        ("[1, NaN, 3]", "xyz_mm must hold finite numbers"),
    ],
)
def test_parse_toolpath_names_xyz_mm_in_its_refusal(xyz, message):
    data = '{"params": {"velocity": 1.0, "acceleration": 1.0}, "commands": [{"op": "move", "xyz_mm": %s}]}'
    with pytest.raises(SchemaError) as caught:
        parse_toolpath(data % xyz)
    assert str(caught.value) == f"not a valid toolpath document: {message}"


@pytest.mark.parametrize(
    "params,xyz",
    [
        ('"velocity": NaN, "acceleration": 1.0', "[0, 0, 0]"),
        ('"velocity": Infinity, "acceleration": 1.0', "[0, 0, 0]"),
        ('"velocity": 1.0, "acceleration": NaN', "[0, 0, 0]"),
        ('"velocity": 1.0, "acceleration": Infinity', "[0, 0, 0]"),
        ('"velocity": 1.0, "acceleration": 1.0', "[NaN, 0, 0]"),
        ('"velocity": 1.0, "acceleration": 1.0', "[0, Infinity, 0]"),
        ('"velocity": 1.0, "acceleration": 1.0', "[0, 0, -Infinity]"),
        ('"velocity": 1.0, "acceleration": 1.0', "[0, 0, 1e999]"),
    ],
    ids=["v-nan", "v-inf", "a-nan", "a-inf", "x-nan", "y-inf", "z-minus-inf", "z-1e999"],
)
def test_parse_toolpath_rejects_non_finite_values(params, xyz):
    # Python's json reads NaN, Infinity and 1e999; none is a valid limit or coordinate
    data = '{"params": {%s}, "commands": [{"op": "move", "xyz_mm": %s}]}' % (params, xyz)
    with pytest.raises(SchemaError):
        parse_toolpath(data)
