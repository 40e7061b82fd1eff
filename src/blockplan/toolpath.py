"""Pick-and-place toolpath generation and the trapezoidal duration model.

Toolpaths are robot-facing, so commands carry millimeter coordinates
(grid geometry is in cm and converted once at planning time). Every
component costs one full cycle: travel to the source at plane height,
descend, grip, ascend, travel over the target, descend, release, ascend.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .config import DEFAULT_DWELL_S, AssemblyConfig
from .discretizer import OccupancyGrid, json_list, json_triple, real_number
from .errors import ConfigViolation, SchemaError
from .sequencer import AssemblySequence, require_coverage

CM_TO_MM = 10.0
_RATIO_RTOL = 1e-9


class SpeedRatio(Enum):
    ONE_TO_ONE = "one_to_one"  # acceleration equals velocity
    TWO_TO_ONE = "two_to_one"  # acceleration is half the velocity


@dataclass(frozen=True)
class MotionParams:
    """Trapezoidal profile limits: velocity in mm/s, acceleration in mm/s^2."""

    velocity: float
    acceleration: float

    def __post_init__(self) -> None:
        if not (0 < self.velocity < math.inf and 0 < self.acceleration < math.inf):
            raise ValueError("velocity and acceleration must be positive and finite")

    @property
    def ratio(self) -> SpeedRatio | None:
        """Which calibration family the pair belongs to, if any."""
        if math.isclose(self.acceleration, self.velocity, rel_tol=_RATIO_RTOL):
            return SpeedRatio.ONE_TO_ONE
        if math.isclose(self.acceleration, self.velocity / 2.0, rel_tol=_RATIO_RTOL):
            return SpeedRatio.TWO_TO_ONE
        return None


class CommandOp(Enum):
    MOVE = "move"
    GRIP = "grip"
    RELEASE = "release"


@dataclass(frozen=True)
class Command:
    op: CommandOp
    xyz_mm: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.op is CommandOp.MOVE:
            if self.xyz_mm is None or len(self.xyz_mm) != 3:
                raise ValueError("move command needs an xyz_mm triple")
            object.__setattr__(self, "xyz_mm", tuple(map(float, self.xyz_mm)))
        elif self.xyz_mm is not None:
            raise ValueError(f"{self.op.value} command takes no coordinates")


def move(x: float, y: float, z: float) -> Command:
    return Command(CommandOp.MOVE, (x, y, z))


@dataclass(frozen=True)
class Toolpath:
    commands: tuple[Command, ...]
    params: MotionParams

    def __len__(self) -> int:
        return len(self.commands)


def plan_toolpath(
    seq: AssemblySequence,
    grid: OccupancyGrid,
    config: AssemblyConfig,
    params: MotionParams,
) -> Toolpath:
    """Emit one initial plane move plus eight commands per sequenced cell.

    The gripper latches onto the top of a component, so descent targets are
    the cell bottom plus one component height (plus any tool offset). All
    transit happens at the movement plane.
    """
    require_coverage(seq, grid)
    _validate_config(grid, config)

    cell = grid.spec.cell_size
    ox, oy, oz = grid.spec.origin
    sx, sy, sz = (v * CM_TO_MM for v in config.source)
    plane = config.movement_plane_z * CM_TO_MM
    targets = [
        ((ox + (i + 0.5) * cell) * CM_TO_MM, (oy + (j + 0.5) * cell) * CM_TO_MM,
         (oz + (k + 1) * cell + config.tool_offset_z) * CM_TO_MM)
        for i, j, k in seq.cells
    ]
    if not all(map(math.isfinite, chain((sx, sy, sz, plane), *targets))):
        raise ConfigViolation("a toolpath coordinate is not finite in mm")
    # every cycle shares its source moves, grip and release; a target's
    # plane move serves both of its legs
    above_source = move(sx, sy, plane)
    fetch = (above_source, move(sx, sy, sz), Command(CommandOp.GRIP), above_source)
    release = Command(CommandOp.RELEASE)
    commands: list[Command] = [above_source]
    for tx, ty, tz in targets:
        above = move(tx, ty, plane)
        commands += (*fetch, above, move(tx, ty, tz), release, above)
    return Toolpath(tuple(commands), params)


def _validate_config(grid: OccupancyGrid, config: AssemblyConfig) -> None:
    cell = grid.spec.cell_size
    ox, oy, oz = grid.spec.origin
    top = oz + (max(k for _i, _j, k in grid.occupied) + 1) * cell
    # the plane clears the workspace and the finished structure, as in the replay
    for name, height in (("workspace", config.workspace[2]), ("structure's top", top)):
        if not config.plane_clears(height):
            raise ConfigViolation(
                f"movement plane at {config.movement_plane_z} cm is below the "
                f"{name} at {height} cm plus clearance ({config.clearance} cm)"
            )
    # every descent, to the pick and to the highest release, ends below the plane
    release = top + config.tool_offset_z
    for name, z in (("pick", config.source[2]), ("highest release", release)):
        if not z < config.movement_plane_z:
            raise ConfigViolation(
                f"the {name} at {z} cm is not below the movement plane "
                f"at {config.movement_plane_z} cm"
            )
    # the gripper holds a whole component at the source: a cell-sized square
    # centred on it, which must not overlap or touch an occupied footprint
    sx, sy, _ = config.source
    x0, x1, y0, y1 = sx - cell / 2, sx + cell / 2, sy - cell / 2, sy + cell / 2
    for i, j, _k in grid.occupied:
        if ox + i * cell <= x1 and x0 <= ox + (i + 1) * cell and (
            oy + j * cell <= y1 and y0 <= oy + (j + 1) * cell
        ):
            raise ConfigViolation(
                f"the component held at source {config.source[:2]} "
                f"({cell} cm square) overlaps the assembly footprint"
            )


def estimate_duration(
    path: Toolpath, dwell_s: float = DEFAULT_DWELL_S, unit_scale: float = 1.0
) -> float:
    """Total seconds under a trapezoidal velocity profile plus gripper dwells.

    Segments too short to reach cruise velocity (d < v^2/a) use the
    triangular profile 2*sqrt(d/a). ``unit_scale`` rescales the configured
    velocity and acceleration for setups whose units differ from mm/s.
    Raises :class:`ConfigViolation` when the total is not a finite float.
    """
    if dwell_s < 0 or unit_scale <= 0:
        raise ValueError("dwell_s must be >= 0 and unit_scale positive")
    v = path.params.velocity * unit_scale
    a = path.params.acceleration * unit_scale
    if not (v > 0 and a > 0):  # the scaled limits underflowed
        raise ConfigViolation("velocity and acceleration underflow at this motion_unit_scale")
    # hoisted out of the loop: the same values, and an enum member lookup is
    # slower than a whole segment's arithmetic
    cruise, ramp, move_op = v * v / a, v / a, CommandOp.MOVE
    total = 0.0
    position: tuple[float, float, float] | None = None
    for command in path.commands:
        if command.op is move_op:
            if position is not None:
                d = math.dist(position, command.xyz_mm)
                if d > 0:
                    total += d / v + ramp if d >= cruise else 2.0 * math.sqrt(d / a)
            position = command.xyz_mm
        else:
            total += dwell_s
    if not math.isfinite(total):
        raise ConfigViolation(f"the estimated build time is not finite ({total} s)")
    return total


def calibration_schedule(
    start_velocity: float = 1.0,
    increment: float = 0.5,
    max_velocity: float = 2.5,
) -> list[MotionParams]:
    """Sweep velocities from start to max, each at 1:1 and 2:1 ratios.

    Defaults yield the eight-point schedule used to find the fastest
    reliable operating point; ordering is by velocity, then ratio.
    """
    if not all(map(math.isfinite, (start_velocity, increment, max_velocity))):
        raise ValueError("start_velocity, increment and max_velocity must be finite")
    if increment <= 0:
        raise ValueError("increment must be positive")
    if start_velocity > max_velocity:
        raise ValueError("start_velocity must not exceed max_velocity")
    schedule: list[MotionParams] = []
    step = 0
    while True:
        velocity = start_velocity + step * increment
        if velocity > max_velocity + 1e-9:
            break
        schedule.append(MotionParams(velocity, velocity))
        schedule.append(MotionParams(velocity, velocity / 2.0))
        step += 1
    return schedule


# --- emission ----------------------------------------------------------------

# toolpath.json is json.dumps(document, indent=2) + "\n", byte for byte. With
# an indent that encoder runs in pure Python, and this is the largest
# artifact, so each command fills one of these fixed layouts instead.
_MOVE_JSON = '{\n      "op": "move",\n      "xyz_mm": ' + json_triple(6) + "\n    }"
_OP_JSON = '{\n      "op": "%s"\n    }'


def _json_number(value) -> str:
    """``json.dumps(value)``; for a finite float that is its ``repr``."""
    return repr(value) if type(value) is float and math.isfinite(value) else json.dumps(value)


def _each_rendered(commands: tuple[Command, ...], render) -> map:
    """``map(render, commands)``, calling ``render`` once per distinct command
    object. Keyed by ``id``, not equality: 0.0 == -0.0, but they print differently."""
    text = {key: render(c) for key, c in dict(zip(map(id, commands), commands)).items()}
    return map(text.__getitem__, map(id, commands))


def _command_json(command: Command) -> str:
    xyz = command.xyz_mm  # floats, which print as json.dumps prints them when finite
    if xyz is None:
        return _OP_JSON % command.op.value
    return _MOVE_JSON % (xyz if all(map(math.isfinite, xyz)) else tuple(map(_json_number, xyz)))


def emit_toolpath(path: Toolpath, fmt: str = "json") -> bytes:
    """Serialize as canonical JSON or as a line-oriented robot script, whose
    three-decimal motion limits must read back within 1 % (else ConfigViolation)."""
    if fmt == "json":
        commands = json_list(_each_rendered(path.commands, _command_json), 2)
        v, a = map(_json_number, (path.params.velocity, path.params.acceleration))
        return (
            f'{{\n  "params": {{\n    "velocity": {v},\n    "acceleration": {a}\n  }},\n'
            f'  "commands": {commands}\n}}\n'
        ).encode("utf-8")
    if fmt == "robot_script":
        v, a = (f"{limit:.3f}" for limit in (path.params.velocity, path.params.acceleration))
        for text, limit in ((v, path.params.velocity), (a, path.params.acceleration)):
            if abs(float(text) - limit) > 0.01 * limit:
                raise ConfigViolation(
                    f"the robot script states the motion limit {limit!r} as {text}, "
                    "more than 1 % off"
                )

        def line(command: Command) -> str:
            if command.op is CommandOp.MOVE:
                x, y, z = command.xyz_mm
                return f"MOVE {x:.3f} {y:.3f} {z:.3f} {v} {a}"
            return command.op.value.upper()

        return ("\n".join(_each_rendered(path.commands, line)) + "\n").encode("ascii")
    raise ValueError(f"unknown toolpath format {fmt!r}")


def parse_toolpath(data: bytes | str) -> Toolpath:
    """Inverse of the JSON emitter."""
    try:
        obj = json.loads(data)
        params = MotionParams(
            velocity=real_number(obj["params"]["velocity"]),
            acceleration=real_number(obj["params"]["acceleration"]),
        )
        commands = []
        for entry in obj["commands"]:
            op = CommandOp(entry["op"])
            if op is CommandOp.MOVE:
                xyz = tuple(map(real_number, entry["xyz_mm"]))
                if not all(map(math.isfinite, xyz)):
                    raise ValueError("xyz_mm must hold finite numbers")
                commands.append(Command(op, xyz))  # which refuses all but a triple
            else:
                commands.append(Command(op))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaError(f"not a valid toolpath document: {exc}") from exc
    return Toolpath(tuple(commands), params)
