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

from .config import DEFAULT_DWELL_S, AssemblyConfig
from .discretizer import OccupancyGrid
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

    @classmethod
    def with_ratio(cls, velocity: float, ratio: SpeedRatio) -> "MotionParams":
        if ratio is SpeedRatio.ONE_TO_ONE:
            return cls(velocity, velocity)
        return cls(velocity, velocity / 2.0)

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
            object.__setattr__(
                self, "xyz_mm", tuple(float(v) for v in self.xyz_mm)
            )
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

    commands: list[Command] = [move(sx, sy, plane)]
    for i, j, k in seq.cells:
        tx = (ox + (i + 0.5) * cell) * CM_TO_MM
        ty = (oy + (j + 0.5) * cell) * CM_TO_MM
        tz = (oz + (k + 1) * cell + config.tool_offset_z) * CM_TO_MM
        commands.append(move(sx, sy, plane))
        commands.append(move(sx, sy, sz))
        commands.append(Command(CommandOp.GRIP))
        commands.append(move(sx, sy, plane))
        commands.append(move(tx, ty, plane))
        commands.append(move(tx, ty, tz))
        commands.append(Command(CommandOp.RELEASE))
        commands.append(move(tx, ty, plane))
    if not all(math.isfinite(v) for c in commands if c.xyz_mm for v in c.xyz_mm):
        raise ConfigViolation("a toolpath coordinate is not finite in mm")
    return Toolpath(tuple(commands), params)


def _validate_config(grid: OccupancyGrid, config: AssemblyConfig) -> None:
    required = config.workspace.extent[2] + config.clearance
    if config.movement_plane_z < required - 1e-9:
        raise ConfigViolation(
            f"movement plane at {config.movement_plane_z} cm is below the "
            f"workspace plus clearance ({required} cm)"
        )
    cell = grid.spec.cell_size
    ox, oy, _ = grid.spec.origin
    sx, sy, _ = config.source
    for i, j, _k in grid.occupied:
        if ox + i * cell <= sx <= ox + (i + 1) * cell and (
            oy + j * cell <= sy <= oy + (j + 1) * cell
        ):
            raise ConfigViolation(
                f"source {config.source[:2]} lies inside the assembly footprint"
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
    total = 0.0
    position: tuple[float, float, float] | None = None
    for command in path.commands:
        if command.op is CommandOp.MOVE:
            if position is not None:
                d = math.dist(position, command.xyz_mm)
                if d > 0:
                    if d >= v * v / a:
                        total += d / v + v / a
                    else:
                        total += 2.0 * math.sqrt(d / a)
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
        schedule.append(MotionParams.with_ratio(velocity, SpeedRatio.ONE_TO_ONE))
        schedule.append(MotionParams.with_ratio(velocity, SpeedRatio.TWO_TO_ONE))
        step += 1
    return schedule


# --- emission ----------------------------------------------------------------


def emit_toolpath(path: Toolpath, fmt: str = "json") -> bytes:
    """Serialize as canonical JSON or as a line-oriented robot script."""
    if fmt == "json":
        obj = {
            "params": {
                "velocity": path.params.velocity,
                "acceleration": path.params.acceleration,
            },
            "commands": [_command_to_obj(c) for c in path.commands],
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    if fmt == "robot_script":
        v = path.params.velocity
        a = path.params.acceleration
        lines = []
        for command in path.commands:
            if command.op is CommandOp.MOVE:
                x, y, z = command.xyz_mm
                lines.append(f"MOVE {x:.3f} {y:.3f} {z:.3f} {v:.3f} {a:.3f}")
            else:
                lines.append(command.op.value.upper())
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unknown toolpath format {fmt!r}")


def _command_to_obj(command: Command) -> dict:
    if command.op is CommandOp.MOVE:
        return {"op": "move", "xyz_mm": list(command.xyz_mm)}
    return {"op": command.op.value}


def parse_toolpath(data: bytes | str) -> Toolpath:
    """Inverse of the JSON emitter."""
    try:
        obj = json.loads(data)
        params = MotionParams(
            velocity=float(obj["params"]["velocity"]),
            acceleration=float(obj["params"]["acceleration"]),
        )
        commands = []
        for entry in obj["commands"]:
            op = CommandOp(entry["op"])
            if op is CommandOp.MOVE:
                xyz = [float(v) for v in entry["xyz_mm"]]
                if len(xyz) != 3 or not all(map(math.isfinite, xyz)):
                    raise ValueError("xyz_mm must be 3 finite numbers")
                commands.append(move(*xyz))
            else:
                commands.append(Command(op))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaError(f"not a valid toolpath document: {exc}") from exc
    return Toolpath(tuple(commands), params)
