"""The one configuration type: assembly, robot motion and mesh intake."""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass

from .discretizer import DEFAULT_CELL_SIZE, real_number, whole_number
from .errors import SchemaError
from .mesh_io import DEFAULT_WELD_TOLERANCE

DEFAULT_OVERHANG_LIMIT = 3  # unsupported same-layer steps from a supported cell
DEFAULT_STACK_LIMIT = 4  # tallest free-standing column kept
DEFAULT_DWELL_S = 0.5  # gripper open/close dwell

# Every grid lies inside the fitted workspace box, so capping the cells the
# workspace holds at this cell size bounds the memory and time of voxelizing.
MAX_GRID_CELLS = 2**24
# The plan holds a sequence step and eight toolpath commands per component.
MAX_INVENTORY = 2**16


@dataclass(frozen=True)
class AssemblyConfig:
    """Workspace geometry, robot parameters and mesh intake for one build.

    ``workspace`` is the reachable build volume, three extents in cm.
    ``movement_plane_z`` must clear the workspace and the finished
    structure's top by ``clearance`` and lie above the pick and every
    release, and the component held at ``source`` (a cell-sized square
    centred on it in x and y) must neither overlap nor touch the assembly
    footprint; these are enforced when a toolpath is planned, where the
    occupied cells are known.
    Every other constraint is checked here and raises :class:`ValueError`.
    """

    workspace: tuple[float, float, float] = (60.0, 50.0, 60.0)  # cm
    cell_size: float = DEFAULT_CELL_SIZE
    inventory: int = 40
    source: tuple[float, float, float] = (-15.0, -15.0, 10.0)  # cm, pick-up point
    movement_plane_z: float = 65.0  # cm, above the 60 cm workspace plus clearance
    clearance: float = 2.0  # cm between the travel plane and the tallest stack
    overhang_limit: int = DEFAULT_OVERHANG_LIMIT
    stack_limit: int = DEFAULT_STACK_LIMIT
    tool_offset_z: float = 0.0
    max_upscale: float | None = 1.0
    velocity: float = 2.0  # mm/s, calibrated operating point
    acceleration: float = 1.0  # mm/s^2
    gripper_dwell_s: float = DEFAULT_DWELL_S
    motion_unit_scale: float = 1.0
    mesh_unit_scale: float = 1.0  # mesh file units -> cm
    weld_tolerance: float = DEFAULT_WELD_TOLERANCE

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            # NaN passes every range check below, so reject it first
            if any(isinstance(v, float) and math.isnan(v) for v in values):
                raise ValueError(f"{f.name} must not be NaN")
        if len(self.workspace) != 3 or len(self.source) != 3:
            raise ValueError("workspace and source must have 3 entries")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if any(e < self.cell_size for e in self.workspace):
            raise ValueError("workspace must fit at least one component per axis")
        # bounds the ceil(e / cell) cells per axis; an infinite product fails too
        cells = math.prod(e / self.cell_size + 1 for e in self.workspace)
        if not cells <= MAX_GRID_CELLS:
            raise ValueError(f"workspace holds over {MAX_GRID_CELLS} cells of this size")
        if not 1 <= self.inventory <= MAX_INVENTORY:
            raise ValueError(f"inventory must hold 1 to {MAX_INVENTORY} components")
        if self.clearance < 0:
            raise ValueError("clearance must be >= 0")
        if self.overhang_limit < 0 or self.stack_limit < 1:
            raise ValueError("overhang_limit >= 0 and stack_limit >= 1 required")
        if not (0 < self.velocity < math.inf and 0 < self.acceleration < math.inf):
            raise ValueError("velocity and acceleration must be positive and finite")
        if self.gripper_dwell_s < 0 or not 0 < self.motion_unit_scale < math.inf:
            raise ValueError("gripper_dwell_s >= 0 and a finite motion_unit_scale > 0 required")
        if self.weld_tolerance < 0:
            raise ValueError("weld_tolerance must be >= 0")
        if self.mesh_unit_scale <= 0:
            raise ValueError("mesh_unit_scale must be positive")
        if self.max_upscale is not None and self.max_upscale <= 0:
            raise ValueError("max_upscale must be positive or null")

    def plane_clears(self, height: float) -> bool:
        """Whether the movement plane clears ``height`` cm by ``clearance``."""
        return self.movement_plane_z >= height + self.clearance - 1e-9

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "AssemblyConfig":
        """Build a config from JSON values (a ``--config`` file, ``--set``).

        Each value is converted by its field's type. Unknown keys, values of
        the wrong shape and values the config rejects raise
        :class:`SchemaError`.
        """
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        values = {}
        for key, value in mapping.items():
            if key not in types:
                raise SchemaError(f"unknown config key {key!r}")
            try:
                values[key] = _convert(types[key], value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"config key {key!r}: bad value {value!r}") from exc
        try:
            return cls(**values)
        except ValueError as exc:
            raise SchemaError(f"invalid config: {exc}") from exc


def _convert(kind: str, value):
    """One JSON value as a field of annotation ``kind`` (a string under
    ``from __future__ import annotations``)."""
    if value is None and kind.endswith("| None"):
        return None
    if kind == "tuple[float, float, float]":
        return tuple(map(real_number, value))  # the config checks the length
    if kind == "int":
        return whole_number(value)
    return real_number(value)
