"""blockplan: turn a triangle mesh (or a text request) into a feasible
cube-component assembly plan and a robot toolpath.

The pipeline stages, in order:

1. frontend  - extract a physical-object phrase from free text
2. mesh_io   - parse, repair, and serialize STL / OBJ meshes
3. discretizer - fit a mesh to the workspace and voxelize it
4. feasibility - run buildability checks and rewrite failing designs
5. sequencer - order the cells so every placement rests on support
6. toolpath  - emit pick-and-place motion commands with timing
7. validation - replay a plan step by step and cross-check the report,
   also in ``feasibility``
"""
from __future__ import annotations

from .config import AssemblyConfig
from .discretizer import (
    DEFAULT_CELL_SIZE,
    GridSpec,
    OccupancyGrid,
    build_grid,
    fit_to_workspace,
    voxelize,
)
from .errors import (
    BlockplanError,
    CannotFit,
    ClientUnavailable,
    ConfigViolation,
    EmptyAfterModification,
    EmptyAssembly,
    EmptyMesh,
    MalformedFile,
    SchemaError,
    SequenceGridMismatch,
    UnsupportedFormat,
    Unsequenceable,
)
from .feasibility import (
    CheckKind,
    CheckResult,
    FeasibilityReport,
    PlacementStep,
    SimulationReport,
    check_component_count,
    check_overhang,
    check_sequence_connectivity,
    check_vertical_stack,
    remove_overhangs,
    rescale_until_fits,
    run_feasibility,
    simulate_assembly,
    truncate_stacks,
    verify_report_consistency,
)
from .frontend import (
    GuidedPrompt,
    LanguageModelClient,
    MeshGeneratorClient,
    MockMeshGenerator,
    ObjectRequest,
    Rejection,
    acquire_mesh,
    fallback_filter,
    filter_request,
)
from .mesh_io import (
    MeshFormat,
    RepairSummary,
    TriangleMesh,
    bounding_box,
    parse_mesh,
    repair_mesh,
    serialize_mesh,
)
from .sequencer import (
    AssemblySequence,
    connectivity_sort,
    naive_sort,
)
from .toolpath import (
    Command,
    CommandOp,
    MotionParams,
    SpeedRatio,
    Toolpath,
    calibration_schedule,
    emit_toolpath,
    estimate_duration,
    parse_toolpath,
    plan_toolpath,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyConfig",
    "AssemblySequence",
    "BlockplanError",
    "CannotFit",
    "CheckKind",
    "CheckResult",
    "ClientUnavailable",
    "Command",
    "CommandOp",
    "ConfigViolation",
    "DEFAULT_CELL_SIZE",
    "EmptyAfterModification",
    "EmptyAssembly",
    "EmptyMesh",
    "FeasibilityReport",
    "GridSpec",
    "GuidedPrompt",
    "LanguageModelClient",
    "MalformedFile",
    "MeshFormat",
    "MeshGeneratorClient",
    "MockMeshGenerator",
    "MotionParams",
    "ObjectRequest",
    "OccupancyGrid",
    "PlacementStep",
    "Rejection",
    "RepairSummary",
    "SchemaError",
    "SequenceGridMismatch",
    "SimulationReport",
    "SpeedRatio",
    "Toolpath",
    "TriangleMesh",
    "UnsupportedFormat",
    "Unsequenceable",
    "acquire_mesh",
    "bounding_box",
    "build_grid",
    "calibration_schedule",
    "check_component_count",
    "check_overhang",
    "check_sequence_connectivity",
    "check_vertical_stack",
    "connectivity_sort",
    "emit_toolpath",
    "estimate_duration",
    "fallback_filter",
    "filter_request",
    "fit_to_workspace",
    "naive_sort",
    "parse_mesh",
    "parse_toolpath",
    "plan_toolpath",
    "remove_overhangs",
    "repair_mesh",
    "rescale_until_fits",
    "run_feasibility",
    "serialize_mesh",
    "simulate_assembly",
    "truncate_stacks",
    "verify_report_consistency",
    "voxelize",
    "__version__",
]
