"""Command-line front end: full pipeline plus individually runnable stages.

Stages write fixed-name JSON artifacts into an output directory and are
strictly composable: running voxelize / check / sequence / toolpath by hand
yields byte-identical files to one ``pipeline`` invocation. All writers are
deterministic, so re-running a command reproduces its artifacts bit for bit.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .config import (
    DEFAULT_CLEARANCE,
    DEFAULT_INVENTORY,
    DEFAULT_MOVEMENT_PLANE_Z,
    DEFAULT_OVERHANG_LIMIT,
    DEFAULT_SOURCE,
    DEFAULT_STACK_LIMIT,
    AssemblyConfig,
    Inventory,
)
from .discretizer import (
    DEFAULT_CELL_SIZE,
    OccupancyGrid,
    Workspace,
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
from .feasibility import run_feasibility
from .frontend import MockMeshGenerator, Rejection, acquire_mesh, fallback_filter
from .mesh_io import (
    DEFAULT_WELD_TOLERANCE,
    TriangleMesh,
    bounding_box,
    parse_mesh,
    repair_mesh,
)
from .sequencer import AssemblySequence, connectivity_sort
from .toolpath import MotionParams, emit_toolpath, estimate_duration, plan_toolpath
from .validator import simulate_assembly, verify_report_consistency

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MALFORMED_FILE = 3
EXIT_UNSUPPORTED_FORMAT = 4
EXIT_EMPTY_MESH = 5
EXIT_REJECTED = 6
EXIT_CLIENT_UNAVAILABLE = 7
EXIT_CANNOT_FIT = 8
EXIT_EMPTY_AFTER_MODIFICATION = 9
EXIT_UNSEQUENCEABLE = 10
EXIT_SEQUENCE_MISMATCH = 11
EXIT_CONFIG_VIOLATION = 12
EXIT_EMPTY_ASSEMBLY = 13
EXIT_VALIDATION_FAILED = 14
EXIT_SCHEMA = 15

_ERROR_EXIT_CODES: dict[type, int] = {
    MalformedFile: EXIT_MALFORMED_FILE,
    UnsupportedFormat: EXIT_UNSUPPORTED_FORMAT,
    EmptyMesh: EXIT_EMPTY_MESH,
    ClientUnavailable: EXIT_CLIENT_UNAVAILABLE,
    CannotFit: EXIT_CANNOT_FIT,
    EmptyAfterModification: EXIT_EMPTY_AFTER_MODIFICATION,
    Unsequenceable: EXIT_UNSEQUENCEABLE,
    SequenceGridMismatch: EXIT_SEQUENCE_MISMATCH,
    ConfigViolation: EXIT_CONFIG_VIOLATION,
    EmptyAssembly: EXIT_EMPTY_ASSEMBLY,
    SchemaError: EXIT_SCHEMA,
}


@dataclass
class PipelineConfig:
    """Flat, file-loadable view of every tunable the CLI exposes."""

    workspace: tuple[float, float, float] = (60.0, 50.0, 60.0)
    cell_size: float = DEFAULT_CELL_SIZE
    inventory: int = DEFAULT_INVENTORY
    overhang_limit: int = DEFAULT_OVERHANG_LIMIT
    stack_limit: int = DEFAULT_STACK_LIMIT
    source: tuple[float, float, float] = DEFAULT_SOURCE
    movement_plane_z: float = DEFAULT_MOVEMENT_PLANE_Z
    clearance: float = DEFAULT_CLEARANCE
    tool_offset_z: float = 0.0
    velocity: float = 2.0  # mm/s, calibrated operating point
    acceleration: float = 1.0  # mm/s^2
    gripper_dwell_s: float = 0.5
    motion_unit_scale: float = 1.0
    mesh_unit_scale: float = 1.0  # mesh file units -> cm
    max_upscale: float = 1.0
    weld_tolerance: float = DEFAULT_WELD_TOLERANCE
    client_timeout_s: float = 30.0
    mesh_manifest: str | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot load config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise SchemaError(f"config {path} must be a JSON object")
        cfg = cls()
        for key, value in raw.items():
            cfg.apply_override(key, value)
        return cfg

    def apply_override(self, key: str, value) -> None:
        names = {f.name: f for f in dataclasses.fields(self)}
        if key not in names:
            raise SchemaError(f"unknown config key {key!r}")
        current = getattr(self, key)
        if isinstance(current, tuple):
            if not isinstance(value, (list, tuple)) or len(value) != 3:
                raise SchemaError(f"config key {key!r} needs a 3-element list")
        try:
            if isinstance(current, tuple):
                value = tuple(float(v) for v in value)
            elif isinstance(current, bool):
                value = bool(value)
            elif isinstance(current, int):
                value = int(value)
            elif isinstance(current, float):
                value = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"config key {key!r}: bad value {value!r}") from exc
        setattr(self, key, value)

    def validate(self) -> None:
        """Raise :class:`SchemaError` unless every stage accepts the values."""
        try:
            for f in dataclasses.fields(self):
                value = getattr(self, f.name)
                values = value if isinstance(value, tuple) else (value,)
                # NaN passes every range check below, so reject it first
                if any(isinstance(v, float) and math.isnan(v) for v in values):
                    raise ValueError(f"{f.name} must not be NaN")
            self.to_assembly_config()
            self.motion_params()
            if not self.weld_tolerance >= 0:
                raise ValueError("weld_tolerance must be >= 0")
        except ValueError as exc:
            raise SchemaError(f"invalid config: {exc}") from exc

    def to_assembly_config(self) -> AssemblyConfig:
        return AssemblyConfig(
            workspace=Workspace(self.workspace),
            cell_size=self.cell_size,
            inventory=Inventory(self.inventory),
            source=self.source,
            movement_plane_z=self.movement_plane_z,
            clearance=self.clearance,
            overhang_limit=self.overhang_limit,
            stack_limit=self.stack_limit,
            tool_offset_z=self.tool_offset_z,
            max_upscale=self.max_upscale,
        )

    def motion_params(self) -> MotionParams:
        return MotionParams(self.velocity, self.acceleration)


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = (
        PipelineConfig.from_file(args.config)
        if getattr(args, "config", None)
        else PipelineConfig()
    )
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise SchemaError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg.apply_override(key.strip(), value)
    cfg.validate()
    return cfg


def _load_mesh(path: Path, cfg: PipelineConfig) -> TriangleMesh:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    hint = path.suffix.lstrip(".").lower() or None
    if hint not in ("stl", "obj"):
        hint = None
    mesh = parse_mesh(data, hint)
    if cfg.mesh_unit_scale != 1.0:
        mesh = mesh.with_vertices(mesh.vertices * cfg.mesh_unit_scale)
    return mesh


def _write(out_dir: Path, name: str, data: bytes) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_bytes(data)
    return path


def _obtain_mesh(args: argparse.Namespace, cfg: PipelineConfig) -> tuple[TriangleMesh, str]:
    """Mesh plus a short human-readable provenance string for the summary."""
    if getattr(args, "mesh", None):
        return _load_mesh(Path(args.mesh), cfg), f"mesh file {args.mesh}"
    result = fallback_filter(args.text)
    if isinstance(result, Rejection):
        raise _RejectedRequest(result)
    manifest = getattr(args, "mesh_manifest", None) or cfg.mesh_manifest
    if not manifest:
        raise ClientUnavailable(
            "text input needs a mesh source: pass --mesh-manifest or configure one"
        )
    generator = MockMeshGenerator.from_file(manifest)
    mesh = acquire_mesh(result, generator)
    return mesh, f'phrase "{result.extracted_phrase}" from text input'


class _RejectedRequest(Exception):
    def __init__(self, rejection: Rejection) -> None:
        super().__init__(rejection.message)
        self.rejection = rejection


# --- subcommands ---------------------------------------------------------


def _cmd_pipeline(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    out_dir = Path(args.out_dir)
    assembly = cfg.to_assembly_config()

    mesh, provenance = _obtain_mesh(args, cfg)
    raw_vertices, raw_triangles = mesh.vertex_count, mesh.triangle_count
    repaired = repair_mesh(mesh, cfg.weld_tolerance)
    fitted, fit_scale = fit_to_workspace(
        repaired, assembly.workspace, assembly.max_upscale
    )

    grid, report = run_feasibility(
        fitted, assembly, failure_handling=not args.no_failure_handling
    )
    seq = connectivity_sort(grid)
    path = plan_toolpath(seq, grid, assembly, cfg.motion_params())
    sim = simulate_assembly(seq, grid, assembly)
    consistent = verify_report_consistency(report, grid, assembly)

    _write(out_dir, "grid.json", grid.to_json())
    _write(out_dir, "report.json", report.to_json())
    _write(out_dir, "sequence.json", seq.to_json())
    if args.format == "robot_script":
        _write(out_dir, "toolpath.txt", emit_toolpath(path, "robot_script"))
    else:
        _write(out_dir, "toolpath.json", emit_toolpath(path, "json"))

    duration = estimate_duration(path, cfg.gripper_dwell_s, cfg.motion_unit_scale)
    summary = repaired.repair
    lines = [
        "blockplan pipeline summary",
        "==========================",
        f"input:        {provenance}",
        f"mesh:         {raw_vertices} vertices, {raw_triangles} triangles "
        f"-> {repaired.vertex_count} vertices, {repaired.triangle_count} triangles",
        f"repair:       welded={summary.welded_vertices} "
        f"degenerate={summary.removed_degenerate} "
        f"duplicates={summary.removed_duplicates} "
        f"flipped={summary.flipped_triangles} "
        f"manifold={'yes' if summary.manifold else 'no'}",
        f"fit scale:    {fit_scale!r}",
        f"grid:         {grid.spec.dims[0]} x {grid.spec.dims[1]} x "
        f"{grid.spec.dims[2]} cells of {grid.spec.cell_size!r} cm",
        "checks (pre-handling): "
        + " ".join(f"{r.check.value}={r.status.value}" for r in report.results),
        f"modifications: {[m['action'] for m in report.modifications]}",
        f"components:   {report.final_component_count}",
        f"sequence:     {len(seq)} placements",
        f"toolpath:     {len(path)} commands, estimated {duration:.1f} s "
        f"at v={cfg.velocity!r} mm/s a={cfg.acceleration!r} mm/s^2",
        f"validation:   simulate={'ok' if sim.ok else 'FAILED'} "
        f"report={'consistent' if consistent else 'INCONSISTENT'}",
    ]
    _write(out_dir, "summary.txt", ("\n".join(lines) + "\n").encode("utf-8"))

    if not sim.ok or not consistent:
        print("validation failed; see summary.txt", file=sys.stderr)
        return EXIT_VALIDATION_FAILED
    print(f"pipeline ok: {report.final_component_count} components, "
          f"artifacts in {out_dir}")
    return EXIT_OK


def _cmd_filter(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    result = fallback_filter(args.text)
    if isinstance(result, Rejection):
        print(result.message, file=sys.stderr)
        return EXIT_REJECTED
    print(result.extracted_phrase)
    return EXIT_OK


def _cmd_voxelize(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    assembly = cfg.to_assembly_config()
    mesh = _load_mesh(Path(args.mesh), cfg)
    repaired = repair_mesh(mesh, cfg.weld_tolerance)
    fitted, _ = fit_to_workspace(repaired, assembly.workspace, assembly.max_upscale)
    grid = voxelize(fitted, build_grid(bounding_box(fitted), assembly.cell_size))
    path = _write(Path(args.out_dir), "grid.json", grid.to_json())
    print(f"{len(grid.occupied)} occupied cells -> {path}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    assembly = cfg.to_assembly_config()
    mesh = _load_mesh(Path(args.mesh), cfg)
    repaired = repair_mesh(mesh, cfg.weld_tolerance)
    fitted, _ = fit_to_workspace(repaired, assembly.workspace, assembly.max_upscale)
    grid, report = run_feasibility(
        fitted, assembly, failure_handling=not args.no_failure_handling
    )
    out_dir = Path(args.out_dir)
    _write(out_dir, "grid.json", grid.to_json())
    path = _write(out_dir, "report.json", report.to_json())
    statuses = " ".join(f"{r.check.value}={r.status.value}" for r in report.results)
    print(f"{statuses} -> {path}")
    return EXIT_OK


def _cmd_sequence(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = connectivity_sort(grid)
    path = _write(Path(args.out_dir), "sequence.json", seq.to_json())
    print(f"{len(seq)} placements -> {path}")
    return EXIT_OK


def _cmd_toolpath(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    assembly = cfg.to_assembly_config()
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = AssemblySequence.from_json(Path(args.sequence).read_bytes())
    path = plan_toolpath(seq, grid, assembly, cfg.motion_params())
    out_dir = Path(args.out_dir)
    if args.format == "robot_script":
        written = _write(out_dir, "toolpath.txt", emit_toolpath(path, "robot_script"))
    else:
        written = _write(out_dir, "toolpath.json", emit_toolpath(path, "json"))
    duration = estimate_duration(path, cfg.gripper_dwell_s, cfg.motion_unit_scale)
    print(f"{len(path)} commands, estimated {duration:.1f} s -> {written}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    assembly = cfg.to_assembly_config()
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = AssemblySequence.from_json(Path(args.sequence).read_bytes())
    sim = simulate_assembly(seq, grid, assembly)
    path = _write(Path(args.out_dir), "simulation.json", sim.to_json())
    if not sim.ok:
        print(
            f"simulation failed at step {sim.first_failure} -> {path}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION_FAILED
    print(f"simulation ok -> {path}")
    return EXIT_OK


_DISPATCH = {
    "pipeline": _cmd_pipeline,
    "filter": _cmd_filter,
    "voxelize": _cmd_voxelize,
    "check": _cmd_check,
    "sequence": _cmd_sequence,
    "toolpath": _cmd_toolpath,
    "validate": _cmd_validate,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable, JSON values)",
    )
    parser.add_argument("--out-dir", default="out", help="artifact directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockplan",
        description="Plan a cube-component assembly and a robot toolpath "
        "from a triangle mesh or a text request.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pipeline = sub.add_parser("pipeline", help="run every stage end to end")
    source = pipeline.add_mutually_exclusive_group(required=True)
    source.add_argument("--mesh", help="input mesh file (STL or OBJ)")
    source.add_argument("--text", help="natural-language object request")
    pipeline.add_argument(
        "--mesh-manifest", help="JSON map of phrase -> mesh file, used with --text"
    )
    pipeline.add_argument(
        "--no-failure-handling",
        action="store_true",
        help="report check failures without rewriting the design",
    )
    pipeline.add_argument(
        "--format", choices=("json", "robot_script"), default="json"
    )
    _add_common(pipeline)

    filter_cmd = sub.add_parser("filter", help="extract the object phrase")
    filter_cmd.add_argument("--text", required=True)
    _add_common(filter_cmd)

    voxelize_cmd = sub.add_parser("voxelize", help="mesh -> occupancy grid")
    voxelize_cmd.add_argument("--mesh", required=True)
    _add_common(voxelize_cmd)

    check = sub.add_parser("check", help="mesh -> feasibility report + final grid")
    check.add_argument("--mesh", required=True)
    check.add_argument("--no-failure-handling", action="store_true")
    _add_common(check)

    sequence = sub.add_parser("sequence", help="grid -> placement order")
    sequence.add_argument("--grid", required=True)
    _add_common(sequence)

    toolpath_cmd = sub.add_parser("toolpath", help="grid + sequence -> commands")
    toolpath_cmd.add_argument("--grid", required=True)
    toolpath_cmd.add_argument("--sequence", required=True)
    toolpath_cmd.add_argument(
        "--format", choices=("json", "robot_script"), default="json"
    )
    _add_common(toolpath_cmd)

    validate = sub.add_parser("validate", help="replay a sequence against its grid")
    validate.add_argument("--grid", required=True)
    validate.add_argument("--sequence", required=True)
    _add_common(validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _DISPATCH[args.command](args, cfg)
    except _RejectedRequest as exc:
        print(exc.rejection.message, file=sys.stderr)
        return EXIT_REJECTED
    except BlockplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_EXIT_CODES.get(type(exc), 1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
