"""Command-line front end: full pipeline plus individually runnable stages.

Stages write fixed-name JSON artifacts into an output directory and are
strictly composable: running voxelize / check / sequence / toolpath by hand
yields byte-identical files to one ``pipeline`` invocation. All writers are
deterministic, so re-running a command reproduces its artifacts bit for bit.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import AssemblyConfig
from .discretizer import OccupancyGrid, build_grid, fit_to_workspace, voxelize
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
from .mesh_io import TriangleMesh, bounding_box, finite_extent, parse_mesh, repair_mesh
from .sequencer import AssemblySequence, connectivity_sort
from .toolpath import (
    MotionParams,
    Toolpath,
    emit_toolpath,
    estimate_duration,
    plan_toolpath,
)
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


def _load_config(args: argparse.Namespace) -> AssemblyConfig:
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text("utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise SchemaError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise SchemaError(f"config {args.config} must be a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise SchemaError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            values[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            values[key.strip()] = raw
        except RecursionError as exc:
            raise SchemaError(f"--set {key.strip()}: value nested too deeply") from exc
    return AssemblyConfig.from_mapping(values)


def _write(out_dir: Path, name: str, data: bytes) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_bytes(data)
    return path


def _write_toolpath(out_dir: Path, path: Toolpath, fmt: str) -> Path:
    name = "toolpath.txt" if fmt == "robot_script" else "toolpath.json"
    return _write(out_dir, name, emit_toolpath(path, fmt))


def _fitted_mesh(
    args: argparse.Namespace, cfg: AssemblyConfig
) -> tuple[TriangleMesh, float, TriangleMesh, TriangleMesh, str]:
    """Obtain the input mesh, scale it to cm, repair it and fit it.

    Returns the fitted mesh and its fit scale, then the repaired and the
    raw mesh and a short provenance string for the summary.
    """
    if getattr(args, "mesh", None):
        path = Path(args.mesh)
        hint = path.suffix.lstrip(".").lower()
        try:  # the file bytes are freed once parsed, before repair
            mesh = parse_mesh(path.read_bytes(), hint if hint in ("stl", "obj") else None)
        except OSError as exc:
            raise MalformedFile(f"cannot read {path}: {exc}") from exc
        provenance = f"mesh file {args.mesh}"
    else:
        request = fallback_filter(args.text)
        if isinstance(request, Rejection):
            raise _RejectedRequest(request)
        manifest = args.mesh_manifest or cfg.mesh_manifest
        if not manifest:
            raise ClientUnavailable(
                "text input needs a mesh source: pass --mesh-manifest or configure one"
            )
        mesh = acquire_mesh(request, MockMeshGenerator.from_file(manifest))
        provenance = f'phrase "{request.extracted_phrase}" from text input'
    if cfg.mesh_unit_scale != 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            mesh = mesh.with_vertices(mesh.vertices * cfg.mesh_unit_scale)
        if not finite_extent(mesh.vertices):
            raise ConfigViolation(
                f"mesh_unit_scale {cfg.mesh_unit_scale!r} overflows the vertices"
            )
    repaired = repair_mesh(mesh, cfg.weld_tolerance)
    if not repaired.triangle_count:
        raise EmptyMesh(f"repair left no triangles (weld_tolerance {cfg.weld_tolerance!r})")
    fitted, fit_scale = fit_to_workspace(repaired, cfg.workspace, cfg.max_upscale)
    return fitted, fit_scale, repaired, mesh, provenance


class _RejectedRequest(Exception):
    def __init__(self, rejection: Rejection) -> None:
        super().__init__(rejection.message)
        self.rejection = rejection


# --- subcommands ---------------------------------------------------------


def _cmd_pipeline(args: argparse.Namespace, cfg: AssemblyConfig) -> int:
    out_dir = Path(args.out_dir)
    fitted, fit_scale, repaired, raw, provenance = _fitted_mesh(args, cfg)
    grid, report = run_feasibility(
        fitted, cfg, failure_handling=not args.no_failure_handling
    )
    seq = connectivity_sort(grid)
    path = plan_toolpath(seq, grid, cfg, MotionParams(cfg.velocity, cfg.acceleration))
    sim = simulate_assembly(seq, grid, cfg)
    consistent = verify_report_consistency(report, grid, cfg)
    duration = estimate_duration(path, cfg.gripper_dwell_s, cfg.motion_unit_scale)

    _write(out_dir, "grid.json", grid.to_json())
    _write(out_dir, "report.json", report.to_json())
    _write(out_dir, "sequence.json", seq.to_json())
    _write_toolpath(out_dir, path, args.format)

    summary = repaired.repair
    lines = [
        "blockplan pipeline summary",
        "==========================",
        f"input:        {provenance}",
        f"mesh:         {raw.vertex_count} vertices, {raw.triangle_count} triangles "
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


def _cmd_filter(args: argparse.Namespace, cfg: AssemblyConfig) -> int:
    result = fallback_filter(args.text)
    if isinstance(result, Rejection):
        raise _RejectedRequest(result)
    print(result.extracted_phrase)
    return EXIT_OK


def _cmd_voxelize(args: argparse.Namespace, cfg: AssemblyConfig) -> int:
    fitted = _fitted_mesh(args, cfg)[0]
    grid = voxelize(fitted, build_grid(bounding_box(fitted), cfg.cell_size))
    path = _write(Path(args.out_dir), "grid.json", grid.to_json())
    print(f"{len(grid.occupied)} occupied cells -> {path}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace, cfg: AssemblyConfig) -> int:
    grid, report = run_feasibility(
        _fitted_mesh(args, cfg)[0], cfg, failure_handling=not args.no_failure_handling
    )
    out_dir = Path(args.out_dir)
    _write(out_dir, "grid.json", grid.to_json())
    path = _write(out_dir, "report.json", report.to_json())
    statuses = " ".join(f"{r.check.value}={r.status.value}" for r in report.results)
    print(f"{statuses} -> {path}")
    return EXIT_OK


def _cmd_sequence(args: argparse.Namespace, cfg: AssemblyConfig) -> int:
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = connectivity_sort(grid)
    path = _write(Path(args.out_dir), "sequence.json", seq.to_json())
    print(f"{len(seq)} placements -> {path}")
    return EXIT_OK


def _cmd_toolpath(args: argparse.Namespace, cfg: AssemblyConfig) -> int:
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = AssemblySequence.from_json(Path(args.sequence).read_bytes())
    path = plan_toolpath(seq, grid, cfg, MotionParams(cfg.velocity, cfg.acceleration))
    duration = estimate_duration(path, cfg.gripper_dwell_s, cfg.motion_unit_scale)
    written = _write_toolpath(Path(args.out_dir), path, args.format)
    print(f"{len(path)} commands, estimated {duration:.1f} s -> {written}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace, cfg: AssemblyConfig) -> int:
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = AssemblySequence.from_json(Path(args.sequence).read_bytes())
    sim = simulate_assembly(seq, grid, cfg)
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
