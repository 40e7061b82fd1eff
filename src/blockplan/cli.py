"""Command-line front end: full pipeline plus individually runnable stages.

Stages write fixed-name artifacts into an output directory and are strictly
composable: running check / sequence / toolpath / validate by hand yields
byte-identical files to one ``pipeline`` invocation. All writers are
deterministic, so re-running a command reproduces its artifacts bit for bit.
Every failure is a :class:`BlockplanError` and exits with its ``exit_code``.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import AssemblyConfig
from .discretizer import OccupancyGrid, fit_to_workspace
from .errors import (
    BlockplanError,
    ClientUnavailable,
    ConfigViolation,
    EmptyMesh,
    MalformedFile,
    RequestRejected,
    SchemaError,
    ValidationFailed,
)
from .feasibility import run_feasibility, simulate_assembly, verify_report_consistency
from .frontend import (
    MockMeshGenerator,
    ObjectRequest,
    Rejection,
    acquire_mesh,
    fallback_filter,
    path_format_hint,
)
from .mesh_io import TriangleMesh, finite_extent, parse_mesh, repair_mesh
from .sequencer import AssemblySequence, connectivity_sort
from .toolpath import (
    MotionParams,
    Toolpath,
    emit_toolpath,
    estimate_duration,
    plan_toolpath,
)

EXIT_OK = 0
EXIT_USAGE = 2  # argparse's usage error, and a file-system error on a path


def _load_config(args: argparse.Namespace) -> AssemblyConfig:
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text("utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise SchemaError(f"cannot load config {args.config!r}: {exc}") from exc
        if not isinstance(values, dict):
            raise SchemaError(f"config {args.config!r} must be a JSON object")
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


def _toolpath_stage(
    seq: AssemblySequence, grid: OccupancyGrid, cfg: AssemblyConfig, fmt: str
) -> tuple[Toolpath, float, tuple[str, bytes]]:
    """The planned commands, their estimated seconds, and the toolpath
    artifact's file name and bytes in ``fmt``. Call it before writing."""
    path = plan_toolpath(seq, grid, cfg, MotionParams(cfg.velocity, cfg.acceleration))
    duration = estimate_duration(path, cfg.gripper_dwell_s, cfg.motion_unit_scale)
    name = "toolpath.txt" if fmt == "robot_script" else "toolpath.json"
    return path, duration, (name, emit_toolpath(path, fmt))


def _fitted_mesh(
    args: argparse.Namespace, cfg: AssemblyConfig
) -> tuple[TriangleMesh, float, TriangleMesh, TriangleMesh, str]:
    """Obtain the input mesh, scale it to cm, repair it and fit it.

    Returns the fitted mesh and its fit scale, then the repaired and the
    raw mesh and a short provenance string for the summary.
    """
    if args.mesh is not None:
        path = Path(args.mesh)
        try:  # the file bytes are freed once parsed, before repair
            mesh = parse_mesh(path.read_bytes(), path_format_hint(path))
        except OSError as exc:
            raise MalformedFile(f"cannot read {str(path)!r}: {exc}") from exc
        provenance = f"mesh file {args.mesh}"
    else:
        request = _object_request(args.text)
        if not args.mesh_manifest:
            raise ClientUnavailable("text input needs a mesh source: pass --mesh-manifest")
        mesh = acquire_mesh(request, MockMeshGenerator.from_file(args.mesh_manifest))
        provenance = f'phrase "{request.extracted_phrase}" from text input'
    if not mesh.triangle_count:
        raise EmptyMesh("mesh has no triangles")
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


def _object_request(text: str) -> ObjectRequest:
    """The filtered request; blank text is rejected like an abstract one."""
    result = fallback_filter(text) if text.strip() else Rejection(text)
    if isinstance(result, Rejection):
        raise RequestRejected(result.message)
    return result


# --- subcommands ---------------------------------------------------------


def _cmd_pipeline(args: argparse.Namespace, cfg: AssemblyConfig) -> None:
    out_dir = Path(args.out_dir)
    fitted, fit_scale, repaired, raw, provenance = _fitted_mesh(args, cfg)
    grid, report = run_feasibility(
        fitted, cfg, failure_handling=not args.no_failure_handling
    )
    seq = connectivity_sort(grid)
    path, duration, toolpath = _toolpath_stage(seq, grid, cfg, args.format)
    sim = simulate_assembly(seq, grid, cfg)
    consistent = verify_report_consistency(report, grid, cfg)

    _write(out_dir, "grid.json", grid.to_json())
    _write(out_dir, "report.json", report.to_json())
    _write(out_dir, "sequence.json", seq.to_json())
    _write(out_dir, *toolpath)

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
        + " ".join(f"{r.check.value}={r.status}" for r in report.results),
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
        raise ValidationFailed("validation failed; see summary.txt")
    print(f"pipeline ok: {report.final_component_count} components, "
          f"artifacts in {out_dir}")


def _cmd_filter(args: argparse.Namespace, cfg: AssemblyConfig) -> None:
    print(_object_request(args.text).extracted_phrase)


def _cmd_check(args: argparse.Namespace, cfg: AssemblyConfig) -> None:
    grid, report = run_feasibility(
        _fitted_mesh(args, cfg)[0], cfg, failure_handling=not args.no_failure_handling
    )
    out_dir = Path(args.out_dir)
    _write(out_dir, "grid.json", grid.to_json())
    path = _write(out_dir, "report.json", report.to_json())
    statuses = " ".join(f"{r.check.value}={r.status}" for r in report.results)
    print(f"{statuses} -> {path}")


def _cmd_sequence(args: argparse.Namespace, cfg: AssemblyConfig) -> None:
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = connectivity_sort(grid)
    path = _write(Path(args.out_dir), "sequence.json", seq.to_json())
    print(f"{len(seq)} placements -> {path}")


def _cmd_toolpath(args: argparse.Namespace, cfg: AssemblyConfig) -> None:
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = AssemblySequence.from_json(Path(args.sequence).read_bytes())
    path, duration, toolpath = _toolpath_stage(seq, grid, cfg, args.format)
    written = _write(Path(args.out_dir), *toolpath)
    print(f"{len(path)} commands, estimated {duration:.1f} s -> {written}")


def _cmd_validate(args: argparse.Namespace, cfg: AssemblyConfig) -> None:
    grid = OccupancyGrid.from_json(Path(args.grid).read_bytes())
    seq = AssemblySequence.from_json(Path(args.sequence).read_bytes())
    sim = simulate_assembly(seq, grid, cfg)
    path = _write(Path(args.out_dir), "simulation.json", sim.to_json())
    if not sim.ok:
        raise ValidationFailed(f"simulation failed at step {sim.first_failure} -> {path}")
    print(f"simulation ok -> {path}")


_DISPATCH = {
    "pipeline": _cmd_pipeline,
    "filter": _cmd_filter,
    "check": _cmd_check,
    "sequence": _cmd_sequence,
    "toolpath": _cmd_toolpath,
    "validate": _cmd_validate,
}


def _add_common(parser: argparse.ArgumentParser, settings: bool = True) -> None:
    if settings:  # only the commands that read the config take one
        parser.add_argument("--config", help="JSON config file")
        parser.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable, JSON values)",
        )
    parser.add_argument("--out-dir", default="out", help="artifact directory")


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockplan",
        description="Plan a cube-component assembly and a robot toolpath "
        "from a triangle mesh or a text request.",
    )
    # what main reads of a command that does not take the option
    parser.set_defaults(config=None, set=None, mesh_manifest=None)
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
    _add_common(filter_cmd, settings=False)  # --out-dir is accepted and unused

    check = sub.add_parser("check", help="mesh -> feasibility report + final grid")
    check.add_argument("--mesh", required=True)
    check.add_argument("--no-failure-handling", action="store_true")
    _add_common(check)

    sequence = sub.add_parser("sequence", help="grid -> placement order")
    sequence.add_argument("--grid", required=True)
    _add_common(sequence, settings=False)

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
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.mesh_manifest is not None and args.mesh is not None:
        parser.error("--mesh-manifest is read only with --text, not with --mesh")
    try:
        _DISPATCH[args.command](args, _load_config(args))
    except BlockplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
