"""The plan path of ``blockplan pipeline``, rebuilt from the public stage
functions with a span around each call.

It calls the stages in the order the CLI does and writes the same four JSON
artifacts, which the benchmark compares byte for byte with the CLI's. The
one extra call is a standalone ``voxelize`` pass, run as the ``voxelize``
subcommand runs it, which times voxelization on its own.
"""
from __future__ import annotations

from pathlib import Path

from blockplan import (
    AssemblyConfig,
    MockMeshGenerator,
    MotionParams,
    Rejection,
    acquire_mesh,
    bounding_box,
    build_grid,
    connectivity_sort,
    emit_toolpath,
    estimate_duration,
    fallback_filter,
    fit_to_workspace,
    parse_mesh,
    plan_toolpath,
    repair_mesh,
    run_feasibility,
    simulate_assembly,
    verify_report_consistency,
    voxelize,
)

# The CLI's defaults for the settings the assembly config does not carry.
MOTION = MotionParams(2.0, 1.0)
GRIPPER_DWELL_S = 0.5
MOTION_UNIT_SCALE = 1.0

EXIT_OK, EXIT_REJECTED, EXIT_VALIDATION_FAILED = 0, 6, 14


def run_job(job: dict, out_dir: Path, tracer) -> int:
    """Run one ``plan`` or ``filter`` job; return the CLI's exit code for it."""
    with tracer.span("driver.op"):
        if job["kind"] == "filter":
            with tracer.span("frontend.filter"):
                result = fallback_filter(job["text"])
            return EXIT_REJECTED if isinstance(result, Rejection) else EXIT_OK
        return _plan(job, out_dir, tracer)


def _plan(job: dict, out_dir: Path, tracer) -> int:
    config = AssemblyConfig()
    if "text" in job:
        with tracer.span("frontend.filter"):
            request = fallback_filter(job["text"])
        if isinstance(request, Rejection):
            return EXIT_REJECTED
        with tracer.span("frontend.acquire") as counts:
            mesh = acquire_mesh(request, MockMeshGenerator.from_file(job["manifest"]))
            counts["triangles_in"] = mesh.triangle_count
    else:
        path = Path(job["mesh"])
        hint = path.suffix.lstrip(".").lower()
        data = path.read_bytes()
        with tracer.span("mesh_io.parse") as counts:
            mesh = parse_mesh(data, hint if hint in ("stl", "obj") else None)
            counts["triangles_in"] = mesh.triangle_count
    with tracer.span("mesh_io.repair") as counts:
        repaired = repair_mesh(mesh)
        counts["triangles_out"] = repaired.triangle_count
        counts["welded_vertices"] = repaired.repair.welded_vertices
    with tracer.span("discretizer.fit"):
        fitted, _ = fit_to_workspace(repaired, config.workspace, config.max_upscale)
    with tracer.span("discretizer.voxelize") as counts:
        first = voxelize(fitted, build_grid(bounding_box(fitted), config.cell_size))
        counts["grid_cells"] = first.spec.cell_count
        counts["occupied_cells"] = len(first.occupied)
    with tracer.span("feasibility.run") as counts:
        grid, report = run_feasibility(fitted, config)
        counts["rescale_iterations"] = sum(
            m.get("iterations", 0) for m in report.modifications)
        counts["cells_removed"] = sum(
            len(m.get("removed", ())) for m in report.modifications)
        counts["final_cells"] = report.final_component_count
    with tracer.span("sequencer.sort") as counts:
        seq = connectivity_sort(grid)
        counts["placements"] = len(seq)
    with tracer.span("toolpath.plan") as counts:
        path = plan_toolpath(seq, grid, config, MOTION)
        counts["commands"] = len(path)
    with tracer.span("validator.simulate"):
        sim = simulate_assembly(seq, grid, config)
    with tracer.span("validator.consistency"):
        consistent = verify_report_consistency(report, grid, config)
    with tracer.span("toolpath.emit"):
        toolpath_json = emit_toolpath(path, "json")
    with tracer.span("toolpath.estimate"):
        estimate_duration(path, GRIPPER_DWELL_S, MOTION_UNIT_SCALE)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grid.json").write_bytes(grid.to_json())
    (out_dir / "report.json").write_bytes(report.to_json())
    (out_dir / "sequence.json").write_bytes(seq.to_json())
    (out_dir / "toolpath.json").write_bytes(toolpath_json)
    return EXIT_OK if sim.ok and consistent else EXIT_VALIDATION_FAILED
