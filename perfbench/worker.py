"""Timed and traced phases of one benchmark run, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json`` with
blockplan's ``src`` on ``PYTHONPATH``. The spec names the jobs, the seed,
the run length and the mode. The worker only reads the generated inputs,
so its peak resident memory excludes input generation.

Timed mode runs whole passes of ``blockplan.cli.main`` calls, one client
in a closed loop, until the next pass would overrun the run length and at
least ``min_ops`` operations are done, and times the reference kernel
(``reference.py``) between operations. Traced mode runs the stage driver
untraced and traced on alternate passes; the spans give the per-layer
metrics and the two wall times give the tracing overhead.
"""
from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import blockplan.cli as cli

from driver import run_job
from reference import Sampler
from spans import NullTracer, Tracer, aggregate, write_chrome_trace
from workloads import cli_argv, pass_order

STAGE_SPANS = (
    "driver.op",
    "frontend.filter",
    "frontend.acquire",
    "mesh_io.parse",
    "mesh_io.repair",
    "discretizer.fit",
    "discretizer.voxelize",
    "feasibility.run",
    "sequencer.sort",
    "toolpath.plan",
    "toolpath.emit",
    "toolpath.estimate",
    "validator.simulate",
    "validator.consistency",
)

# Per-layer count metric -> the spans whose counts of that key it sums.
COUNTS = {
    "mesh_io.triangles_in": (("mesh_io.parse", "frontend.acquire"), "triangles_in"),
    "mesh_io.triangles_out": (("mesh_io.repair",), "triangles_out"),
    "mesh_io.welded_vertices": (("mesh_io.repair",), "welded_vertices"),
    "discretizer.grid_cells": (("discretizer.voxelize",), "grid_cells"),
    "discretizer.occupied_cells": (("discretizer.voxelize",), "occupied_cells"),
    "feasibility.rescale_iterations": (("feasibility.run",), "rescale_iterations"),
    "feasibility.cells_removed": (("feasibility.run",), "cells_removed"),
    "feasibility.final_cells": (("feasibility.run",), "final_cells"),
    "sequencer.placements": (("sequencer.sort",), "placements"),
    "toolpath.commands": (("toolpath.plan",), "commands"),
}


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI call: exit code, wall seconds, captured output."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return rc, elapsed, buf.getvalue()


# Operation time between two timings of the reference kernel.
KERNEL_EVERY_S = 0.2


def run_cli_pass(jobs, ops_dir: Path, label: str, records: list | None,
                 sampler: Sampler | None = None) -> None:
    for job in jobs:
        out = ops_dir / label / job["name"]
        for argv in cli_argv(job, str(out)):
            rc, elapsed, output = call_cli(argv)
            if records is not None:
                records.append({"dir": str(out), "job": job["name"],
                                "cmd": argv[0], "rc": rc, "s": elapsed,
                                "output": output})
            if sampler is not None:
                records[-1]["kernel_pos"] = len(sampler.times)
                sampler.after(elapsed)


def timed(spec: dict) -> dict:
    jobs, ops_dir = spec["jobs"], Path(spec["ops_dir"])
    run_cli_pass(jobs, ops_dir, "warmup", None)
    records: list[dict] = []
    sampler = Sampler(KERNEL_EVERY_S)
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        order = pass_order(jobs, spec["seed"], passes)
        run_cli_pass(order, ops_dir, f"p{passes}", records, sampler)
        passes += 1
        now = time.perf_counter()
        overrun = now - start + (now - pass_start) > spec["seconds"]
        if overrun and len(records) >= spec["min_ops"]:
            break
    sampler.take()  # so that the last operations have a timing after them
    return {
        "records": records,
        "passes": passes,
        "kernel_s": sampler.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(spec: dict) -> dict:
    jobs = [job for job in spec["jobs"] if job["kind"] != "staged"]
    ops_dir = Path(spec["ops_dir"])
    records: list[dict] = []
    # The CLI's own artifacts for every job; the driver's must match them.
    run_cli_pass(jobs, ops_dir, "cli", records)
    tracer, null = Tracer(), NullTracer()
    walls: dict[str, list[float]] = {"traced": [], "untraced": []}
    per_pass: list[dict] = []
    passes = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        order = pass_order(jobs, spec["seed"], passes)
        modes = ("untraced", "traced") if passes % 2 == 0 else ("traced", "untraced")
        for mode in modes:
            tr = tracer if mode == "traced" else null
            first = len(tracer.spans)
            pass_start = time.perf_counter()
            for job in order:
                tr.op = len(records)
                out = ops_dir / f"p{passes}-{mode}" / job["name"]
                rc = run_job(job, out, tr)
                records.append({"dir": str(out), "job": job["name"], "cmd": "driver",
                                "rc": rc, "ref": str(ops_dir / "cli" / job["name"])})
            walls[mode].append(time.perf_counter() - pass_start)
            if mode == "traced":
                per_pass.append(aggregate(tracer.spans[first:]))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > spec["seconds"]:
            break
    write_chrome_trace(tracer.spans, Path(spec["trace_file"]))
    return {"records": records, "passes": passes,
            "per_layer": per_layer(per_pass, walls)}


def per_layer(per_pass: list[dict], walls: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    def median_of(value) -> float:
        return statistics.median(value(agg) for agg in per_pass)

    out: dict[str, float] = {}
    for name in STAGE_SPANS:
        for key, suffix in (("busy", "_s"), ("self", "_self_s"), ("calls", "_calls")):
            out[name + suffix] = median_of(lambda agg: agg.get(name, {}).get(key, 0))
    for metric, (names, key) in COUNTS.items():
        out[metric] = median_of(
            lambda agg: sum(agg.get(n, {}).get(key, 0) for n in names))
    traced_s = statistics.median(walls["traced"])
    untraced_s = statistics.median(walls["untraced"])
    out["trace.traced_pass_s"] = traced_s
    out["trace.untraced_pass_s"] = untraced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    result = traced(spec) if spec["trace"] else timed(spec)
    Path(result_path).write_text(json.dumps(result), "utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
