"""blockplan benchmark: one command per workload, every operation checked.

Run from the repository root:

    python3 perfbench/run.py --workload demo --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, plans per
second, median and 90th-percentile operation time, peak memory);
``--trace 1`` runs the traced stage driver instead and prints the
per-layer metrics. Times are scaled to the reference speed of the
machine (``reference.py``); the unscaled figures are printed above the
result line. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"

# Cold CLI runs per batch; one batch runs before the timed phase and one
# after it, and set-up time is the median of them all.
SETUP_PROBES = 5
# A cold CLI run: import blockplan.cli, then plan the smallest demo mesh, so
# that set-up work deferred to the first plan (a lazy import, say) still
# counts toward set-up. Prints the import time alone and the exit code.
PROBE = """
import sys, time
start = time.perf_counter()
import blockplan.cli
imported = time.perf_counter() - start
rc = blockplan.cli.main(["pipeline", "--mesh", sys.argv[1], "--out-dir", sys.argv[2]])
print(imported, rc)
"""
P90 = 90.0
# The CLI's default inventory, which every plan of both workloads uses.
INVENTORY = 40


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(mesh: str, probe_dir: Path, walls: list[float],
                  imports: list[float], references: list[float]) -> None:
    """Append the wall times of a batch of cold CLI runs (fresh
    interpreter, import, first plan) to ``walls``, the import alone as
    each interpreter timed it to ``imports``, and the wall time of the
    reference cold start run just before each to ``references``."""
    from reference import REFERENCE_START

    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_START],
                       env=_env(), check=True, timeout=60)
        references.append(time.perf_counter() - start)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, mesh, str(probe_dir / "out")],
            env=_env(), capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - start)
        fields = proc.stdout.split()
        if proc.returncode != 0 or fields[-1:] != ["0"]:
            raise RuntimeError(f"set-up probe failed: {proc.stdout}{proc.stderr}")
        imports.append(float(fields[-2]))


def run_worker(spec: dict, work: Path, timeout: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), "utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr.strip()}")
    return json.loads(result_path.read_text("utf-8"))


def judge(records: list[dict], jobs: dict[str, dict]) -> list[str]:
    """Check every operation; return one line per failed operation."""
    from gate import check_plan, read_artifacts

    failures = []
    for rec in records:
        job = jobs[rec["job"]]
        out = Path(rec["dir"])
        problems = []
        expect = job.get("expect", 0)
        if rec["rc"] != expect:
            problems.append(f"exit code {rec['rc']}, expected {expect}")
        elif rec["cmd"] == "filter" and expect == 0:
            if rec["output"].strip() != job["phrase"]:
                problems.append(f"phrase {rec['output'].strip()!r}")
        elif rec["cmd"] in ("pipeline", "driver") and job["kind"] == "plan":
            artifacts = read_artifacts(out)
            problems += check_plan(artifacts, INVENTORY)
            ref = rec.get("ref")
            if ref is not None and artifacts != read_artifacts(Path(ref)):
                problems.append("driver artifacts differ from blockplan pipeline's")
        elif job["kind"] == "staged":
            pipeline_out = out.parent / job["name"].removesuffix("-staged")
            problems += _check_staged(rec["cmd"], out, pipeline_out)
        if problems:
            failures.append(
                f"{rec['job']} {rec['cmd']} in {out.parent.name}: {'; '.join(problems)}")
    return failures


# Files each staged subcommand writes; they must equal the pipeline's.
_STAGED_WRITES = {
    "check": ("grid.json", "report.json"),
    "sequence": ("sequence.json",),
    "toolpath": ("toolpath.json",),
}


def _check_staged(cmd: str, out: Path, pipeline_out: Path) -> list[str]:
    if cmd == "validate":
        try:
            ok = json.loads((out / "simulation.json").read_bytes())["ok"]
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable simulation.json: {exc}"]
        return [] if ok is True else ["simulation not ok"]
    problems = []
    for name in _STAGED_WRITES[cmd]:
        try:
            same = (out / name).read_bytes() == (pipeline_out / name).read_bytes()
        except OSError as exc:
            problems.append(str(exc))
            continue
        if not same:
            problems.append(f"staged {name} differs from pipeline's")
    return problems


def describe_plans(records: list[dict]) -> dict[str, dict]:
    """Artifact sha256 and modelled build duration of each plan job, from
    its first ``pipeline`` run (reported, not gated)."""
    from gate import PLAN_ARTIFACTS

    out: dict[str, dict] = {}
    for rec in records:
        if rec["cmd"] != "pipeline" or rec["job"] in out or rec["rc"] != 0:
            continue
        d = Path(rec["dir"])
        digest = hashlib.sha256()
        for name in PLAN_ARTIFACTS:
            digest.update((d / name).read_bytes())
        summary = (d / "summary.txt").read_text("utf-8")
        match = re.search(r"estimated ([0-9.]+) s", summary)
        out[rec["job"]] = {
            "artifacts_sha256": digest.hexdigest(),
            "build_duration_s": float(match.group(1)) if match else None,
        }
    return out


# End-to-end metrics that the reference kernel scales.
SCALED = ("setup_s", "plans_per_s", "plan_p50_s", "plan_p90_s")


def end_to_end(result: dict, setup_walls: list[float], setup_refs: list[float],
               scaled: bool = True) -> dict[str, dict]:
    """End-to-end metrics; with ``scaled``, every time is at reference
    speed: each operation's by the kernel timings around it, each set-up
    probe's by the reference cold start just before it."""
    from reference import REFERENCE_START_S, scales
    from stats import percentile

    records = result["records"]
    factors = (scales(result["kernel_s"], [rec["kernel_pos"] for rec in records])
               if scaled else [1.0] * len(records))
    latencies = [rec["s"] * f for rec, f in zip(records, factors)]
    setup = statistics.median(
        wall * REFERENCE_START_S / ref if scaled else wall
        for wall, ref in zip(setup_walls, setup_refs))
    return {
        "setup_s": {"value": setup, "unit": "s"},
        # One client in a closed loop: the operations fill the timed phase.
        "plans_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "plan_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "plan_p90_s": {"value": percentile(latencies, P90), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, imports: list[float]) -> dict[str, dict]:
    metrics = {"cli.import_s": {"value": statistics.median(imports), "unit": "s"}}
    for name, value in result["per_layer"].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "blockplan" / "cli.py").is_file():
        print(f"blockplan sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from stats import min_samples
    from workloads import WORKLOADS, build, input_digests, write_probe_mesh

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs = build(args.workload, args.seed, work / "inputs")
    for name, digest in input_digests(jobs).items():
        print(f"input {name} sha256 {digest}")

    probe_mesh = write_probe_mesh(work / "probe")
    setup_walls: list[float] = []
    imports: list[float] = []
    setup_refs: list[float] = []
    measure_setup(probe_mesh, work / "probe", setup_walls, imports, setup_refs)
    spec = {
        "jobs": jobs,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "min_ops": min_samples(P90),
        "ops_dir": str(work / "ops"),
        "trace_file": str(work / "trace.json"),
    }
    result = run_worker(spec, work, timeout=max(150.0, 3 * args.seconds))
    measure_setup(probe_mesh, work / "probe", setup_walls, imports, setup_refs)

    by_name = {job["name"]: job for job in jobs}
    failures = judge(result["records"], by_name)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, info in describe_plans(result["records"]).items():
        print(f"plan {name} artifacts sha256 {info['artifacts_sha256']} "
              f"build duration {info['build_duration_s']} s")
    times: dict[str, list[float]] = {}
    for rec in result["records"]:
        if "s" in rec:
            times.setdefault(f"{rec['job']} {rec['cmd']}", []).append(rec["s"])
    for key, values in sorted(times.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"op {key}: median {statistics.median(values):.4f} s over {len(values)}")
    print(f"{len(result['records'])} operations in {result['passes']} passes")
    if args.trace:
        print(f"chrome trace: {spec['trace_file']}")
        metrics = per_layer(result, imports)
    else:
        kernel = result["kernel_s"]
        print(f"reference kernel: {len(kernel)} timings, mean {statistics.mean(kernel):.6f} s")
        print(f"reference cold start: median {statistics.median(setup_refs):.4f} s")
        for name, metric in end_to_end(result, setup_walls, setup_refs,
                                       scaled=False).items():
            if name in SCALED:
                print(f"unscaled {name} {metric['value']} {metric['unit']}")
        metrics = end_to_end(result, setup_walls, setup_refs)
    shutil.rmtree(work / "ops", ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(result["records"]),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
