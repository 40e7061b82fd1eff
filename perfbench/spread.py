"""Run the benchmark on several seeds and report each metric's median and
quartile spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workload demo --seeds 1 2 3 4 5 --seconds 30
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound")
              for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        line = f"{name:40s} median {statistics.median(vals):.5g}"
        if len(vals) >= 2 and statistics.median(vals):
            line += f"  spread {spread(vals):.4f}"
            if bounds.get(name):
                line += f"  (bound {bounds[name]}, target < {bounds[name] / 3:.4f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
