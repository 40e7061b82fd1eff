"""Correctness gate of one plan's artifacts, independent of blockplan's
own validator."""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

PLAN_ARTIFACTS = ("grid.json", "report.json", "sequence.json", "toolpath.json")

_FACES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    """The plan artifacts present in ``out_dir``, by file name."""
    return {
        name: (out_dir / name).read_bytes()
        for name in PLAN_ARTIFACTS if (out_dir / name).is_file()
    }


def check_plan(artifacts: dict[str, bytes], inventory: int) -> list[str]:
    """Problems found in one plan; an empty list means it passes.

    The sequence must place every grid cell exactly once, every placement
    above the ground layer must touch an earlier placement by a face, the
    component count must fit the inventory and the toolpath must hold one
    initial move plus eight commands per placement.
    """
    missing = [name for name in PLAN_ARTIFACTS if name not in artifacts]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        grid = json.loads(artifacts["grid.json"])
        report = json.loads(artifacts["report.json"])
        placed = [tuple(c) for c in json.loads(artifacts["sequence.json"])["cells"]]
        commands = json.loads(artifacts["toolpath.json"])["commands"]
        cells = [tuple(c) for c in grid["occupied"]]
        final = report["final_component_count"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable artifact: {exc}"]

    problems = []
    occupied = set(cells)
    if len(occupied) != len(cells):
        problems.append("grid lists a cell twice")
    times = Counter(placed)
    if occupied - times.keys():
        problems.append(f"{len(occupied - times.keys())} grid cells never placed")
    if times.keys() - occupied:
        problems.append(f"{len(times.keys() - occupied)} placements outside the grid")
    if any(n > 1 for n in times.values()):
        problems.append("a cell is placed more than once")
    earlier: set[tuple] = set()
    for cell in placed:
        if cell[2] > 0 and not any(
            (cell[0] + di, cell[1] + dj, cell[2] + dk) in earlier
            for di, dj, dk in _FACES
        ):
            problems.append(f"placement {list(cell)} touches no earlier placement")
            break
        earlier.add(cell)
    if final != len(cells) or final > inventory:
        problems.append(
            f"final count {final} for {len(cells)} cells and inventory {inventory}")
    if len(commands) != 1 + 8 * len(placed):
        problems.append(
            f"{len(commands)} toolpath commands for {len(placed)} placements")
    return problems
