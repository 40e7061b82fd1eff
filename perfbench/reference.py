"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the CPU throughput a process gets switches between a fast
and a slow state, minutes or seconds apart; blockplan's operations run up
to a third faster in the fast one, and runs of the same code a minute apart
differ by 20-30 %. The benchmark times this kernel between its operations,
in the same process, and multiplies the time of each operation by
``REFERENCE_S`` over the kernel's mean time around it. Set-up time, a
cold start, is scaled the same way by a reference cold start
(``REFERENCE_START``) run just before each set-up probe. A time so scaled
reads as if the machine had run at the speed it had when ``REFERENCE_S``
was measured; the unscaled figures are printed alongside.

The kernel uses nothing from blockplan, so no change to the program moves
its work. It mixes the kinds of work blockplan does: text parsing, dicts
of tuples and JSON in Python loops, and numpy on arrays of a few hundred
rows. Each timing follows an untimed call, with the garbage collector
off, so that the caches and live objects the program leaves behind move
it as little as possible.
"""
from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

# Mean time of one kernel call, timed between the benchmark's operations,
# on the machine the baseline was taken on (2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11, numpy 2.4).
REFERENCE_S = 0.0070

# A cold start of the libraries that blockplan's CLI imports, without
# blockplan, and its median wall time on the same machine. It is most of a
# set-up probe's work, and moves with the machine as the probe does.
REFERENCE_START = "import numpy, scipy.spatial"
REFERENCE_START_S = 0.57

_rng = np.random.default_rng(0)
_VERTICES = np.round(_rng.random((800, 3)) * 20) / 2
_TRIANGLES = _rng.integers(0, len(_VERTICES), size=(800, 3))
_BOXES = _rng.random((60, 3)) * 10
_TEXT = "\n".join(f"v {x:.6f} {y:.6f} {z:.6f}" for x, y, z in _VERTICES.tolist())


def kernel() -> int:
    """One fixed unit of work, shaped like mesh parsing, welding, edge
    counting and box tests; returns a checksum so that none is skipped."""
    welded: dict[tuple, int] = {}
    for line in _TEXT.splitlines():
        _, x, y, z = line.split()
        welded.setdefault((float(x), float(y), float(z)), len(welded))
    edges: dict[tuple, int] = {}
    for a, b, c in _TRIANGLES.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            edges[key] = edges.get(key, 0) + 1
    cells = json.loads(json.dumps({"edges": list(edges)}))["edges"]
    corners = _VERTICES[_TRIANGLES[:200]]
    gaps = np.abs(corners[None, :, :, :] - _BOXES[:, None, None, :])
    hits = int((gaps.max(axis=(2, 3)) < 5).sum())
    keys = np.unique(np.round(_VERTICES * 4).astype(np.int64), axis=0)
    return len(welded) + len(cells) + hits + len(keys)


def time_kernel() -> float:
    """Wall time of one kernel call, after an untimed call that brings the
    kernel's data back into the caches. The garbage collector is off
    meanwhile, so that the program's live objects do not slow it."""
    kernel()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Sampler:
    """Times the kernel once after every ``every`` seconds of measured
    work, so that its timings spread over a run as the work does."""

    def __init__(self, every: float) -> None:
        self.every = every
        self.pending = 0.0
        self.times: list[float] = []

    def after(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= self.every:
            self.take()

    def take(self) -> None:
        self.times.append(time_kernel())
        self.pending = 0.0


# Kernel timings on each side of an operation that gauge its speed: with
# one timing per 0.2 s of work, about a second before it and one after.
WINDOW = 5


def scale(kernel_times: list[float]) -> float:
    """Factor that turns a time measured alongside ``kernel_times`` into
    reference-speed seconds."""
    return REFERENCE_S / statistics.mean(kernel_times)


def scales(kernel_times: list[float], positions: list[int]) -> list[float]:
    """Per operation, the factor that turns its time into reference-speed
    seconds: ``REFERENCE_S`` over the mean of the kernel timings nearest
    to it, up to ``WINDOW`` taken before it and ``WINDOW`` after.
    ``positions[i]`` is the number of timings taken before operation ``i``
    ended. The machine's speed jumps between a fast and a slow state, so
    one factor for a whole run would leave each operation's own state in
    its time; the percentiles would then jump between the two."""
    return [scale(kernel_times[max(pos - WINDOW, 0):pos + WINDOW]) for pos in positions]
