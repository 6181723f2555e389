"""Batched AR(1) kernel vs the per-lane loop — pinned by the CI regression gate.

Lane build filters every lane's ambient-motion context column with
``y[t] = x[t] + phi*y[t-1]``.  ``extract_many`` runs one exact batched
pass over all lanes (``repro.features.extractors._ar1_many``: a
time-chunked scan across lanes, repaired to the sequential result bit for
bit) where extraction used to run a pure-Python loop per lane.

Each test times both on the same data, in the regime lane build runs in:
the kernel filters columns of ``(frames, 6)`` lane matrices (the TA10
layout, ambient column 3) in place; the oracle loop filters the same
noise as a contiguous array, as the per-lane path did.  The published
``speedup`` is loop seconds over kernel seconds, each the best of several
interleaved rounds:

* 255 lanes x 9,600 frames (the ``wide-256`` lane build) and 15 lanes x
  60,000 frames (``long-16-chaos``) must be at least 2x;
* one 9,600-frame lane must be at least 0.8x, so single-stream
  extraction never slows.
"""

import time

import numpy as np
import pytest

from repro.features.extractors import _AMBIENT_PHI, _ar1_many
from tests.features._extract_oracle import ar1_loop

WIDTH, COLUMN = 6, 3


def _measure(benchmark, lanes, frames, rounds):
    rng = np.random.default_rng(lanes * frames)
    raws = [rng.normal(0.0, 0.6, size=frames) for _ in range(lanes)]
    matrices = [np.zeros((frames, WIDTH)) for _ in range(lanes)]
    columns = [matrix[:, COLUMN] for matrix in matrices]

    def refill():
        for column, raw in zip(columns, raws):
            column[:] = raw

    # The kernel must be exact on this data.
    refill()
    _ar1_many(columns, _AMBIENT_PHI)
    for column, raw in zip(columns, raws):
        assert column.tobytes() == ar1_loop(raw, _AMBIENT_PHI).tobytes()

    kernel_times, loop_times = [], []

    def one_round():
        # Kernel then loop in every round, so host-speed drift hits both.
        refill()
        start = time.perf_counter()
        _ar1_many(columns, _AMBIENT_PHI)
        middle = time.perf_counter()
        for raw in raws:
            ar1_loop(raw, _AMBIENT_PHI)
        kernel_times.append(middle - start)
        loop_times.append(time.perf_counter() - middle)

    benchmark.pedantic(one_round, rounds=rounds, iterations=1, warmup_rounds=1)
    kernel_seconds, loop_seconds = min(kernel_times), min(loop_times)
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["frames"] = frames
    benchmark.extra_info["kernel_s"] = round(kernel_seconds, 5)
    benchmark.extra_info["loop_s"] = round(loop_seconds, 5)
    return loop_seconds / kernel_seconds


@pytest.mark.bench
def test_ar1_kernel_wide_lanes(benchmark):
    speedup = _measure(benchmark, lanes=255, frames=9_600, rounds=5)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    assert speedup >= 2.0, f"255 x 9,600 kernel speedup {speedup:.2f} below 2x"


@pytest.mark.bench
def test_ar1_kernel_long_lanes(benchmark):
    speedup = _measure(benchmark, lanes=15, frames=60_000, rounds=5)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    assert speedup >= 2.0, f"15 x 60,000 kernel speedup {speedup:.2f} below 2x"


@pytest.mark.bench
def test_ar1_kernel_single_lane(benchmark):
    speedup = _measure(benchmark, lanes=1, frames=9_600, rounds=30)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    assert speedup >= 0.8, f"single-lane kernel speedup {speedup:.2f} below 0.8x"
