"""Sharded fleet scale-out — the pinned workload behind the CI gate.

Serves a 256-camera fleet of the TA10 dataset process twice: through one
single-process :class:`~repro.fleet.FleetMarshaller` (timed with
``perf_counter``) and through a 4-shard
:class:`~repro.fleet.ShardedFleetMarshaller`.  The sharded figure of
merit is the **critical-path time** — the busiest shard's CPU time
(``time.process_time`` measured inside the worker) plus coordinator
partition/merge overhead.  On a machine with >= 4 free cores the
critical path equals sharded wall-clock; on a loaded or small CI runner
it is what wall-clock *would* be, measured reproducibly — raw wall time
for a multi-process benchmark on a shared box is noise.

The gate compares the speedup ratio (single-process seconds over
critical-path seconds), which is machine-independent;
``benchmarks/check_regression.py`` reads it out of ``extra_info`` in the
``--benchmark-json`` report and fails the job if it falls more than 20%
below ``benchmarks/BENCH_baseline.json``.
"""

import time

import pytest

from repro.fleet import FleetCIService, ShardedFleetMarshaller
from repro.harness import build_fleet_lanes, fleet_marshaller, format_table

TASK = "TA10"
FLEET_SIZE = 256
NUM_SHARDS = 4
MAX_HORIZONS = 2
ROUNDS = 3


def _run_single(fleet, lanes):
    service = FleetCIService([lane.stream for lane in lanes])
    return fleet.run(lanes, service, max_horizons=MAX_HORIZONS)


@pytest.mark.bench
def test_sharded_throughput(benchmark, get_experiment, save_result):
    experiment = get_experiment(TASK)
    fleet = fleet_marshaller(experiment)
    sharded = ShardedFleetMarshaller(fleet, NUM_SHARDS)
    lanes = build_fleet_lanes(experiment, FLEET_SIZE)

    # One untimed run so the single-process arm pays no first-call costs
    # inside its timed region.
    _run_single(fleet, lanes)

    report = benchmark.pedantic(
        _run_single,
        args=(fleet, lanes),
        rounds=ROUNDS,
        iterations=1,
    )
    frames = report.fleet.frames_covered
    single_seconds = benchmark.stats.stats.min

    critical_seconds = float("inf")
    sharded_report = None
    for _ in range(ROUNDS):
        candidate = sharded.run(lanes, max_horizons=MAX_HORIZONS)
        if candidate.critical_path_seconds < critical_seconds:
            critical_seconds = candidate.critical_path_seconds
            sharded_report = candidate
    assert sharded_report is not None
    # The parallel run must reproduce the single-process reports exactly
    # (the equivalence the merge machinery is built around) — a speedup
    # on wrong answers is no speedup.
    assert sharded_report.fleet.frames_covered == frames
    assert (
        sharded_report.ledger.frames_processed == report.shared_frames
    )

    speedup = single_seconds / critical_seconds

    benchmark.extra_info["streams"] = FLEET_SIZE
    benchmark.extra_info["shards"] = NUM_SHARDS
    benchmark.extra_info["frames"] = frames
    benchmark.extra_info["single_s"] = round(single_seconds, 3)
    benchmark.extra_info["critical_path_s"] = round(critical_seconds, 3)
    benchmark.extra_info["busy_max_s"] = round(
        max(sharded_report.shard_busy_seconds), 3
    )
    benchmark.extra_info["coordinator_s"] = round(
        sharded_report.coordinator_seconds, 3
    )
    benchmark.extra_info["speedup"] = round(speedup, 3)

    save_result(
        "sharded_throughput",
        format_table(
            [
                {
                    "streams": FLEET_SIZE,
                    "shards": NUM_SHARDS,
                    "frames": frames,
                    "single_s": round(single_seconds, 3),
                    "critical_path_s": round(critical_seconds, 3),
                    "speedup": round(speedup, 2),
                }
            ]
        ),
    )

    # Acceptance floor: 4 shards over 256 streams must at least halve the
    # critical path.  (Measured ~3.5x; the CI gate guards the committed
    # baseline much more tightly than this hard floor.)
    assert speedup >= 2.0, f"sharded speedup {speedup:.2f}x below 2x floor"
