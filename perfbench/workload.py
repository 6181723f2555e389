"""One benchmark workload, run once, in a fresh process.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/workload.py --workload wide-256 --seed 0 \
        --spawned-at <monotonic seconds> [--trace 1] [--reference 1]

Times set-up (import + data build + training + calibration), lane build
and the fleet ``run`` call; verifies the report; prints one JSON object
as the last line of stdout.  ``perfbench/run.py`` launches this script
repeatedly and aggregates the runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

TASK = "TA10"
EPOCHS = 25
RECORDS = 350
CONFIDENCE = 0.9
ALPHA = 0.9
CI_FAULT_RATE = 0.2
INGEST_FAULT_RATE = 0.001
#: The deployed model is trained once, from a fixed seed; ``--seed`` seeds
#: what the fleet is fed (lanes, CI faults, camera corruption).  Seeding
#: training too would make the decision metrics measure training
#: variance rather than the serving path.
MODEL_SEED = 0

#: The workload table.  ``horizons=None`` serves every horizon.
WORKLOADS = {
    "wide-256": {"scale": 0.08, "lanes": 256, "horizons": 8, "mode": "plain"},
    "long-16-chaos": {
        "scale": 0.5, "lanes": 16, "horizons": None, "mode": "chaos",
    },
    "sharded-256x2": {
        "scale": 0.08, "lanes": 256, "horizons": 8, "mode": "sharded",
        "shards": 2,
    },
}


def digest(report) -> str:
    """sha256 of the canonical JSON of every per-stream report."""
    payload = {name: r.to_dict() for name, r in report.per_stream.items()}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_horizons(length: int, start: int, horizon: int, cap) -> int:
    """Horizons ``FleetMarshaller`` serves on one lane (its activity rule)."""
    count = max(0, -(-(length - start - horizon) // horizon))
    return count if cap is None else min(cap, count)


def chaos_lanes(lanes, seed: int):
    """Camera-side feature corruption (the workload's input, not timed)."""
    from repro.fleet import FleetLane
    from repro.ingest import IngestFaultInjector, IngestFaultPlan

    out = []
    for index, lane in enumerate(lanes):
        plan = IngestFaultPlan.uniform(
            INGEST_FAULT_RATE, seed=seed * 1000 + index
        )
        features = IngestFaultInjector(plan).inject(lane.features)
        out.append(FleetLane(stream=lane.stream, features=features))
    return out


def serve(spec, experiment, lanes, seed, clock=None):
    """Build the workload's serving stack and time its ``run`` call.

    Returns ``(report, serve_s, fleet)``; ``fleet`` is the
    :class:`~repro.fleet.FleetMarshaller` that served (or that every shard
    replicated).  ``clock``, on a traced run, is a
    :class:`layers.ServeClock` fed from the run's progress hooks.
    """
    from repro import obs
    from repro.cloud import FaultInjector, FaultPlan, ResilientCIClient, RetryPolicy
    from repro.fleet import FleetCIService, SupervisorConfig
    from repro.harness import fleet_marshaller, sharded_fleet_marshaller
    from repro.ingest import StreamGuard

    kwargs = {"max_horizons": spec["horizons"]}
    if spec["mode"] == "sharded":
        sharded = sharded_fleet_marshaller(
            experiment,
            spec["shards"],
            confidence=CONFIDENCE,
            alpha=ALPHA,
            partition="contiguous",
            start_method="spawn",
            supervisor=SupervisorConfig(),
        )
        if clock is not None:
            from layers import TracedShardFactory

            sharded.service_factory = TracedShardFactory(
                sharded.service_factory, clock.prefix
            )
            kwargs["on_heartbeat"] = clock.on_heartbeat
            kwargs["on_liveness"] = clock.on_liveness
        start = time.perf_counter()
        report = sharded.run(lanes, **kwargs)
        return report, time.perf_counter() - start, sharded.fleet

    if spec["mode"] == "chaos":
        obs.configure(enabled=True)
        obs.get_registry().reset()
        obs.set_timeseries(obs.TimeSeriesStore(capacity=240))
        obs.set_flight_recorder(obs.FlightRecorder())
        obs.set_slo_specs(obs.default_fleet_slos())
    fleet = fleet_marshaller(experiment, confidence=CONFIDENCE, alpha=ALPHA)
    service = FleetCIService([lane.stream for lane in lanes])
    if spec["mode"] == "chaos":
        plan = FaultPlan(seed=seed).with_failure_rate(CI_FAULT_RATE)
        service = ResilientCIClient(
            FaultInjector(service, plan), policy=RetryPolicy(seed=seed)
        )
        kwargs["failure_policy"] = "defer"
        kwargs["guard"] = StreamGuard()
    if clock is not None:
        kwargs["on_tick"] = clock.on_tick
    start = time.perf_counter()
    report = fleet.run(lanes, service, **kwargs)
    return report, time.perf_counter() - start, fleet


def reference_digest(experiment, lanes, spec) -> str:
    """Digest of the same lanes served in process (the sharded check)."""
    from repro.fleet import FleetCIService
    from repro.harness import fleet_marshaller

    fleet = fleet_marshaller(experiment, confidence=CONFIDENCE, alpha=ALPHA)
    service = FleetCIService([lane.stream for lane in lanes])
    return digest(fleet.run(lanes, service, max_horizons=spec["horizons"]))


def verify(spec, report, lanes, fleet):
    """The correctness checks; returns ``(checks_run, failures)``."""
    horizon = fleet.marshaller.horizon
    start_frame = fleet.marshaller.pipeline.min_frame()
    failures = []
    if not math.isclose(
        report.attributed_cost, report.shared_cost, rel_tol=1e-9, abs_tol=1e-9
    ):
        failures.append(
            f"attributed_cost {report.attributed_cost!r} != "
            f"shared_cost {report.shared_cost!r}"
        )
    checks = 1
    for lane in lanes:
        checks += 1
        want = horizon * expected_horizons(
            lane.stream.length, start_frame, horizon, spec["horizons"]
        )
        got = report.per_stream[lane.name].frames_covered
        if got != want:
            failures.append(f"lane {lane.name}: covered {got} != {want}")
    if spec["mode"] != "chaos":
        checks += 1
        lost = report.fleet.frames_lost
        if lost:
            failures.append(f"frames_lost {lost} on a clean workload")
    return checks, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--reference", type=int, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's spans here (JSON)")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    tracer = clock = None
    if args.trace:
        from layers import ServeClock, Tracer

        tracer = Tracer(run=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        clock = ServeClock(os.path.splitext(args.trace_out)[0])
    phase = tracer.begin("import") if tracer else None

    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import cost is part of set-up)
    from repro.harness import ExperimentSettings, build_fleet_lanes, run_experiment

    import_s = time.perf_counter() - t0
    if tracer:
        from layers import install

        tracer.end(phase)
        install(tracer)
        phase = tracer.begin("setup")
    t1 = time.perf_counter()
    experiment = run_experiment(
        TASK,
        settings=ExperimentSettings(
            scale=spec["scale"], epochs=EPOCHS, max_records=RECORDS,
            seed=MODEL_SEED,
        ),
    )
    setup_s = import_s + time.perf_counter() - t1

    if tracer:
        tracer.end(phase)
        phase = tracer.begin("lanes")
    t2 = time.perf_counter()
    lanes = build_fleet_lanes(experiment, spec["lanes"], seed=args.seed)
    lanes_s = time.perf_counter() - t2
    if tracer:
        tracer.end(phase)
    features_bytes = sum(lane.features.values.nbytes for lane in lanes)
    inputs_s = 0.0
    if spec["mode"] == "chaos":
        t3 = time.perf_counter()
        lanes = chaos_lanes(lanes, args.seed)
        inputs_s = time.perf_counter() - t3

    phase = tracer.begin("serve") if tracer else None
    if clock:
        clock.start()
    report, serve_s, fleet = serve(spec, experiment, lanes, args.seed, clock)
    if clock:
        clock.stop()
        tracer.end(phase)

    checks, failures = verify(spec, report, lanes, fleet)
    run_digest = digest(report)
    # The camera-side corruption is workload input, not serving work.
    wall_s = time.monotonic() - args.spawned_at - inputs_s

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rollup = report.fleet
    frames = rollup.frames_covered
    chaos = spec["mode"] == "chaos"
    out = {
        "traced": bool(args.trace),
        "digest": run_digest,
        "checks": checks,
        "failures": failures,
        "ops_attempted": report.relays_flushed,
        "ops_failed": rollup.segments_failed,
        "timings": {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "lanes_s": lanes_s,
            "serve_s": serve_s,
        },
        "quality": {
            "pipeline_fps": frames / (lanes_s + serve_s),
            "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
            "frame_recall": rollup.frame_recall,
            "relay_fraction": rollup.relay_fraction,
        },
        "fingerprint": {
            "task": TASK,
            "scale": spec["scale"],
            "lanes": spec["lanes"],
            "horizons": spec["horizons"] or "all",
            "ticks": report.ticks,
            "events": len(experiment.data.event_types),
            "window": experiment.data.spec.window_size,
            "horizon": fleet.marshaller.horizon,
            "fps": lanes[0].stream.fps,
            "frames_covered": frames,
            "ci_fault_rate": CI_FAULT_RATE if chaos else 0.0,
            "ingest_fault_rate": INGEST_FAULT_RATE if chaos else 0.0,
            "shards": spec.get("shards", 1),
            "model_seed": MODEL_SEED,
            "seed": args.seed,
        },
    }
    if args.reference:
        out["reference_digest"] = reference_digest(experiment, lanes, spec)

    if tracer:
        layers = {
            "features.bytes": float(features_bytes),
            "fleet.ticks": float(report.ticks),
            "cloud.retries": float(rollup.retries),
            "cloud.segments_deferred": float(rollup.segments_deferred),
            "cloud.segments_failed": float(rollup.segments_failed),
            "ingest.voided_frames": float(rollup.guarantee_voided_frames),
        }
        layers.update(clock.tick_metrics())
        workers = []
        if spec["mode"] == "sharded":
            layers.update(clock.shard_metrics(report, lanes, spec["shards"]))
            workers = clock.worker_traces(spec["shards"])
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({
                "run": tracer.run,
                "counters": tracer.counters,
                "layers": layers,
                "spans": tracer.records(),
                "workers": workers,
            }, handle)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
