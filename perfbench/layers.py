"""Outside-in layer tracing for the fleet benchmark.

Wraps the public entry points of each ``repro`` layer (module functions
and class methods) with an in-memory span recorder.  Nothing under
``src/`` changes: the wrappers are installed from here, by replacing the
attribute the program looks the callable up through.

A span is ``(name, start, end, parent, run)``.  A layer's *self time* is
its spans' total duration minus the part covered by their child spans,
so nested layers (``cloud.resilient`` around ``cloud.detect``) are not
counted twice.

Spawned shard workers start from a fresh import and so carry none of the
coordinator's wrappers.  :class:`TracedShardFactory` is a picklable
service factory that, once unpickled in a worker, installs the same
wrappers there and writes that worker's spans to a file when its fleet
run returns; it delegates the service itself to the stock factory, so
the shard's decisions are unchanged.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import statistics
import time
from typing import Callable, Dict, List, Optional

class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self, run: str):
        self.run = run
        self.spans: List[list] = []  # [name, start, end, parent]
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def records(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run}
            for n, s, e, p in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"run": self.run, "counters": self.counters,
                 "spans": self.records()},
                handle,
            )


def self_times(records: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``s`` and ``self_s`` (total minus
    child spans).  ``parent`` indexes into ``records`` of the same run."""
    child_time = [0.0] * len(records)
    for record in records:
        if record["parent"] >= 0:
            child_time[record["parent"]] += record["end"] - record["start"]
    table: Dict[str, Dict[str, float]] = {}
    for record, children in zip(records, child_time):
        row = table.setdefault(
            record["name"], {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        duration = record["end"] - record["start"]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - children
    return table


def _wrap(tracer: Tracer, owner, attr: str, name: str,
          after: Optional[Callable] = None) -> None:
    original = getattr(owner, attr)
    if getattr(original, "__perfbench_wrapped__", False):
        return

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, result)
        return result

    traced.__perfbench_wrapped__ = True
    setattr(owner, attr, traced)


def install(tracer: Tracer, on_run_end: Optional[Callable] = None) -> None:
    """Wrap every traced layer entry point.  Call after importing repro.

    ``on_run_end(tracer, args, report)``, when given, runs after every
    ``FleetMarshaller.run`` returns.
    """
    import repro.video
    from repro.cloud import CloudInferenceService, ResilientCIClient
    from repro.conformal import ConformalClassifier, ConformalRegressor
    from repro.core import BatchedInference
    from repro.features import CovariatePipeline, FeatureExtractor
    from repro.features.pipeline import Standardizer
    from repro.fleet import FleetMarshaller
    from repro.fleet.scheduler import RoundRobinScheduler
    from repro.harness import experiments
    from repro.ingest import StreamGuard
    from repro.obs import SLOBoard, TimeSeriesStore

    def epochs(t, args, result):
        t.count("core.train_eventhit.epochs", result[1].epochs_run)

    def extracted(t, args, result):
        t.count("features.extract.frames", result.num_frames)

    def predicted(t, args, result):
        t.count("core.predict.rows", len(args[1]))

    def detected(t, args, result):
        t.count("cloud.detect.frames", args[1].num_frames)

    _wrap(tracer, experiments, "build_experiment_data",
          "data.build_experiment_data")
    _wrap(tracer, experiments, "train_eventhit", "core.train_eventhit",
          epochs)
    _wrap(tracer, ConformalClassifier, "calibrate", "conformal.calibrate")
    _wrap(tracer, ConformalRegressor, "calibrate", "conformal.calibrate")
    _wrap(tracer, repro.video, "make_stream", "video.make_stream")
    _wrap(tracer, FeatureExtractor, "extract", "features.extract", extracted)
    _wrap(tracer, CovariatePipeline, "covariates_at",
          "features.covariates_at")
    _wrap(tracer, Standardizer, "transform", "features.standardize")
    _wrap(tracer, BatchedInference, "predict", "core.predict", predicted)
    _wrap(tracer, ConformalClassifier, "predict", "conformal.decide")
    _wrap(tracer, ConformalRegressor, "quantiles", "conformal.decide")
    _wrap(tracer, CloudInferenceService, "detect", "cloud.detect", detected)
    _wrap(tracer, ResilientCIClient, "detect", "cloud.resilient")
    _wrap(tracer, StreamGuard, "sanitize", "ingest.sanitize")
    _wrap(tracer, TimeSeriesStore, "sample", "obs.telemetry")
    _wrap(tracer, SLOBoard, "update", "obs.telemetry")
    _wrap(tracer, RoundRobinScheduler, "order", "fleet.scheduler.order")
    _wrap(tracer, FleetMarshaller, "run", "fleet.run", on_run_end)


class TracedShardFactory:
    """Picklable shard service factory that traces the worker it runs in.

    Delegates the service to ``inner`` (the stock factory).  In the
    worker, the first call installs the layer wrappers; the wrapped
    ``FleetMarshaller.run`` writes the worker's spans to
    ``{prefix}-shard{index}.json`` before the worker reports done.
    """

    def __init__(self, inner, prefix: str):
        self.inner = inner
        self.prefix = prefix

    def __call__(self, shard_index: int, streams):
        tracer = Tracer(run=f"shard{shard_index}")
        path = f"{self.prefix}-shard{shard_index}.json"
        install(tracer, on_run_end=lambda t, args, report: t.write(path))
        return self.inner(shard_index, streams)


class ServeClock:
    """Timestamps from a traced fleet run's progress hooks.

    ``on_tick`` (in process) and ``on_heartbeat`` (per shard) give tick
    durations; ``on_liveness`` gives shard start-up (spawn to hello); the
    last heartbeat to the ``run`` return is the shard merge.
    ``prefix`` names the span files traced shard workers write.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.started = self.stopped = 0.0
        self.ticks: List[float] = []
        self.beats: Dict[int, List[float]] = {}
        self.spawned: Dict[int, float] = {}
        self.live: Dict[int, float] = {}

    def start(self) -> None:
        self.started = time.perf_counter()

    def stop(self) -> None:
        self.stopped = time.perf_counter()

    def on_tick(self, tick: int) -> None:
        self.ticks.append(time.perf_counter())

    def on_heartbeat(self, shard: int, tick: int) -> None:
        self.beats.setdefault(shard, []).append(time.perf_counter())

    def on_liveness(self, shard: int, state: str, detail: str) -> None:
        if state == "STARTING":
            self.spawned[shard] = time.perf_counter()
        elif state == "LIVE" and shard not in self.live:
            self.live[shard] = time.perf_counter()

    def tick_metrics(self) -> Dict[str, float]:
        """Tick-duration percentiles (from heartbeat gaps when sharded)."""
        if self.beats:
            durations = [
                b - a for times in self.beats.values()
                for a, b in zip(times, times[1:])
            ]
        else:
            marks = [self.started] + self.ticks
            durations = [b - a for a, b in zip(marks, marks[1:])]
        deciles = statistics.quantiles(durations, n=10, method="inclusive")
        return {
            "fleet.tick.p50_ms": 1000.0 * deciles[4],
            "fleet.tick.p90_ms": 1000.0 * deciles[8],
        }

    def shard_metrics(self, report, lanes, shards: int) -> Dict[str, float]:
        """Shard-layer numbers seen from the coordinator."""
        from repro.fleet import contiguous_partition

        busy = list(report.shard_busy_seconds)
        payload = [
            len(pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL))
            for part in contiguous_partition(lanes, shards)
        ]
        last_beat = max(times[-1] for times in self.beats.values())
        return {
            "fleet.shard.startup_s": max(
                self.live[i] - self.spawned[i] for i in self.live
            ),
            "fleet.shard.busy_s": max(busy),
            "fleet.shard.skew": max(busy) / (sum(busy) / len(busy)),
            "fleet.shard.coordinator_s": report.coordinator_seconds,
            "fleet.shard.payload_bytes": float(max(payload)),
            "fleet.shard.merge_s": self.stopped - last_beat,
        }

    def worker_traces(self, shards: int) -> List[dict]:
        """The span files the traced shard workers wrote (removed once read)."""
        out = []
        for index in range(shards):
            path = f"{self.prefix}-shard{index}.json"
            with open(path, "r", encoding="utf-8") as handle:
                out.append(json.load(handle))
            os.remove(path)
        return out
