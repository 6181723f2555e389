"""End-to-end fleet benchmark: one workload, repeated in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload wide-256 --seed 0 --seconds 46 --trace 0

Each repetition is a fresh ``perfbench/workload.py`` process (set-up,
lane build, fleet run, verification).  Repetitions continue while a
typical one still fits in ``--seconds``; at least two always run, so the
report digest is compared across runs of one seed.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
medians of the end-to-end metrics named in ``BENCHMARK.json``
(``--trace 0``) or of its per-layer metrics, taken from the traced
repetitions (``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from layers import self_times  # noqa: E402
from workload import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fewest repetitions per run: the digest must repeat across runs.
MIN_REPS = 2
#: No repetition starts once a run has used this much wall time.
HARD_LIMIT_S = 120.0
REP_TIMEOUT_S = 150.0

#: Per-layer metric -> (phase the spans are taken from, span name, field).
SPAN_METRICS = {
    "data.build_experiment_data.s": ("setup", "data.build_experiment_data", "self_s"),
    "core.train_eventhit.s": ("setup", "core.train_eventhit", "s"),
    "conformal.calibrate.s": ("setup", "conformal.calibrate", "s"),
    "video.make_stream.calls": ("lanes", "video.make_stream", "calls"),
    "video.make_stream.s": ("lanes", "video.make_stream", "s"),
    "features.extract.calls": ("lanes", "features.extract", "calls"),
    "features.extract.s": ("lanes", "features.extract", "s"),
    "features.covariates_at.calls": ("serve", "features.covariates_at", "calls"),
    "features.covariates_at.s": ("serve", "features.covariates_at", "s"),
    "features.standardize.calls": ("serve", "features.standardize", "calls"),
    "core.predict.calls": ("serve", "core.predict", "calls"),
    "core.predict.s": ("serve", "core.predict", "s"),
    "conformal.decide.s": ("serve", "conformal.decide", "s"),
    "cloud.detect.calls": ("serve", "cloud.detect", "calls"),
    "cloud.detect.s": ("serve", "cloud.detect", "s"),
    "cloud.resilient.self_s": ("serve", "cloud.resilient", "self_s"),
    "ingest.sanitize.s": ("serve", "ingest.sanitize", "s"),
    "obs.telemetry.s": ("serve", "obs.telemetry", "s"),
    "fleet.run.self_s": ("serve", "fleet.run", "self_s"),
    "fleet.scheduler.order.s": ("serve", "fleet.scheduler.order", "s"),
}
#: Per-layer metric -> counter the wrappers keep (summed over processes).
COUNTER_METRICS = {
    "core.train_eventhit.epochs": "core.train_eventhit.epochs",
    "features.extract.frames": "features.extract.frames",
    "core.predict.rows": "core.predict.rows",
    "cloud.detect.frames": "cloud.detect.frames",
}
#: Layers only one workload runs, with their units: printed in that
#: workload's table, kept out of the result line, which carries the
#: per-layer metrics every workload measures.
ONLY_IN = {
    "chaos": {
        "cloud.resilient.self_s": "s", "cloud.retries": "count",
        "cloud.segments_deferred": "count", "cloud.segments_failed": "count",
        "ingest.sanitize.s": "s", "ingest.voided_frames": "count",
        "obs.telemetry.s": "s",
    },
    "sharded": {
        "fleet.shard.startup_s": "s", "fleet.shard.busy_s": "s",
        "fleet.shard.skew": "ratio", "fleet.shard.coordinator_s": "s",
        "fleet.shard.payload_bytes": "bytes", "fleet.shard.merge_s": "s",
    },
}


def load_contract() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in contract["end_to_end"]},
        {m["name"]: m["unit"] for m in contract["per_layer"]},
    )


def phase_tables(spans: List[dict]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Self-time tables of the spans under each root (phase) span, plus
    ``"phases"``: the root spans themselves."""
    roots = {}
    members: Dict[str, List[Tuple[int, dict]]] = {}
    for index, span in enumerate(spans):
        if span["parent"] < 0:
            roots[index] = span["name"]
        else:
            roots[index] = roots[span["parent"]]
            members.setdefault(roots[index], []).append((index, span))
    tables = {}
    for phase, rows in members.items():
        # Re-index parents inside the phase's own record list.
        position = {index: i for i, (index, _) in enumerate(rows)}
        tables[phase] = self_times([
            dict(span, parent=position.get(span["parent"], -1))
            for _, span in rows
        ])
    tables["phases"] = self_times([s for s in spans if s["parent"] < 0])
    return tables


def layer_metrics(trace: dict):
    """Per-layer metrics of one traced repetition, and its span tables."""
    tables = phase_tables(trace["spans"])
    serve = tables.setdefault("serve", {})
    counters = dict(trace["counters"])
    for worker in trace["workers"]:
        # Every span a shard worker records is serving work.
        for name, row in self_times(worker["spans"]).items():
            into = serve.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
        for name, value in worker["counters"].items():
            counters[name] = counters.get(name, 0) + value
    out = {"import.s": tables["phases"]["import"]["s"]}
    for metric, (phase, name, field) in SPAN_METRICS.items():
        out[metric] = tables.get(phase, {}).get(name, {}).get(field, 0.0)
    for metric, name in COUNTER_METRICS.items():
        out[metric] = float(counters.get(name, 0))
    windows = out["features.covariates_at.calls"]
    out["features.standardize_per_window"] = (
        out["features.standardize.calls"] / windows if windows else 0.0
    )
    out.update(trace["layers"])
    return out, tables


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_rep(workload: str, seed: int, traced: bool, reference: bool,
            env: Dict[str, str], index: int) -> dict:
    """One repetition in a fresh process; returns its parsed result."""
    trace_out = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}-{index}.json")
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--reference", "1" if reference else "0",
        "--trace-out", trace_out,
        "--spawned-at", repr(spawned_at),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} repetition {index} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["rep_s"] = time.monotonic() - spawned_at
    if traced:
        with open(trace_out, "r", encoding="utf-8") as handle:
            result["trace"] = json.load(handle)
    return result


def check_runs(reps: List[dict], sharded: bool):
    """Cross-repetition checks; returns (attempted, failed, failures)."""
    failures: List[str] = []
    attempted = failed = 0
    for rep in reps:
        attempted += rep["ops_attempted"] + rep["checks"]
        failed += rep["ops_failed"] + len(rep["failures"])
        failures.extend(rep["failures"])
    digests = {r["digest"] for r in reps}
    refs = [r["reference_digest"] for r in reps if "reference_digest" in r]
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in reps}
    for ok, what in (
        (len(digests) == 1, "report digest differs across runs of one seed"),
        (all(ref in digests for ref in refs) and (bool(refs) or not sharded),
         "sharded report differs from the in-process report"),
        (len(fingerprints) == 1, "input fingerprint differs across runs"),
    ):
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)
    return attempted, failed, failures


def report_end_to_end(untraced: List[dict], units: Dict[str, str], out):
    """Print median, quartiles and samples; return the result metrics."""
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}  unit  n  samples",
          file=out)
    metrics = {}
    for name, unit in units.items():
        vals = [
            r["timings"][name] if name in r["timings"] else r["quality"][name]
            for r in untraced
        ]
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        median = statistics.median(vals)
        print(f"{name:<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}  {unit}  "
              f"{len(vals)}  " + " ".join(f"{v:.5g}" for v in vals), file=out)
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def report_layers(workload: str, traced: List[dict], untraced: List[dict],
                  units: Dict[str, str], out) -> Dict[str, dict]:
    """Print the traced run's self-time table; return per-layer medians."""
    mode = WORKLOADS[workload]["mode"]
    rows, tables = zip(*(layer_metrics(r["trace"]) for r in traced))
    wall_traced = statistics.median(r["timings"]["wall_s"] for r in traced)
    wall_plain = statistics.median(r["timings"]["wall_s"] for r in untraced)
    print(f"tracing overhead: traced wall {wall_traced:.3f} s - untraced wall "
          f"{wall_plain:.3f} s = {wall_traced - wall_plain:+.3f} s", file=out)
    print("self time by span, first traced repetition"
          + (" (shard workers summed into serve)" if mode == "sharded" else "")
          + ":", file=out)
    print(f"{'phase':<8}{'span':<28}{'calls':>8}{'total_s':>12}{'self_s':>12}",
          file=out)
    for phase, row in tables[0]["phases"].items():
        spans = tables[0].get(phase, {})
        print(f"{phase:<8}{'(whole phase)':<28}{row['calls']:>8}"
              f"{row['s']:>12.4f}", file=out)
        for name, span_row in sorted(spans.items()):
            print(f"{'':<8}{name:<28}{span_row['calls']:>8}"
                  f"{span_row['s']:>12.4f}{span_row['self_s']:>12.4f}", file=out)
        if spans and mode != "sharded":
            covered = sum(r["self_s"] for r in spans.values())
            print(f"{'':<8}{'(outside any layer span)':<28}{'':>20}"
                  f"{row['s'] - covered:>12.4f}", file=out)

    def median(name):
        return statistics.median(r[name] for r in rows)

    metrics = {
        name: {"value": median(name), "unit": unit}
        for name, unit in units.items() if name != "trace.overhead"
    }
    metrics["trace.overhead"] = {
        "value": wall_traced / wall_plain, "unit": units["trace.overhead"],
    }
    print("per-layer metrics (median over traced repetitions):", file=out)
    for name, metric in sorted(metrics.items()):
        print(f"  {name:<36}{metric['value']:>16.6g} {metric['unit']}", file=out)
    for name, unit in ONLY_IN.get(mode, {}).items():
        print(f"  {name:<36}{median(name):>16.6g} {unit}  (this workload only)",
              file=out)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no src/repro next to perfbench/\n")
        return 2
    end_to_end, per_layer = load_contract()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    # Byte-compile up front so no repetition pays the compile.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )

    sharded = WORKLOADS[args.workload]["mode"] == "sharded"
    reps: List[dict] = []
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        # The sharded workload serves its lanes in process once, after
        # the timed part of an untraced repetition, for the digest check.
        reference = sharded and not traced and not any(
            "reference_digest" in r for r in reps
        )
        reps.append(run_rep(args.workload, args.seed, traced, reference,
                            env, len(reps)))
        elapsed = time.monotonic() - started
        typical = statistics.median(r["rep_s"] for r in reps)
        if len(reps) >= MIN_REPS and (
            elapsed + typical > args.seconds or elapsed > HARD_LIMIT_S
        ):
            break

    attempted, failed, failures = check_runs(reps, sharded)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    out = sys.stdout
    relay_ops = sum(r["ops_attempted"] for r in reps)
    print(f"workload: {args.workload}  seed: {args.seed}  repetitions: "
          f"{len(untraced)} untraced, {len(traced)} traced", file=out)
    print(f"environment: nproc={os.cpu_count()} start_method="
          f"{'spawn' if sharded else 'none (one process)'} "
          f"platform_default_start_method={multiprocessing.get_start_method()} "
          + " ".join(f"{name}={env[name]}" for name in THREAD_VARS), file=out)
    print("fingerprint: " + json.dumps(reps[0]["fingerprint"], sort_keys=True),
          file=out)
    print(f"digest: {reps[0]['digest']}", file=out)
    print(f"error_rate: {failed / max(relay_ops, 1):.6f} "
          f"({failed} failed / {relay_ops} relay operations)", file=out)
    for failure in failures:
        print(f"FAILED: {failure}", file=out)

    metrics = report_end_to_end(untraced, end_to_end, out)
    if args.trace:
        metrics = report_layers(args.workload, traced, untraced, per_layer, out)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), file=out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
