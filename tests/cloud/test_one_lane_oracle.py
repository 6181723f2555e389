"""``StreamMarshaller.run`` against an independent copy of the sequential loop.

The single-stream run is a one-lane fleet run.  These properties pin it
byte for byte to :func:`tests.cloud._sequential_oracle.sequential_run`, a
copy of the horizon loop it replaced, across engines, decision modes,
cloud chaos under every failure policy, ingest chaos behind the guard,
start frames, horizon caps and a lifecycle hot-swap.  Each comparison
covers the report with its detections, the service ledger, and the
fault-injector and retry-client books.

The model is the untrained low-threshold EventHit of
``test_degraded_marshalling.py``: marshalling only needs deterministic
segment decisions, so the module sets up in milliseconds.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cloud import (
    BreakerConfig,
    CIError,
    CloudInferenceService,
    FaultInjector,
    FaultPlan,
    ResilientCIClient,
    RetryPolicy,
    StreamMarshaller,
)
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import EventHit, EventHitConfig
from repro.core.continual import make_engine
from repro.data import build_experiment_data
from repro.features import CovariatePipeline
from repro.ingest import IngestFaultInjector, IngestFaultPlan, StreamGuard
from repro.lifecycle import LifecycleController, ModelRegistry
from repro.video import make_thumos

from tests.cloud._sequential_oracle import sequential_run

CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=8,
    shared_hidden=(8,),
    head_hidden=(8,),
    epochs=1,
    seed=0,
)


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=40, stride=40)
    model = EventHit(
        num_features=data.test_features.values.shape[1],
        num_events=len(data.event_types),
        config=CONFIG,
    )
    pipeline = CovariatePipeline(CONFIG.window_size, standardizer=data.standardizer)
    return data, model, pipeline


def make_marshaller(setup, engine="windowed", conformal=False, **kwargs):
    data, model, pipeline = setup
    # low thresholds so the untrained model still relays segments
    kwargs.setdefault("tau1", 0.0)
    kwargs.setdefault("tau2", 0.3)
    if conformal:
        kwargs["classifier"] = ConformalClassifier(model).calibrate(data.calibration)
        kwargs["regressor"] = ConformalRegressor(model, tau2=kwargs["tau2"]).calibrate(
            data.calibration
        )
    return StreamMarshaller(
        model,
        data.event_types,
        pipeline,
        inference=make_engine(engine, model),
        **kwargs,
    )


cases = st.fixed_dictionaries(
    {
        "engine": st.sampled_from(["windowed", "continual", "gated"]),
        "segmented": st.booleans(),
        "ci_rate": st.sampled_from([0.0, 0.2, 0.5, 0.8]),
        "ci_seed": st.integers(0, 2**16),
        "failure_policy": st.sampled_from(["raise", "skip", "defer"]),
        "max_deferrals": st.sampled_from([1, 3, 8]),
        "retry": st.booleans(),
        "breaker": st.booleans(),
        "ingest_rate": st.sampled_from([None, 0.0, 0.2, 0.5]),
        "ingest_seed": st.integers(0, 2**16),
        "quarantine_policy": st.sampled_from(["relay-all", "skip"]),
        "start_offset": st.sampled_from([0, 0, 1, 137]),
        "max_horizons": st.one_of(st.none(), st.integers(1, 12)),
    }
)


def execute(run, setup, case):
    """One run of ``run`` (``StreamMarshaller.run`` or the oracle, which
    share a signature) on fresh state."""
    data, _, pipeline = setup
    marshaller = make_marshaller(
        setup, engine=case["engine"], segmented=case["segmented"]
    )
    features = data.test_features
    guard = None
    if case["ingest_rate"] is not None:
        plan = IngestFaultPlan.uniform(case["ingest_rate"], seed=case["ingest_seed"])
        features = IngestFaultInjector(plan).inject(features)
        guard = StreamGuard(quarantine_policy=case["quarantine_policy"])
    service = CloudInferenceService(data.test_stream)
    injector = FaultInjector(
        service, FaultPlan.uniform(case["ci_rate"], seed=case["ci_seed"])
    )
    client = ResilientCIClient(
        injector,
        policy=RetryPolicy(max_attempts=3 if case["retry"] else 1, seed=7),
        breaker=(
            BreakerConfig(failure_threshold=3, recovery_seconds=4.0)
            if case["breaker"]
            else None
        ),
    )
    outcome = None
    try:
        report = run(
            marshaller,
            data.test_stream,
            features,
            client,
            start_frame=pipeline.min_frame() + case["start_offset"],
            max_horizons=case["max_horizons"],
            failure_policy=case["failure_policy"],
            max_deferrals=case["max_deferrals"],
            guard=guard,
        )
        # JSON, so the NaN ratios of an event-free run compare equal.
        outcome = json.dumps(report.to_dict(include_detections=True))
    except CIError as error:
        # ``raise`` policy: both loops must fail on the same call.
        outcome = type(error).__name__
    return (
        outcome,
        service.ledger,
        service.simulated_seconds,
        injector.stats.as_dict(),
        client.stats.as_dict(),
        getattr(client.breaker, "transitions", None),
    )


def assert_matches_oracle(setup, case):
    assert execute(StreamMarshaller.run, setup, case) == execute(
        sequential_run, setup, case
    )


CLEAN = {
    "engine": "windowed",
    "segmented": False,
    "ci_rate": 0.0,
    "ci_seed": 0,
    "failure_policy": "raise",
    "max_deferrals": 8,
    "retry": False,
    "breaker": False,
    "ingest_rate": None,
    "ingest_seed": 0,
    "quarantine_policy": "relay-all",
    "start_offset": 0,
    "max_horizons": None,
}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cases)
@example(case=CLEAN)
@example(case={**CLEAN, "ci_rate": 0.5, "failure_policy": "defer", "max_deferrals": 1})
@example(
    case={
        **CLEAN,
        "engine": "gated",
        "segmented": True,
        "ci_rate": 0.2,
        "failure_policy": "skip",
        "ingest_rate": 0.5,
        "quarantine_policy": "relay-all",
    }
)
def test_one_lane_run_matches_sequential_oracle(setup, case):
    assert_matches_oracle(setup, case)


@pytest.mark.chaos
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cases)
def test_one_lane_run_matches_sequential_oracle_wide(setup, case):
    assert_matches_oracle(setup, case)


def test_lifecycle_swap_matches_sequential_oracle(setup, tmp_path):
    """A scheduled retrain hot-swaps the model mid-run; the swap tick,
    the audits and the post-swap decisions must match the oracle."""
    data, _, _ = setup
    retrain = replace(CONFIG, seed=1)

    def run_with(run, root):
        marshaller = make_marshaller(setup, engine="continual", conformal=True)
        controller = LifecycleController(
            marshaller,
            ModelRegistry(root),
            audit_rate=1.0,
            retrain_every_audits=4,
            min_records=4,
            min_positives=1,
            retrain_config=retrain,
            recall_margin=1.0,
            brier_margin=2.0,
        )
        controller.register_incumbent()
        service = CloudInferenceService(data.test_stream)
        report = run(
            marshaller,
            data.test_stream,
            data.test_features,
            service,
            max_horizons=12,
            lifecycle=controller,
        )
        return (
            json.dumps(report.to_dict(include_detections=True)),
            service.ledger,
            controller.stats(),
        )

    real = run_with(StreamMarshaller.run, tmp_path / "one-lane")
    reference = run_with(sequential_run, tmp_path / "oracle")
    assert json.loads(real[0])["model_swaps"] > 0
    assert real == reference
