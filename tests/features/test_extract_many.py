"""Bitwise pins for the batched extraction path.

``FeatureExtractor.extract_many`` and its AR(1) kernel are checked byte
for byte against the per-stream path they replaced (kept in
``_extract_oracle``): the kernel on ragged batches with special values and
every kind of ``phi``, whole matrices for mixed-length streams, and the
schedule's ``time_to_next_onset``.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.features import FeatureExtractor, extractors
from repro.features.extractors import _ar1_many, _chunked_scan, _scan_plan
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream

from ._extract_oracle import (
    ar1_loop,
    oracle_extract,
    searchsorted_time_to_next_onset,
)

PHIS = [0.0, -0.0, -0.3, -0.8, -0.999, 0.8, 0.999, 1.0, -1.0, 0.5]
#: Special values injected into kernel inputs, NaN payloads included.
SPECIALS = [
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    -math.nan,
    struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],
]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def ragged_batches(draw, max_views=300):
    """``(span, raw arrays)``: lengths cluster around multiples of a chunk
    span, with sparse special values."""
    span = draw(st.integers(min_value=1, max_value=40))
    count = draw(st.integers(min_value=0, max_value=max_views))
    near_edges = st.builds(
        lambda k, d: max(0, k * span + d),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-1, max_value=1),
    )
    lengths = draw(st.lists(
        st.one_of(near_edges, st.integers(min_value=0, max_value=5 * span)),
        min_size=count, max_size=count,
    ))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    special_rate = draw(st.sampled_from([0.0, 0.0, 0.002, 0.05]))
    # Runs of signed zeros keep the state at exactly +-0.0, where only the
    # sign bit tells the repair's true state from the speculative one.
    zeros = draw(st.booleans())
    raws = []
    for n in lengths:
        if zeros:
            raw = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        else:
            raw = rng.normal(0.0, draw(st.sampled_from([0.6, 1e-3, 1e3])), size=n)
        hits = np.flatnonzero(rng.random(n) < special_rate)
        raw[hits] = [SPECIALS[i] for i in rng.integers(0, len(SPECIALS), hits.size)]
        raws.append(raw)
    return span, raws


def as_columns(raws, width, column):
    """Each raw array as a strided column of its own (n, width) matrix."""
    views = []
    for raw in raws:
        matrix = np.full((raw.size, width), 7.0)
        matrix[:, column] = raw
        views.append(matrix[:, column])
    return views


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    ragged_batches(),
    st.sampled_from(PHIS),
    st.data(),
)
def test_chunked_scan_matches_loop(batch, phi, data):
    """Any span, warm-up <= span and group width; strided or contiguous."""
    span, raws = batch
    raws = [raw for raw in raws if raw.size]
    assume(raws)
    # A short warm-up leaves long repairs; none leaves every chunk's
    # speculative start at +0.0.
    warm = data.draw(st.one_of(
        st.integers(min_value=0, max_value=min(2, span)),
        st.integers(min_value=0, max_value=span),
    ))
    group_chunks = data.draw(st.integers(min_value=1, max_value=64))
    finish = data.draw(st.sampled_from([None, np.tanh]))
    strided = data.draw(st.booleans())
    views = as_columns(raws, 3, 1) if strided else [raw.copy() for raw in raws]
    with pytest.MonkeyPatch.context() as patch, np.errstate(
        over="ignore", invalid="ignore"
    ):
        patch.setattr(
            extractors, "_SCAN_SCRATCH_BYTES", 8 * (1 + warm + span) * group_chunks
        )
        _chunked_scan(views, phi, finish, warm, span)
    for view, raw in zip(views, raws):
        want = ar1_loop(raw, phi)
        if finish is not None:
            want = finish(want)
        assert same_bits(np.ascontiguousarray(view), want)
    if strided:
        # Neighbouring columns are untouched.
        for view in views:
            assert (view.base[:, [0, 2]] == 7.0).all()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    ragged_batches(max_views=300),
    st.sampled_from(PHIS),
    st.integers(min_value=0, max_value=2000),
)
def test_ar1_many_matches_loop(batch, phi, pad):
    """The planned kernel, as extraction calls it, on lane-like columns."""
    _, raws = batch
    rng = np.random.default_rng(pad)
    # Stretch some views so the planner sees lane-sized batches too.
    raws = [
        np.concatenate([raw, rng.normal(0, 0.6, size=pad)]) if i % 3 == 0 else raw
        for i, raw in enumerate(raws)
    ]
    views = as_columns(raws, 6, 3)
    _ar1_many(views, phi)
    for view, raw in zip(views, raws):
        assert same_bits(np.ascontiguousarray(view), ar1_loop(raw, phi))


@pytest.mark.parametrize("lanes, frames", [(40, 2000), (12, 3000), (3, 30000)])
def test_ar1_many_chunked_on_lane_batches(lanes, frames):
    """Lane-shaped batches take the chunked scan and stay exact."""
    assert _scan_plan([frames] * lanes, 0.8) is not None
    rng = np.random.default_rng(lanes)
    raws = [rng.normal(0, 0.6, size=frames) for _ in range(lanes)]
    views = as_columns(raws, 6, 3)
    _ar1_many(views, 0.8, finish=np.tanh)
    for view, raw in zip(views, raws):
        assert same_bits(np.ascontiguousarray(view), np.tanh(ar1_loop(raw, 0.8)))


def test_scan_plan_keeps_single_lanes_on_the_loop():
    assert _scan_plan([9600], 0.8) is None
    warm, span = _scan_plan([9600] * 255, 0.8)
    assert warm == math.ceil(-53 * math.log(2) / math.log(0.8)) and span >= warm
    # |phi| outside (0, 1): one chunk per view, no warm-up.
    assert _scan_plan([9600] * 255, 1.0) == (0, 9600)
    assert _scan_plan([9600] * 255, 0.0) == (0, 9600)


# ----------------------------------------------------------------------
# Schedule query
# ----------------------------------------------------------------------
ET = EventType("truck", duration_mean=40, duration_std=10, lead_time=60,
               predictability=0.8)
OTHER = EventType("crowd", duration_mean=20, duration_std=0, lead_time=30,
                  predictability=0.5)


@st.composite
def schedules(draw, max_length=3000, types=(ET,)):
    length = draw(st.integers(min_value=1, max_value=max_length))
    instances = []
    for event_type in types:
        starts = sorted(draw(st.sets(
            st.integers(min_value=0, max_value=length - 1), max_size=25
        )))
        for start, nxt in zip(starts, starts[1:] + [length]):
            end = start + draw(st.integers(min_value=0, max_value=nxt - start - 1))
            instances.append(EventInstance(start, end, event_type))
    return EventSchedule(length, instances)


@settings(max_examples=300, deadline=None)
@given(schedules(types=(ET, OTHER)))
@example(EventSchedule(40, []))
@example(EventSchedule(1, []))
@example(EventSchedule(1, [EventInstance(0, 0, ET)]))
@example(EventSchedule(40, [EventInstance(0, 0, ET), EventInstance(39, 39, ET)]))
def test_time_to_next_onset_matches_searchsorted(schedule):
    for event_type in (ET, OTHER):
        assert same_bits(
            schedule.time_to_next_onset(event_type),
            searchsorted_time_to_next_onset(schedule, event_type),
        )


# ----------------------------------------------------------------------
# Whole matrices
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    st.lists(
        st.tuples(schedules(types=(ET, OTHER)),
                  st.integers(min_value=0, max_value=2**31 - 1)),
        min_size=1, max_size=12,
    ),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([(ET,), (OTHER,), (ET, OTHER)]),
)
def test_extract_many_matches_per_stream_oracle(
    specs, context_channels, coupling, event_types
):
    streams = [
        VideoStream(schedule.length, schedule, seed=seed, name=f"s{i}")
        for i, (schedule, seed) in enumerate(specs)
    ]
    extractor = FeatureExtractor(
        context_channels=context_channels, duration_coupling=coupling
    )
    got = extractor.extract_many(streams, list(event_types))
    assert len(got) == len(streams)
    for matrix, stream in zip(got, streams):
        want = oracle_extract(extractor, stream, event_types)
        values = matrix.values
        assert values.flags.c_contiguous and values.flags.writeable
        assert matrix.channel_names == want.channel_names
        assert same_bits(values, want.values)
        assert same_bits(extractor.extract(stream, event_types).values, want.values)


def test_extract_many_lane_batch_matches_oracle():
    """A lane-sized batch (the chunked AR(1) path, several ambient columns
    per lane) against the per-stream oracle."""
    streams = []
    for i, length in enumerate([6000, 6000, 5999, 6001, 1, 330, 4000, 6000]):
        instances = [
            EventInstance(start, start + 40, ET)
            for start in range(50 + 13 * i, length - 41, 397)
        ]
        streams.append(VideoStream(length, EventSchedule(length, instances), seed=i))
    extractor = FeatureExtractor(context_channels=7)
    assert _scan_plan([s.length for s in streams] * 3, 0.8) is not None
    for matrix, stream in zip(extractor.extract_many(streams, [ET]), streams):
        assert same_bits(matrix.values, oracle_extract(extractor, stream, [ET]).values)


def test_extract_many_empty_and_validation():
    assert FeatureExtractor().extract_many([], [ET]) == []
    with pytest.raises(ValueError):
        FeatureExtractor().extract_many([], [])


def test_public_channels_match_oracle_columns():
    stream = VideoStream(3000, EventSchedule(3000, [
        EventInstance(800, 859, ET), EventInstance(2000, 2059, ET),
    ]), seed=5)
    extractor = FeatureExtractor(context_channels=4)
    want = oracle_extract(extractor, stream, [ET]).values
    assert same_bits(extractor.precursor_channel(stream, ET), want[:, 0].copy())
    assert same_bits(extractor.presence_channel(stream, ET), want[:, 1].copy())
    assert same_bits(extractor.count_channel(stream, ET), want[:, 2].copy())
    assert same_bits(extractor.context_channel_matrix(stream), want[:, 3:].copy())
