"""Bitwise pins for the vectorized rewrites of per-frame Python loops.

Each property keeps the original loop as an oracle and checks the
vectorized code against it byte for byte, so a change in rounding,
ordering or an off-by-one in a state machine shows up as a mismatch
rather than as a drifted report.
"""

from typing import List, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.features.extractors import _ar1
from repro.ingest import GuardConfig, StreamGuard
from repro.ingest.guard import (
    DEGRADED,
    HEALTH_STATES,
    HEALTHY,
    QUARANTINED,
    RECOVERING,
    _gap_lengths,
)
from repro.video.events import EventInstance, EventSchedule, EventType

ET = EventType("truck", 5, 1)
OTHER = EventType("crowd", 5, 1)


# ----------------------------------------------------------------------
# EventSchedule.time_to_next_onset
# ----------------------------------------------------------------------
def loop_time_to_next_onset(schedule, event_type):
    dist = np.full(schedule.length, np.inf)
    next_onset = np.inf
    starts = {inst.start for inst in schedule.instances_of(event_type)}
    for t in range(schedule.length - 1, -1, -1):
        if t in starts:
            next_onset = t
        dist[t] = next_onset - t if np.isfinite(next_onset) else np.inf
    return dist


@st.composite
def schedules(draw):
    length = draw(st.integers(min_value=1, max_value=300))
    starts = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=length - 1), max_size=20))
    )
    instances = []
    for start, nxt in zip(starts, starts[1:] + [length]):
        end = start + draw(st.integers(min_value=0, max_value=nxt - start - 1))
        instances.append(EventInstance(start, end, ET))
    # A second type in the same schedule must not leak into ET's answer.
    instances.append(EventInstance(length // 2, length // 2, OTHER))
    return EventSchedule(length, instances)


@settings(max_examples=300, deadline=None)
@given(schedules())
@example(EventSchedule(50, []))
@example(EventSchedule(50, [EventInstance(0, 3, ET)]))
@example(EventSchedule(50, [EventInstance(49, 49, ET)]))
@example(EventSchedule(1, [EventInstance(0, 0, ET)]))
def test_time_to_next_onset_matches_loop(schedule):
    fast = schedule.time_to_next_onset(ET)
    slow = loop_time_to_next_onset(schedule, ET)
    assert fast.dtype == slow.dtype and fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()


# ----------------------------------------------------------------------
# AR(1) context channel vs scipy.signal.lfilter
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ar1_matches_lfilter(length, seed):
    from scipy.signal import lfilter

    noise = np.random.default_rng(seed).normal(0, 0.6, size=length)
    expected = lfilter([1.0], [1.0, -0.8], noise)
    got = _ar1(noise, 0.8)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# StreamGuard._health_pass vs the per-frame state machine
# ----------------------------------------------------------------------
def loop_health_pass(
    config: GuardConfig, invalid: np.ndarray
) -> Tuple[np.ndarray, List[Tuple[int, str, str]]]:
    num_frames = invalid.shape[0]
    health = np.zeros(num_frames, dtype=np.int8)
    transitions: List[Tuple[int, str, str]] = []
    if not invalid.any():
        return health, transitions
    cum = np.concatenate(([0], np.cumsum(invalid)))
    gaps = _gap_lengths(invalid)
    window = config.window
    state = HEALTHY
    clean_streak = 0
    for frame in range(num_frames):
        start = max(0, frame + 1 - window)
        rate = (cum[frame + 1] - cum[start]) / (frame + 1 - start)
        gap = gaps[frame]
        new_state = state
        if state == HEALTHY:
            if gap > config.max_gap or rate >= config.quarantine_rate:
                new_state = QUARANTINED
            elif rate >= config.degrade_rate:
                new_state = DEGRADED
        elif state == DEGRADED:
            if gap > config.max_gap or rate >= config.quarantine_rate:
                new_state = QUARANTINED
            elif rate <= config.recover_rate:
                new_state = HEALTHY
        elif state == QUARANTINED:
            if not invalid[frame] and rate <= config.recover_rate:
                new_state = RECOVERING
                clean_streak = 1
        else:
            if invalid[frame]:
                new_state = QUARANTINED
            else:
                clean_streak += 1
                if clean_streak >= config.recovery_frames:
                    new_state = HEALTHY
        if new_state != state:
            transitions.append(
                (frame, HEALTH_STATES[state], HEALTH_STATES[new_state])
            )
            state = new_state
        health[frame] = state
    return health, transitions


@st.composite
def guard_configs(draw):
    # Rates on a 1/40 grid so windowed rates k/window hit them exactly.
    recover = draw(st.integers(min_value=0, max_value=38))
    degrade = draw(st.integers(min_value=recover + 1, max_value=40))
    quarantine = draw(st.integers(min_value=degrade, max_value=40))
    return GuardConfig(
        window=draw(st.integers(min_value=1, max_value=40)),
        recover_rate=recover / 40,
        degrade_rate=degrade / 40,
        quarantine_rate=quarantine / 40,
        recovery_frames=draw(st.integers(min_value=1, max_value=20)),
        max_gap=draw(st.integers(min_value=1, max_value=12)),
    )


@st.composite
def bursty_masks(draw):
    """Alternating clean/invalid runs: isolated blips through long outages."""
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=12,
        )
    )
    mask: List[bool] = []
    for clean, bad in runs:
        mask += [False] * clean + [True] * bad
    if draw(st.booleans()):
        mask = mask[::-1]  # sometimes open on an outage
    return np.array(mask, dtype=bool)


masks = st.one_of(
    bursty_masks(),
    st.lists(st.booleans(), min_size=1, max_size=300).map(
        lambda bits: np.array(bits, dtype=bool)
    ),
)


@settings(max_examples=400, deadline=None)
@given(guard_configs(), masks)
@example(GuardConfig(), np.zeros(40, dtype=bool))
@example(GuardConfig(), np.ones(40, dtype=bool))
def test_health_pass_matches_loop(config, invalid):
    health, transitions = StreamGuard(config=config)._health_pass(invalid)
    ref_health, ref_transitions = loop_health_pass(config, invalid)
    assert health.dtype == np.int8 and health.shape == ref_health.shape
    assert health.tobytes() == ref_health.tobytes()
    assert transitions == ref_transitions
