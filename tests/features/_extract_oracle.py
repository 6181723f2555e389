"""Test-only reference: the per-stream feature extraction it replaced.

``FeatureExtractor.extract_many`` builds every lane's matrix in one
batched pass (a chunked AR(1) scan across lanes, channels written in
place).  This module keeps an independent copy of the original
per-stream path so the property tests can pin the batched output against
it byte for byte:

* ``ar1_loop`` — the sequential ``y[t] = x[t] + phi*y[t-1]`` recursion;
* ``searchsorted_time_to_next_onset`` — the binary-search schedule query;
* ``oracle_extract`` — one stream at a time, one fresh array per channel,
  stacked at the end, with the detector's rate/Poisson math inlined.

Nothing under ``src/`` imports it.
"""

from typing import List

import numpy as np

from repro.features.detectors import _salt
from repro.features.extractors import FeatureMatrix


def ar1_loop(noise: np.ndarray, phi: float) -> np.ndarray:
    """``y[t] = noise[t] + phi*y[t-1]``, ``y[-1] = 0``, one frame at a time."""
    out, y = [], 0.0
    for x in noise.tolist():
        y = x + phi * y
        out.append(y)
    return np.array(out, dtype=float)


def searchsorted_time_to_next_onset(schedule, event_type) -> np.ndarray:
    starts = np.array([i.start for i in schedule.instances_of(event_type)])
    frames = np.arange(schedule.length)
    nxt = np.searchsorted(starts, frames)
    dist = np.full(schedule.length, np.inf)
    ahead = nxt < starts.size
    dist[ahead] = starts[nxt[ahead]] - frames[ahead]
    return dist


def _noise_sigma(event_type) -> float:
    return 0.05 + 0.55 * (1.0 - event_type.predictability)


def _duration_amplitudes(extractor, stream, event_type) -> np.ndarray:
    amplitude = np.ones(stream.length)
    weight = extractor.duration_coupling * event_type.predictability
    if weight == 0.0 or event_type.duration_std == 0:
        return amplitude
    instances = stream.schedule.instances_of(event_type)
    if not instances:
        return amplitude
    durations = np.array([inst.duration for inst in instances], dtype=float)
    order = durations.argsort().argsort()
    percentiles = (order + 0.5) / len(durations)
    previous_end = 0
    for inst, pct in zip(instances, percentiles):
        segment = slice(previous_end, inst.end + 1)
        amplitude[segment] = 1.0 + weight * (pct - 0.5)
        previous_end = inst.end + 1
    return amplitude


def _precursor(extractor, stream, event_type) -> np.ndarray:
    dist = searchsorted_time_to_next_onset(stream.schedule, event_type)
    lead = float(event_type.lead_time)
    with np.errstate(invalid="ignore"):
        ramp = np.clip(1.0 - dist / lead, 0.0, 1.0)
    ramp = np.where(np.isfinite(dist), ramp, 0.0)
    signal = ramp * _duration_amplitudes(extractor, stream, event_type)
    rng = stream.observation_rng(_salt("precursor", event_type.name))
    return signal + rng.normal(0.0, _noise_sigma(event_type), size=stream.length)


def _presence(stream, event_type) -> np.ndarray:
    occupancy = stream.schedule.occupancy_mask(event_type).astype(float)
    rng = stream.observation_rng(_salt("presence", event_type.name))
    return occupancy + rng.normal(0.0, _noise_sigma(event_type), size=stream.length)


def _count(extractor, stream, event_type) -> np.ndarray:
    detector = extractor.detector
    profile = detector.profile
    occupancy = stream.schedule.occupancy_mask(event_type).astype(float)
    dist = searchsorted_time_to_next_onset(stream.schedule, event_type)
    window = max(1, int(event_type.lead_time * detector.precursor_fraction))
    with np.errstate(invalid="ignore"):
        ramp = np.clip(1.0 - dist / window, 0.0, 1.0)
    ramp = np.where(np.isfinite(dist), ramp, 0.0)
    signal = np.maximum(occupancy, ramp)
    rates = profile.background_rate + signal * (
        profile.event_rate - profile.background_rate
    )
    rng = stream.observation_rng(salt=_salt("detector", event_type.name))
    return rng.poisson(rates).astype(float) / profile.event_rate


def _context(extractor, stream) -> np.ndarray:
    if extractor.context_channels == 0:
        return np.zeros((stream.length, 0))
    rng = stream.observation_rng(_salt("context", "shared"))
    n = stream.length
    columns = []
    for c in range(extractor.context_channels):
        if c % 3 == 0:
            columns.append(np.tanh(ar1_loop(rng.normal(0, 0.6, size=n), 0.8)))
        elif c % 3 == 1:
            period = rng.uniform(30, 80)
            phase = rng.uniform(0, 2 * np.pi)
            t = np.arange(n)
            columns.append(np.sin(2 * np.pi * t / period + phase))
        else:
            columns.append(rng.normal(0, 1.0, size=n))
    return np.stack(columns, axis=1)


def oracle_extract(extractor, stream, event_types) -> FeatureMatrix:
    """The original ``FeatureExtractor.extract`` for ``extractor``'s settings."""
    columns: List[np.ndarray] = []
    names: List[str] = []
    for event_type in event_types:
        columns.append(_precursor(extractor, stream, event_type))
        names.append(f"precursor:{event_type.name}")
        columns.append(_presence(stream, event_type))
        names.append(f"presence:{event_type.name}")
        columns.append(_count(extractor, stream, event_type))
        names.append(f"count:{event_type.name}")
    context = _context(extractor, stream)
    for c in range(context.shape[1]):
        columns.append(context[:, c])
        names.append(f"context:{c}")
    return FeatureMatrix(np.stack(columns, axis=1), names)
