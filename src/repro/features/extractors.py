"""Per-frame covariate extraction (paper §II "covariates are part of feature
selection and are application-dependent").

For every event type we emit three channels, mirroring the descriptive
features the paper builds from detector outputs and annotations:

* ``precursor:<event>`` — a ramp that rises from 0 to ~1 over the event's
  lead time before each onset (e.g. "average distance between cars and
  persons" shrinking as a truck approaches).  Its amplitude is partially
  modulated by the *upcoming instance's duration percentile*, so interval
  length is statistically predictable to the degree the event type's
  ``predictability`` allows.
* ``presence:<event>`` — detector evidence that the activity is ongoing.
* ``count:<event>`` — normalised target-object counts from the simulated
  detector (the channel the VQS baseline thresholds).

Plus shared context channels (ambient motion random walk, slow illumination
drift, white noise) that carry no information about the events — feature
selection should reject them.

All noise derives from the stream's ``observation_rng``, so extraction is
deterministic for a given stream.

:meth:`FeatureExtractor.extract_many` builds many streams' matrices in one
pass: each channel is written straight into its stream's preallocated
``(N, D)`` matrix, and the ambient-motion AR(1) filter runs once over every
stream's column (:func:`_ar1_many`), as a time-chunked scan across lanes
that is bitwise the sequential recursion.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..video.events import EventType
from ..video.stream import VideoStream
from .detectors import SimulatedObjectDetector, _salt

__all__ = ["FeatureMatrix", "FeatureExtractor", "extract_features"]

#: AR(1) coefficient of the ambient-motion context channels.
_AMBIENT_PHI = 0.8


@dataclass
class FeatureMatrix:
    """A (N, D) feature array with named channels."""

    values: np.ndarray
    channel_names: List[str]

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("feature values must be 2-D (frames, channels)")
        if self.values.shape[1] != len(self.channel_names):
            raise ValueError(
                f"{self.values.shape[1]} channels but "
                f"{len(self.channel_names)} names"
            )

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, name: str) -> np.ndarray:
        """Column by channel name."""
        try:
            index = self.channel_names.index(name)
        except ValueError:
            raise KeyError(f"unknown channel {name!r}") from None
        return self.values[:, index]

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        """A new matrix restricted to the named channels (in given order)."""
        indices = [self.channel_names.index(n) for n in names]
        return FeatureMatrix(self.values[:, indices].copy(), list(names))


class FeatureExtractor:
    """Build the covariate channels for a stream and a set of event types.

    Parameters
    ----------
    detector:
        Simulated detector supplying the object-count channels.
    context_channels:
        Number of uninformative context channels to append.
    duration_coupling:
        Weight in [0, 1] of the duration-percentile modulation of the
        precursor amplitude (scaled by each event's predictability).
    """

    def __init__(
        self,
        detector: Optional[SimulatedObjectDetector] = None,
        context_channels: int = 3,
        duration_coupling: float = 0.5,
    ):
        if context_channels < 0:
            raise ValueError("context_channels must be >= 0")
        if not 0.0 <= duration_coupling <= 1.0:
            raise ValueError("duration_coupling must be in [0, 1]")
        self.detector = detector or SimulatedObjectDetector()
        self.context_channels = context_channels
        self.duration_coupling = duration_coupling

    # ------------------------------------------------------------------
    # Channel builders
    # ------------------------------------------------------------------
    def precursor_channel(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Noisy anticipation ramp for one event type."""
        out = np.empty(stream.length)
        dist = stream.schedule.time_to_next_onset(event_type)
        self._precursor_into(out, stream, event_type, dist)
        return out

    def presence_channel(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Noisy in-event evidence for one event type."""
        out = np.empty(stream.length)
        occupancy = stream.schedule.occupancy_mask(event_type).astype(float)
        self._presence_into(out, stream, event_type, occupancy)
        return out

    def count_channel(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Target-object counts normalised by the in-event rate."""
        out = np.empty(stream.length)
        self._count_into(out, stream, event_type, *_schedule_queries(stream, event_type))
        return out

    def context_channel_matrix(self, stream: VideoStream) -> np.ndarray:
        """(N, context_channels) of uninformative context signals."""
        out = np.empty((stream.length, self.context_channels))
        _ambient_motion(self._context_into(out, stream))
        return out

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def extract(
        self, stream: VideoStream, event_types: Sequence[EventType]
    ) -> FeatureMatrix:
        """Full (N, D) covariate matrix with D = 3K + context_channels."""
        return self.extract_many([stream], event_types)[0]

    def extract_many(
        self,
        streams: Sequence[VideoStream],
        event_types: Sequence[EventType],
    ) -> List[FeatureMatrix]:
        """:meth:`extract` for each stream, built in one batched pass.

        Every channel is written straight into its stream's preallocated
        ``(N, D)`` matrix.  The ambient-motion columns first hold their raw
        AR(1) noise; one :func:`_ar1_many` call then filters all of them
        across streams and writes back their ``tanh``.  Each matrix is
        bitwise the one the stream would get alone.
        """
        if not event_types:
            raise ValueError("event_types must be non-empty")
        names: List[str] = []
        for event_type in event_types:
            names += [
                f"precursor:{event_type.name}",
                f"presence:{event_type.name}",
                f"count:{event_type.name}",
            ]
        names += [f"context:{c}" for c in range(self.context_channels)]
        first_context = 3 * len(event_types)
        matrices: List[FeatureMatrix] = []
        ambient: List[np.ndarray] = []
        for stream in streams:
            values = np.empty((stream.length, len(names)))
            for k, event_type in enumerate(event_types):
                self._event_into(values[:, 3 * k : 3 * k + 3], stream, event_type)
            ambient += self._context_into(values[:, first_context:], stream)
            matrices.append(FeatureMatrix(values, list(names)))
        _ambient_motion(ambient)
        return matrices

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _event_into(
        self, out: np.ndarray, stream: VideoStream, event_type: EventType
    ) -> None:
        """Precursor, presence and count columns of ``out`` (N, 3), with the
        schedule queried once."""
        occupancy, dist = _schedule_queries(stream, event_type)
        self._precursor_into(out[:, 0], stream, event_type, dist)
        self._presence_into(out[:, 1], stream, event_type, occupancy)
        self._count_into(out[:, 2], stream, event_type, occupancy, dist)

    def _precursor_into(
        self,
        out: np.ndarray,
        stream: VideoStream,
        event_type: EventType,
        dist: np.ndarray,
    ) -> None:
        lead = float(event_type.lead_time)
        with np.errstate(invalid="ignore"):
            ramp = np.clip(1.0 - dist / lead, 0.0, 1.0)
        ramp = np.where(np.isfinite(dist), ramp, 0.0)

        amplitude = self._duration_amplitudes(stream, event_type)
        signal = ramp * amplitude

        noise_sigma = self._noise_sigma(event_type)
        rng = stream.observation_rng(_salt("precursor", event_type.name))
        np.add(signal, rng.normal(0.0, noise_sigma, size=stream.length), out=out)

    def _presence_into(
        self,
        out: np.ndarray,
        stream: VideoStream,
        event_type: EventType,
        occupancy: np.ndarray,
    ) -> None:
        noise_sigma = self._noise_sigma(event_type)
        rng = stream.observation_rng(_salt("presence", event_type.name))
        np.add(occupancy, rng.normal(0.0, noise_sigma, size=stream.length), out=out)

    def _count_into(
        self,
        out: np.ndarray,
        stream: VideoStream,
        event_type: EventType,
        occupancy: np.ndarray,
        dist: np.ndarray,
    ) -> None:
        detector = self.detector
        rates = detector._rates(event_type, occupancy, dist)
        counts = detector._draw(stream, event_type, rates)
        np.divide(counts, detector.profile.event_rate, out=out)

    def _context_into(self, out: np.ndarray, stream: VideoStream) -> List[np.ndarray]:
        """Fill ``out`` (N, context_channels); return the ambient-motion
        columns, which still hold their raw noise for :func:`_ambient_motion`."""
        if self.context_channels == 0:
            return []
        rng = stream.observation_rng(_salt("context", "shared"))
        n = stream.length
        ambient = []
        for c in range(self.context_channels):
            column = out[:, c]
            if c % 3 == 0:
                # Ambient motion: fast mean-reverting AR(1).  The short
                # correlation length (~5 frames) keeps the channel from
                # acting as a stream-position code that a model could use
                # to memorise the training schedule.
                column[:] = rng.normal(0, 0.6, size=n)
                ambient.append(column)
            elif c % 3 == 1:
                # Flicker: fast sinusoid with a random short period and
                # phase — periodic everywhere, so positionally ambiguous.
                period = rng.uniform(30, 80)
                phase = rng.uniform(0, 2 * np.pi)
                t = np.arange(n)
                column[:] = np.sin(2 * np.pi * t / period + phase)
            else:
                column[:] = rng.normal(0, 1.0, size=n)
        return ambient

    def _noise_sigma(self, event_type: EventType) -> float:
        """Observation noise scale — higher for less predictable events."""
        return 0.05 + 0.55 * (1.0 - event_type.predictability)

    def _duration_amplitudes(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Per-frame ramp amplitude encoding the next instance's duration.

        The amplitude preceding instance i is
        ``1 + coupling·pred·(percentile(duration_i) - 0.5)``, so longer
        upcoming events produce visibly stronger precursors, making interval
        *length* partially learnable — more so for predictable event types.
        """
        amplitude = np.ones(stream.length)
        weight = self.duration_coupling * event_type.predictability
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


def _schedule_queries(stream: VideoStream, event_type: EventType):
    """``(occupancy as floats, frames to the next onset)`` for one type."""
    schedule = stream.schedule
    return (
        schedule.occupancy_mask(event_type).astype(float),
        schedule.time_to_next_onset(event_type),
    )


def _ambient_motion(columns: List[np.ndarray]) -> None:
    """Turn raw ambient noise columns into ``tanh(AR(1))``, in place."""
    _ar1_many(columns, _AMBIENT_PHI, finish=np.tanh)


# ----------------------------------------------------------------------
# The AR(1) kernel
# ----------------------------------------------------------------------
#: Upper bound on the scan scratch, in bytes.  It sits on top of every lane
#: matrix at the end of lane build, so it adds to peak RSS one for one.
_SCAN_SCRATCH_BYTES = 3 << 20
#: Cost model (seconds, 2-vCPU x86 host, CPython 3.11) that picks the chunk
#: span, or the sequential loop when a batch is too narrow to pay for the
#: two ufunc calls of every scan step.  Both paths are exact; the model
#: only decides speed.
_STEP_S = 2e-6  # one scan step's two ufunc calls
_ELEMENT_S = 2e-9  # one scratch element through the scan
_CHUNK_S = 1.2e-5  # gather, repair and write-back of one chunk
_LOOP_FRAME_S = 1.2e-7  # one frame of the sequential recursion
#: Frames of each chunk handed to the repair as Python lists up front; the
#: repair rarely runs past them.
_REPAIR_HEAD = 16

_bits = struct.Struct("<d").pack


def _ar1(noise: np.ndarray, phi: float) -> np.ndarray:
    """``y[t] = noise[t] + phi*y[t-1]`` in ``scipy.signal.lfilter([1], [1,
    -phi], noise)``'s operation order: bitwise its output, without scipy."""
    out = np.array(noise, dtype=float)
    _ar1_many([out], phi)
    return out


def _ar1_many(
    views: Sequence[np.ndarray], phi: float, finish: Optional[np.ufunc] = None
) -> None:
    """Filter every 1-D float64 view in place, ``y[t] = x[t] + phi*y[t-1]``
    from ``y[-1] = 0``, bitwise the sequential recursion on each; then
    apply ``finish`` (an elementwise ufunc such as ``np.tanh``), if given.

    The views are scanned together as time chunks (:func:`_chunked_scan`)
    when :func:`_scan_plan` prices that below the sequential loop.
    ``finish`` runs on the kernel's own row-contiguous buffers either way,
    as it ran on the sequential loop's output array.  Like that loop, the
    kernel is silent on overflow and on ``inf - inf``.
    """
    views = [view for view in views if view.size]
    plan = _scan_plan([view.size for view in views], phi) if views else None
    if plan is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            _chunked_scan(views, phi, finish, *plan)
        return
    for view in views:
        out = np.array(_recur(view.tolist(), phi, 0.0), dtype=float)
        if finish is not None:
            finish(out, out=out)
        view[:] = out


def _recur(xs: List[float], phi: float, y: float) -> List[float]:
    """The sequential recursion over ``xs`` from state ``y``."""
    out = []
    for x in xs:
        y = x + phi * y
        out.append(y)
    return out


def _warmup(phi: float) -> int:
    """Frames after which ``|phi|**k <= 2**-53``: a state started that
    long ago has faded below the last bit of the current one."""
    return math.ceil(-53 * math.log(2) / math.log(abs(phi)))


def _scan_plan(lengths: List[int], phi: float):
    """``(warm-up, chunk span)`` of the cheapest chunked scan over views of
    ``lengths``, or ``None`` when the sequential loop is cheaper.

    A span below the longest view needs ``|phi|`` in (0, 1), so that a
    chunk's state can be rebuilt from a finite warm-up; otherwise each
    view is one chunk.
    """
    longest = max(lengths)
    spans = []
    warm = 0
    if 0.0 < abs(phi) < 1.0:
        warm = _warmup(phi)
        span = warm
        while span < longest:
            spans.append(span)
            span *= 2
    spans.append(longest)
    best_cost, best = _LOOP_FRAME_S * sum(lengths), None
    for span in spans:
        lead = warm if span < longest else 0
        rows = 1 + lead + span
        chunks = sum(-(-n // span) for n in lengths)
        width = max(1, _SCAN_SCRATCH_BYTES // (8 * rows))
        cost = (
            -(-chunks // width) * rows * _STEP_S
            + chunks * rows * _ELEMENT_S
            + chunks * _CHUNK_S
        )
        if cost < best_cost:
            best_cost, best = cost, (lead, span)
    return best


def _chunked_scan(
    views: List[np.ndarray],
    phi: float,
    finish: Optional[np.ufunc],
    warm: int,
    span: int,
) -> None:
    """Exact AR(1) over ``views`` by a scan across time chunks
    (``warm <= span``).

    1. Each view is cut into chunks of ``span`` frames.  A group of chunks
       (its scratch bounded by ``_SCAN_SCRATCH_BYTES``) is laid out one
       chunk per column: a zero row, ``warm`` rows of the raw input before
       the chunk (zeros for a view's first chunk), then the chunk.  One
       ``out[t] = x[t] + phi*out[t-1]`` step over a row advances every
       chunk of the group at once.
    2. Chunks are repaired in order.  A view's first chunk started from the
       true state (zero) and is exact.  Every later chunk is recomputed
       sequentially from the true final value of the chunk before it,
       until a frame's value equals the speculative one bit for bit; from
       there on the two are the same recursion on the same inputs.  The
       warm-up only makes that repair short (a group's first chunk has
       none, and its repair runs ~``warm`` frames).

    The vector step and the sequential step agree bit for bit except when
    both operands of the add are NaNs (numpy's vector and scalar loops
    return different payloads).  NaN absorbs the recursion, so a chunk
    whose speculative final value is not NaN never met one; a chunk whose
    final value is NaN is recomputed sequentially in full.
    """
    chunks = [
        (view, start, min(span, view.size - start))
        for view in views
        for start in range(0, view.size, span)
    ]
    rows = 1 + warm + span
    width = min(len(chunks), max(1, _SCAN_SCRATCH_BYTES // (8 * rows)))
    # One scratch serves every group: fresh pages cost a fault each on
    # first touch, a few ms per group.
    buffer = np.empty((rows, width))
    head = min(_REPAIR_HEAD, span)
    factor = np.array(phi)
    multiply, add = np.multiply, np.add
    carry = 0.0
    for first in range(0, len(chunks), width):
        group = chunks[first : first + width]
        scratch = buffer[:, : len(group)]
        body = scratch[1 + warm :]
        scratch[: 1 + warm] = 0.0
        for col, (view, start, size) in enumerate(group):
            # A group's first chunk gets no warm-up: the chunk before it
            # went back to its view, filtered, with the previous group.
            lead = min(start, warm) if col else 0
            scratch[1 + warm - lead : 1 + warm + size, col] = view[
                start - lead : start + size
            ]
            # Zero padding after a short chunk keeps stale values out of
            # its final row, which the NaN test below reads.
            body[size:, col] = 0.0
        raw_heads = body[:head].T.tolist()

        lines = list(scratch)
        step = np.empty(len(group))
        for prev, line in zip(lines, lines[1:]):
            multiply(prev, factor, step)
            add(line, step, line)

        spec_heads = body[:head].T.tolist()
        finals = lines[-1].tolist()
        for col, (view, start, size) in enumerate(group):
            spec = body[:size, col]
            raw = view[start : start + size]
            if math.isnan(finals[col]):
                spec[:] = _recur(raw.tolist(), phi, carry if start else 0.0)
                carry = float(spec[-1])
            elif start:
                carry = _repair(
                    raw, spec, carry, phi, raw_heads[col], spec_heads[col]
                )
            else:
                carry = finals[col]
        if finish is not None:
            finish(body, out=body)
        for col, (view, start, size) in enumerate(group):
            view[start : start + size] = body[:size, col]


def _repair(
    raw: np.ndarray,
    spec: np.ndarray,
    y: float,
    phi: float,
    raw_head: List[float],
    spec_head: List[float],
) -> float:
    """Recompute ``spec``, the speculative AR(1) of ``raw``, from the true
    state ``y`` before it, up to the first frame where the two agree bit
    for bit (``±0.0`` differ; compared by bits, not ``==``).  ``raw_head``
    and ``spec_head`` are the first frames of each as lists.  Returns the
    true final value."""
    done, block = 0, len(spec_head)
    xs, ss = raw_head[: raw.size], spec_head
    while True:
        fixed: List[float] = []
        for x, s in zip(xs, ss):
            y = x + phi * y
            if _bits(y) == _bits(s):
                spec[done : done + len(fixed)] = fixed
                return float(spec[-1])
            fixed.append(y)
        spec[done : done + len(fixed)] = fixed
        done += len(fixed)
        if done >= raw.size:
            return y
        block *= 4
        xs = raw[done : done + block].tolist()
        ss = spec[done : done + block].tolist()


def extract_features(
    stream: VideoStream,
    event_types: Sequence[EventType],
    detector: Optional[SimulatedObjectDetector] = None,
    context_channels: int = 3,
) -> FeatureMatrix:
    """Convenience wrapper: extract with default settings."""
    extractor = FeatureExtractor(detector=detector, context_channels=context_channels)
    return extractor.extract(stream, event_types)
