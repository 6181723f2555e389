"""Graceful degradation between the feature pipeline and inference.

The marshalling loop assumes every frame contributes a finite,
well-formed covariate vector; one NaN from a flaky detector poisons the
whole LSTM window (every score of every horizon that window touches goes
NaN, the decision rule sees ``NaN >= τ`` = ``False``, and nothing is
relayed — a silent recall collapse).  Worse, the C-CLASSIFY / C-REGRESS
coverage guarantees are calibrated on clean, exchangeable data: any
imputed or degraded window silently voids them.

:class:`StreamGuard` makes both problems explicit.  ``sanitize`` runs a
validation pass over a :class:`~repro.features.extractors.FeatureMatrix`
— finite-check, dimension check, staleness check (a frozen camera
repeats bit-identical vectors) — applies a pluggable imputation policy
to the invalid frames, and drives a per-stream health state machine::

    HEALTHY → DEGRADED → QUARANTINED → RECOVERING → HEALTHY

with hysteresis thresholds, so momentary blips neither quarantine a
stream nor flap it in and out of service.  The marshaller consults the
resulting :class:`GuardedStream` each horizon: quarantined horizons fall
back to a conservative policy (relay everything, or skip with
accounting), and every horizon whose collection window touched an
invalid frame — or whose stream was not HEALTHY — is charged to
``guarantee_voided_frames`` in the report, marking exactly where the
conformal guarantees no longer hold.

The zero-fault path is byte-identical to running without the guard:
clean frames are never touched (``sanitize`` returns the *same* feature
object), the machine stays HEALTHY, and every new report counter stays
zero — pinned by ``tests/ingest``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..features.extractors import FeatureMatrix
from ..obs import inc, log_info, set_gauge, span

__all__ = [
    "HEALTH_STATES",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "RECOVERING",
    "IMPUTATION_POLICIES",
    "QUARANTINE_POLICIES",
    "GuardConfig",
    "GuardedStream",
    "StreamGuard",
]

#: Health states in code order (the ``GuardedStream.health`` int8 codes).
HEALTH_STATES = ("HEALTHY", "DEGRADED", "QUARANTINED", "RECOVERING")
HEALTHY, DEGRADED, QUARANTINED, RECOVERING = range(4)

#: Valid ``StreamGuard(imputation=...)`` values.
IMPUTATION_POLICIES = ("hold-last", "zero-fill", "linear-interp")

#: Valid ``StreamGuard(quarantine_policy=...)`` values.
QUARANTINE_POLICIES = ("relay-all", "skip")


@dataclass(frozen=True)
class GuardConfig:
    """Thresholds of the validation pass and the health state machine.

    ``degrade_rate`` / ``quarantine_rate`` / ``recover_rate`` are invalid
    -frame fractions over a sliding ``window``; ``recover_rate`` sits
    strictly below ``degrade_rate`` so the machine has hysteresis — a
    stream that just degraded needs to get *cleaner* than the degrade
    trigger before it is trusted again.  A gap of more than ``max_gap``
    consecutive invalid frames quarantines immediately (no imputation
    policy is trusted across a long outage), and a quarantined stream
    must survive ``recovery_frames`` consecutive valid frames in
    RECOVERING before it is HEALTHY again.
    """

    window: int = 30
    degrade_rate: float = 0.10
    quarantine_rate: float = 0.40
    recover_rate: float = 0.02
    recovery_frames: int = 15
    max_gap: int = 8
    stale_after: int = 12
    expected_dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        for name in ("degrade_rate", "quarantine_rate", "recover_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not self.recover_rate < self.degrade_rate <= self.quarantine_rate:
            raise ValueError(
                "hysteresis requires recover_rate < degrade_rate "
                "<= quarantine_rate"
            )
        if self.recovery_frames < 1:
            raise ValueError("recovery_frames must be >= 1")
        if self.max_gap < 1:
            raise ValueError("max_gap must be >= 1")
        if self.stale_after < 1:
            raise ValueError("stale_after must be >= 1")
        if self.expected_dim is not None and self.expected_dim < 1:
            raise ValueError("expected_dim must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GuardConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown GuardConfig fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GuardConfig":
        return cls.from_dict(json.loads(text))


class GuardedStream:
    """The outcome of one ``StreamGuard.sanitize`` pass.

    Holds the sanitized feature matrix plus per-frame verdicts: which
    frames failed validation (and why), which were imputed, the health
    state at every frame, and the transition log.  Range queries are
    prefix-sum backed so the marshaller pays O(1) per horizon.
    """

    def __init__(
        self,
        features: FeatureMatrix,
        invalid: np.ndarray,
        nonfinite: np.ndarray,
        stale: np.ndarray,
        imputed: np.ndarray,
        health: np.ndarray,
        transitions: List[Tuple[int, str, str]],
    ):
        self.features = features
        self.invalid = invalid
        self.nonfinite = nonfinite
        self.stale = stale
        self.imputed = imputed
        self.health = health
        self.transitions = transitions
        # Prefix sums: _cum_x[i] = count of x in frames [0, i).
        self._cum_invalid = np.concatenate(([0], np.cumsum(invalid)))
        self._cum_imputed = np.concatenate(([0], np.cumsum(imputed)))
        self._transition_frames = np.array(
            [frame for frame, _, _ in transitions], dtype=int
        )

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return self.features.num_frames

    @property
    def num_invalid(self) -> int:
        return int(self._cum_invalid[-1])

    @property
    def num_imputed(self) -> int:
        return int(self._cum_imputed[-1])

    @property
    def any_invalid(self) -> bool:
        return self.num_invalid > 0

    def _clip(self, start: int, stop: int) -> Tuple[int, int]:
        return max(0, start), min(self.num_frames, stop)

    def invalid_count(self, start: int, stop: int) -> int:
        """Invalid frames in the half-open range ``[start, stop)``."""
        start, stop = self._clip(start, stop)
        if start >= stop:
            return 0
        return int(self._cum_invalid[stop] - self._cum_invalid[start])

    def imputed_count(self, start: int, stop: int) -> int:
        """Imputed frames in the half-open range ``[start, stop)``."""
        start, stop = self._clip(start, stop)
        if start >= stop:
            return 0
        return int(self._cum_imputed[stop] - self._cum_imputed[start])

    def transitions_in(self, start: int, stop: int) -> int:
        """Health transitions whose frame falls in ``[start, stop)``."""
        if self._transition_frames.size == 0:
            return 0
        frames = self._transition_frames
        return int(((frames >= start) & (frames < stop)).sum())

    def state_at(self, frame: int) -> int:
        """Health state code at ``frame`` (clamped to the stream)."""
        frame = min(max(frame, 0), self.num_frames - 1)
        return int(self.health[frame])

    def health_at(self, frame: int) -> str:
        """Health state name at ``frame``."""
        return HEALTH_STATES[self.state_at(frame)]


def _stale_mask(values: np.ndarray, stale_after: int) -> np.ndarray:
    """Frames that are the (stale_after+1)-th or later bitwise repeat.

    A frozen feed repeats its last live frame exactly; genuinely clean
    synthetic features carry per-frame observation noise and never tie
    bitwise, so exact whole-vector equality is a safe staleness signal.
    NaN never equals NaN, so missing frames cannot masquerade as stale.
    """
    num_frames = values.shape[0]
    if num_frames <= stale_after:
        return np.zeros(num_frames, dtype=bool)
    same_as_prev = (values[1:] == values[:-1]).all(axis=1)
    # Position of each frame within its run of consecutive repeats.
    run_break = np.concatenate(([True], ~same_as_prev))
    run_starts = np.flatnonzero(run_break)
    run_id = np.cumsum(run_break) - 1
    position = np.arange(num_frames) - run_starts[run_id]
    return position >= stale_after


def _gap_lengths(invalid: np.ndarray) -> np.ndarray:
    """Length of the consecutive-invalid run ending at each frame."""
    num_frames = invalid.shape[0]
    if num_frames == 0:
        return np.zeros(0, dtype=int)
    run_break = np.concatenate(([True], ~invalid[:-1]))
    run_starts = np.flatnonzero(run_break)
    run_id = np.cumsum(run_break) - 1
    position = np.arange(num_frames) - run_starts[run_id]
    return np.where(invalid, position + 1, 0)


class StreamGuard:
    """Sanitize feature streams and track per-stream health.

    Parameters
    ----------
    imputation:
        Gap-filling policy for invalid frames: ``"hold-last"`` repeats
        the last valid vector (the frame-to-frame-redundancy bet Event
        Neural Networks make), ``"zero-fill"`` writes zeros (cheap,
        pessimistic), ``"linear-interp"`` interpolates each channel
        between the surrounding valid frames (needs lookahead; edges
        clamp).  A leading gap has no last value — every policy
        zero-fills it.
    quarantine_policy:
        What the marshaller does with a QUARANTINED horizon:
        ``"relay-all"`` relays the entire horizon (conservative: spend
        money, miss nothing), ``"skip"`` relays nothing and charges the
        frames to the report's quarantine accounting.
    config:
        Thresholds (:class:`GuardConfig`).

    The guard itself is stateless and reusable across streams; all
    per-stream state lives in the :class:`GuardedStream` that
    ``sanitize`` returns, so one guard can serve a whole fleet.
    """

    def __init__(
        self,
        imputation: str = "hold-last",
        quarantine_policy: str = "relay-all",
        config: Optional[GuardConfig] = None,
    ):
        if imputation not in IMPUTATION_POLICIES:
            raise ValueError(
                f"imputation must be one of {IMPUTATION_POLICIES}, "
                f"got {imputation!r}"
            )
        if quarantine_policy not in QUARANTINE_POLICIES:
            raise ValueError(
                f"quarantine_policy must be one of {QUARANTINE_POLICIES}, "
                f"got {quarantine_policy!r}"
            )
        self.imputation = imputation
        self.quarantine_policy = quarantine_policy
        self.config = config if config is not None else GuardConfig()

    # ------------------------------------------------------------------
    def _impute(
        self, values: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Replacement values for the invalid frames (policy-dependent)."""
        num_frames = values.shape[0]
        out = values.copy()
        if self.imputation == "zero-fill":
            out[~valid] = 0.0
            return out
        valid_idx = np.flatnonzero(valid)
        if valid_idx.size == 0:
            out[:] = 0.0
            return out
        if self.imputation == "hold-last":
            # Index of the most recent valid frame at or before each
            # frame; frames before the first valid one zero-fill.
            last = np.where(valid, np.arange(num_frames), -1)
            last = np.maximum.accumulate(last)
            fillable = ~valid & (last >= 0)
            out[fillable] = values[last[fillable]]
            out[~valid & (last < 0)] = 0.0
            return out
        # linear-interp: per-channel interpolation over the valid frames.
        frames = np.arange(num_frames, dtype=float)
        for channel in range(values.shape[1]):
            out[~valid, channel] = np.interp(
                frames[~valid], frames[valid], values[valid, channel]
            )
        return out

    def _health_pass(
        self, invalid: np.ndarray
    ) -> Tuple[np.ndarray, List[Tuple[int, str, str]]]:
        """Run the hysteresis state machine over the per-frame verdicts."""
        config = self.config
        num_frames = invalid.shape[0]
        frames = np.arange(num_frames)
        cum = np.concatenate(([0], np.cumsum(invalid)))
        starts = np.maximum(0, frames + 1 - config.window)
        rate = (cum[frames + 1] - cum[starts]) / (frames + 1 - starts)
        trip = (_gap_lengths(invalid) > config.max_gap) | (
            rate >= config.quarantine_rate
        )
        clean = rate <= config.recover_rate
        # Ascending frames at which each state is left.
        exits = {
            HEALTHY: np.flatnonzero(trip | (rate >= config.degrade_rate)),
            DEGRADED: np.flatnonzero(trip | clean),
            QUARANTINED: np.flatnonzero(~invalid & clean),
            RECOVERING: np.flatnonzero(invalid),
        }
        # RECOVERING is entered with a clean streak of 1 and checked from
        # the next frame, so it heals this many frames after entry.
        heal_after = max(1, config.recovery_frames - 1)

        transitions: List[Tuple[int, str, str]] = []
        states, entered = [HEALTHY], [0]
        state, at = HEALTHY, -1
        while True:
            exit_at = exits[state]
            i = np.searchsorted(exit_at, at, side="right")
            nxt = int(exit_at[i]) if i < exit_at.size else num_frames
            if state == RECOVERING:
                nxt = min(nxt, at + heal_after)
            if nxt >= num_frames:
                break
            if state == QUARANTINED:
                new = RECOVERING
            elif state == RECOVERING:
                new = QUARANTINED if invalid[nxt] else HEALTHY
            elif trip[nxt]:
                new = QUARANTINED
            else:
                new = DEGRADED if state == HEALTHY else HEALTHY
            transitions.append((nxt, HEALTH_STATES[state], HEALTH_STATES[new]))
            state, at = new, nxt
            states.append(state)
            entered.append(at)
        lengths = np.diff(entered + [num_frames])
        return np.repeat(np.array(states, dtype=np.int8), lengths), transitions

    def sanitize(self, features: FeatureMatrix) -> GuardedStream:
        """Validate, impute, and grade ``features``.

        Raises ``ValueError`` on a dimension mismatch (the stream is
        structurally wrong — no imputation policy can paper over a
        detector emitting the wrong number of channels).  Returns the
        input object untouched when every frame is clean, so the guarded
        zero-fault path is bitwise the unguarded one.
        """
        config = self.config
        if (
            config.expected_dim is not None
            and features.num_channels != config.expected_dim
        ):
            raise ValueError(
                f"feature dimension check failed: expected "
                f"{config.expected_dim} channels, got {features.num_channels}"
            )
        with span("ingest.sanitize", frames=features.num_frames):
            values = features.values
            nonfinite = ~np.isfinite(values).all(axis=1)
            stale = _stale_mask(values, config.stale_after) & ~nonfinite
            invalid = nonfinite | stale

            if not invalid.any():
                set_gauge("ingest.invalid_rate", 0.0)
                health = np.zeros(features.num_frames, dtype=np.int8)
                return GuardedStream(
                    features,
                    invalid,
                    nonfinite,
                    stale,
                    np.zeros(features.num_frames, dtype=bool),
                    health,
                    [],
                )

            sanitized_values = self._impute(values, ~invalid)
            sanitized = FeatureMatrix(
                sanitized_values, list(features.channel_names)
            )
            health, transitions = self._health_pass(invalid)
            imputed = invalid.copy()

            inc("ingest.frames_invalid", int(invalid.sum()))
            inc("ingest.frames_nonfinite", int(nonfinite.sum()))
            inc("ingest.frames_stale", int(stale.sum()))
            inc("ingest.frames_imputed", int(imputed.sum()))
            set_gauge(
                "ingest.invalid_rate", float(invalid.mean())
            )
            for frame, old, new in transitions:
                inc("stream.health.transitions")
                inc(f"stream.health.to_{new.lower()}")
                log_info(
                    "stream.health.transition",
                    frame=frame,
                    from_state=old,
                    to_state=new,
                )
            return GuardedStream(
                sanitized, invalid, nonfinite, stale, imputed, health, transitions
            )
