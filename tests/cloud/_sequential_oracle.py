"""Test-only reference: the original single-stream horizon loop.

``StreamMarshaller.run`` is a one-lane run of the fleet loop.  This module
keeps an independent copy of the sequential loop it replaced (minus its
telemetry) so the property tests can pin the one-lane run against it byte
for byte.  Nothing under ``src/`` imports it.

The loop decides one horizon at a time: retry the deferral queue, triage
the guard, apply a staged lifecycle swap, forward the collection window,
and relay each chosen segment straight to the service.  A stream that
ends with relays still queued drains them in bounded rounds.
"""

from dataclasses import dataclass

from repro.cloud import CIError, MarshallingReport
from repro.ingest.guard import HEALTHY, QUARANTINED


@dataclass
class _Deferred:
    segment: object
    event_type: object
    deferrals: int = 1


def _truth_in(stream, segment, event_type):
    frames = set()
    for instance in stream.schedule.instances_of(event_type):
        if instance.overlaps(segment.start, segment.end):
            frames.update(
                range(
                    max(instance.start, segment.start),
                    min(instance.end, segment.end) + 1,
                )
            )
    return frames


def _horizon_truth(stream, frame, horizon, event_type):
    frames = set()
    for ev in stream.schedule.events_in_horizon(event_type, frame, horizon):
        frames.update(range(frame + ev.start_offset, frame + ev.end_offset + 1))
    return frames


def _advance(service, seconds):
    advance = getattr(service, "advance_clock", None)
    if advance is not None:
        advance(seconds)


def _retries(service):
    return getattr(getattr(service, "stats", None), "retries", 0)


def sequential_run(
    marshaller,
    stream,
    features,
    service,
    start_frame=None,
    max_horizons=None,
    failure_policy="raise",
    max_deferrals=8,
    guard=None,
    lifecycle=None,
):
    """Marshal ``stream`` exactly as the original sequential loop did."""
    m = marshaller
    guarded = None
    if guard is not None:
        guarded = guard.sanitize(features)
        features = guarded.features
    report = MarshallingReport()
    horizon = m.horizon
    frame = start_frame if start_frame is not None else m.pipeline.min_frame()
    cost_before = service.ledger.total_cost
    retries_before = _retries(service)
    pending = []

    def fail(segment, event_type):
        report.segments_failed += 1
        report.frames_lost += segment.num_frames
        report.lost_event_frames += len(_truth_in(stream, segment, event_type))

    def defer(item, queue):
        report.segments_deferred += 1
        queue.append(item)

    def credit(segment, event_type, detections):
        report.detections.extend(detections)
        report.frames_relayed += segment.num_frames
        covered = set()
        for det in detections:
            covered.update(range(det.start, det.end + 1))
        report.detected_event_frames += len(
            covered & _truth_in(stream, segment, event_type)
        )

    def relay(segment, event_type, queue):
        """One fresh relay: the CI's detections, or None when the failure
        policy absorbed its error."""
        try:
            detections = service.detect(segment, event_type)
        except CIError:
            if failure_policy == "raise":
                raise
            if failure_policy == "skip":
                fail(segment, event_type)
            else:
                defer(_Deferred(segment, event_type), queue)
            return None
        return detections

    def retry_round(queue):
        still = []
        for item in queue:
            try:
                detections = service.detect(item.segment, item.event_type)
            except CIError:
                if item.deferrals >= max_deferrals:
                    fail(item.segment, item.event_type)
                else:
                    item.deferrals += 1
                    defer(item, still)
            else:
                credit(item.segment, item.event_type, detections)
        return still

    m._engine_reset()
    while frame + horizon < stream.length:
        if max_horizons is not None and report.horizons_evaluated >= max_horizons:
            break
        if pending:
            pending = retry_round(pending)
        if guarded is not None:
            health = guarded.state_at(frame)
            lo, hi = frame + 1, frame + horizon + 1
            invalid = guarded.invalid_count(lo, hi)
            report.frames_invalid += invalid
            report.frames_imputed += guarded.imputed_count(lo, hi)
            report.health_transitions += guarded.transitions_in(lo, hi)
            window_dirty = (
                guarded.invalid_count(frame - m.pipeline.window_size + 1, frame + 1)
                > 0
            )
            if health != HEALTHY or window_dirty or invalid > 0:
                report.guarantee_voided_frames += horizon
                m._engine_reset([stream.name])
            if health == QUARANTINED:
                report.quarantined_frames += horizon
                for event_type in m.event_types:
                    report.true_event_frames += len(
                        _horizon_truth(stream, frame, horizon, event_type)
                    )
                    if guard.quarantine_policy != "relay-all":
                        continue
                    segment = stream.segment(frame + 1, frame + horizon)
                    detections = relay(segment, event_type, pending)
                    if detections is not None:
                        credit(segment, event_type, detections)
                report.horizons_evaluated += 1
                report.frames_covered += horizon
                frame += horizon
                _advance(service, horizon / stream.fps)
                continue
        if lifecycle is not None:
            lifecycle.maybe_swap([report], tick=report.horizons_evaluated)
        window = m.pipeline.covariates_at(features, frame)
        output = m._engine_forward(window[None], [stream.name], [frame])
        exists, segments = m._decide(output)
        if lifecycle is not None:
            lifecycle.observe_batch(
                [(stream, frame)],
                window[None],
                output,
                exists,
                tick=report.horizons_evaluated,
            )
        for k, event_type in enumerate(m.event_types):
            truth = _horizon_truth(stream, frame, horizon, event_type)
            report.true_event_frames += len(truth)
            covered = set()
            for start_offset, end_offset in segments[0][k]:
                segment = stream.segment(frame + start_offset, frame + end_offset)
                detections = relay(segment, event_type, pending)
                if detections is None:
                    continue
                report.detections.extend(detections)
                report.frames_relayed += segment.num_frames
                for det in detections:
                    covered.update(range(det.start, det.end + 1))
            report.detected_event_frames += len(covered & truth)
        report.horizons_evaluated += 1
        report.frames_covered += horizon
        frame += horizon
        _advance(service, horizon / stream.fps)

    while pending:
        pending = retry_round(pending)
        _advance(service, horizon / stream.fps)

    report.total_cost = service.ledger.total_cost - cost_before
    report.retries = _retries(service) - retries_before
    return report
