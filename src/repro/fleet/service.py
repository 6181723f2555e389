"""A shared CI account serving a whole fleet of streams.

One :class:`FleetCIService` is one billing account: a single
:class:`~repro.cloud.service.UsageLedger`, one pricing model, and one
simulated-processing clock, shared by every registered stream.  The fleet
marshaller switches which stream a relay is answered against with
:meth:`~repro.cloud.service.CloudInferenceService.activate` before each
``detect`` call — the per-call cost of multiplexing, instead of paying
for N private service instances.  ``activate`` accepts any stream
:meth:`has_stream` reports as registered.

The service subclasses :class:`~repro.cloud.service.CloudInferenceService`,
so the whole resilience stack composes unchanged: wrap it in a
``FaultInjector`` and/or ``ResilientCIClient`` and the wrappers' ``stream``
properties keep delegating to whichever stream is currently active.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..cloud.pricing import PricingModel
from ..cloud.service import CloudInferenceService
from ..video.stream import VideoStream

__all__ = ["FleetCIService"]


class FleetCIService(CloudInferenceService):
    """Pay-per-frame CI shared by several registered streams.

    Parameters
    ----------
    streams:
        The fleet's streams.  Names must be unique — the name is the lane
        key the scheduler and reports use.  The first stream starts
        active.
    pricing / ci_fps:
        As for :class:`~repro.cloud.service.CloudInferenceService`; note
        that under tiered pricing the *pooled* frame count walks the tier
        schedule, which is the point of sharing an account.
    """

    def __init__(
        self,
        streams: Sequence[VideoStream],
        pricing: Optional[PricingModel] = None,
        ci_fps: float = 20.0,
    ):
        streams = list(streams)
        if not streams:
            raise ValueError("a fleet service needs at least one stream")
        registry: Dict[str, VideoStream] = {}
        for stream in streams:
            if stream.name in registry:
                raise ValueError(
                    f"duplicate stream name {stream.name!r}; fleet lanes "
                    "are keyed by stream name"
                )
            registry[stream.name] = stream
        super().__init__(streams[0], pricing=pricing, ci_fps=ci_fps)
        self._registry = registry

    # ------------------------------------------------------------------
    @property
    def streams(self) -> Tuple[VideoStream, ...]:
        """The registered fleet, in registration order."""
        return tuple(self._registry.values())

    def has_stream(self, stream: VideoStream) -> bool:
        """Whether exactly this stream object is registered."""
        return self._registry.get(stream.name) is stream
