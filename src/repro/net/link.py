"""A shared-medium network link (10 Mbit Ethernet).

The medium is a capacity-1 resource: one frame serialises at a time in
either direction (CSMA).  Propagation latency is added after the medium
is released, so back-to-back fragments pipeline.

A :class:`~repro.faults.injector.FaultInjector` may attach itself as
the link's fault model (``link.faults``); it is consulted once per
frame, after serialisation — a dropped frame burnt its medium time but
never reaches the far side.  With no model attached every frame is
delivered and the legacy single-argument ``transmit(nbytes)`` call
keeps its exact cost profile.
"""

from repro.obs.span import NULL_SPAN
from repro.sim import Resource


class Link:
    """The cable between two (or more) hosts."""

    def __init__(self, engine, calibration, name="ether"):
        self.engine = engine
        self.calibration = calibration
        self.name = name
        self.medium = Resource(engine, capacity=1, name=name)
        self.frames = 0
        self.bytes = 0
        #: Frames eaten by the fault model (loss/partition/crash).
        self.drops = 0
        #: Transmissions currently contending for the medium (queued or
        #: serialising) — the pipelining signal the transfer benchmark
        #: reports via :attr:`peak_inflight`.
        self.inflight = 0
        #: High-water mark of :attr:`inflight` over the run.
        self.peak_inflight = 0
        #: The world's FaultInjector, or None for a perfect network.
        self.faults = None

    def __repr__(self):
        return (
            f"<Link {self.name} frames={self.frames} bytes={self.bytes} "
            f"drops={self.drops}>"
        )

    def reset_peaks(self):
        """Re-arm the high-water marks for a fresh trial.

        Back-to-back runs against one world would otherwise report the
        earlier trial's peak; the current :attr:`inflight` (not zero)
        is the correct floor — transmissions can straddle the reset.
        """
        self.peak_inflight = self.inflight

    def transmit(self, nbytes, source=None, dest=None, span=NULL_SPAN):
        """Generator: serialise ``nbytes`` onto the medium, then wait
        out the propagation delay.  Returns True if the frame was
        delivered, False if the fault model ate it.

        ``source``/``dest`` are the endpoint Hosts; without them (or
        without an attached fault model) the frame always arrives.
        ``span`` is the causal span to credit per-frame outcomes to
        (``frames`` delivered / ``drops`` eaten); the default
        :data:`NULL_SPAN` discards them for free.  On a perfect
        network the per-frame counters are skipped entirely — every
        fragment arrives, so the ship span's ``fragments`` counter
        already tells the whole story.
        """
        request = self.acquire()
        try:
            yield request
            yield self.engine.timeout(self.serialisation_s(nbytes))
        finally:
            self.release(request)
        faults = self.faults
        if faults is not None:
            if source is not None and dest is not None:
                reason = faults.should_drop(source, dest, self.engine.now)
                if reason is not None:
                    self.drops += 1
                    faults.record_drop(reason)
                    span.add("drops")
                    return False
            span.add("frames")
        self.delivered(nbytes)
        yield self.engine.timeout(self.calibration.link_latency_s)
        return True

    # -- per-frame accounting ---------------------------------------------------
    # The one home of the in-flight and delivery counters, shared by
    # :meth:`transmit` and the NetMsgServer's perfect-network fragment
    # state machine (:class:`~repro.net.netmsgserver.FragmentPipe`).
    def acquire(self):
        """Queue a frame for the medium: count it in flight and return
        the medium :class:`~repro.sim.Request` that fires on its turn."""
        inflight = self.inflight = self.inflight + 1
        if inflight > self.peak_inflight:
            self.peak_inflight = inflight
        return self.medium.request()

    def release(self, request):
        """The frame is off the medium (serialised, or abandoned while
        queued): free ``request`` and drop the frame from the in-flight
        count."""
        self.medium.release(request)
        self.inflight -= 1

    def delivered(self, nbytes):
        """Count one frame of ``nbytes`` that reached the far side."""
        self.frames += 1
        self.bytes += nbytes

    def serialisation_s(self, nbytes):
        """Medium time to serialise ``nbytes`` at the link bandwidth."""
        return (nbytes * 8.0) / self.calibration.link_bandwidth_bps

    def utilisation(self):
        """Fraction of time the medium has been busy."""
        return self.medium.utilisation()
