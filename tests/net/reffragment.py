"""The generator fragment pipe, kept as a test oracle.

Before :class:`~repro.net.netmsgserver.FragmentPipe` became a callback
state machine, every fragment crossing a perfect network (no fault model
on the link) ran as a generator :class:`~repro.sim.Process`: hold the
source NMS CPU for one hop, ``Link.transmit`` (medium, serialisation,
latency), then hold the destination NMS CPU for one hop.  This module
keeps that code as it was — the transmit body and the resource's
queue-then-grant ``request`` spelled out here, so the oracle does not
lean on the production helpers it is meant to check.

The differential test (``tests/net/test_fragment_oracle.py``) swaps
these in for the production pipe and ``Resource.request`` and demands
the same event stream, counters and busy times.  Deliberately simple
rather than fast; not used by ``src/``.
"""

from repro.sim.resource import Request


def reference_pipe(nms, wire_bytes, link, peer, category, phase, name):
    """The generator pipe as a Process; same signature as ``FragmentPipe``."""
    return nms.engine.process(
        _fragment_pipe(nms, wire_bytes, link, peer, category, phase),
        name=name,
    )


def _fragment_pipe(nms, wire_bytes, link, peer, category, phase):
    """One fragment's passage: src NMS -> link -> dst NMS."""
    engine = nms.engine
    hop = nms.calibration.nms_hop_s(wire_bytes)
    with nms.cpu.held() as req:
        yield req
        yield engine.timeout(hop)
    nms.host.metrics.record_nms(nms.host.name, hop)
    yield from _transmit(link, wire_bytes)
    nms.host.metrics.record_link(
        wire_bytes, category, nms.host.name, peer.host.name, phase=phase
    )
    with peer.cpu.held() as req:
        yield req
        yield engine.timeout(hop)
    nms.host.metrics.record_nms(peer.host.name, hop)


def _transmit(link, nbytes):
    """``Link.transmit`` on a perfect network, with its own accounting."""
    calibration = link.calibration
    link.inflight += 1
    if link.inflight > link.peak_inflight:
        link.peak_inflight = link.inflight
    try:
        with link.medium.held() as req:
            yield req
            yield link.engine.timeout(
                (nbytes * 8.0) / calibration.link_bandwidth_bps
            )
    finally:
        link.inflight -= 1
    link.frames += 1
    link.bytes += nbytes
    yield link.engine.timeout(calibration.link_latency_s)


def reference_request(resource):
    """``Resource.request`` before the immediate grant: always queue,
    then grant from the head of the queue."""
    resource._account()
    req = Request(resource)
    resource._waiting.append(req)
    resource._grant()
    return req
