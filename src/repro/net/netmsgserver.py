"""The NetMsgServer: Accent's user-level network server (paper §2.4).

One runs on each host.  It extends ports and imaginary segments across
the network: messages to remote ports are fragmented, shipped over the
link and reassembled at the peer, *using the AMap as a guide* so that
imaginary subranges travel as descriptors rather than data.

The server also implements the paper's IOU-caching optimisation: when a
message carries a large real-memory section and the sender has not set
the ``NoIOUs`` bit, the NetMsgServer caches the pages locally, becomes
their backer (through its :class:`~repro.cor.backer.BackingServer`) and
passes an IOU in the data's place.  This is the mechanism the
MigrationManager leans on for pure-IOU context transfers (§3.2).
"""

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import (
    IOUSection,
    Message,
    RegionSection,
)
from collections import Counter
from itertools import count

from repro.cor.backer import BackingServer
from repro.faults.errors import TransportError
from repro.obs import causal
from repro.obs.span import NULL_SPAN
from repro.sim import Event, Process, Resource, Timeout
from repro.sim.events import PENDING


class NetMsgServerError(Exception):
    """Shipment to an unconnected host, or a malformed message."""


class NetMsgServer:
    """Per-host network message server."""

    #: Real-memory sections larger than this are eligible for IOU
    #: substitution when the NoIOUs bit is clear.
    IOU_CACHE_THRESHOLD_BYTES = 4096

    def __init__(self, host, prefetch=0):
        self.host = host
        self.engine = host.engine
        self.calibration = host.calibration
        self.cpu = Resource(self.engine, capacity=1, name=f"{host.name}-nms")
        #: Backs every RIMAS region this server has cached.
        self.backing = BackingServer(host, prefetch=prefetch, name=f"{host.name}-nms-backer")
        #: host name -> (Link, peer NetMsgServer)
        self._routes = {}
        #: Wire dedup: when True (set by ``TestbedWorld.enable_store``
        #: with the dedup knob) outgoing real-memory sections replace
        #: pages the destination already holds with content references.
        self.dedup = False
        self.messages_shipped = 0
        self.messages_delivered = 0
        #: Pages physically shipped, per message op (Table 4-3 input).
        self.pages_shipped_by_op = Counter()
        #: Reliable-transport state (lossy worlds only): fragment
        #: sequence numbers are globally unique per sender, and the
        #: receiver remembers what it has seen so a retransmission
        #: whose ack was lost is suppressed rather than re-handled.
        self._seq = count(1)
        self._seen_seqs = set()
        registry = host.metrics.obs.registry
        self._retransmits = registry.counter(
            "transport_retransmits_total", labels=("host",)
        )
        self._duplicates = registry.counter(
            "transport_duplicates_total", labels=("host",)
        )
        host.nms = self

    def __repr__(self):
        return (
            f"<NetMsgServer {self.host.name} routes={sorted(self._routes)}>"
        )

    @property
    def prefetch(self):
        """Pages prefetched per imaginary fault on cached segments."""
        return self.backing.prefetch

    @prefetch.setter
    def prefetch(self, value):
        self.backing.prefetch = value

    def connect(self, link, peer):
        """Register a route to ``peer`` (another host's NMS) over ``link``."""
        self._routes[peer.host.name] = (link, peer)

    def route_to(self, host):
        """The (link, peer NMS) pair for ``host``."""
        try:
            return self._routes[host.name]
        except KeyError:
            raise NetMsgServerError(
                f"{self.host.name} has no route to {host.name}"
            ) from None

    # -- shipment ----------------------------------------------------------------
    def ship(self, message, dest_host):
        """Generator: deliver ``message`` to its port on ``dest_host``.

        Completes when the reassembled message is enqueued at the
        destination port.  Fragments pipeline through the three stage
        resources (source CPU, link medium, destination CPU).
        """
        link, peer = self.route_to(dest_host)
        obs = self.host.metrics.obs
        # Causal parenting: a message carrying a trace context descends
        # from the span that sent it (a fault, a flush batch, a transfer
        # sub-phase) even when that span lives on another host's track;
        # messages without one fall back to the active phase.
        ship_span = obs.tracer.span(
            f"ship {message.op}",
            parent=causal.parent_of(message, obs.current_phase),
            track=f"nms/{self.host.name}",
            dest=dest_host.name,
        )
        # Byte attribution is resolved once, here, from the message's
        # causal ancestry: the nearest enclosing phase span owns every
        # fragment of this shipment.  Resolving per fragment instead
        # would credit whichever phase happened to be open when the
        # fragment crossed — wrong as soon as two migrations share the
        # link.
        phase = obs.phase_for(ship_span)
        try:
            cached = self._substitute_ious(message, ship_span)
            if cached:
                obs.registry.counter(
                    "iou_substitutions_total", labels=("host",)
                ).inc(len(cached), host=self.host.name)
                ship_span.add("iou_sections", len(cached))
                with ship_span.child("iou-cache"):
                    yield from self._cache_cost(cached)

            if (
                self.dedup
                and self.host.store is not None
                and peer.host.store is not None
            ):
                self._dedup_sections(message, peer, ship_span)

            calibration = self.calibration
            payload = message.wire_bytes
            frag_data = calibration.fragment_data_bytes
            fragment_sizes = []
            remaining = payload
            while remaining > 0:
                chunk = min(frag_data, remaining)
                fragment_sizes.append(chunk + calibration.fragment_header_bytes)
                remaining -= chunk

            self.messages_shipped += 1
            ship_span.add("payload_bytes", payload)
            ship_span.add("fragments", len(fragment_sizes))
            for section in message.sections_of(RegionSection):
                self.pages_shipped_by_op[message.op] += len(section.pages)
            name = "frag-" + message.op
            if link.faults is None:
                pipes = [
                    FragmentPipe(self, size, link, peer, message.op, phase, name)
                    for size in fragment_sizes
                ]
            else:
                pipes = [
                    self.engine.process(
                        self._reliable_fragment(
                            size, link, peer, message.op, ship_span, phase
                        ),
                        name=name,
                    )
                    for size in fragment_sizes
                ]
            try:
                yield self.engine.all_of(pipes)
            except TransportError:
                # Sibling fragments may still be mid-retransmission;
                # their eventual failures are already accounted for.
                for pipe in pipes:
                    pipe.defuse()
                raise
            if peer.host.crashed:
                raise TransportError(
                    f"{peer.host.name} crashed before {message.op} "
                    "could be reassembled"
                )

            delivered = peer._reassemble(message)
            peer.messages_delivered += 1
            yield message.dest.enqueue(delivered)
        finally:
            ship_span.finish()

    def _reliable_fragment(self, wire_bytes, link, peer, category, span,
                           phase=None):
        """Deliver one fragment over a faulty wire, or die trying.

        A fault model on the link (a FaultInjector) puts every fragment
        under this reliable transport: sequence number, positive
        per-fragment ack, ack timeout with capped exponential backoff,
        and duplicate suppression at the receiver.  A perfect network
        runs :class:`FragmentPipe` instead.

        The sender keeps the fragment until a positive ack returns; a
        lost data frame *or* a lost ack triggers a retransmission
        after the (exponentially backed-off, capped) timeout.  The
        receiver only pays the handling CPU cost for the first copy of
        a sequence number — later copies are suppressed as duplicates,
        though each still re-acks so the sender can stop.

        Each retransmission cycle (backoff wait + retried attempt)
        opens a ``retransmit`` child under the ship span, closed when
        the retry resolves — an ack, a further retransmit, or failure.
        """
        calibration = self.calibration
        hop = calibration.nms_hop_s(wire_bytes)
        seq = (self.host.name, next(self._seq))
        timeout = calibration.retransmit_timeout_s
        attempts = 0
        retry_span = NULL_SPAN
        try:
            while True:
                attempts += 1
                if self.host.crashed:
                    raise TransportError(
                        f"{self.host.name} crashed while sending {category}"
                    )
                with self.cpu.held() as req:
                    yield req
                    yield self.engine.timeout(hop)
                self.host.metrics.record_nms(self.host.name, hop)
                delivered = yield from link.transmit(
                    wire_bytes, source=self.host, dest=peer.host, span=span
                )
                if delivered:
                    self.host.metrics.record_link(
                        wire_bytes, category, self.host.name, peer.host.name,
                        phase=phase,
                    )
                    if seq in peer._seen_seqs:
                        self._duplicates.inc(1, host=peer.host.name)
                    else:
                        peer._seen_seqs.add(seq)
                        with peer.cpu.held() as req:
                            yield req
                            yield self.engine.timeout(hop)
                        self.host.metrics.record_nms(peer.host.name, hop)
                    acked = yield from link.transmit(
                        calibration.ack_wire_bytes,
                        source=peer.host, dest=self.host, span=span,
                    )
                    if acked:
                        return
                if attempts >= calibration.retransmit_max_attempts:
                    raise TransportError(
                        f"fragment of {category} from {self.host.name} to "
                        f"{peer.host.name} undeliverable after {attempts} attempts"
                    )
                self._retransmits.inc(1, host=self.host.name)
                span.add("retransmits")
                retry_span.finish()
                retry_span = span.child(
                    "retransmit", attempt=attempts + 1, backoff_s=timeout
                )
                yield self.engine.timeout(timeout)
                timeout = min(
                    timeout * calibration.retransmit_backoff_factor,
                    calibration.retransmit_timeout_cap_s,
                )
        finally:
            retry_span.finish()

    # -- IOU caching ----------------------------------------------------------------
    def _substitute_ious(self, message, ship_span=NULL_SPAN):
        """Cache eligible real-memory sections; pass IOUs instead.

        Returns the list of freshly-created IOU sections.  Cached
        segments remember the shipping span's trace context, so
        residual faults against them later stitch back into the
        migration that left the IOU behind.
        """
        if message.no_ious:
            return []
        cached = []
        trace_ctx = message.trace_ctx
        if trace_ctx is None and ship_span is not NULL_SPAN:
            trace_ctx = causal.TraceContext(ship_span)
        for position, section in enumerate(message.sections):
            if not isinstance(section, RegionSection):
                continue
            if section.force_copy:
                continue
            if section.byte_size <= self.IOU_CACHE_THRESHOLD_BYTES:
                continue
            segment = self.backing.create_segment(
                section.pages, label=f"cached-{message.op}",
                trace_ctx=trace_ctx,
                window=getattr(section, "transfer_window", None),
            )
            iou = IOUSection(
                segment.handle,
                section.pages.keys(),
                label=section.label,
            )
            message.sections[position] = iou
            cached.append(iou)
        return cached

    # -- wire dedup -----------------------------------------------------------------
    def _dedup_sections(self, message, peer, ship_span):
        """Replace pages the peer already holds with content references.

        Every outgoing page's contents are registered in the source
        store (making this host a holder for later multi-source fault
        service); pages whose content id the destination holds — or
        that an earlier page of this same message already ships — ride
        the wire as a (index, content id) reference instead of bytes
        and are rematerialised from the destination's store at
        reassembly.
        """
        source_store = self.host.store
        directory = source_store.directory
        dest_name = peer.host.name
        shipping_now = set()
        deduped_pages = 0
        for section in message.sections_of(RegionSection):
            refs = {}
            for index, page in list(section.pages.items()):
                content_id = source_store.put_page(page)
                if (
                    dest_name in directory.holders(content_id)
                    or content_id in shipping_now
                ):
                    refs[index] = content_id
                    del section.pages[index]
                else:
                    shipping_now.add(content_id)
            if refs:
                section.content_refs.update(refs)
                deduped_pages += len(refs)
        if deduped_pages:
            saved_bytes = deduped_pages * (
                PAGE_SIZE
                + RegionSection.PAGE_DESCRIPTOR_BYTES
                - RegionSection.CONTENT_REF_BYTES
            )
            ship_span.add("dedup_pages", deduped_pages)
            ship_span.add("dedup_bytes_saved", saved_bytes)
            registry = self.host.metrics.obs.registry
            registry.counter(
                "store_dedup_pages_total", labels=("host",)
            ).inc(deduped_pages, host=self.host.name)
            registry.counter(
                "store_dedup_bytes_saved_total", labels=("host",)
            ).inc(saved_bytes, host=self.host.name)

    def _cache_cost(self, cached):
        """Charge the (small) cost of having cached sections just now."""
        calibration = self.calibration
        cost = sum(
            calibration.iou_cache_base_s
            + len(section.runs()) * calibration.iou_cache_per_run_s
            for section in cached
        )
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(cost)

    # -- reassembly --------------------------------------------------------------
    def _reassemble(self, message):
        """Build the delivered message at the receiving side.

        Physically-shipped pages become independent copies (their bytes
        crossed the wire); IOU sections pass through as descriptors —
        the receiver will fault pages in from the backing site.
        """
        sections = []
        store = self.host.store
        for section in message.sections:
            if isinstance(section, RegionSection):
                pages = {
                    index: page.fork_copy()
                    for index, page in section.pages.items()
                }
                if store is not None:
                    # Arrived bytes enter the local content store (this
                    # host becomes a holder), and deduped references
                    # rematerialise from it — bit-identical to the
                    # bytes the sender held, or the id would differ.
                    for page in pages.values():
                        store.put_page(page)
                    for index, content_id in section.content_refs.items():
                        pages[index] = store.get_page(content_id)
                sections.append(
                    RegionSection(
                        pages,
                        force_copy=section.force_copy,
                        label=section.label,
                    )
                )
            else:
                sections.append(section)
        delivered = Message(
            dest=message.dest,
            op=message.op,
            sections=sections,
            reply_port=message.reply_port,
            no_ious=message.no_ious,
            meta=message.meta,
        )
        delivered.source_host = message.source_host
        # The causal context crosses the wire with the message, so the
        # receiver's handlers can parent their spans to the sender's.
        delivered.trace_ctx = message.trace_ctx
        return delivered


class FragmentPipe(Process):
    """One fragment's passage over a perfect network — source NMS ->
    link -> destination NMS — as a callback state machine.

    It schedules exactly the events of the generator process it
    replaced (kept as the test oracle ``tests/net/reffragment.py``), in
    the same order, at the same times and priorities: the init event;
    the source CPU's Request and hop Timeout; the medium's Request, the
    serialisation Timeout and the latency Timeout; the destination
    CPU's Request and hop Timeout; and last the pipe itself, the event
    the ship's ``all_of`` waits on.  The ``record_nms``/``record_link``
    calls fall at the same points.  Each stage is a bound method
    appended to the event it waits on, so a stage costs one callback
    instead of a generator resumption.

    It stays a :class:`~repro.sim.Process`: it completes like one (the
    event-kind counters fold it into ``Process``), and its ``name``
    (``frag-<op>``) is the handler the engine profiler buckets its
    dispatches under.  It has no generator, so it cannot be
    interrupted; nothing interrupts a fragment.
    """

    __slots__ = ("_nms", "_link", "_peer", "_category", "_phase",
                 "_wire_bytes", "_hop", "_request")

    def __init__(self, nms, wire_bytes, link, peer, category, phase, name):
        engine = nms.engine
        self.engine = engine
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.name = name
        self._nms = nms
        self._link = link
        self._peer = peer
        self._category = category
        self._phase = phase
        self._wire_bytes = wire_bytes
        self._hop = nms.calibration.nms_hop_s(wire_bytes)
        init = Event(engine)
        init._ok = True
        init._value = None
        init.callbacks.append(self._source_queue)
        engine.schedule(init)

    def _source_queue(self, _event):
        request = self._request = self._nms.cpu.request()
        request.callbacks.append(self._source_hop)

    def _source_hop(self, _event):
        Timeout(self.engine, self._hop).callbacks.append(self._medium_queue)

    def _medium_queue(self, _event):
        nms = self._nms
        nms.cpu.release(self._request)
        nms.host.metrics.record_nms(nms.host.name, self._hop)
        request = self._request = self._link.acquire()
        request.callbacks.append(self._serialise)

    def _serialise(self, _event):
        Timeout(
            self.engine, self._link.serialisation_s(self._wire_bytes)
        ).callbacks.append(self._propagate)

    def _propagate(self, _event):
        link = self._link
        link.release(self._request)
        link.delivered(self._wire_bytes)
        Timeout(
            self.engine, link.calibration.link_latency_s
        ).callbacks.append(self._dest_queue)

    def _dest_queue(self, _event):
        nms = self._nms
        peer = self._peer
        nms.host.metrics.record_link(
            self._wire_bytes, self._category, nms.host.name, peer.host.name,
            phase=self._phase,
        )
        request = self._request = peer.cpu.request()
        request.callbacks.append(self._dest_hop)

    def _dest_hop(self, _event):
        Timeout(self.engine, self._hop).callbacks.append(self._done)

    def _done(self, _event):
        peer = self._peer
        peer.cpu.release(self._request)
        self._nms.host.metrics.record_nms(peer.host.name, self._hop)
        self.succeed()
