"""The entry points the traced run wraps, and the per-layer metrics.

Every ``*_s`` metric is host self time in seconds (the span minus the
spans nested in it); ``*_sim_*`` metrics are simulated seconds; counts
are calls seen at the boundary.  A layer a workload never enters reads
0 -- the bypass prediction for that workload.
"""

from perfbench.tracer import traced
from perfbench.workloads import nearest_rank

#: FlowRouter methods that make up the serving layer's router.
ROUTER_METHODS = (
    "register", "freeze", "unfreeze", "service_dead", "submit", "requeue",
    "begin_service", "complete", "during_migration", "close", "settled",
)


class Counters:
    """Counts kept at the wrapped boundaries, and the objects whose end
    state the metrics read (worlds, schedulers, routers)."""

    def __init__(self):
        self.write_touches = 0
        self.wire_bytes = 0
        self.pages_taken = 0
        self.requeued = 0
        self.worlds = []
        self.schedulers = {}
        self.routers = {}

    def on_world(self, args, kwargs, world):
        self.worlds.append(world)

    def on_touch(self, args, kwargs, result):
        if kwargs.get("write", len(args) > 3 and args[3]):
            self.write_touches += 1

    def on_transmit(self, args, kwargs, result):
        self.wire_bytes += kwargs["nbytes"] if len(args) < 2 else args[1]

    def on_take(self, args, kwargs, pages):
        self.pages_taken += len(pages)

    def on_submit(self, args, kwargs, ticket):
        self.schedulers[id(args[0])] = args[0]

    def on_register(self, args, kwargs, result):
        self.routers[id(args[0])] = args[0]

    def on_requeue(self, args, kwargs, result):
        requests = kwargs["requests"] if len(args) < 3 else args[2]
        self.requeued += len(requests)


#: Spans of the workload harnesses: their self time is trial and run
#: glue that no per-layer metric reports, so it counts as uncovered.
HARNESS_SPANS = (
    "testbed.run_migration", "harness.run_stress", "harness.run_serve",
)


def layer_covered_s(tracer):
    """Host seconds under the spans behind the per-layer metrics."""
    totals = tracer.totals()
    return tracer.covered_s() - sum(
        totals.get(name, (0, 0.0))[1] for name in HARNESS_SPANS
    )


def _engine_of(args):
    return args[0].engine


def install(tracer, patcher, counters):
    """Wrap every layer entry point through ``patcher``."""
    from repro import testbed
    from repro.accent import kernel, pager
    from repro.accent.vm import address_space, page
    from repro.cluster import scheduler, stress
    from repro.cor import imaginary
    from repro.experiments import runner
    from repro.net import link, netmsgserver
    from repro.serve import harness, router
    from repro.sim import engine, resource
    from repro.store import source
    from repro.workloads import builder

    def span(name, after=None, engine_of=None):
        return lambda fn: traced(tracer, name, fn, after, engine_of)

    methods = [
        (testbed.Testbed, "world", span("testbed.world", counters.on_world)),
        (testbed.Testbed, "run_migration", span("testbed.run_migration")),
        (kernel.Kernel, "touch", span("vm.touch", counters.on_touch)),
        (kernel.Kernel, "excise_process", span("migration.excise")),
        (kernel.Kernel, "insert_process", span("migration.insert")),
        (address_space.AddressSpace, "amap", span("vm.amap")),
        (address_space.AddressSpace, "install_page",
         span("vm.install_page")),
        (netmsgserver.NetMsgServer, "ship", span("net.ship")),
        (link.Link, "transmit", span("net.transmit", counters.on_transmit)),
        (pager.Pager, "imaginary_fault",
         span("pager.imaginary_fault", engine_of=_engine_of)),
        (imaginary.ImaginarySegment, "take",
         span("cor.take", counters.on_take)),
        (imaginary.ImaginarySegment, "take_batch",
         span("cor.take_batch", counters.on_take)),
        (source.PageResolver, "resolve", span("store.resolve")),
        (scheduler.ClusterScheduler, "submit",
         span("cluster.submit", counters.on_submit)),
        (resource.Resource, "request", span("sim.resource.request")),
        (resource.Resource, "release", span("sim.resource.release")),
        (engine.Engine, "run", span("sim.engine.run")),
    ]
    hooks = {"register": counters.on_register, "requeue": counters.on_requeue}
    for name in ROUTER_METHODS:
        methods.append(
            (router.FlowRouter, name,
             span(f"serve.router.{name}", hooks.get(name)))
        )
    for cls, attr, wrap in methods:
        patcher.method(cls, attr, wrap)

    functions = [
        (builder, "build_process", span("workloads.build_process")),
        (page, "content_id_of", span("store.content_id_of")),
        (runner, "generate_report", span("experiments.generate_report")),
        (stress, "run_stress", span("harness.run_stress")),
        (harness, "run_serve", span("harness.run_serve")),
    ]
    for module, attr, wrap in functions:
        patcher.function(module, attr, wrap)


def _family_by_label(registry, name, label):
    """{label value: summed count} for one metric family (may be {})."""
    family = registry.get(name)
    if family is None:
        return {}
    position = family.label_names.index(label)
    totals = {}
    for labels, child in family.items():
        key = labels[position]
        totals[key] = totals.get(key, 0) + child.value
    return totals


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, counters):
    """``{name: value}`` for every per-layer metric (trace-derived)."""
    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(name, (0, 0.0))[0] for name in names)

    def self_s(*names):
        return sum(totals.get(name, (0, 0.0))[1] for name in names)

    worlds = counters.worlds
    link_busy = link_time = 0.0
    prefetched = prefetch_hits = 0
    served = {}
    dedup_pages = 0
    for world in worlds:
        now = world.engine.now
        link_busy += world.link.utilisation() * now
        link_time += now
        prefetched += world.metrics.prefetched_pages
        prefetch_hits += world.metrics.prefetch_hits
        registry = world.obs.registry
        for kind, count in _family_by_label(
            registry, "store_fault_served_total", "source"
        ).items():
            served[kind] = served.get(kind, 0) + count
        dedup_pages += sum(
            _family_by_label(registry, "store_dedup_pages_total", "host")
            .values()
        )
    imag_faults = calls("pager.imaginary_fault")
    served_total = sum(served.values())
    if served_total == 0 and imag_faults:
        # Store off: the origin backer serves every imaginary fault.
        served = {"origin": imag_faults}
        served_total = imag_faults

    tickets = [
        ticket
        for scheduler in counters.schedulers.values()
        for ticket in scheduler.tickets
    ]
    waits = [t.wait_s for t in tickets if t.wait_s is not None]
    router_counts = {}
    for flow_router in counters.routers.values():
        for key, value in flow_router.counts.items():
            router_counts[key] = router_counts.get(key, 0) + value
    fault_sim = tracer.sim_durations.get(
        tracer.name_id("pager.imaginary_fault"), []
    )

    return {
        "sim.events": sum(world.engine.dispatched for world in worlds),
        "sim.engine_self_s": self_s("sim.engine.run"),
        "sim.resource_requests": calls("sim.resource.request"),
        "sim.resource_s": self_s(
            "sim.resource.request", "sim.resource.release"
        ),
        "testbed.world_s": self_s("testbed.world"),
        "workloads.builds": calls("workloads.build_process"),
        "workloads.build_s": self_s("workloads.build_process"),
        "vm.touches": calls("vm.touch"),
        "vm.write_touches": counters.write_touches,
        "vm.touch_s": self_s("vm.touch"),
        "vm.amap_calls": calls("vm.amap"),
        "vm.amap_s": self_s("vm.amap"),
        "vm.page_installs": calls("vm.install_page"),
        "migration.migrations": calls("migration.insert"),
        "migration.excise_s": self_s("migration.excise"),
        "migration.insert_s": self_s("migration.insert"),
        "net.messages": calls("net.ship"),
        "net.ship_s": self_s("net.ship"),
        "net.fragments": calls("net.transmit"),
        "net.transmit_s": self_s("net.transmit"),
        "net.wire_bytes": counters.wire_bytes,
        "net.link_busy_share": _share(link_busy, link_time),
        "pager.imag_faults": imag_faults,
        "pager.fault_s": self_s("pager.imaginary_fault"),
        "pager.fault_sim_p50_s": nearest_rank(fault_sim, 0.50) or 0.0,
        "pager.fault_sim_p90_s": nearest_rank(fault_sim, 0.90) or 0.0,
        "cor.pages_taken": counters.pages_taken,
        "cor.batch_takes": calls("cor.take_batch"),
        "cor.take_s": self_s("cor.take", "cor.take_batch"),
        "cor.prefetch_useful_ratio": _share(prefetch_hits, prefetched),
        "store.resolves": calls("store.resolve"),
        "store.resolve_s": self_s("store.resolve"),
        "store.hashes": calls("store.content_id_of"),
        "store.hash_s": self_s("store.content_id_of"),
        "store.local_share": _share(served.get("local", 0), served_total),
        "store.peer_share": _share(served.get("peer", 0), served_total),
        "store.origin_share": _share(served.get("origin", 0), served_total),
        "store.dedup_pages": dedup_pages,
        "cluster.submits": calls("cluster.submit"),
        "cluster.submit_s": self_s("cluster.submit"),
        "cluster.rejected": sum(
            1 for ticket in tickets if ticket.outcome == "rejected"
        ),
        "cluster.wait_sim_p50_s": nearest_rank(waits, 0.50) or 0.0,
        "cluster.peak_inflight": max(
            (s.peak_inflight for s in counters.schedulers.values()),
            default=0,
        ),
        "serve.requests": calls("serve.router.submit"),
        "serve.router_s": self_s(
            *(f"serve.router.{name}" for name in ROUTER_METHODS)
        ),
        "serve.redirected": router_counts.get("redirected", 0),
        "serve.buffered": router_counts.get("buffered", 0),
        "serve.requeued": counters.requeued,
        "experiments.render_s": self_s("experiments.generate_report"),
    }
