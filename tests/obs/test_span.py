"""Spans against a scripted engine: nesting, timing, attribution."""

import pytest

from repro.obs import NULL_SPAN, Instrumentation, Tracer
from repro.sim import Engine


def test_span_timing_from_scripted_engine():
    eng = Engine()
    tracer = Tracer(clock=lambda: eng.now)

    def body():
        with tracer.span("outer") as outer:
            yield eng.timeout(1.0)
            with outer.child("inner") as inner:
                assert inner.parent is outer
                yield eng.timeout(0.5)
            yield eng.timeout(0.25)

    eng.process(body())
    eng.run()

    (outer,) = tracer.find("outer")
    (inner,) = tracer.find("inner")
    assert (outer.start, outer.end) == (0.0, 1.75)
    assert (inner.start, inner.end) == (1.0, 1.5)
    assert outer.children == [inner]
    assert outer.duration == pytest.approx(1.75)


def test_child_spans_inherit_track_unless_overridden():
    tracer = Tracer()
    root = tracer.span("root", track="main")
    assert root.child("a").track == "main"
    assert root.child("b", track="freeze").track == "freeze"


def test_span_counters_accumulate():
    tracer = Tracer()
    span = tracer.span("transfer")
    span.add("bytes", 100)
    span.add("bytes", 50)
    span.add("faults.imaginary")
    assert span.counters == {"bytes": 150, "faults.imaginary": 1}


def test_span_ids_are_deterministic_per_tracer():
    first = Tracer()
    second = Tracer()
    for tracer in (first, second):
        root = tracer.span("a")
        root.child("b")
    assert [s.span_id for s in first.spans] == [1, 2]
    assert [s.span_id for s in second.spans] == [1, 2]
    assert first.spans[1].parent_id == 1


def test_finish_is_idempotent():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    span = tracer.span("once")
    clock["now"] = 2.0
    span.finish()
    clock["now"] = 9.0
    span.finish()
    assert span.end == 2.0


def test_finish_open_closes_only_open_spans():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    done = tracer.span("done")
    clock["now"] = 1.0
    done.finish()
    still_open = tracer.span("open")
    clock["now"] = 5.0
    tracer.finish_open()
    assert done.end == 1.0
    assert still_open.end == 5.0


def test_disabled_tracer_hands_out_the_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.span("anything", process="x")
    assert span is NULL_SPAN
    assert span.child("nested") is NULL_SPAN
    span.add("bytes", 10)
    span.finish()
    assert span.counters == {}
    assert list(span.walk()) == []
    assert tracer.spans == []


def test_null_span_as_parent_means_root():
    tracer = Tracer()
    span = tracer.span("top", parent=NULL_SPAN)
    assert span.parent is None
    assert tracer.roots == [span]


def test_phase_attribution_credits_innermost_phase():
    obs = Instrumentation(enabled=True)
    outer = obs.tracer.span("transfer")
    obs.push_phase(outer)
    obs.on_link(100, "migrate.core")
    inner = outer.child("rimas")
    obs.push_phase(inner)
    obs.on_link(40, "migrate.rimas")
    obs.on_fault("imaginary")
    obs.pop_phase(inner)
    obs.on_link(60, "migrate.core")
    obs.pop_phase(outer)
    obs.on_link(999, "stray")  # no open phase: dropped

    assert outer.counters == {
        "bytes": 160,
        "bytes.migrate.core": 160,
    }
    assert inner.counters == {
        "bytes": 40,
        "bytes.migrate.rimas": 40,
        "faults.imaginary": 1,
    }
    assert obs.current_phase is None


def test_pop_phase_tolerates_out_of_order_retirement():
    obs = Instrumentation(enabled=True)
    a = obs.tracer.span("a")
    b = obs.tracer.span("b")
    obs.push_phase(a)
    obs.push_phase(b)
    obs.pop_phase(a)
    assert obs.current_phase is b
    obs.pop_phase(b)
    assert obs.current_phase is None


def test_attach_engine_counts_dispatches_into_registry():
    eng = Engine()
    obs = Instrumentation(clock=lambda: eng.now, enabled=True)
    obs.attach_engine(eng)

    def body():
        yield eng.timeout(1.0)
        yield eng.timeout(1.0)

    eng.process(body())
    eng.run()
    obs.finalize()

    family = obs.registry.get("sim_events_total")
    assert family is not None
    assert family.value(kind="Timeout") == 2
    # finalize is idempotent: counts are set, not re-added.
    obs.finalize()
    assert family.value(kind="Timeout") == 2


def test_event_subclasses_count_as_their_kernel_kind():
    """Subclasses fold into their ``repro.sim`` base kind by summing: a
    class that merely shares a kernel class's ``__name__`` adds to its
    count instead of overwriting it."""
    from repro.sim import Event, Timeout as KernelTimeout

    class Timeout(KernelTimeout):
        __slots__ = ()

    class Ticket(Event):
        __slots__ = ()

    eng = Engine()
    obs = Instrumentation(clock=lambda: eng.now, enabled=True)
    obs.attach_engine(eng)
    Ticket(eng).succeed()
    Timeout(eng, 1.0)
    eng.timeout(2.0)
    Timeout(eng, 3.0)
    eng.run()
    obs.finalize()

    family = obs.registry.get("sim_events_total")
    assert [key for key, _ in family.items()] == [("Event",), ("Timeout",)]
    assert family.value(kind="Event") == 1
    assert family.value(kind="Timeout") == 3


def test_disabled_instrumentation_never_observes_the_engine():
    eng = Engine()
    obs = Instrumentation(clock=lambda: eng.now, enabled=False)
    obs.attach_engine(eng)
    assert eng.observer is None
    assert eng.kind_log is None
    eng.timeout(1.0)
    eng.run()
    obs.finalize()
    assert obs.registry.get("sim_events_total") is None
