"""Tests of the benchmark's span recorder.

    python3 -m pytest perfbench/test_tracer.py

The recorder must be invisible to the simulation: a wrapped generator
passes every sent value, thrown exception and return value through
unchanged, and a traced run reproduces the untraced determinism hash.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import layers  # noqa: E402
from perfbench.tracer import ROOT as ROOT_SPAN  # noqa: E402
from perfbench.tracer import Patcher, Tracer, traced  # noqa: E402
from repro.sim import Engine, Interrupt  # noqa: E402


class FakeClock:
    """A clock that advances by a fixed step on every read."""

    def __init__(self, step=10):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _worker(engine, log):
    """Waits on timeouts carrying values, survives one interrupt, and
    returns what it saw."""
    got = yield engine.timeout(1.0, value="first")
    log.append(("sent", got, engine.now))
    try:
        yield engine.timeout(10.0, value="never")
    except Interrupt as interrupt:
        log.append(("thrown", interrupt.cause, engine.now))
    got = yield engine.timeout(2.0, value="second")
    log.append(("sent", got, engine.now))
    return ("done", len(log))


def _program(wrap):
    """Run the worker (through ``wrap``) plus a caller that interrupts
    it and collects its return value; returns everything observed."""
    engine = Engine()
    log = []
    worker = engine.process(wrap(_worker)(engine, log), name="worker")

    def caller():
        yield engine.timeout(3.0)
        worker.interrupt("stop")
        result = yield worker
        log.append(("returned", result, engine.now))

    engine.process(caller(), name="caller")
    engine.run()
    return log, worker.name


def test_generator_wrapper_passes_send_throw_and_return():
    tracer = Tracer()
    plain = _program(lambda fn: fn)
    wrapped = _program(lambda fn: traced(tracer, "worker", fn))
    assert wrapped == plain
    assert plain[0] == [
        ("sent", "first", 1.0),
        ("thrown", "stop", 3.0),
        ("sent", "second", 5.0),
        ("returned", ("done", 3), 5.0),
    ]
    # One span, entered once per resume, closed after the last one.
    assert tracer.totals()["worker"][0] == 1
    assert tracer.depth == 0


def test_generator_wrapper_passes_exceptions_out_and_closes_inner():
    tracer = Tracer()
    closed = []

    def failing():
        yield 1
        raise KeyError("boom")

    def closable():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = traced(tracer, "failing", failing)()
    assert next(gen) == 1
    with pytest.raises(KeyError):
        next(gen)
    gen = traced(tracer, "closable", closable)()
    assert next(gen) == 1
    gen.close()
    assert closed == [True]
    assert tracer.depth == 0


def test_self_time_tiles_nested_spans_and_generator_resumes():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 100

    wrapped_leaf = traced(tracer, "leaf", leaf)

    def body():
        wrapped_leaf()
        yield "paused"
        clock.now += 1000  # host work on the second resume
        return "end"

    def outer():
        gen = traced(tracer, "body", body)()
        assert next(gen) == "paused"
        clock.now += 5000  # time spent outside the generator
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        return stop.value.value

    assert traced(tracer, "outer", outer)() == "end"
    totals = tracer.totals()
    # Each clock read adds one step; the leaf's 100 and the body's
    # 1000 are theirs alone, the 5000 between resumes is the outer's.
    assert totals["leaf"] == (1, pytest.approx(110e-9))
    assert totals["body"][1] == pytest.approx((1000 + 4 * 10) * 1e-9)
    assert totals["outer"][1] > 5000e-9
    assert tracer.covered_s() == pytest.approx(
        sum(seconds for _, seconds in totals.values())
    )
    names = [tracer.names[nid] for nid in tracer.span_name]
    parents = list(tracer.span_parent)
    assert names == ["outer", "body", "leaf"]
    assert parents == [ROOT_SPAN, 0, 1]


def test_patcher_restores_every_replacement():
    from repro.accent.vm import page

    original = page.content_id_of
    patcher = Patcher()
    patcher.function(page, "content_id_of", lambda fn: lambda data: fn(data))
    assert page.content_id_of is not original
    patcher.restore()
    assert page.content_id_of is original
    assert page.Page.zero().content_id == page.ZERO_CONTENT_ID


def test_traced_stress_run_reproduces_the_untraced_hash():
    from repro.cluster.stress import StressConfig, run_stress

    config = StressConfig(
        hosts=4, procs=8, migrations=12, arrival="poisson",
        workloads=("minprog", "pm-mid"), store=True, dedup=True, seed=3,
    )
    plain = run_stress(config).determinism_hash
    tracer = Tracer()
    counters = layers.Counters()
    patcher = Patcher()
    layers.install(tracer, patcher, counters)
    try:
        traced_hash = run_stress(config).determinism_hash
        metrics = layers.layer_metrics(tracer, counters)
    finally:
        patcher.restore()
    assert traced_hash == plain
    assert tracer.depth == 0
    assert metrics["cluster.submits"] == 12
    assert metrics["store.hashes"] > 0
    assert metrics["sim.events"] > 0
