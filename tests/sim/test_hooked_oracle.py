"""Differential oracle for the hooked dispatch path.

``tests/sim/test_queue_oracle.py`` pins the inlined fast path against
the flat-heap :class:`~tests.sim.refqueue.ReferenceEngine`.  This module
replays the same pre-generated schedule programs through the per-event
hook instead — once with a ``kind_log`` and an observer installed, once
on an engine adopted by the profiler — and demands the same logs entry
for entry, including the kind log and the observer stream.
"""

import random

import pytest

from repro.obs.prof import EngineProfiler, profiled
from repro.sim.engine import Engine
from tests.sim.refqueue import ReferenceEngine
from tests.sim.test_queue_oracle import (
    CASES_PER_SEED,
    SEEDS,
    make_plan,
    run_case,
)


def _instrument(engine):
    """Install a kind log and an observer; return the observer's log."""
    engine.kind_log = []
    seen = []
    engine.add_observer(
        lambda now, event: seen.append((now, type(event).__name__))
    )
    return seen


def _replay(engine, plan, mode):
    seen = _instrument(engine)
    log = run_case(engine, plan, mode)
    assert len(engine.kind_log) == engine.dispatched
    return log, [kind.__name__ for kind in engine.kind_log], seen


@pytest.mark.parametrize("seed", SEEDS)
def test_hooked_dispatch_matches_reference(seed):
    rng = random.Random(seed)
    for case in range(CASES_PER_SEED):
        plan = make_plan(rng)
        mode = case % 3
        expected = _replay(ReferenceEngine(), plan, mode)
        observed = _replay(Engine(), plan, mode)
        assert observed == expected, f"seed={seed} case={case} mode={mode}"


@pytest.mark.parametrize("seed", SEEDS)
def test_profiled_dispatch_matches_reference(seed):
    rng = random.Random(seed)
    for case in range(CASES_PER_SEED):
        plan = make_plan(rng)
        mode = case % 3
        expected = _replay(ReferenceEngine(), plan, mode)
        profiler = EngineProfiler()
        with profiled(profiler):
            engine = Engine()
        assert engine.profiler is profiler
        observed = _replay(engine, plan, mode)
        assert observed == expected, f"seed={seed} case={case} mode={mode}"
        # Every run ends in a full drain, so each push left the queue
        # as a dispatch or a dropped cancel, and every far push rolled.
        assert profiler.events == engine.dispatched
        assert (profiler.near_pushes + profiler.far_pops
                == profiler.near_pops == engine.dispatched
                + profiler.queue_skipped)
        assert profiler.far_pops == profiler.far_pushes
