"""Differential oracle: the fragment state machine vs the generator pipe.

On a perfect network every fragment runs as a
:class:`~repro.net.netmsgserver.FragmentPipe`, a callback state machine
that must schedule exactly the events of the generator process it
replaced (:mod:`tests.net.reffragment`).  Ship programs — pre-generated,
so execution draws no randomness — are replayed through both: once with
the production pipe and ``Resource.request``, once with the reference
generator pipe and queue-then-grant ``request`` swapped in.  The
dispatch streams must agree entry for entry, and so must the engine's
dispatch count, every resource's busy time, the link's counters and the
per-fragment metric records.

The fixed programs cover one fragment, many fragments, two ships
sharing the link, opposite directions and a destination CPU busy with
its own outgoing ship; seeded random programs mix all of these over
three hosts.
"""

import random

import pytest

from repro.accent.ipc.message import InlineSection, Message
from repro.net import netmsgserver
from repro.net.netmsgserver import FragmentPipe
from repro.sim import Resource
from repro.sim.events import event_kind
from repro.testbed import Testbed
from tests.net.reffragment import reference_pipe, reference_request

HOSTS = ("alpha", "beta", "gamma")

#: (start delay s, source, destination, inline payload bytes, op)
FIXED_PROGRAMS = {
    "one-fragment": [(0.0, "alpha", "beta", 10, "tiny")],
    "many-fragments": [(0.0, "alpha", "beta", 20_000, "bulk")],
    # Two senders at once contend for the medium; the second ship from
    # alpha queues behind the first at alpha's CPU.
    "shared-link": [
        (0.0, "alpha", "beta", 8_000, "first"),
        (0.0, "gamma", "beta", 8_000, "second"),
        (0.0005, "alpha", "beta", 3_000, "third"),
    ],
    "opposite-directions": [
        (0.0, "alpha", "beta", 8_000, "east"),
        (0.0, "beta", "alpha", 8_000, "west"),
    ],
    "busy-destination-cpu": [
        (0.0, "beta", "gamma", 15_000, "outgoing"),
        (0.001, "alpha", "beta", 6_000, "incoming"),
    ],
}

SEEDS = [3, 17, 29, 41, 53, 67]
STARTS = [0.0, 0.0, 0.0, 0.0005, 0.002, 0.01, 0.05]
SIZES = [1, 100, 550, 600, 2_000, 9_000]


def make_program(rng):
    """Pre-generate one random ship program over three hosts."""
    program = []
    for number in range(rng.randrange(2, 8)):
        source, dest = rng.sample(HOSTS, 2)
        program.append((
            rng.choice(STARTS), source, dest, rng.choice(SIZES),
            rng.choice(["blob", "data", f"op{number}"]),
        ))
    return program


def describe(event):
    """Which stage an event is: a process's name, a grant's resource,
    a timeout's delay — so two same-instant events cannot swap unseen."""
    resource = getattr(event, "resource", None)
    if resource is not None:
        return resource.name
    return getattr(event, "name", None) or getattr(event, "delay", None)


def replay(program, instrument):
    """Run ``program`` on a fresh three-host world; return what it did."""
    world = Testbed(seed=11).world(host_names=HOSTS)
    engine = world.engine
    seen = []
    if instrument:
        engine.kind_log = []
        engine.add_observer(lambda now, event: seen.append(
            (now, event_kind(type(event)), describe(event))
        ))
    ports = {name: world.host(name).create_port() for name in HOSTS}

    def ship(start, source, dest, size, op):
        yield engine.timeout(start)
        message = Message(ports[dest], op, sections=[InlineSection(bytes(size))])
        yield from world.host(source).kernel.send(message)

    ships = [engine.process(ship(*step)) for step in program]
    engine.run(until=engine.all_of(ships))
    resources = [world.link.medium] + [
        world.host(name).nms.cpu for name in HOSTS
    ]
    for resource in resources:
        resource._account()
    link = world.link
    return {
        "stream": seen,
        "kind_log": [event_kind(kind) for kind in engine.kind_log or ()],
        "dispatched": engine.dispatched,
        "now": engine.now,
        "busy_time": [resource.busy_time for resource in resources],
        "link": (link.frames, link.bytes, link.inflight, link.peak_inflight),
        "link_records": list(world.metrics.link_records),
        "delivered": [len(ports[name].queue) for name in HOSTS],
    }, engine.kind_log


def check(program):
    """Replay ``program`` both ways, instrumented and not; demand agreement."""
    for instrument in (True, False):
        observed, kinds = replay(program, instrument)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netmsgserver, "FragmentPipe", reference_pipe)
            patch.setattr(Resource, "request", reference_request)
            expected, reference_kinds = replay(program, instrument)
        assert observed == expected
        if instrument:
            # Not vacuous: the production run really used the machine.
            assert FragmentPipe in kinds
            assert FragmentPipe not in reference_kinds
            assert len(observed["stream"]) == observed["dispatched"]


@pytest.mark.parametrize("name", sorted(FIXED_PROGRAMS))
def test_fixed_program_matches_generator_pipe(name):
    check(FIXED_PROGRAMS[name])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_match_generator_pipe(seed):
    rng = random.Random(seed)
    for _ in range(4):
        check(make_program(rng))


def test_peak_inflight_counts_queued_frames():
    """The oracle's programs really contend for the medium: frames from
    two senders queue at once, so the ``peak_inflight`` the oracle
    compares is more than a trivial 1."""
    observed, _ = replay(FIXED_PROGRAMS["shared-link"], instrument=False)
    frames, _, inflight, peak = observed["link"]
    assert inflight == 0
    assert 1 < peak <= frames
