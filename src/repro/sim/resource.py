"""Counted resources with FIFO queueing.

A :class:`Resource` models a server with a fixed number of identical
slots — a CPU handling NetMsgServer messages, a disk arm, a half-duplex
link.  Processes ``yield resource.request()`` to acquire a slot and call
``resource.release(request)`` when done; contention produces queueing
delay, which is how transfer-phase elapsed times emerge in the testbed
simulation.
"""

from collections import deque

from repro.sim.errors import SimulationError
from repro.sim.events import Event, PENDING


class Preempted(Exception):
    """Raised in a request holder evicted by :meth:`Resource.preempt`."""


class _Held:
    """Hand-rolled context manager for :meth:`Resource.held`.

    Workload jobs enter/exit one of these per trace step, so the
    generator machinery of ``contextlib.contextmanager`` is measurable
    engine time; a plain slotted class is several times cheaper.
    """

    __slots__ = ("resource", "request")

    def __init__(self, resource):
        self.resource = resource
        self.request = None

    def __enter__(self):
        self.request = self.resource.request()
        return self.request

    def __exit__(self, exc_type, exc, tb):
        self.resource.release(self.request)
        return False


class Request(Event):
    """Event returned by :meth:`Resource.request`; fires when granted.

    Created once per slot acquisition — the constructor inlines
    ``Event.__init__`` (like :class:`~repro.sim.events.Timeout` does)
    because workload jobs acquire a slot per trace step.
    """

    __slots__ = ("resource",)

    def __init__(self, resource):
        self.engine = resource.engine
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource


class Resource:
    """``capacity`` identical slots granted in FIFO order."""

    def __init__(self, engine, capacity=1, name=None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name or "resource"
        self._waiting = deque()
        self._users = []
        #: Total simulated time slots have spent busy (for utilisation).
        self.busy_time = 0.0
        self._last_change = engine.now

    def __repr__(self):
        return (
            f"<Resource {self.name} users={len(self._users)}/{self.capacity} "
            f"queued={len(self._waiting)}>"
        )

    @property
    def count(self):
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self):
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self):
        """Ask for a slot; returns an event that fires once granted.

        With a slot free and nobody queued the grant is immediate: the
        same ``succeed`` the queue-then-grant path schedules, without
        the round trip through the wait queue.
        """
        self._account()
        req = Request(self)
        if not self._waiting and len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
            self._grant()
        return req

    def release(self, request):
        """Return a previously-granted slot."""
        self._account()
        try:
            self._users.remove(request)
        except ValueError:
            # Releasing an ungranted request cancels it instead.
            try:
                self._waiting.remove(request)
                return
            except ValueError:
                raise SimulationError(
                    f"release of request not held on {self.name!r}"
                ) from None
        self._grant()

    def held(self):
        """Context manager for use inside processes::

            with resource.held() as req:
                yield req          # wait for the grant
                yield engine.timeout(service_time)

        The slot is released when the block exits (even on error).
        """
        return _Held(self)

    def utilisation(self, elapsed=None):
        """Fraction of capacity-time spent busy since creation."""
        self._account()
        horizon = elapsed if elapsed is not None else self.engine.now
        if horizon <= 0:
            return 0.0
        return self.busy_time / (horizon * self.capacity)

    # -- internals -----------------------------------------------------------
    def _account(self):
        now = self.engine._now
        self.busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now

    def _grant(self):
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            self._users.append(req)
            req.succeed(req)
