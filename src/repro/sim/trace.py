"""Event tracing for the simulation kernel.

Attach a :class:`TraceLog` to an :class:`~repro.sim.engine.Engine` to
capture every processed event with its simulated time — the tool for
answering "why did this trial deadlock / take this long?" without
scattering prints through server loops.

>>> from repro.sim import Engine
>>> eng = Engine()
>>> log = TraceLog.attach(eng, capacity=100)
>>> _ = eng.timeout(1.5)
>>> eng.run()
>>> log.entries[-1].time
1.5
"""

from collections import deque, namedtuple

from repro.sim.events import event_kind

TraceEntry = namedtuple("TraceEntry", "time kind detail")
TraceEntry.__doc__ = "One processed event: when, what kind, description."


class TraceLog:
    """Bounded in-memory log of processed events."""

    def __init__(self, capacity=10_000, clock=None):
        self.entries = deque(maxlen=capacity)
        self._clock = clock
        self._engine = None

    @classmethod
    def attach(cls, engine, capacity=10_000):
        """Create a log and register it as *an* engine observer.

        Joins the engine's observer fan-out list, so attaching never
        clobbers an observer someone else installed (and vice versa).
        """
        log = cls(capacity=capacity, clock=lambda: engine.now)
        log._engine = engine
        engine.add_observer(log.observe)
        return log

    def detach(self):
        """Stop observing; other installed observers are untouched."""
        if self._engine is not None:
            self._engine.remove_observer(self.observe)
            self._engine = None

    def observe(self, now, event):
        """Engine callback: record one processed event."""
        self.entries.append(
            TraceEntry(now, event_kind(type(event)), self._describe(event))
        )

    @staticmethod
    def _describe(event):
        name = getattr(event, "name", None)
        if name is not None:
            return name
        delay = getattr(event, "delay", None)
        if delay is not None:
            return f"delay={delay}"
        return ""

    def record(self, kind, detail=""):
        """Manual entry (component-level annotations)."""
        now = self._clock() if self._clock else 0.0
        self.entries.append(TraceEntry(now, kind, detail))

    def of_kind(self, kind):
        """Entries of one kind, in order."""
        return [entry for entry in self.entries if entry.kind == kind]

    def between(self, start, end):
        """Entries with start <= time < end."""
        return [
            entry for entry in self.entries if start <= entry.time < end
        ]

    def format(self, limit=50):
        """The last ``limit`` entries as readable lines."""
        tail = list(self.entries)[-limit:]
        return "\n".join(
            f"{entry.time:12.6f}  {entry.kind:<12} {entry.detail}"
            for entry in tail
        )

    def __len__(self):
        return len(self.entries)
