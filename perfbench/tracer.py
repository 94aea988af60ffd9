"""In-memory span recorder for the benchmark's traced run.

The recorder wraps the public entry points of each simulator layer from
outside (nothing under ``src/`` is edited) and records one span per
call: name, start, end and the span that was open when the call was
made (its parent).  Spans stay in memory, in flat arrays, and are
written out once, when the run ends.

Host self time is kept by interval tiling: between any two clock reads
the elapsed time is charged to the span on top of the run-time stack,
so a layer's self time is its span time minus the time of the spans
nested inside it, and the self times of all layers add up exactly to
the time spent under some span.

A call that returns a generator (a simulated process body, or
``Kernel.touch`` on a page fault) keeps its span id: every later
resume of that generator re-enters the same span, so the span
accumulates host time over all its resumes while simulated waiting
between them counts as nobody's host time.
"""

import json
import sys
import time
from array import array
from types import GeneratorType

#: Parent id of a span opened with no other span open.
ROOT = -1

#: The package whose loaded modules :class:`Patcher` rewrites.
PACKAGE = "repro"


class Tracer:
    """Span table plus per-name call counts and self time."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._ids = {}
        #: Per name id: self time (clock units) and number of spans.
        self.self_ns = []
        self.calls = []
        #: Per name id: simulated durations of generator spans that
        #: were given an engine (see :func:`traced`).
        self.sim_durations = {}
        # One row per span.
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # Run-time stack of open span segments (ids and their names).
        self._sids = []
        self._nids = []
        self._last = 0

    def name_id(self, name):
        """The integer id of span name ``name`` (allocated on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def begin(self, nid):
        """Open a new span named ``nid`` and enter it; returns its id."""
        now = self.clock()
        nids = self._nids
        sids = self._sids
        if nids:
            self.self_ns[nids[-1]] += now - self._last
            parent = sids[-1]
        else:
            parent = ROOT
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(now)
        self.span_end.append(now)
        self.calls[nid] += 1
        sids.append(sid)
        nids.append(nid)
        self._last = now
        return sid

    def enter(self, sid, nid):
        """Re-enter span ``sid`` (a generator span being resumed)."""
        now = self.clock()
        nids = self._nids
        if nids:
            self.self_ns[nids[-1]] += now - self._last
        self._sids.append(sid)
        nids.append(nid)
        self._last = now

    def leave(self, sid, nid):
        """Leave span ``sid``, which must be the innermost open one."""
        now = self.clock()
        self.self_ns[nid] += now - self._last
        self._sids.pop()
        self._nids.pop()
        self.span_end[sid] = now
        self._last = now

    @property
    def depth(self):
        """Number of span segments currently open."""
        return len(self._sids)

    @property
    def span_count(self):
        return len(self.span_name)

    def totals(self):
        """``{name: (calls, self_seconds)}`` for every name seen."""
        return {
            name: (self.calls[nid], self.self_ns[nid] / 1e9)
            for nid, name in enumerate(self.names)
        }

    def covered_s(self):
        """Host time spent under any span (the sum of all self times)."""
        return sum(self.self_ns) / 1e9

    def write(self, path_prefix):
        """Write the span table: ``<prefix>.json`` names the columns and
        spans, ``<prefix>.bin`` holds the four int64/int32 columns."""
        columns = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("start_ns", self.span_start),
            ("end_ns", self.span_end),
        )
        with open(path_prefix + ".bin", "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {
            "spans": self.span_count,
            "names": self.names,
            "columns": [
                {"name": label, "typecode": column.typecode,
                 "itemsize": column.itemsize}
                for label, column in columns
            ],
            "clock": "time.perf_counter_ns",
            "parent_root": ROOT,
        }
        with open(path_prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def traced_generator(tracer, sid, nid, generator, engine=None):
    """Drive ``generator`` inside span ``sid``, transparently.

    Every value the inner generator yields is yielded on, every value
    or exception sent or thrown in is passed through, and its return
    value is returned, so callers (``yield from``, the engine's
    process driver) cannot tell the wrapper is there.
    """
    started = None
    value = None
    error = None
    while True:
        tracer.enter(sid, nid)
        try:
            if started is None and engine is not None:
                started = engine.now
            if error is None:
                target = generator.send(value)
            else:
                pending, error = error, None
                target = generator.throw(pending)
        except StopIteration as stop:
            tracer.leave(sid, nid)
            if engine is not None:
                tracer.sim_durations[nid].append(engine.now - started)
            return stop.value
        except BaseException:
            tracer.leave(sid, nid)
            raise
        tracer.leave(sid, nid)
        try:
            value = yield target
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:
            error = thrown
            value = None


def traced(tracer, name, fn, after=None, engine_of=None):
    """Wrap callable ``fn`` so each call is a span named ``name``.

    ``after(args, kwargs, result)`` runs once the call returns (for
    counters kept at the boundary).  ``engine_of(args)`` names the
    engine whose clock times a generator span in simulated seconds.
    """
    nid = tracer.name_id(name)
    if engine_of is not None:
        tracer.sim_durations.setdefault(nid, [])

    def wrapper(*args, **kwargs):
        sid = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(sid, nid)
        if after is not None:
            after(args, kwargs, result)
        if type(result) is GeneratorType:
            inner = result
            result = traced_generator(
                tracer, sid, nid, inner,
                None if engine_of is None else engine_of(args),
            )
            result.__name__ = inner.__name__
            result.__qualname__ = inner.__qualname__
        return result

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


class Patcher:
    """Replaces functions and methods of loaded ``repro`` modules, and
    puts every original back on :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def method(self, cls, attr, wrap):
        """Replace ``cls.attr`` by ``wrap(original)``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(original))
        self._undo.append((cls, attr, original))

    def function(self, module, attr, wrap):
        """Replace module function ``attr`` by ``wrap(original)`` in its
        module and in every loaded module that imported it by name."""
        original = getattr(module, attr)
        replacement = wrap(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                name == PACKAGE or name.startswith(PACKAGE + ".")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)
                    self._undo.append((loaded, key, original))

    def restore(self):
        """Undo every replacement, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
