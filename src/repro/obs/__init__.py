"""Unified instrumentation: spans, a metrics registry, and exporters.

The :class:`Instrumentation` object ties one simulated world's tracing
together:

* ``tracer`` — :class:`~repro.obs.span.Tracer` keyed to simulated time;
  the MigrationManager opens one root span per migration with
  excise/transfer/insert/freeze children.
* ``registry`` — :class:`~repro.obs.registry.Registry` of named
  counters, gauges and histograms (``faults_total{kind=...}``,
  ``link_bytes{category=...}``, ``imag_fault_seconds`` ...).  The
  registry is *always* live — it is the storage behind
  :class:`~repro.metrics.collector.MetricsCollector` — while spans and
  engine event counting only run when ``enabled``.

Exporters live in :mod:`repro.obs.export`: Chrome trace-event JSON
(openable in Perfetto / ``chrome://tracing``), a JSONL event stream,
and the plain-text summary tree behind ``repro inspect``.
"""

from collections import Counter as _Counter

from repro.obs.causal import TraceContext
from repro.obs.critpath import (
    analyze_run,
    critical_path,
    phase_breakdown,
    render_analysis,
)
from repro.obs.diff import TraceDiffError, diff_traces, render_diff
from repro.obs.export import (
    TRACE_SCHEMA,
    build_chrome,
    check_schema,
    jsonl_lines,
    load_chrome,
    render_summary,
    write_chrome,
    write_jsonl,
)
from repro.obs.lifecycle import FaultRecord, LifecycleProfiler
from repro.obs.prof import (
    EngineProfiler,
    build_speedscope,
    profiled,
    render_profile,
    write_speedscope,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    Registry,
    WindowedHistogram,
)
from repro.obs.slo import SLO, SLOEngine, SLOError, load_slos, parse_slos
from repro.obs.span import NULL_SPAN, Span, Tracer
from repro.obs.telemetry import DEFAULT_SAMPLE_PERIOD, Telemetry
from repro.sim.events import event_kind

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SAMPLE_PERIOD",
    "EngineProfiler",
    "FaultRecord",
    "Histogram",
    "Instrumentation",
    "LifecycleProfiler",
    "NULL_SPAN",
    "Registry",
    "SLO",
    "SLOEngine",
    "SLOError",
    "Span",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceContext",
    "TraceDiffError",
    "Tracer",
    "WindowedHistogram",
    "analyze_run",
    "build_chrome",
    "build_speedscope",
    "check_schema",
    "critical_path",
    "diff_traces",
    "jsonl_lines",
    "load_chrome",
    "load_slos",
    "parse_slos",
    "phase_breakdown",
    "profiled",
    "render_analysis",
    "render_diff",
    "render_profile",
    "render_summary",
    "write_chrome",
    "write_jsonl",
    "write_speedscope",
]


#: Sentinel distinguishing "caller resolved no phase" (None) from
#: "caller did not resolve a phase at all" (fall back to the context).
_UNSET = object()


class Instrumentation:
    """One world's tracer + registry + phase-attribution state."""

    def __init__(self, clock=None, enabled=True):
        self.enabled = enabled
        self.tracer = Tracer(clock=clock, enabled=enabled)
        self.registry = Registry(clock=clock)
        #: The world's :class:`~repro.obs.telemetry.Telemetry`, or None
        #: when continuous sampling is off — hot paths guard with one
        #: attribute load.
        self.telemetry = None
        #: Fault-lifecycle profiler, or None when disabled — hot-path
        #: sites guard with a single attribute load.
        self.lifecycle = LifecycleProfiler() if enabled else None
        #: process name -> open root migration span (cross-host lookup:
        #: the destination manager parents its insert span here).
        self.migration_roots = {}
        #: Phase stack for code running outside any simulated process
        #: (tests driving the API by hand, setup code).
        self._phases = []
        #: Per-simulated-process phase stacks: Process -> [spans].
        #: Concurrent migrations each run in their own driver process,
        #: so attribution must follow *whose* code is executing, not a
        #: single global stack (which the last pusher would own).
        self._proc_phases = {}
        #: Identities of every span ever pushed as a phase — lets
        #: :meth:`phase_for` find the attribution target by walking a
        #: span's ancestry (spans are kept alive by the tracer, so ids
        #: are stable).
        self._phase_ids = set()
        self._engine = None
        # category -> interned "bytes.<category>" counter key.
        self._link_keys = {}
        # category -> interned "faults.<kind>" counter key.
        self._fault_keys = {}
        # Engine event kinds land here as raw classes (one append per
        # dispatch) and are folded into counts at finalize() — a
        # labeled registry lookup per simulated event would be far
        # too slow.
        self._event_log = []
        self._engines = []

    def __repr__(self):
        return (
            f"<Instrumentation enabled={self.enabled} "
            f"spans={len(self.tracer.spans)}>"
        )

    # -- engine hook ------------------------------------------------------------
    def attach_engine(self, engine):
        """Count event dispatches by kind (only when enabled).

        Uses the engine's inline ``kind_log`` fast path rather than an
        observer callback: the per-event cost is one list append of
        the event class; counting and stringification happen once at
        :meth:`finalize`.
        """
        self._engine = engine
        if self.enabled:
            engine.kind_log = self._event_log
            self._engines.append(engine)

    # -- phase attribution --------------------------------------------------------
    def _context_stack(self):
        """The phase stack of whatever code is executing right now:
        the active simulated process's own stack, or the global one
        when no process is running (or no engine is attached)."""
        engine = self._engine
        if engine is not None:
            proc = engine.active_process
            if proc is not None:
                stack = self._proc_phases.get(proc)
                if stack:
                    return stack
        return self._phases

    @property
    def current_phase(self):
        """The innermost open phase of the *executing context* — the
        active simulated process's stack top, or the global stack top
        outside any process."""
        stack = self._context_stack()
        return stack[-1] if stack else None

    def push_phase(self, span):
        """Make ``span`` the attribution target for the current context."""
        if span is NULL_SPAN:
            return
        engine = self._engine
        proc = engine.active_process if engine is not None else None
        if proc is not None:
            stack = self._proc_phases.get(proc)
            if stack is None:
                stack = self._proc_phases[proc] = []
        else:
            stack = self._phases
        stack.append(span)
        self._phase_ids.add(id(span))

    def pop_phase(self, span):
        """Retire ``span`` as an attribution target (tolerates
        out-of-order retirement within a stack)."""
        if span is NULL_SPAN:
            return
        engine = self._engine
        proc = engine.active_process if engine is not None else None
        stack = self._proc_phases.get(proc) if proc is not None else None
        if stack is None or span not in stack:
            stack = self._phases
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if proc is not None and not self._proc_phases.get(proc, True):
            # Drop the empty stack so finished processes can be freed.
            del self._proc_phases[proc]

    def phase_for(self, span):
        """The nearest enclosing *phase* span of ``span`` (inclusive),
        or None.  Shipments resolve their attribution target once, at
        send time, from their causal parentage — per-fragment credit
        then lands on the owning migration's phase no matter which
        other phases are open when the fragment finally crosses."""
        phase_ids = self._phase_ids
        while span is not None and span is not NULL_SPAN:
            if id(span) in phase_ids:
                return span
            span = span.parent
        return None

    def on_link(self, nbytes, category, phase=_UNSET):
        """A fragment crossed the wire: credit ``phase`` (resolved by
        the sender via :meth:`phase_for`), or the context's active
        phase when the caller did not resolve one."""
        if phase is _UNSET:
            phase = self.current_phase
        if phase is None:
            return
        key = self._link_keys.get(category)
        if key is None:
            key = self._link_keys[category] = "bytes." + category
        counters = phase.counters
        counters["bytes"] = counters.get("bytes", 0) + nbytes
        counters[key] = counters.get(key, 0) + nbytes

    def on_fault(self, kind):
        """A fault resolved: credit the context's active phase."""
        phase = self.current_phase
        if phase is None:
            return
        key = self._fault_keys.get(kind)
        if key is None:
            key = self._fault_keys[kind] = "faults." + kind
        counters = phase.counters
        counters[key] = counters.get(key, 0) + 1

    def host_meta(self):
        """Host-side run metadata: events dispatched and wall-clock
        seconds spent in dispatch, summed over every engine this world
        ran.  ``None`` when no engine was ever attached (hand-scripted
        obs, foreign traces) so such exports stay byte-stable."""
        engines = self._engines
        if not engines and self._engine is not None:
            engines = [self._engine]
        if not engines:
            return None
        return {
            "events_dispatched": sum(e.dispatched for e in engines),
            "wall_s": sum(e.wall_s for e in engines),
        }

    # -- export -----------------------------------------------------------------
    def finalize(self):
        """Close open spans and sync engine event counts (idempotent)."""
        if self._event_log:
            # Subclasses fold into their kernel kind (summed, labels in
            # first-seen order), so a FragmentPipe counts as a Process.
            totals = {}
            for cls, total in _Counter(self._event_log).items():
                kind = event_kind(cls)
                totals[kind] = totals.get(kind, 0) + total
            family = self.registry.counter("sim_events_total", labels=("kind",))
            for kind, total in totals.items():
                family.labels(kind=kind).value = total
        self.tracer.finish_open()

    def summary(self, top=5):
        """Plain-text span tree + histogram summary for this run."""
        self.finalize()
        return render_summary(load_chrome(build_chrome([("run", self)])), top=top)
