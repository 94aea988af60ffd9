"""Host-time engine profiler: where does the *simulator's* time go?

Everything else in ``repro.obs`` measures simulated seconds.  This
module measures wall-clock seconds spent inside the engine's dispatch
loop, attributed per (event kind, handler) bucket and rolled up into
the simulator's subsystems (migration, net, pager, flusher, scheduler,
serve, telemetry, ...).  It exists to make engine-performance work
trustworthy: the ROADMAP's "as fast as the hardware allows" item needs
to know which handler to make faster before touching any of them.

Design constraints, in order:

1. **Zero overhead when off.**  The profiler is opt-in
   (``repro profile`` / :func:`profiled`).  Disabled — the default —
   engines are untouched and their one dispatch loop
   (``Engine._loop``) runs its inlined fast path.
2. **Zero perturbation when on.**  An engine built inside
   :func:`profiled` is adopted by :meth:`EngineProfiler.attach`, which
   wraps three of its methods per instance — the per-event hook
   ``_dispatch``, the far-lane ``_roll`` and ``schedule`` — plus the
   loop itself for per-run totals.  Each wrapper calls the original
   unchanged and only *reads* wall clocks, lane depths and handler
   names, so the engine's own loop decides event order.  Simulated
   time, exported traces and determinism hashes are byte-identical
   with the profiler on or off (pinned by test).
3. **Account for everything.**  The wrappers' timestamps tile the
   whole loop interval: every nanosecond lands in a dispatch bucket,
   the ``queue`` rows (near-lane pops between dispatches, far-lane
   rolls) or the profiler's own named ``profiler`` bucket, so
   attributed time covers ≥95% (in practice ≥99%) of measured engine
   wall time.

Export targets: a text top-N table (:func:`render_profile`) and a
speedscope-format flamegraph (:func:`write_speedscope`) loadable at
https://www.speedscope.app or with ``speedscope FILE``.
"""

import gc
import json
import re
import sys
from time import perf_counter

from repro.sim.process import Process

#: Ordered (subsystem, substrings) rules mapping handler names — the
#: simulated-process names resolved from each event's callbacks — onto
#: the simulator's subsystems.  First hit wins; rules are ordered so
#: the more specific name fragments match before the generic ones
#: (``-nms-backer`` serves pages, so it must claim its handlers before
#: the bare ``-nms`` net rule sees them).
_SUBSYSTEM_RULES = (
    ("telemetry", ("telemetry-",)),
    ("flusher", ("-flusher", "-pump-", "-push-", "flush")),
    ("pager", ("-pager", "-imag-batch", "-nms-backer", "backer")),
    ("net", ("frag-", "send-", "-nms")),
    ("serve", ("serve-", "client-", "retry-", "s#-")),
    ("scheduler", ("stress-arrivals", "serve-arrivals", "follow-",
                   "migrate-", "balancer", "move-")),
    ("migration", ("-migmgr", "-ship-core", "-ship-rimas", "trial-",
                   "precopy-", "chain-", "insert", "excise")),
    ("faults", ("fault-crash-",)),
    ("workload", ("job-", "stage-", "p#", "c#")),
)


def classify_handler(name):
    """The subsystem a handler (process) name belongs to."""
    for subsystem, fragments in _SUBSYSTEM_RULES:
        for fragment in fragments:
            if fragment in name:
                return subsystem
    return "other"


_DIGITS = re.compile(r"\d+")


def normalize(name):
    """Collapse per-instance ids so buckets stay low-cardinality:
    ``follow-p03`` and ``follow-p17`` both become ``follow-p#``."""
    return _DIGITS.sub("#", name)


class EngineProfiler:
    """Wall-clock cost attribution for one or more engines.

    One profiler may observe several engines (a sweep builds a fresh
    world per trial); buckets accumulate across all of them.  Not
    thread-safe — the simulator is single-threaded by construction.
    """

    def __init__(self):
        #: (event kind, handler) -> [dispatches, self seconds, net
        #: allocated blocks].  Handler names are normalised.
        self.buckets = {}
        #: Wall seconds inside the engines' dispatch loops.
        self.run_wall_s = 0.0
        #: The profiler's own bookkeeping time (a named cost center —
        #: it is part of the measured wall time, so it must be
        #: attributed like everything else).
        self.overhead_s = 0.0
        # Event-queue operation costs, split per lane of the two-lane
        # queue.  Pops and rolls happen in the loop *between*
        # dispatches, so each has its own ``queue`` cost center:
        # near-lane pop time is the loop's time from one hand-off to
        # the next (pop, cancelled-entry drops, the hook call); far-lane
        # pops are timed per roll.  Pushes (inside handlers, or while
        # the world is built) are timed separately by the schedule
        # wrapper.
        self.near_pop_s = 0.0
        self.near_pushes = 0
        self.near_push_s = 0.0
        self.far_pops = 0
        self.far_pop_s = 0.0
        self.far_pushes = 0
        self.far_push_s = 0.0
        self.rolls = 0
        #: Cancelled entries dropped at pop time (never dispatched).
        self.queue_skipped = 0
        #: Deepest each lane — and the queue as a whole — ever got.
        self.peak_near_depth = 0
        self.peak_far_depth = 0
        self.peak_queue_depth = 0
        self.engines = 0
        self.run_calls = 0
        # raw handler name -> (normalised label, subsystem): interning
        # keeps per-dispatch attribution to two dict hits.
        self._labels = {}
        # End of the last attributed interval; the next one starts here.
        self._mark = 0.0
        # Net blocks the garbage collector has released during profiled
        # loops (see _on_gc), and the count when the current pass began.
        self._gc_blocks = 0
        self._gc_start = 0

    def __repr__(self):
        return (
            f"<EngineProfiler engines={self.engines} events={self.events} "
            f"wall={self.run_wall_s:.3f}s>"
        )

    @property
    def events(self):
        """Events dispatched through the profiled hook."""
        return sum(bucket[0] for bucket in self.buckets.values())

    @property
    def near_pops(self):
        """Near-lane pops: every dispatched event and dropped cancel."""
        return self.events + self.queue_skipped

    # -- legacy whole-queue totals ----------------------------------------------
    @property
    def queue_pushes(self):
        """Pushes across both lanes (legacy whole-queue total)."""
        return self.near_pushes + self.far_pushes

    @property
    def queue_push_s(self):
        return self.near_push_s + self.far_push_s

    @property
    def queue_pops(self):
        """Pops across both lanes: near-lane dispatch pops plus
        far-lane entries moved during rolls."""
        return self.near_pops + self.far_pops

    @property
    def queue_pop_s(self):
        return self.near_pop_s + self.far_pop_s

    def _on_gc(self, phase, info):
        """``gc.callbacks`` hook: track the blocks each collection frees,
        so a collection that lands mid-dispatch is not billed to the
        handler it interrupted (the garbage is older than the handler)."""
        if phase == "start":
            self._gc_start = sys.getallocatedblocks()
        else:
            self._gc_blocks += sys.getallocatedblocks() - self._gc_start

    # -- attachment -------------------------------------------------------------
    def attach(self, engine):
        """Adopt ``engine`` — called from its constructor while this
        profiler is the build-time hook (see :func:`profiled`).

        Installs per-instance wrappers over the class methods, each
        calling the original unchanged, so scheduling and dispatch
        semantics (ordering, validation, lane routing) are identical:

        * ``_loop`` — per run: run count, wall time, tiling start/end;
        * ``_dispatch`` — the per-event hook, which the loop then uses:
          times the dispatch into its (event kind, handler) bucket;
        * ``_roll`` — times each far-lane roll and counts its pops;
        * ``schedule`` — times each push and classifies it by lane
          (same-instant → near lane, strictly future → far-lane heap).

        Lane depths are sampled after every push and roll — the only
        operations that grow a lane — so the recorded peaks are exact.
        The cancel-mark set is swapped for one that counts the entries
        the loop drops.
        """
        self.engines += 1
        engine.profiler = self
        profiler = self
        cls = type(engine)
        loop, dispatch, roll, schedule = (
            cls._loop, cls._dispatch, cls._roll, cls.schedule)
        heap = engine._heap
        lanes = engine._lanes
        buckets = self.buckets
        blocks = sys.getallocatedblocks
        on_gc = self._on_gc
        cancelled = _CountedCancels(engine._cancelled)
        cancelled.profiler = self
        engine._cancelled = cancelled

        def near_depth():
            return len(lanes[0]) + len(lanes[1]) + len(lanes[2])

        def timed_loop(target, stop_at, hook):
            profiler.run_calls += 1
            gc.callbacks.append(on_gc)
            entered = profiler._mark = perf_counter()
            try:
                loop(engine, target, stop_at, hook)
            finally:
                exited = perf_counter()
                gc.callbacks.remove(on_gc)
                profiler.overhead_s += exited - profiler._mark
                profiler.run_wall_s += exited - entered

        def timed_dispatch(event):
            t0 = perf_counter()
            profiler.near_pop_s += t0 - profiler._mark
            profiler._mark = t0
            # The callbacks list is consumed by _process; keep it so
            # the handler can be named outside the timed window.
            callbacks = event.callbacks
            before = blocks()
            collected = profiler._gc_blocks
            dispatch(engine, event)
            t1 = perf_counter()
            allocated = blocks() - before - (profiler._gc_blocks - collected)
            key = profiler._bucket_key(event, callbacks)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = [0, 0.0, 0]
            bucket[0] += 1
            bucket[1] += t1 - t0
            bucket[2] += allocated
            profiler._mark = t2 = perf_counter()
            profiler.overhead_s += t2 - t1

        def timed_roll():
            t0 = perf_counter()
            profiler.near_pop_s += t0 - profiler._mark
            profiler._mark = t0
            far_depth = len(heap)
            roll(engine)
            t1 = perf_counter()
            profiler.far_pop_s += t1 - t0
            profiler.far_pops += far_depth - len(heap)
            profiler.rolls += 1
            depth = near_depth()
            if depth > profiler.peak_near_depth:
                profiler.peak_near_depth = depth
            profiler._mark = t2 = perf_counter()
            profiler.overhead_s += t2 - t1

        def timed_schedule(event, delay=0.0, priority=None):
            t0 = perf_counter()
            schedule(engine, event, delay, priority)
            elapsed = perf_counter() - t0
            near, far = near_depth(), len(heap)
            now = engine._now
            if delay == 0.0 or now + delay == now:
                profiler.near_pushes += 1
                profiler.near_push_s += elapsed
                if near > profiler.peak_near_depth:
                    profiler.peak_near_depth = near
            else:
                profiler.far_pushes += 1
                profiler.far_push_s += elapsed
                if far > profiler.peak_far_depth:
                    profiler.peak_far_depth = far
            if near + far > profiler.peak_queue_depth:
                profiler.peak_queue_depth = near + far

        engine._loop = timed_loop
        engine._dispatch = timed_dispatch
        engine._roll = timed_roll
        engine.schedule = timed_schedule

    # -- attribution ------------------------------------------------------------
    def _bucket_key(self, event, callbacks):
        """(event kind, handler label, subsystem) for one dispatch.

        The handler is the simulated process the event resumes — the
        first ``Process._resume`` callback's owner — falling back to
        the event's own identity (a finishing Process, a Condition
        check, a bare observer callable).
        """
        name = None
        if callbacks:
            for callback in callbacks:
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, Process):
                    name = owner.name
                    break
            else:
                owner = getattr(callbacks[0], "__self__", None)
                if owner is not None:
                    name = type(owner).__name__
                else:
                    name = getattr(
                        callbacks[0], "__qualname__", "(callable)"
                    )
        elif isinstance(event, Process):
            name = event.name
        else:
            name = "(no handler)"
        cached = self._labels.get(name)
        if cached is None:
            label = normalize(name)
            cached = self._labels[name] = (label, classify_handler(label))
        return event.__class__.__name__, cached[0], cached[1]

    # -- reporting --------------------------------------------------------------
    def cost_centers(self):
        """Buckets as dicts, most expensive first, with shares of the
        measured engine wall time."""
        total = self.run_wall_s or 1.0
        rows = [
            {
                "subsystem": subsystem,
                "handler": handler,
                "event": kind,
                "count": count,
                "self_s": self_s,
                "share": self_s / total,
                "alloc_blocks": alloc,
            }
            for (kind, handler, subsystem), (count, self_s, alloc)
            in self.buckets.items()
        ]
        # Pops and rolls happen between events, so no handler bucket
        # can own them; named rows keep the timeline tiling exactly.
        for handler, count, self_s in (
            ("near-lane pop", self.near_pops, self.near_pop_s),
            ("far-lane roll", self.rolls, self.far_pop_s),
        ):
            if self_s:
                rows.append({
                    "subsystem": "queue",
                    "handler": handler,
                    "event": "-",
                    "count": count,
                    "self_s": self_s,
                    "share": self_s / total,
                    "alloc_blocks": 0,
                })
        if self.overhead_s:
            rows.append({
                "subsystem": "profiler",
                "handler": "bookkeeping",
                "event": "-",
                "count": self.run_calls,
                "self_s": self.overhead_s,
                "share": self.overhead_s / total,
                "alloc_blocks": 0,
            })
        rows.sort(key=lambda row: (-row["self_s"], row["handler"],
                                   row["event"]))
        return rows

    def subsystems(self):
        """Wall seconds rolled up per subsystem, most expensive first."""
        totals = {}
        for row in self.cost_centers():
            totals[row["subsystem"]] = (
                totals.get(row["subsystem"], 0.0) + row["self_s"]
            )
        return dict(
            sorted(totals.items(), key=lambda item: -item[1])
        )

    @property
    def attributed_s(self):
        """Seconds attributed to named cost centers (incl. the
        queue and profiler rows)."""
        return (
            sum(self_s for _, self_s, _ in self.buckets.values())
            + self.near_pop_s
            + self.far_pop_s
            + self.overhead_s
        )

    @property
    def coverage(self):
        """Attributed share of the measured engine wall time."""
        if self.run_wall_s <= 0:
            return 1.0
        return min(1.0, self.attributed_s / self.run_wall_s)

    def report(self, command=None, command_wall_s=None, exit_code=None):
        """The machine-readable profile (``repro profile --json``)."""
        events_per_s = (
            self.events / self.run_wall_s if self.run_wall_s > 0 else 0.0
        )
        data = {
            "engines": self.engines,
            "run_calls": self.run_calls,
            "events": self.events,
            "engine_wall_s": self.run_wall_s,
            "events_per_s": events_per_s,
            "attributed_s": self.attributed_s,
            "coverage": self.coverage,
            "queue": {
                "pushes": self.queue_pushes,
                "push_s": self.queue_push_s,
                "pops": self.queue_pops,
                "pop_s": self.queue_pop_s,
                "peak_depth": self.peak_queue_depth,
                "skipped": self.queue_skipped,
                "near": {
                    "pushes": self.near_pushes,
                    "push_s": self.near_push_s,
                    "pops": self.near_pops,
                    "pop_s": self.near_pop_s,
                    "peak_depth": self.peak_near_depth,
                },
                "far": {
                    "pushes": self.far_pushes,
                    "push_s": self.far_push_s,
                    "pops": self.far_pops,
                    "pop_s": self.far_pop_s,
                    "peak_depth": self.peak_far_depth,
                    "rolls": self.rolls,
                },
            },
            "subsystems": self.subsystems(),
            "cost_centers": self.cost_centers(),
        }
        if command is not None:
            data["command"] = list(command)
        if command_wall_s is not None:
            data["command_wall_s"] = command_wall_s
        if exit_code is not None:
            data["exit_code"] = exit_code
        return data


class profiled:
    """Context manager installing ``profiler`` as the build-time hook.

    Every :class:`~repro.sim.engine.Engine` constructed inside the
    ``with`` block is adopted by the profiler
    (:meth:`EngineProfiler.attach`); engines built before or after are
    untouched.  Nests safely (restores whatever hook was active on
    exit).
    """

    def __init__(self, profiler):
        self.profiler = profiler
        self._previous = None

    def __enter__(self):
        from repro.sim import engine as engine_module

        self._previous = engine_module.PROFILER
        engine_module.PROFILER = self.profiler
        return self.profiler

    def __exit__(self, *exc):
        from repro.sim import engine as engine_module

        engine_module.PROFILER = self._previous
        return False


class _CountedCancels(set):
    """An adopted engine's cancel-mark set: the dispatch loop discards
    each mark as its entry surfaces, so counting discards counts the
    cancelled entries dropped at pop time."""

    __slots__ = ("profiler",)

    def discard(self, event):
        self.profiler.queue_skipped += 1
        set.discard(self, event)


# -- rendering -------------------------------------------------------------------
def render_profile(report, top=15):
    """Human-readable top-N cost-center table for one profile report."""
    lines = []
    events = report["events"]
    wall = report["engine_wall_s"]
    if not events:
        lines.append("no engine activity recorded (the command never "
                     "ran a simulation)")
        return "\n".join(lines)
    lines.append(
        f"engine wall time  {wall:.3f}s over {report['run_calls']} run(s), "
        f"{report['engines']} engine(s)"
    )
    lines.append(
        f"events dispatched {events:,}  "
        f"({report['events_per_s']:,.0f} events/s host)"
    )
    queue = report["queue"]
    lines.append(
        f"event queue       {queue['pushes']:,} pushes "
        f"({queue['push_s'] * 1e3:.1f}ms), {queue['pops']:,} pops "
        f"({queue['pop_s'] * 1e3:.1f}ms), peak depth {queue['peak_depth']}"
    )
    near, far = queue.get("near"), queue.get("far")
    if near and far:
        lines.append(
            f"  near lane       {near['pushes']:,} pushes, "
            f"{near['pops']:,} pops, peak depth {near['peak_depth']}"
        )
        lines.append(
            f"  far lane        {far['pushes']:,} pushes, "
            f"{far['pops']:,} pops over {far['rolls']:,} rolls, "
            f"peak depth {far['peak_depth']}"
        )
    lines.append(
        f"attributed        {report['attributed_s']:.3f}s "
        f"({100 * report['coverage']:.1f}% of engine wall time)"
    )
    lines.append("")
    lines.append(f"{'subsystem':<12} {'handler':<26} {'event':<10} "
                 f"{'count':>9} {'self':>9}  {'share':>6} {'allocs':>9}")
    for row in report["cost_centers"][:top]:
        lines.append(
            f"{row['subsystem']:<12} {row['handler']:<26.26} "
            f"{row['event']:<10.10} {row['count']:>9,} "
            f"{row['self_s'] * 1e3:>7.1f}ms  {100 * row['share']:>5.1f}% "
            f"{row['alloc_blocks']:>9,}"
        )
    remaining = len(report["cost_centers"]) - top
    if remaining > 0:
        lines.append(f"... {remaining} more cost center(s); use --json "
                     "for the full list")
    lines.append("")
    lines.append("per-subsystem rollup:")
    for subsystem, seconds in report["subsystems"].items():
        share = seconds / wall if wall else 0.0
        lines.append(f"  {subsystem:<12} {seconds * 1e3:>9.1f}ms  "
                     f"{100 * share:>5.1f}%")
    return "\n".join(lines)


def build_speedscope(report, name="repro profile"):
    """The speedscope file object for one profile report.

    One weighted sample per cost center, with a
    subsystem → handler → event-kind stack, so the flamegraph rolls up
    by subsystem at the root.
    """
    frames = []
    frame_ids = {}

    def frame(label):
        fid = frame_ids.get(label)
        if fid is None:
            fid = frame_ids[label] = len(frames)
            frames.append({"name": label})
        return fid

    samples = []
    weights = []
    for row in report["cost_centers"]:
        stack = [frame(row["subsystem"]), frame(row["handler"])]
        if row["event"] != "-":
            stack.append(frame(f"{row['handler']} [{row['event']}]"))
        samples.append(stack)
        weights.append(round(row["self_s"] * 1e6, 3))
    total = round(sum(weights), 3)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "microseconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs.prof",
    }


def write_speedscope(path, report, name="repro profile"):
    """Write the speedscope flamegraph for ``report`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(build_speedscope(report, name=name), handle,
                  sort_keys=True, indent=1)
        handle.write("\n")
    return path
