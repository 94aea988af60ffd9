"""Engine-throughput baseline: how many events/s does dispatch sustain?

The ROADMAP's "make the engine run as fast as the hardware allows" item
(target ≥10x over the ~70k events/s observed at cluster scale) needs a
committed baseline to beat and a cost-attribution to steer by.  This
benchmark runs the seeded stress harness across several shapes — small,
wide (many hosts), deep (many processes per host), and serving-heavy —
measuring host events/s for each with the engine's own ``wall_s``
dispatch clock (two ``perf_counter`` reads per ``run()`` call, nothing
per event), then repeats the reference shape under the
:class:`~repro.obs.prof.EngineProfiler` to record the top-5
profiler-attributed cost centers.  The artifact lands in
``BENCH_engine_throughput.json`` at the repo root; CI re-runs the bench
and :func:`gate` **fails** it on a >10% events/s regression against the
committed file (and, unconditionally, on any determinism-hash
divergence — see :func:`check`).  Host timing is machine-dependent but a
10% tolerance absorbs runner noise; the two-lane queue work showed real
regressions land well past it.

Run directly (writes the JSON artifact)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

Gate a fresh artifact against a saved copy of the committed one (prints
a markdown summary; exits non-zero listing each failure)::

    cp BENCH_engine_throughput.json /tmp/committed.json
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py > /dev/null
    PYTHONPATH=src python -c "from benchmarks.bench_engine_throughput \
        import gate; gate('/tmp/committed.json')"

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py
"""

import json
import os
import sys

from repro.cluster import StressConfig, run_stress
from repro.obs.prof import EngineProfiler, profiled

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT = os.path.join(REPO_ROOT, "BENCH_engine_throughput.json")

SEED = 7
#: Repeats per shape; the best run is reported (throughput is a
#: capability number — slower repeats measure host noise, not the code).
REPEATS = 3
#: The stress shapes swept.  ``reference`` is the profiled shape and the
#: one the events/s regression guard reads.
SHAPES = (
    ("small", dict(hosts=4, procs=8)),
    ("reference", dict(hosts=16, procs=64)),
    ("wide", dict(hosts=32, procs=64)),
    ("batched", dict(hosts=16, procs=64, strategy="adaptive",
                     batch=8, pipeline=4)),
    ("serving", dict(hosts=4, procs=3, services=("kv", "matmul", "stream"),
                     clients_per_service=2, requests_per_client=40)),
)
PROFILED_SHAPE = "reference"
TOP_CENTERS = 5
#: The gate's floor: fresh events/s as a fraction of the committed value.
MIN_RATE_RATIO = 0.90


def run_shape(kwargs):
    """Best-of-N events/s for one stress shape.

    The engine's ``wall_s`` counts only dispatch-loop time, so the
    events/s figure excludes world construction and result packing.
    """
    best = None
    for _ in range(REPEATS):
        config = StressConfig(seed=SEED, **kwargs)
        if kwargs.get("services"):
            from repro.serve import run_serve

            result = run_serve(config)
        else:
            result = run_stress(config)
        engine = result.obs._engine
        events = engine.dispatched
        wall_s = engine.wall_s
        rate = events / wall_s if wall_s > 0 else 0.0
        row = {
            "events_dispatched": events,
            "engine_wall_s": round(wall_s, 6),
            "events_per_s": round(rate, 1),
            "verified": result.verified,
            "determinism_hash": result.determinism_hash,
        }
        if best is None or row["events_per_s"] > best["events_per_s"]:
            best = row
    return best


def profile_shape(kwargs):
    """Top cost centers for one shape under the engine profiler."""
    profiler = EngineProfiler()
    with profiled(profiler):
        config = StressConfig(seed=SEED, **kwargs)
        run_stress(config)
    report = profiler.report()
    # The profiler's own bookkeeping row is excluded from the top-N:
    # the baseline records what the *engine* spends its time on.  Its
    # share is reported separately so the overhead stays visible.
    engine_rows = [
        row for row in report["cost_centers"]
        if row["subsystem"] != "profiler"
    ]
    overhead = sum(
        row["self_s"] for row in report["cost_centers"]
        if row["subsystem"] == "profiler"
    )
    centers = [
        {
            "subsystem": row["subsystem"],
            "handler": row["handler"],
            "event": row["event"],
            "count": row["count"],
            "self_s": round(row["self_s"], 6),
            "share": round(row["share"], 4),
            "alloc_blocks": row["alloc_blocks"],
        }
        for row in engine_rows[:TOP_CENTERS]
    ]
    queue = report["queue"]

    def lane(stats):
        row = {
            "pushes": stats["pushes"],
            "push_s": round(stats["push_s"], 6),
            "pops": stats["pops"],
            "pop_s": round(stats["pop_s"], 6),
            "peak_depth": stats["peak_depth"],
        }
        if "rolls" in stats:
            row["rolls"] = stats["rolls"]
        return row

    return {
        "coverage": round(report["coverage"], 4),
        "profiler_overhead_share": round(
            overhead / report["engine_wall_s"], 4
        ) if report["engine_wall_s"] else 0.0,
        "peak_queue_depth": queue["peak_depth"],
        "queue_push_s": round(queue["push_s"], 6),
        "queue_pop_s": round(queue["pop_s"], 6),
        "queue_skipped": queue["skipped"],
        "queue_lanes": {
            "near": lane(queue["near"]),
            "far": lane(queue["far"]),
        },
        "top_cost_centers": centers,
    }


def measure():
    """The artifact dict: one row per shape + the profiled reference."""
    rows = []
    for name, kwargs in SHAPES:
        row = run_shape(kwargs)
        row["shape"] = name
        row["config"] = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in kwargs.items()
        }
        rows.append(row)
    profiled_kwargs = dict(SHAPES)[PROFILED_SHAPE]
    return {
        "seed": SEED,
        "repeats": REPEATS,
        "rows": rows,
        "profiled_shape": PROFILED_SHAPE,
        "profile": profile_shape(profiled_kwargs),
    }


def reference_rate(artifact):
    """The guarded number: reference-shape events/s."""
    return next(
        row["events_per_s"] for row in artifact["rows"]
        if row["shape"] == PROFILED_SHAPE
    )


def check(fresh, committed):
    """Gate failures of a ``fresh`` artifact against the ``committed``
    one, as one-line messages (empty = pass).

    Every fresh row must be verified, reproduce its committed
    determinism hash, keep at least :data:`MIN_RATE_RATIO` of its
    committed events/s, and name a shape the committed file has.
    """
    committed_rows = {row["shape"]: row for row in committed["rows"]}
    failures = []
    for row in fresh["rows"]:
        shape = row["shape"]
        old = committed_rows.get(shape)
        if old is None:
            failures.append(f"{shape}: new shape not committed")
            continue
        if not row["verified"]:
            failures.append(f"{shape}: run not verified")
        if row["determinism_hash"] != old["determinism_hash"]:
            failures.append(
                f"{shape}: simulated outcome diverged from baseline")
        if row["events_per_s"] < MIN_RATE_RATIO * old["events_per_s"]:
            failures.append(
                f"{shape}: events/s regressed >10%: "
                f"{old['events_per_s']:,.0f} -> {row['events_per_s']:,.0f}")
    return failures


def gate(committed_path, fresh_path=ARTIFACT):
    """CI entry point: print a markdown summary of the fresh artifact
    against the committed copy at ``committed_path``, then exit
    non-zero listing every :func:`check` failure."""
    with open(fresh_path, encoding="utf-8") as handle:
        fresh = json.load(handle)
    with open(committed_path, encoding="utf-8") as handle:
        committed = json.load(handle)
    committed_rows = {row["shape"]: row for row in committed["rows"]}
    print(f"### Engine throughput (seed {fresh['seed']}, "
          f"best of {fresh['repeats']})\n")
    print("| shape | events | events/s (delta vs committed) |")
    print("| --- | --- | --- |")
    for row in fresh["rows"]:
        old = committed_rows.get(row["shape"], row)
        delta = row["events_per_s"] - old["events_per_s"]
        print(f"| {row['shape']} | {row['events_dispatched']:,} "
              f"| {row['events_per_s']:,.0f} ({delta:+,.0f}) |")
    profile = fresh["profile"]
    lanes = profile["queue_lanes"]
    print(f"\nProfiler coverage {100 * profile['coverage']:.1f}%, "
          f"peak queue depth {profile['peak_queue_depth']} "
          f"(near {lanes['near']['peak_depth']} / "
          f"far {lanes['far']['peak_depth']}, "
          f"{lanes['far']['rolls']:,} rolls); top cost centers:\n")
    for row in profile["top_cost_centers"]:
        print(f"- `{row['subsystem']}/{row['handler']}` "
              f"({row['event']}): {row['count']:,} events, "
              f"{100 * row['share']:.1f}% of engine time")
    failures = check(fresh, committed)
    if failures:
        sys.exit("engine-throughput gate failed:\n" + "\n".join(failures))


def test_shapes_dispatch_and_verify():
    """Every shape runs verified and the dispatch clock ticks."""
    for _, kwargs in SHAPES:
        row = run_shape(kwargs)
        assert row["verified"]
        assert row["events_dispatched"] > 0
        assert row["events_per_s"] > 0


def test_profiler_attributes_reference_shape():
    """The profiled reference shape attributes ≥95% of wall time."""
    profile = profile_shape(dict(SHAPES)[PROFILED_SHAPE])
    assert profile["coverage"] >= 0.95
    assert len(profile["top_cost_centers"]) == TOP_CENTERS
    lanes = profile["queue_lanes"]
    # Every dispatch is a near-lane pop; far-lane pops happen in rolls.
    assert lanes["near"]["pops"] > 0
    assert lanes["far"]["rolls"] > 0
    assert lanes["far"]["pops"] <= lanes["far"]["pushes"]
    assert profile["peak_queue_depth"] >= max(
        lanes["near"]["peak_depth"], lanes["far"]["peak_depth"]
    )


def main():
    artifact = measure()
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(json.dumps(artifact, indent=2))
    print(f"reference events/s: {reference_rate(artifact):,.0f} "
          f"(profiler coverage "
          f"{100 * artifact['profile']['coverage']:.1f}%)")


if __name__ == "__main__":
    main()
