"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured unit is one run of the
workload in its own fresh single-threaded child process
(``python3 -m perfbench.unit``); units repeat until ``--seconds`` of
wall time are used, and the host metrics are medians over units.

The host times are scaled to an uncontended host.  A shared host can
run the same code up to twice as slowly for minutes at a time, which
moved whole runs by 25% or more between identical runs.  Each untraced
unit therefore times a fixed reference load between its workload's
steps (``perfbench/speed.py``) and divides its CPU times by how much
slower than on an uncontended host that reference ran.

``--trace 0`` reports the end-to-end metrics: host CPU time
(``host_cpu_s``), set-up CPU time (``setup_s``: importing repro,
``Testbed.world`` and ``build_process``), peak resident memory, and the
simulated metrics of the modelled system (``sim_*``).  ``--trace 1``
runs one untraced unit, then traced units, and reports the per-layer
metrics of ``perfbench/layers.py`` plus ``trace.coverage`` and
``trace.overhead``; the traced units must reproduce the untraced
unit's determinism hash exactly.

Every unit of a run must pass its workload's correctness checks and
give the same determinism hash and sim metrics.  Lines before the last
describe the run (seed, hash, commit, every metric with its unit); the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when the run is
correct.  Files go to ``.perfbench/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")

#: Hard cap on one run's wall time, children included.
RUN_LIMIT_S = 170.0

#: Workload-specific results printed beside the end-to-end metrics.
EXTRA_UNITS = {
    "ops_failed_share": "ratio",
    "sim_paper_error": "ratio",
    "sim_request_p50_s": "sim_s",
    "sim_request_p99_s": "sim_s",
    "sim_request_migr_p95_s": "sim_s",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def metric_units(kind):
    """Metric name -> unit for ``kind`` (``end_to_end`` or
    ``per_layer``), in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_commit():
    """The checkout's commit, read from ``.git`` without running git
    (``unknown`` outside a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over every file under ``src/`` (path and bytes), so a
    record names the code it measured even without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_unit(workload, seed, traced, deadline):
    """Run one unit in a child process; returns (record, wall seconds)."""
    command = [
        sys.executable, "-m", "perfbench.unit",
        workload, str(seed), "1" if traced else "0", ROOT,
    ]
    if traced:
        command.append(os.path.join(OUT, f"spans-{workload}"))
    started = time.perf_counter()
    try:
        child = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} unit did not finish in time") from None
    wall = time.perf_counter() - started
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} unit exited {child.returncode}: "
            + (child.stderr.strip().splitlines() or ["(no output)"])[-1]
        )
    return json.loads(lines[-1]), wall


def run_units(workload, seed, traced, stop_at, deadline):
    """Run units until another one would end after ``stop_at``
    (at least one unit)."""
    units, walls = [], []
    while True:
        record, wall = run_unit(workload, seed, traced, deadline)
        units.append(record)
        walls.append(wall)
        if time.perf_counter() + statistics.median(walls) > stop_at:
            return units


def host_cpu(unit):
    """Workload CPU time of one unit, set-up excluded."""
    return unit["unit_cpu_s"] - unit["setup_cpu_s"]


def consistency(units, sim_names):
    """Checks every unit must pass for the run to be correct."""
    first = units[0]
    checks = {}
    for unit in units:
        for name, passed in unit["checks"].items():
            checks[name] = checks.get(name, True) and passed is True
    checks["same_hash_every_unit"] = all(
        unit["hash"] == first["hash"] for unit in units
    )
    checks["same_sim_every_unit"] = all(
        unit["sim"] == first["sim"] for unit in units
    )
    checks["sim_metrics_present"] = all(
        isinstance(first["sim"].get(name), (int, float)) for name in sim_names
    )
    return checks


def end_to_end(units, names):
    """{name: value} of the end-to-end metrics over untraced units."""
    values = dict(units[0]["sim"])
    values["host_cpu_s"] = statistics.median(
        host_cpu(u) / u["speed_factor"] for u in units
    )
    values["setup_s"] = statistics.median(
        (u["import_cpu_s"] + u["setup_cpu_s"]) / u["speed_factor"]
        for u in units
    )
    values["peak_rss_mb"] = statistics.median(u["peak_rss_mb"] for u in units)
    return {name: values[name] for name in names}


def per_layer(base, traced, names):
    """{name: value} of the per-layer metrics over traced units."""
    values = {}
    for name in names:
        if name not in traced[0]["layers"]:
            continue
        samples = [unit["layers"][name] for unit in traced]
        value = statistics.median(samples)
        if all(isinstance(x, int) for x in samples) and value == int(value):
            value = int(value)
        values[name] = value
    values["trace.coverage"] = statistics.median(
        u["covered_s"] / u["wall_s"] for u in traced
    )
    values["trace.overhead"] = (
        statistics.median(host_cpu(u) for u in traced)
        / statistics.median(host_cpu(u) for u in base)
        - 1.0
    )
    return values


def main(argv=None):
    sys.path.insert(0, ROOT)
    from perfbench.workloads import SEEDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    stop_at = started + args.seconds
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro package in {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            base = run_units(args.workload, args.seed, False, started, deadline)
            traced = run_units(
                args.workload, args.seed, True, stop_at, deadline
            )
            units = base + traced
        else:
            units = run_units(
                args.workload, args.seed, False, stop_at, deadline
            )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    e2e_units = metric_units("end_to_end")
    checks = consistency(
        units, [name for name in e2e_units if name.startswith("sim_")]
    )
    correct = all(checks.values())
    first = units[0]
    if args.trace:
        units_of = metric_units("per_layer")
        metrics = per_layer(base, traced, units_of)
    else:
        units_of = e2e_units
        metrics = end_to_end(units, units_of)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": SEEDS[args.workload][1],
        "trace": args.trace,
        "determinism_hash": first["hash"],
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "units": len(units),
        "unit_host_cpu_s": [host_cpu(u) for u in units],
        "unit_setup_s": [u["import_cpu_s"] + u["setup_cpu_s"] for u in units],
        "unit_speed_factor": [u["speed_factor"] for u in units],
        "checks": checks,
        "ops": first["ops"],
        "extra": first["extra"],
        "metrics": metrics,
    }
    with open(
        os.path.join(OUT, f"record-{args.workload}-trace{args.trace}.json"),
        "w", encoding="utf-8",
    ) as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"(held-out seed {SEEDS[args.workload][1]})  units {len(units)}")
    print(f"determinism_hash {first['hash']}")
    print(f"commit {record['commit']}  src_sha256 {record['src_sha256']}")
    for name, passed in checks.items():
        print(f"check {name} {'ok' if passed else 'FAILED'}")
    ops = first["ops"]
    print(f"ops attempted {ops['attempted']}  failed {ops['failed']}  "
          f"refused {ops['refused']}")
    if not args.trace:
        print("host speed factor median {:.3f} over {} units "
              "(1.0: uncontended host)".format(
                  statistics.median(record["unit_speed_factor"]),
                  len(units)))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units_of[name]}")
    if not args.trace:
        for name, value in first["extra"].items():
            if name in EXTRA_UNITS:
                print(f"{name} {value!r} {EXTRA_UNITS[name]}")
    result = {
        "correct": correct,
        "attempted": sum(u["ops"]["attempted"] for u in units),
        "failed": sum(u["ops"]["failed"] for u in units),
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
