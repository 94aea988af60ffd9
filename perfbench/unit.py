"""One run of one workload, in a fresh single-threaded process.

    python3 -m perfbench.unit WORKLOAD SEED TRACE ROOT [SPANS_PREFIX]

Run from the repository root by ``run.py``, once per measured unit, so
every unit starts from a cold interpreter and its peak resident memory
is its own.  ``ROOT`` is the checkout whose ``src/`` is imported; the
process refuses to run against any other copy of ``repro``.  Prints
one JSON object: host times, peak memory, the workload's checks, sim
metrics and determinism hash, and (with ``TRACE`` 1) the per-layer
metrics of :mod:`perfbench.layers`.

Host times are CPU times less the time spent in the speed reference of
:mod:`perfbench.speed`, which untraced units run alongside the
workload; ``speed_factor`` says how much slower than an uncontended
host the unit ran.
"""

import gc
import json
import os
import resource
import sys
import time

from perfbench.speed import SpeedProbe


def _import_repro(root):
    """Import ``repro`` from ``ROOT/src`` and every module the layers
    and workloads use (this is the import part of set-up)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported repro from {where}, not {src}")
    import repro.cluster.stress  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.testbed  # noqa: F401


def main(argv):
    name, seed, trace, root = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    spans_prefix = argv[4] if len(argv) > 4 else None
    # Untraced units sample the host's speed; traced units leave it
    # out so that no span holds reference time.
    speed = SpeedProbe()
    if not trace:
        gc.callbacks.append(speed)
    clock = speed.work_time
    cpu_start = clock()
    _import_repro(root)
    from perfbench import layers, workloads
    from perfbench.tracer import Patcher, Tracer

    import_cpu_s = clock() - cpu_start

    patcher = Patcher()
    probe = workloads.Probe(clock)
    probe.install(patcher)
    if trace:
        tracer = Tracer()
        counters = layers.Counters()
        layers.install(tracer, patcher, counters)

    cpu_start = clock()
    wall_start = time.perf_counter_ns()
    output = workloads.execute(name, seed)
    wall_s = (time.perf_counter_ns() - wall_start) / 1e9
    unit_cpu_s = clock() - cpu_start
    if not trace:
        gc.callbacks.remove(speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "speed_factor": speed.factor(),
        "speed_samples": len(speed.samples),
        "import_cpu_s": import_cpu_s,
        "setup_cpu_s": probe.setup_cpu_s,
        "unit_cpu_s": unit_cpu_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        record["layers"] = layers.layer_metrics(tracer, counters)
        record["covered_s"] = layers.layer_covered_s(tracer)
        record["spans"] = tracer.span_count
        if spans_prefix:
            tracer.write(spans_prefix)
    trials = list(probe.trials)
    patcher.restore()
    record.update(workloads.summarise(name, seed, output, trials, root))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
