"""The benchmark's three workloads: inputs, correctness checks and metrics.

Each workload is one deterministic batch job on the host, built only
from its seed.  :func:`execute` runs it once; :func:`summarise` then
checks its output and returns the simulated ("sim") metrics, the
operation counts and the determinism hash.  The host-time measurement
around it lives in ``unit.py``.

* ``paper-matrix`` -- ``generate_report(seed)``: the 77-cell trial
  matrix plus the working-set, pre-copy, chain and serving extensions.
* ``fleet-store`` -- ``run_stress``: 16 hosts x 128 jobs over
  minprog/chess/pm-mid, 256 Poisson migrations, pure-IOU, content
  store and dedup on.
* ``serve-mix`` -- ``run_serve``: kv/matmul/stream on 8 hosts x 12
  services, pure-IOU batch=8 pipeline=4, open-loop clients at a fixed
  0.5 requests per simulated second each.
"""

import hashlib
import math
import os

#: Workload name -> (default seed, held-out seed for confirming claims).
SEEDS = {
    "paper-matrix": (1987, 2718),
    "fleet-store": (7, 31),
    "serve-mix": (7, 53),
}

#: The seed at which the report text must equal the committed
#: EXPERIMENTS.md.
REPORT_SEED = 1987

#: Terminal ticket outcomes of the cluster scheduler.
TICKET_OUTCOMES = ("completed", "rejected", "skipped", "aborted", "killed")


def fleet_store_config(seed):
    """The fleet-store :class:`StressConfig` for ``seed``."""
    from repro.cluster.stress import StressConfig

    return StressConfig(
        hosts=16, procs=128, migrations=256, arrival="poisson",
        workloads=("minprog", "chess", "pm-mid"), strategy="pure-iou",
        store=True, dedup=True, seed=seed,
    )


def serve_mix_config(seed):
    """The serve-mix :class:`StressConfig` for ``seed``.

    960 requests per client at 0.5 requests per simulated second stays
    below kv's saturation point; 384 migrations at 0.5 per second keep
    the migration-to-request ratio of the 120-request shape.  At this
    size one run costs about as much host time as a paper-matrix run
    (~9 s); shorter runs gave a host-time spread near the bound.
    """
    from repro.cluster.stress import StressConfig

    return StressConfig(
        hosts=8, procs=12, migrations=384, rate_per_s=0.5,
        strategy="pure-iou", batch=8, pipeline=4,
        services=("kv", "matmul", "stream"), clients_per_service=2,
        requests_per_client=960, request_rate_per_s=0.5,
        deadline_s=0.0, retry_budget=0, seed=seed,
    )


def nearest_rank(values, q):
    """Exact nearest-rank q-quantile (the repository's convention)."""
    values = sorted(values)
    if not values:
        return None
    return values[min(len(values) - 1, max(0, int(q * len(values))))]


class Probe:
    """Boundary hooks the benchmark keeps on in every run.

    It charges host CPU time (read from ``clock``) of ``Testbed.world``
    and ``build_process`` to set-up, and (on paper-matrix) keeps the
    few numbers each trial contributes to the sim metrics.  Both are a
    few hundred calls per run; no trial result or world is kept alive
    by the probe.
    """

    def __init__(self, clock):
        self.clock = clock
        self.setup_cpu_s = 0.0
        self.trials = []

    def timed(self, fn):
        def setup_wrapper(*args, **kwargs):
            started = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_cpu_s += self.clock() - started

        setup_wrapper.__wrapped__ = fn
        return setup_wrapper

    def trial_recorder(self, fn):
        def trial_wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.trials.append(trial_summary(result))
            return result

        trial_wrapper.__wrapped__ = fn
        return trial_wrapper

    def install(self, patcher):
        """Wrap the three boundaries through ``patcher``."""
        from repro import testbed
        from repro.workloads import builder

        patcher.method(testbed.Testbed, "world", self.timed)
        patcher.function(builder, "build_process", self.timed)
        patcher.method(testbed.Testbed, "run_migration", self.trial_recorder)


def trial_summary(result):
    """What one paper-matrix trial adds to the run's sim metrics."""
    return {
        "end_to_end_s": result.end_to_end_s,
        "bytes_total": result.bytes_total,
        # The freeze of a direct trial: excise start to insertion end.
        "freeze_s": getattr(result, "migration_s", None),
        "ok": result.verified is True
        and getattr(result, "outcome", "completed") == "completed",
    }


def paper_error(matrix):
    """Mean |log(measured / paper)| over the report's scalar claims."""
    from repro.experiments import claims, paper_data

    measured = claims.all_claims(matrix)
    errors = []
    for key, paper in paper_data.CLAIMS.items():
        ours = measured.get(key)
        if isinstance(ours, (int, float)) and ours > 0 and paper > 0:
            errors.append(abs(math.log(ours / paper)))
    return sum(errors) / len(errors), len(errors)


def _paper_matrix(seed):
    from repro.experiments import runner

    return runner.generate_report(seed=seed)


def _paper_matrix_summary(seed, output, trials, root):
    text, matrix = output
    checks = {
        "trials_verified": all(trial["ok"] for trial in trials),
    }
    if seed == REPORT_SEED:
        path = os.path.join(root, "EXPERIMENTS.md")
        with open(path, encoding="utf-8") as handle:
            checks["report_equals_EXPERIMENTS.md"] = handle.read() == text + "\n"
    error, claims_scored = paper_error(matrix)
    freezes = [t["freeze_s"] for t in trials if t["freeze_s"] is not None]
    failed = sum(1 for trial in trials if not trial["ok"])
    return {
        "hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "checks": checks,
        "ops": {"attempted": len(trials), "failed": failed, "refused": 0},
        "sim": {
            "sim_elapsed_s": sum(t["end_to_end_s"] for t in trials),
            "sim_wire_bytes": sum(t["bytes_total"] for t in trials),
            "sim_freeze_p50_s": nearest_rank(freezes, 0.50),
            "sim_freeze_p90_s": nearest_rank(freezes, 0.90),
        },
        "extra": {
            "sim_paper_error": error,
            "claims_scored": claims_scored,
            "trials": len(trials),
            "ops_failed_share": failed / len(trials),
        },
    }


def _ticket_ops(tickets):
    """Tickets per terminal outcome, and whether every submitted ticket
    ended in exactly one of them (ticket conservation)."""
    counts = dict.fromkeys(TICKET_OUTCOMES, 0)
    unknown = 0
    for ticket in tickets:
        if ticket.outcome in counts:
            counts[ticket.outcome] += 1
        else:
            unknown += 1
    conserved = unknown == 0 and len(tickets) == sum(counts.values())
    return counts, conserved


def _freezes(tickets):
    return [t.freeze_s for t in tickets if t.freeze_s is not None]


def _fleet_store(seed):
    from repro.cluster import stress

    return stress.run_stress(fleet_store_config(seed))


def _fleet_store_summary(seed, result, trials, root):
    config = result.config
    counts, conserved = _ticket_ops(result.tickets)
    freezes = _freezes(result.tickets)
    failed = counts["aborted"] + counts["killed"]
    return {
        "hash": result.determinism_hash,
        "checks": {
            "verified": result.verified,
            "tickets_conserved": conserved
            and len(result.tickets) == config.migrations,
        },
        "ops": {
            "attempted": len(result.tickets),
            "failed": failed,
            "refused": counts["rejected"],
        },
        "sim": {
            "sim_elapsed_s": result.makespan_s,
            "sim_wire_bytes": result.bytes_total,
            "sim_freeze_p50_s": nearest_rank(freezes, 0.50),
            "sim_freeze_p90_s": nearest_rank(freezes, 0.90),
        },
        "extra": {
            "tickets": counts,
            "ops_failed_share": (failed + counts["rejected"])
            / len(result.tickets),
        },
    }


def _serve_mix(seed):
    from repro import serve

    return serve.run_serve(serve_mix_config(seed))


def _serve_mix_summary(seed, result, trials, root):
    config = result.config
    counts, conserved = _ticket_ops(result.tickets)
    freezes = _freezes(result.tickets)
    requests = result.counts
    expected = (
        config.procs * config.clients_per_service * config.requests_per_client
    )
    failed = requests["dropped"] + counts["aborted"] + counts["killed"]
    attempted = requests["issued"] + len(result.tickets)
    return {
        "hash": result.determinism_hash,
        "checks": {
            "verified": result.verified,
            "requests_issued": requests["issued"] == expected,
            "tickets_conserved": conserved
            and len(result.tickets) == config.migrations,
        },
        "ops": {
            "attempted": attempted,
            "failed": failed,
            "refused": counts["rejected"],
        },
        "sim": {
            "sim_elapsed_s": result.makespan_s,
            "sim_wire_bytes": result.bytes_total,
            "sim_freeze_p50_s": nearest_rank(freezes, 0.50),
            "sim_freeze_p90_s": nearest_rank(freezes, 0.90),
        },
        "extra": {
            "sim_request_p50_s": result.latency_percentile(0.50),
            "sim_request_p99_s": result.latency_percentile(0.99),
            "sim_request_migr_p95_s": result.latency_percentile(
                0.95, during=True
            ),
            "requests_during_migration": len(result.latencies(during=True)),
            "requests": dict(requests),
            "tickets": counts,
            "ops_failed_share": (failed + counts["rejected"]) / attempted,
        },
    }


#: Workload name -> (run it once at a seed, summarise its output).
WORKLOADS = {
    "paper-matrix": (_paper_matrix, _paper_matrix_summary),
    "fleet-store": (_fleet_store, _fleet_store_summary),
    "serve-mix": (_serve_mix, _serve_mix_summary),
}


def execute(name, seed):
    """Run workload ``name`` once at ``seed`` (the timed part)."""
    return WORKLOADS[name][0](seed)


def summarise(name, seed, output, trials, root):
    """Checks, operation counts, determinism hash and sim metrics of one
    run's ``output``; ``trials`` are the probe's trial summaries."""
    return WORKLOADS[name][1](seed, output, trials, root)
