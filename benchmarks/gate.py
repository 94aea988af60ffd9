"""One gate rule for every committed BENCH artifact.

Each gated benchmark ``benchmarks/bench_<name>.py`` exposes
``measure()``, which returns the artifact dict committed as
``BENCH_<name>.json`` at the repo root.  A fresh artifact is judged
against the committed one row by row, rows matched on the key the
artifact's :class:`Rule` declares.  A row fails when

* its key is not in the committed artifact,
* it is not ``verified``,
* an exact field differs from the committed row,
* a lower-is-better metric exceeds :data:`LOWER_BOUND` times its
  committed value (skipped when the committed value is 0), or
* a higher-is-better metric falls below :data:`HIGHER_BOUND` times its
  committed value,

and the artifact fails when one of its claims no longer holds.

Run one benchmark, rewrite its artifact, print a markdown summary of
it against the committed copy and exit non-zero listing every
failure::

    PYTHONPATH=src python -m benchmarks.gate cluster_scale

A benchmark without a rule (``obs_overhead``) is measured and written
the same way, ungated.  Check that two ``--json`` payloads of
one seeded run agree once the volatile per-run ``"host"`` block (host
wall time) is dropped from each::

    python -m benchmarks.gate same /tmp/a.json /tmp/b.json
"""

import importlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A lower-is-better metric may grow by at most 10% ...
LOWER_BOUND = 1.10
#: ... and a higher-is-better one may shrink by at most 10%.
HIGHER_BOUND = 0.90


@dataclass(frozen=True)
class Rule:
    """How one artifact is gated and summarised.

    ``title`` is formatted with the fresh artifact's fields.  ``exact``
    fields must equal the committed row's; rows matching
    ``pinned`` must equal their committed row in every field but host
    time (``wall_s``).  ``show`` adds ungated summary columns.  Each
    claim is a ``(label, holds(fresh, committed))`` pair.
    """

    title: str
    key: tuple
    exact: tuple = ()
    pinned: Optional[Callable] = None
    lower: tuple = ()
    higher: tuple = ()
    show: tuple = ()
    claims: tuple = ()


RULES = {
    "cluster_scale": Rule(
        title=("Cluster-scale stress ({scenario[hosts]} hosts x "
               "{scenario[procs]} procs, seed {scenario[seed]})"),
        key=("inflight_cap",),
        show=("throughput_per_s", "freeze_p99_s", "sustained_inflight",
              "peak_queue_depth"),
        claims=(
            ("determinism hash equals the committed one",
             lambda fresh, committed:
                 fresh["determinism_hash"] == committed["determinism_hash"]),
            ("the default cap sustains sustained_target in flight",
             lambda fresh, committed: any(
                 row["inflight_cap"] == fresh["default_cap"]
                 and row["sustained_inflight"] >= fresh["sustained_target"]
                 for row in fresh["rows"])),
        ),
    ),
    "transfer_pipeline": Rule(
        title="Batched transfer pipeline (seed {scenario[seed]})",
        key=("workload", "strategy", "batch", "pipeline"),
        # Serial rows are the equivalence proof with the paper protocol.
        pinned=lambda row: row["batch"] == row["pipeline"] == 1,
        lower=("stall_s",),
        show=("imag_faults", "end_to_end_s"),
        claims=(
            ("serial rows match the pre-batching golden timings",
             lambda fresh, committed:
                 all(fresh["serial_matches_golden"].values())),
            ("stall_reduction >= stall_target on every workload",
             lambda fresh, committed: all(
                 reduction >= fresh["stall_target"]
                 for reduction in fresh["stall_reduction"].values())),
        ),
    ),
    "content_store": Rule(
        title=("Content-addressed page store ({scenario[siblings]} "
               "{scenario[workload]} siblings, seed {scenario[seed]})"),
        key=("arm",),
        lower=("bytes_total", "stall_s"),
        show=("local_hits", "dedup_pages"),
        claims=(
            ("the store-off arm replays the pre-store golden",
             lambda fresh, committed: fresh["off_matches_golden"]),
            ("bytes_reduction >= bytes_target",
             lambda fresh, committed:
                 fresh["bytes_reduction"] >= fresh["bytes_target"]),
            ("stall_reduction > 1",
             lambda fresh, committed: fresh["stall_reduction"] > 1.0),
        ),
    ),
    "serving": Rule(
        title="During-migration serving latency (seed {scenario[seed]})",
        key=("arm",),
        lower=("during_p99_s",),
        show=("during_p50_s", "completed_migrations"),
        claims=(
            ("pure-iou-batched improvement >= headline_target",
             lambda fresh, committed:
                 fresh["during_p99_improvement"]["pure-iou-batched"]
                 >= fresh["headline_target"]),
            ("adaptive-batched improvement > 1",
             lambda fresh, committed:
                 fresh["during_p99_improvement"]["adaptive-batched"] > 1.0),
        ),
    ),
    "engine_throughput": Rule(
        title="Engine throughput (seed {seed}, best of {repeats})",
        key=("shape",),
        exact=("determinism_hash",),
        higher=("events_per_s",),
        show=("events_dispatched",),
    ),
}


def _key(rule, row):
    return tuple(row[field] for field in rule.key)


def _label(key):
    return "/".join(str(part) for part in key)


def check(name, fresh, committed):
    """Every gate failure of ``fresh`` against ``committed``, as
    one-line messages (empty = pass)."""
    rule = RULES[name]
    old_rows = {_key(rule, row): row for row in committed["rows"]}
    failures = []
    for row in fresh["rows"]:
        key = _key(rule, row)
        label = _label(key)
        old = old_rows.get(key)
        if old is None:
            failures.append(f"{label}: row not in the committed artifact")
            continue
        if not row["verified"]:
            failures.append(f"{label}: not verified")
        exact = rule.exact
        if rule.pinned is not None and rule.pinned(row):
            exact = sorted((set(row) | set(old)) - {"wall_s"})
        drifted = [f for f in exact if row.get(f) != old.get(f)]
        if drifted:
            failures.append(
                f"{label}: {', '.join(drifted)} differ from the committed row")
        for field in rule.lower:
            if old[field] and row[field] > LOWER_BOUND * old[field]:
                failures.append(f"{label}: {field} regressed >10%: "
                                f"{old[field]} -> {row[field]}")
        for field in rule.higher:
            if row[field] < HIGHER_BOUND * old[field]:
                failures.append(f"{label}: {field} regressed >10%: "
                                f"{old[field]} -> {row[field]}")
    for claim, holds in rule.claims:
        if not holds(fresh, committed):
            failures.append(f"claim failed: {claim}")
    return failures


def summary(name, fresh, committed):
    """Markdown: the fresh rows, bounded metrics with their delta
    against the committed row, then the claims."""
    rule = RULES[name]
    old_rows = {_key(rule, row): row for row in committed["rows"]}
    bounded = rule.lower + rule.higher
    columns = rule.key + rule.show + bounded + ("verified",)
    lines = [f"### {rule.title.format(**fresh)}", "",
             "| " + " | ".join(columns) + " |",
             "|" + " --- |" * len(columns)]
    for row in fresh["rows"]:
        old = old_rows.get(_key(rule, row), row)
        cells = []
        for field in columns:
            value = row[field]
            cell = f"{value:,}" if type(value) in (int, float) else str(value)
            if field in bounded:
                cell += f" ({value - old[field]:+,.6g})"
            cells.append(cell)
        lines.append("| " + " | ".join(cells) + " |")
    if rule.claims:
        lines.append("")
        lines.extend(
            f"- {'holds' if holds(fresh, committed) else 'FAILS'}: {claim}"
            for claim, holds in rule.claims)
    return "\n".join(lines)


def gate(name, fresh, committed):
    """Print the summary; exit non-zero listing every failure."""
    print(summary(name, fresh, committed))
    failures = check(name, fresh, committed)
    if failures:
        sys.exit(f"{name} gate failed:\n" + "\n".join(failures))


def artifact_path(name):
    """``BENCH_<name>.json`` at the repo root."""
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


def load(path):
    """One JSON file, parsed."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write(name, artifact):
    """The one writer every BENCH artifact goes through."""
    with open(artifact_path(name), "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")


def same(path_a, path_b):
    """Exit non-zero unless the two JSON files agree outside their
    volatile ``"host"`` blocks."""
    payloads = [load(path) for path in (path_a, path_b)]
    for payload in payloads:
        payload.pop("host", None)
    first, second = payloads
    differing = sorted(key for key in set(first) | set(second)
                       if first.get(key) != second.get(key))
    if differing:
        sys.exit(f"{path_a} and {path_b} differ outside the host block: "
                 f"{', '.join(differing)}")


def run(name):
    """Measure ``bench_<name>``, rewrite its artifact and gate it."""
    module = importlib.import_module(f"benchmarks.bench_{name}")
    committed = load(artifact_path(name)) if name in RULES else None
    fresh = module.measure()
    write(name, fresh)
    if committed is None:
        print(f"wrote {artifact_path(name)} (no gate rule)")
    else:
        gate(name, fresh, committed)


def main(argv):
    if len(argv) == 3 and argv[0] == "same":
        same(argv[1], argv[2])
    elif len(argv) == 1:
        run(argv[0])
    else:
        sys.exit("usage: python -m benchmarks.gate NAME | "
                 "same A.json B.json")


if __name__ == "__main__":
    main(sys.argv[1:])
