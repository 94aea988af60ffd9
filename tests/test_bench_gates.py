"""The BENCH gate rule (``benchmarks/gate.py``), fed the committed
artifacts and one-field perturbations of them.

Each case pins one bound or claim without running the benchmark; the
last cases replay committed engine-throughput shapes to pin their
determinism hashes.
"""

import copy
import json

import pytest

from benchmarks.gate import RULES, artifact_path, check, gate, load, same
from repro.cluster import StressConfig, run_stress
from repro.serve import run_serve

COMMITTED = {name: load(artifact_path(name)) for name in RULES}


def _perturbed(name, mutate):
    fresh = copy.deepcopy(COMMITTED[name])
    mutate(fresh)
    return fresh


def _row(index, field, value):
    """Mutation: set (or rescale, given a callable) one row field."""
    def mutate(artifact):
        row = artifact["rows"][index]
        row[field] = value(row[field]) if callable(value) else value
    return mutate


def _top(field, value, key=None):
    """Mutation: set one artifact-level field (or one key inside it)."""
    def mutate(artifact):
        if key is None:
            artifact[field] = value
        else:
            artifact[field][key] = value
    return mutate


def _scale(factor):
    return lambda value: value * factor


@pytest.mark.parametrize("name", sorted(RULES))
def test_committed_artifact_passes_against_itself(name):
    assert check(name, COMMITTED[name], COMMITTED[name]) == []


@pytest.mark.parametrize("name", sorted(RULES))
def test_new_row_fails(name):
    def mutate(artifact):
        row = dict(artifact["rows"][0])
        row[RULES[name].key[0]] = "uncommitted"
        artifact["rows"].append(row)
    failures = check(name, _perturbed(name, mutate), COMMITTED[name])
    assert len(failures) == 1 and failures[0].startswith("uncommitted")
    assert "not in the committed artifact" in failures[0]


@pytest.mark.parametrize("name", sorted(RULES))
def test_unverified_row_fails(name):
    fresh = _perturbed(name, _row(-1, "verified", False))
    failures = check(name, fresh, COMMITTED[name])
    assert len(failures) == 1 and "not verified" in failures[0]


BOUNDS = [
    ("cluster_scale", _top("determinism_hash", "0" * 64),
     "determinism hash"),
    ("cluster_scale", _row(2, "sustained_inflight", 3),
     "sustains sustained_target"),
    ("transfer_pipeline", _row(0, "exec_s", _scale(1.0001)),
     "exec_s differ"),
    ("transfer_pipeline", _row(5, "imag_faults", 708),
     "imag_faults differ"),
    ("transfer_pipeline", _row(1, "stall_s", _scale(1.11)),
     "stall_s regressed"),
    ("transfer_pipeline", _top("serial_matches_golden", False, "pm-mid"),
     "golden timings"),
    ("transfer_pipeline", _top("stall_reduction", 1.9, "lisp-del"),
     "stall_reduction >= stall_target"),
    ("content_store", _row(1, "bytes_total", _scale(1.11)),
     "bytes_total regressed"),
    ("content_store", _row(1, "stall_s", _scale(1.11)),
     "stall_s regressed"),
    ("content_store", _top("off_matches_golden", False),
     "pre-store golden"),
    ("content_store", _top("bytes_reduction", 1.49),
     "bytes_reduction >= bytes_target"),
    ("content_store", _top("stall_reduction", 1.0),
     "stall_reduction > 1"),
    ("serving", _row(1, "during_p99_s", _scale(1.11)),
     "during_p99_s regressed"),
    ("serving", _top("during_p99_improvement", 1.49, "pure-iou-batched"),
     "improvement >= headline_target"),
    ("serving", _top("during_p99_improvement", 1.0, "adaptive-batched"),
     "adaptive-batched improvement > 1"),
    ("engine_throughput", _row(1, "events_per_s", _scale(0.89)),
     "events_per_s regressed"),
    ("engine_throughput", _row(0, "determinism_hash", "0" * 64),
     "determinism_hash differ"),
]


@pytest.mark.parametrize(
    "name, mutate, message", BOUNDS,
    ids=[f"{name}: {message}" for name, _, message in BOUNDS],
)
def test_each_bound_fails(name, mutate, message):
    failures = check(name, _perturbed(name, mutate), COMMITTED[name])
    assert len(failures) == 1, failures
    assert message in failures[0]


@pytest.mark.parametrize("name, mutate", [
    pytest.param("engine_throughput", _row(1, "events_per_s", _scale(0.91)),
                 id="engine_throughput: events_per_s -9%"),
    pytest.param("transfer_pipeline", _row(1, "stall_s", _scale(1.09)),
                 id="transfer_pipeline: stall_s +9%"),
    pytest.param("content_store", _row(1, "bytes_total", _scale(1.09)),
                 id="content_store: bytes_total +9%"),
    pytest.param("serving", _row(1, "during_p99_s", _scale(1.09)),
                 id="serving: during_p99_s +9%"),
    # Host time is not part of a serial row's equivalence proof.
    pytest.param("transfer_pipeline", _row(0, "wall_s", _scale(3.0)),
                 id="transfer_pipeline: serial wall_s"),
    # A metric committed as zero has no ratio to bound.
    pytest.param("content_store", _row(3, "stall_s", 1.0),
                 id="content_store: stall_s committed as 0"),
    # Ungated metrics may move freely.
    pytest.param("cluster_scale", _row(0, "freeze_p99_s", _scale(2.0)),
                 id="cluster_scale: ungated freeze_p99_s"),
])
def test_within_bound_passes(name, mutate):
    assert check(name, _perturbed(name, mutate), COMMITTED[name]) == []


@pytest.mark.parametrize("name", sorted(RULES))
def test_gate_prints_summary_and_exits_on_failure(name, capsys):
    committed = COMMITTED[name]
    gate(name, committed, committed)
    out = capsys.readouterr().out
    assert out.startswith("### ")
    # Header, separator, then one line per row.
    assert out.count("\n| ") == len(committed["rows"]) + 2
    fresh = _perturbed(name, _row(0, "verified", False))
    with pytest.raises(SystemExit) as exit_info:
        gate(name, fresh, committed)
    assert exit_info.value.code.startswith(f"{name} gate failed:")
    assert "not verified" in exit_info.value.code


def test_same_ignores_only_the_host_block(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps({"hash": "x", "host": {"wall_s": 1.0}}))
    second.write_text(json.dumps({"hash": "x", "host": {"wall_s": 2.0}}))
    same(str(first), str(second))
    second.write_text(json.dumps({"hash": "y"}))
    with pytest.raises(SystemExit) as exit_info:
        same(str(first), str(second))
    assert "hash" in str(exit_info.value.code)


ENGINE_ROWS = {
    row["shape"]: row for row in COMMITTED["engine_throughput"]["rows"]
}


@pytest.mark.parametrize("shape", ["small", "batched", "serving"])
def test_committed_engine_hash_replays(shape):
    """Default config, non-default batch/pipeline and the serving block
    each replay their committed determinism hash."""
    row = ENGINE_ROWS[shape]
    config = StressConfig(seed=COMMITTED["engine_throughput"]["seed"],
                          **row["config"])
    run = run_serve if config.services else run_stress
    assert run(config).determinism_hash == row["determinism_hash"]
