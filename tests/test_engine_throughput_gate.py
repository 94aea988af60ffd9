"""The engine-throughput CI gate, fed synthetic artifacts.

``benchmarks/bench_engine_throughput.check`` holds the bounds CI
enforces against the committed ``BENCH_engine_throughput.json``; these
cases pin each bound without running the benchmark.
"""

import copy
import json

import pytest

from benchmarks.bench_engine_throughput import ARTIFACT, check, gate

with open(ARTIFACT, encoding="utf-8") as _handle:
    COMMITTED = json.load(_handle)


def _fresh(mutate):
    fresh = copy.deepcopy(COMMITTED)
    mutate(fresh["rows"])
    return fresh


def _slower(rows):
    rows[1]["events_per_s"] *= 0.89


def _rehashed(rows):
    rows[0]["determinism_hash"] = "0" * 64


def _unverified(rows):
    rows[-1]["verified"] = False


def _new_shape(rows):
    rows.append(dict(rows[0], shape="uncommitted"))


def test_committed_artifact_passes_against_itself():
    assert check(COMMITTED, COMMITTED) == []


def test_nine_percent_slower_passes():
    fresh = _fresh(lambda rows: rows[1].update(
        events_per_s=rows[1]["events_per_s"] * 0.91))
    assert check(fresh, COMMITTED) == []


@pytest.mark.parametrize("mutate, message", [
    (_slower, "events/s regressed >10%"),
    (_rehashed, "simulated outcome diverged"),
    (_unverified, "not verified"),
    (_new_shape, "new shape not committed"),
])
def test_each_bound_fails(mutate, message):
    failures = check(_fresh(mutate), COMMITTED)
    assert len(failures) == 1
    assert message in failures[0]


def test_gate_prints_summary_and_exits_on_failure(tmp_path, capsys):
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(COMMITTED))
    gate(str(committed), fresh_path=ARTIFACT)
    assert "| reference |" in capsys.readouterr().out
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(_fresh(_rehashed)))
    with pytest.raises(SystemExit) as exit_info:
        gate(str(committed), fresh_path=str(fresh))
    assert "diverged" in str(exit_info.value.code)
