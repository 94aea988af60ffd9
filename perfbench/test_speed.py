"""Tests of the host-speed reference.

    python3 -m pytest perfbench/test_speed.py
"""

import time

import pytest

from perfbench import speed


def test_reference_runs_at_every_fourth_pass_start():
    probe = speed.SpeedProbe()
    for _ in range(2 * speed.EVERY):
        probe("start", {})
        probe("stop", {})
    assert len(probe.samples) == 2
    assert probe.spent_s == pytest.approx(sum(probe.samples))


def test_work_time_leaves_out_the_reference():
    probe = speed.SpeedProbe()
    for _ in range(4 * speed.EVERY):
        probe("start", {})
    gap = time.process_time() - probe.work_time()
    assert gap == pytest.approx(probe.spent_s, abs=1e-3)


def test_factor_is_mean_sample_over_reference():
    probe = speed.SpeedProbe()
    assert probe.factor() == 1.0
    probe.samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert probe.factor() == pytest.approx(2.0)
