import os
from math import factorial

import pytest

from thetaconf import ChainComplex
from thetaconf.verify import (_dd_zero, check_morphism_pair,
                              expected_configuration_betti,
                              suite_cells, suite_morphisms, suite_poset,
                              suite_theorem_a, suite_theorem_b, worker_count)


def test_expected_betti_known_values():
    assert expected_configuration_betti(2, 2) == [1, 1]
    assert expected_configuration_betti(2, 3) == [1, 3, 2]
    assert expected_configuration_betti(3, 2) == [1, 0, 1]
    assert expected_configuration_betti(2, 4) == [1, 6, 11, 6]
    assert expected_configuration_betti(3, 3) == [1, 0, 3, 0, 2]


def test_expected_betti_degenerate_cases():
    # a line separates points into contractible orderings
    for r in range(1, 6):
        assert expected_configuration_betti(1, r) == [factorial(r)]
    assert expected_configuration_betti(4, 1) == [1]
    assert expected_configuration_betti(4, 0) == [1]


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("THETA_CONF_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("THETA_CONF_THREADS", "3")
    assert worker_count() == 3
    # capped at the CPU count; nothing is forked here
    monkeypatch.setenv("THETA_CONF_THREADS", "64")
    assert worker_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1
    monkeypatch.setenv("THETA_CONF_THREADS", "zero")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("THETA_CONF_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()


def _assert_report_shape(report, suite):
    assert report["suite"] == suite
    assert isinstance(report["passed"], bool)
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) >= {"name", "passed", "checked"}
    assert report["passed"] == all(c["passed"] for c in report["checks"])


def test_suite_theorem_a_small():
    report = suite_theorem_a(cases=((1, 2), (2, 2)))
    _assert_report_shape(report, "theorem-a")
    assert report["passed"]
    dd = {c["name"]: c["checked"] for c in report["checks"]
          if c["name"].startswith("dd-zero")}
    # (2,2) is a circle of four vertices and four edges: no 2-simplices
    assert dd == {"dd-zero(n=1,r=2)": 0, "dd-zero(n=2,r=2)": 0}
    report = suite_theorem_a(cases=((2, 3),))
    assert [(c["passed"], c["checked"]) for c in report["checks"]
            if c["name"] == "dd-zero(n=2,r=3)"] == [(True, 72)]


def test_dd_zero_detects_a_nonzero_square():
    bad = ChainComplex((1, 1, 1), (({0: 1},), ({0: 1},)))
    assert not _dd_zero(bad)
    good = ChainComplex((1, 2, 1), (({0: 1}, {0: 1}), ({0: 1, 1: -1},)))
    assert _dd_zero(good)


def test_suite_morphisms_small():
    report = suite_morphisms(levels=(1,), max_edges=3)
    _assert_report_shape(report, "morphisms")
    assert report["passed"]
    assert report["checks"][0]["morphisms"] > 0


def test_suite_poset_small():
    report = suite_poset(sizes=(0, 1, 2), levels=(1, 2))
    _assert_report_shape(report, "poset")
    assert report["passed"]


def test_suite_theorem_b_small():
    report = suite_theorem_b(max_retract_size=2, unit_max_edges=3,
                             initiality_max_size=2, fullness_max_size=2,
                             levels=(1, 2))
    _assert_report_shape(report, "theorem-b")
    assert report["passed"]


def test_suite_cells_small():
    report = suite_cells(max_size=2, levels=(1, 2), samples=20, seed=4)
    _assert_report_shape(report, "cells")
    assert report["passed"]


def test_check_morphism_pair():
    ok, count, message = check_morphism_pair(
        (2, "[1]([2])", "[2]([1],[1])", 10 ** 6))
    assert ok and message == ""
    # two collapses onto a single leaf plus two separations (the level
    # drop is strict, so both leaf orders are allowed)
    assert count == 4


def test_morphism_sweep_respects_thread_env(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("THETA_CONF_THREADS", "2")
    report = suite_morphisms(levels=(1,), max_edges=2)
    assert report["passed"]
    assert report["params"]["workers"] == 2


def test_morphism_sweep_caps_workers(monkeypatch):
    monkeypatch.setenv("THETA_CONF_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = suite_morphisms(levels=(1,), max_edges=2)
    assert serial["params"]["workers"] == 1
    # one tree pair (root to root) makes one job: no pool for it
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    single = suite_morphisms(levels=(1,), max_edges=0)
    assert single["params"]["workers"] == 1
    assert single["checks"][0]["checked"] == 1
    assert serial["passed"] and single["passed"]
