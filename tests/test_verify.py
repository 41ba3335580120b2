from math import factorial

import pytest

from thetaconf import (ChainComplex, DeltaMorphism, ThetaMorphism,
                       UnhealthyTarget, parse_symbol, verify)
from thetaconf.verify import (DEFAULT_HOMOLOGY_CASES, _dd_zero,
                              check_morphism_pair,
                              expected_configuration_betti,
                              suite_cells, suite_morphisms, suite_poset,
                              suite_theorem_a, suite_theorem_b)


def test_expected_betti_known_values():
    cases = [(2, 2, [1, 1]), (2, 3, [1, 3, 2]), (3, 2, [1, 0, 1]),
             (2, 4, [1, 6, 11, 6]), (3, 3, [1, 0, 3, 0, 2]), (1, 3, [6])]
    cases += [(n, r, [1]) for n in (1, 2, 3) for r in (0, 1)]
    for n, r, betti in cases:
        assert expected_configuration_betti(n, r) == betti, (n, r)


def test_expected_betti_degenerate_cases():
    # a line separates points into contractible orderings
    for r in range(1, 6):
        assert expected_configuration_betti(1, r) == [factorial(r)]
    assert expected_configuration_betti(4, 1) == [1]
    assert expected_configuration_betti(4, 0) == [1]


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


def test_suite_theorem_a_default_cases():
    report = suite_theorem_a()
    assert report["passed"]
    assert len(report["checks"]) == 4 * len(DEFAULT_HOMOLOGY_CASES) == 28
    # (3,3) is the first odd-n case with more than two labels
    assert [c["betti"] for c in report["checks"]
            if c["name"] == "betti(n=3,r=3)"] == [[1, 0, 3, 0, 2]]


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
    names = [c["name"] for c in report["checks"]]
    assert names[:4] == ["partial-order(n=1,r=0)", "degree-raising(n=1,r=0)",
                         "free-action(n=1,r=0)",
                         "equivariant-action(n=1,r=0)"]
    # the leq route comes after every other check, one entry per case
    assert [(c["name"], c["checked"]) for c in report["checks"][24:]] == [
        ("leq-agrees(n=1,r=0)", 1), ("leq-agrees(n=1,r=1)", 1),
        ("leq-agrees(n=1,r=2)", 4), ("leq-agrees(n=2,r=0)", 1),
        ("leq-agrees(n=2,r=1)", 1), ("leq-agrees(n=2,r=2)", 16)]


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
    assert {c["checked"] for c in report["checks"]
            if c["name"].startswith("partition")} == {20}


def test_check_morphism_pair():
    ok, count, message = check_morphism_pair(
        (2, "[1]([2])", "[2]([1],[1])", 10 ** 6))
    assert ok and message == ""
    # two collapses onto a single leaf plus two separations (the level
    # drop is strict, so both leaf orders are allowed)
    assert count == 4


def test_check_morphism_pair_rejects_an_inactive_morphism(monkeypatch):
    # (0, 0) reaches neither target child: its shadow is empty
    inactive = ThetaMorphism(2, DeltaMorphism(1, 2, (0, 0)))
    monkeypatch.setattr(verify, "enumerate_hom_bruteforce",
                        lambda *args, **kwargs: (inactive,))
    ok, count, message = check_morphism_pair(
        (2, "[1]([2])", "[2]([1],[1])", 10 ** 6))
    assert (ok, count, message) == (False, 0,
                                    "generated morphism is not active")


@pytest.mark.parametrize("source", ["[0]", "[1]([0])", "[1]([1])"])
def test_check_morphism_pair_rejects_an_unhealthy_target(source):
    # raised up front, whether or not any set map reaches the filter
    with pytest.raises(UnhealthyTarget):
        check_morphism_pair((2, source, "[2]([0],[1])", 10 ** 6))


def _rigged_pair(monkeypatch, pick):
    """check_morphism_pair on a pair with four active morphisms, fed
    `pick` of them in place of the generated tuple."""
    job = (2, "[1]([2])", "[2]([1],[1])", 10 ** 6)
    generated = verify.enumerate_hom_bruteforce(
        parse_symbol(job[1], 2), parse_symbol(job[2], 2), 2,
        active_only=True)
    assert len(generated) == 4
    monkeypatch.setattr(verify, "enumerate_hom_bruteforce",
                        lambda *args, **kwargs: pick(generated))
    return check_morphism_pair(job)


def test_check_morphism_pair_rejects_a_repeated_shadow(monkeypatch):
    assert _rigged_pair(monkeypatch, lambda fs: fs + fs[:1]) == \
        (False, 5, "assembly not injective on active morphisms")


def test_check_morphism_pair_rejects_a_missing_shadow(monkeypatch):
    assert _rigged_pair(monkeypatch, lambda fs: fs[1:]) == \
        (False, 3, "shadow image differs from branching maps")


def test_check_morphism_pair_rejects_a_wrong_lift(monkeypatch):
    monkeypatch.setattr(verify, "_lift", lambda *args: None)
    assert _rigged_pair(monkeypatch, lambda fs: fs) == \
        (False, 4, "lift is not inverse to assembly")


def test_morphism_sweep_rejects_bad_heights():
    for levels, message in (((1, 0), "must be >= 1, got 0"),
                            ((True,), "n must be an integer, got True")):
        with pytest.raises(ValueError, match=message):
            suite_morphisms(levels=levels, max_edges=0)


def test_morphism_sweep_of_one_job():
    # one tree pair (root to root) makes one job
    single = suite_morphisms(levels=(1,), max_edges=0)
    assert single["passed"]
    assert single["checks"][0]["checked"] == 1


@pytest.mark.parametrize("run", [
    lambda: suite_theorem_a(cases=((1, 4),), label_pool=("a", "b", "c")),
    lambda: suite_poset(sizes=(3, 4), levels=(1,), label_pool=("a", "b", "c")),
])
def test_suites_reject_more_labels_than_the_pool_holds(run, monkeypatch):
    # raised before any work: no poset is built
    monkeypatch.setattr(verify.PosetView, "of_orderings", None)
    with pytest.raises(ValueError,
                       match=r"^r must be <= 3, the pool size, got 4$"):
        run()
