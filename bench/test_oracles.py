"""Hand-known values for the benchmark's oracles.

Run with: python3 -m pytest bench/test_oracles.py
"""

from oracles import (configuration_betti, healthy_tree_counts,
                     level1_active_homs, ordering_count, ordering_degree,
                     tree_counts)


def test_configuration_betti():
    assert configuration_betti(2, 3) == (1, 3, 2)     # Conf_3(R^2)
    assert configuration_betti(2, 2) == (1, 1)        # a circle
    assert configuration_betti(3, 2) == (1, 0, 1)     # a 2-sphere
    assert configuration_betti(3, 3) == (1, 0, 3, 0, 2)
    assert configuration_betti(2, 4) == (1, 6, 11, 6)
    assert configuration_betti(1, 3) == (6,)          # 3! contractible pieces
    assert configuration_betti(2, 1) == (1,)
    assert configuration_betti(2, 0) == (1,)


def test_ordering_count_and_degree():
    assert [ordering_count(2, r) for r in range(5)] == [1, 1, 4, 24, 192]
    assert ordering_count(3, 4) == 648
    assert ordering_count(1, 3) == 6
    assert ordering_degree((), 3) == 3                # one leaf: a spine
    assert ordering_degree((0,), 2) == 4              # [2]([1],[1])
    assert ordering_degree((1,), 2) == 3              # [1]([2])


def test_tree_counts():
    assert tree_counts(0, 3) == [1, 0, 0, 0]          # the root alone
    assert tree_counts(1, 5) == [1, 1, 1, 1, 1, 1]    # corollas
    assert tree_counts(2, 5) == [1, 1, 2, 4, 8, 16]   # (1-x)/(1-2x)
    assert tree_counts(6, 6) == [1, 1, 2, 5, 14, 42, 132]   # Catalan


def test_healthy_tree_counts():
    assert healthy_tree_counts(1, 5) == [1, 1, 1, 1, 1, 1]
    assert healthy_tree_counts(2, 5) == [1, 0, 1, 1, 2, 3]   # x^2/(1-x-x^2)
    assert healthy_tree_counts(3, 5) == [1, 0, 0, 1, 1, 2]


def test_level1_active_homs():
    assert level1_active_homs(0) == 1
    assert level1_active_homs(1) == 3
    assert level1_active_homs(5) == 462
