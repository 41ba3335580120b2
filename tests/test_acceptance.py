"""Acceptance checks.  One test per criterion; each pins exact expected
values and a wall-clock budget."""

import time
from itertools import permutations
from math import factorial

from thetaconf import (PosetView, ROOT_ONLY, boundary_matrices, enumerate_nord,
                       order_complex, poset_homology, to_tree, tree)
from thetaconf.verify import (suite_cells, suite_morphisms, suite_poset,
                              suite_theorem_b)

LABELS = ("a", "b", "c", "d")

HOMOLOGY_TABLE = {
    (1, 2): (2,),
    (1, 3): (6,),
    (2, 2): (1, 1),
    (2, 3): (1, 3, 2),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 6, 11, 6),
    (3, 3): (1, 0, 3, 0, 2),
}


def _healthy_trees(n, r):
    """Brute-force generator of healthy height-n trees with exactly r
    deepest-level leaves, built independently of the ordering encoding."""
    if r == 0:
        return [ROOT_ONLY]
    if n == 1:
        return [tree(*(tree() for _ in range(r)))]
    out = []

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(1, total - slots + 2):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    def products(pools):
        if not pools:
            yield ()
            return
        for head in pools[0]:
            for rest in products(pools[1:]):
                yield (head,) + rest

    for slots in range(1, r + 1):
        for parts in compositions(r, slots):
            pools = [_healthy_trees(n - 1, part) for part in parts]
            for children in products(pools):
                out.append(tree(*children))
    return out


def test_c1_counting():
    start = time.monotonic()
    pair = enumerate_nord(("a", "b"), 2)
    assert len(pair) == 4
    view = PosetView.of_orderings(("a", "b"), 2)
    assert len(view.covers()) == 4
    for r in range(5):
        assert len(enumerate_nord(LABELS[:r], 1)) == factorial(r)
    for n in (1, 2, 3):
        for r in range(5):
            labels = LABELS[:r]
            shapes = _healthy_trees(n, r)
            labelled = sum(1 for _ in shapes for _ in permutations(labels)) \
                if r else len(shapes)
            orderings = enumerate_nord(labels, n)
            assert len(orderings) == labelled
            assert {to_tree(o) for o in orderings} == set(shapes)
    assert time.monotonic() - start < 1.0


def test_c2_circle():
    start = time.monotonic()
    result = poset_homology(PosetView.of_orderings(("a", "b"), 2), 10 ** 6)
    assert result.betti == (1, 1)
    assert result.torsion == ((), ())
    assert time.monotonic() - start < 1.0


def test_c3_homology_table():
    start = time.monotonic()
    for (n, r), expected in HOMOLOGY_TABLE.items():
        view = PosetView.of_orderings(LABELS[:r], n)
        result = poset_homology(view, 10 ** 6)
        assert result.betti == expected, (n, r, result.betti)
        assert all(not t for t in result.torsion), (n, r, result.torsion)
        assert result.euler == sum((-1) ** k * b
                                   for k, b in enumerate(result.betti))
    assert time.monotonic() - start < 60.0


def test_c4_active_bijection():
    start = time.monotonic()
    report = suite_morphisms(levels=(1, 2, 3), max_edges=6)
    assert report["passed"], report
    assert [(c["checked"], c["morphisms"]) for c in report["checks"]] == [
        (49, 1716), (832, 6989), (1305, 1985)]
    assert time.monotonic() - start < 120.0


def test_c5_embedding_retraction():
    start = time.monotonic()
    report = suite_theorem_b(max_retract_size=4, unit_max_edges=8,
                             initiality_max_size=3, fullness_max_size=3)
    assert report["passed"], report
    assert time.monotonic() - start < 60.0


def test_c6_poset_laws():
    start = time.monotonic()
    report = suite_poset(sizes=(0, 1, 2, 3, 4), levels=(1, 2, 3))
    assert report["passed"], report
    assert time.monotonic() - start < 30.0


def test_c7_cell_classifier():
    start = time.monotonic()
    report = suite_cells(max_size=3, levels=(1, 2, 3), samples=1000, seed=0)
    assert report["passed"], report
    assert time.monotonic() - start < 60.0


def test_c8_numerical_hygiene():
    for (n, r) in HOMOLOGY_TABLE:
        view = PosetView.of_orderings(LABELS[:r], n)
        cx = order_complex(view, 10 ** 6)
        cc = boundary_matrices(cx)
        for k in range(2, len(cc.dims)):
            lower = cc.boundaries[k - 2]
            for column in cc.boundaries[k - 1]:
                acc = {}
                for mid, coeff in column.items():
                    for row, coeff2 in lower[mid].items():
                        acc[row] = acc.get(row, 0) + coeff * coeff2
                assert all(v == 0 for v in acc.values()), (n, r, k)
        result = poset_homology(view, 10 ** 6)
        counts_euler = sum((-1) ** k * c
                           for k, c in enumerate(result.simplex_counts))
        betti_euler = sum((-1) ** k * b
                          for k, b in enumerate(result.betti))
        assert result.euler == counts_euler == betti_euler, (n, r)
