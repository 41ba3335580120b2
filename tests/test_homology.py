import random
import tracemalloc
from itertools import combinations
from math import comb, prod

import pytest

from chain_reference import (boundary_dense, chain_store_complex,
                             column_dicts, det_bareiss, minor_gcd, rank_mod,
                             reference_homology, simplicial_chain_complex)
from thetaconf import (CapExceeded, ChainComplex, PosetView,
                       boundary_matrices, homology, order_complex,
                       poset_homology, smith_normal_form)
from thetaconf.verify import DEFAULT_HOMOLOGY_CASES


def test_smith_basics():
    assert smith_normal_form([]) == ((), 0)
    assert smith_normal_form([[0]]) == ((), 0)
    assert smith_normal_form([[2, 0], [0, 0]]) == ((2,), 1)
    assert smith_normal_form([[1, 0], [0, 1]]) == ((1, 1), 2)
    assert smith_normal_form([[2, 4], [4, 2]]) == ((2, 6), 2)
    assert smith_normal_form([[0, 1], [1, 0]]) == ((1, 1), 2)


@pytest.mark.parametrize("matrix, message", [
    ([[1.5]], r"entry \(0, 0\) must be an integer, got 1.5"),
    ([[1, 0], [0, 2.0]], r"entry \(1, 1\) must be an integer, got 2.0"),
    ([[True]], r"entry \(0, 0\) must be an integer, got True"),
    ([[1, 2], [3]], "row 1 has 1 entries, row 0 has 2"),
    ([[1], [2, 3]], "row 1 has 2 entries, row 0 has 1"),
    ([3], "row 0 must be a sequence, got 3"),
    ([[1], 3], "row 1 must be a sequence, got 3"),
])
def test_smith_rejects_inexact_and_ragged_input(matrix, message):
    with pytest.raises(ValueError, match=message):
        smith_normal_form(matrix)


def test_smith_against_minor_gcds():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        matrix = [[rng.randrange(-6, 7) for _ in range(cols)]
                  for _ in range(rows)]
        factors, rank = smith_normal_form(matrix)
        assert len(factors) == rank
        for i in range(rank - 1):
            assert factors[i + 1] % factors[i] == 0
        previous = 1
        for k in range(1, min(rows, cols) + 1):
            d = minor_gcd(matrix, k)
            if k <= rank:
                assert d == previous * factors[k - 1]
                previous = d
            else:
                assert d == 0


def _chain_view(size):
    return PosetView(tuple(range(size)), lambda a, b: a < b)


def test_order_complex_counts():
    cx = order_complex(_chain_view(3), 100)
    assert cx.counts() == (3, 3, 1)
    view = PosetView.of_orderings(("a", "b"), 2)
    assert order_complex(view, 100).counts() == (4, 4)


def test_order_complex_cap():
    # 6 vertices, then the 15 edges of the chain: 21 through degree 1
    with pytest.raises(CapExceeded) as caught:
        order_complex(_chain_view(6), 10)
    exc = caught.value
    assert (exc.stage, exc.count, exc.cap) == ("chains through degree 1",
                                               21, 10)
    assert str(exc) == "chains through degree 1: 21 exceed the cap 10"
    with pytest.raises(CapExceeded, match="chains through degree 3"):
        order_complex(_chain_view(6), 6 + 15 + 20)
    # the vertices alone go past the cap, though no edge is ever built
    with pytest.raises(CapExceeded, match="degree 0: 3 exceed the cap 2"):
        order_complex(PosetView((0, 1, 2), lambda a, b: a == b), 2)


def test_order_complex_cap_refuses_before_building():
    # a 40-element chain has comb(40, d + 1) chains of degree d: 760,098
    # through degree 4, and 4,598,478 through degree 5
    view = _chain_view(40)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as caught:
            order_complex(view, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    exc = caught.value
    assert (exc.stage, exc.count, exc.cap) == \
        ("chains through degree 5", 4598478, 10 ** 6)
    assert exc.count == sum(comb(40, d + 1) for d in range(6))
    # no chain was built: a million chain tuples take about 90 MiB
    assert peak < 2 ** 20


def _random_view(seed):
    """Seeded poset on up to 12 elements, listed in a shuffled order:
    the transitive closure of random pairs i < j."""
    rng = random.Random(seed)
    size = rng.randrange(13)
    below = [set() for _ in range(size)]
    for j in range(size):
        for i in range(j):
            if rng.random() < 0.3:
                below[j] |= below[i] | {i}
    elements = list(range(size))
    rng.shuffle(elements)
    return PosetView(tuple(elements), lambda a, b: a == b or a in below[b])


def _columns(cc):
    return cc.dims, [[list(col.items()) for col in cols]
                     for cols in cc.boundaries]


@pytest.mark.parametrize("n,r", DEFAULT_HOMOLOGY_CASES)
def test_boundaries_match_the_chain_store_route(n, r):
    view = PosetView.of_orderings("abcd"[:r], n)
    assert _columns(boundary_matrices(order_complex(view))) == \
        _columns(chain_store_complex(view))


@pytest.mark.parametrize("seed", range(40))
def test_boundaries_match_the_chain_store_route_on_random_posets(seed):
    view = _random_view(seed)
    assert _columns(boundary_matrices(order_complex(view))) == \
        _columns(chain_store_complex(view))


def test_boundary_of_boundary_vanishes():
    for view in (_chain_view(4), PosetView.of_orderings(("a", "b", "c"), 2)):
        cc = boundary_matrices(order_complex(view, 10 ** 5))
        for k in range(2, len(cc.dims)):
            low = boundary_dense(cc, k - 1)
            high = boundary_dense(cc, k)
            for col in range(cc.dims[k]):
                for row in range(cc.dims[k - 2]):
                    entry = sum(low[row][mid] * high[mid][col]
                                for mid in range(cc.dims[k - 1]))
                    assert entry == 0


def test_contractible_chain():
    result = poset_homology(_chain_view(3), 100)
    assert result.betti == (1, 0, 0)
    assert all(not t for t in result.torsion)
    assert result.euler == 1


def test_empty_and_antichain():
    empty = poset_homology(PosetView((), lambda a, b: False), 10)
    assert empty.betti == (0,)
    assert empty.simplex_counts == (0,)
    assert empty.euler == 0
    anti = poset_homology(PosetView(tuple("abc"), lambda a, b: False), 10)
    assert anti.betti == (3,)
    assert anti.euler == 3


def test_circle():
    result = poset_homology(PosetView.of_orderings(("a", "b"), 2), 100)
    assert result.betti == (1, 1)
    assert result.torsion == ((), ())
    assert result.euler == 0
    assert result.simplex_counts == (4, 4)


def test_homology_invariant_under_element_order():
    base = PosetView.of_orderings(("a", "b", "c"), 2)
    shuffled = list(base.elements)
    random.Random(3).shuffle(shuffled)
    from thetaconf import leq
    result = poset_homology(PosetView(tuple(shuffled), leq), 10 ** 5)
    assert result.betti == (1, 3, 2)
    assert result.torsion == ((), (), ())


# Closed surface on six vertices: every edge lies in two triangles and
# every vertex link is a 5-cycle, so with euler characteristic
# 6 - 15 + 10 = 1 this is the projective plane, whose middle homology
# is pure 2-torsion.  The order complex of its face poset is the
# barycentric subdivision.
RP2_FACES = ((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6))


def _rp2_view():
    cells = sorted(
        {frozenset([v]) for f in RP2_FACES for v in f}
        | {frozenset(e) for f in RP2_FACES for e in combinations(f, 2)}
        | {frozenset(f) for f in RP2_FACES},
        key=lambda s: (len(s), sorted(s)))
    return PosetView(tuple(cells), lambda a, b: a < b)


def test_rp2_fixture_is_a_closed_surface():
    edge_count = {}
    for f in RP2_FACES:
        for e in combinations(f, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    assert len(edge_count) == 15
    assert set(edge_count.values()) == {2}
    for v in range(1, 7):
        link = {}
        for f in RP2_FACES:
            if v in f:
                a, b = (x for x in f if x != v)
                link.setdefault(a, set()).add(b)
                link.setdefault(b, set()).add(a)
        assert len(link) == 5
        assert all(len(nbrs) == 2 for nbrs in link.values())


def test_projective_plane_torsion():
    result = poset_homology(_rp2_view(), 10 ** 5)
    assert result.betti == (1, 0, 0)
    assert result.torsion == ((), (2,), ())
    assert result.euler == 1
    assert result.simplex_counts == (31, 90, 60)


def test_homology_result_json():
    result = poset_homology(_chain_view(2), 100)
    data = result.to_json()
    assert data["betti"] == [1, 0]
    assert data["torsion"] == [[], []]
    assert data["euler"] == 1
    assert data["simplex_counts"] == [2, 1]


def test_homology_accepts_chain_complex():
    cc = boundary_matrices(order_complex(_chain_view(3), 100))
    result = homology(cc)
    assert result.betti == (1, 0, 0)


# -- clearing: homology() against the per-degree reference -------------------

# Every nerve up to (2,4) and (3,3); (4,3) is left out, because the
# reference takes long on its unreduced boundaries.
NERVE_CASES = ([(1, r) for r in range(5)] + [(2, r) for r in range(5)]
               + [(3, r) for r in range(4)] + [(4, r) for r in range(3)])


@pytest.mark.parametrize("n,r", NERVE_CASES)
def test_clearing_matches_the_per_degree_reference(n, r):
    view = PosetView.of_orderings("abcd"[:r], n)
    cc = boundary_matrices(order_complex(view, 10 ** 6))
    result = homology(cc)
    assert (result.betti, result.torsion) == reference_homology(cc)


BIG_PRIME = 1_000_003


@pytest.mark.parametrize("n,r", NERVE_CASES)
def test_betti_numbers_match_ranks_mod_primes(n, r):
    view = PosetView.of_orderings("abcd"[:r], n)
    cc = boundary_matrices(order_complex(view, 10 ** 6))
    ranks = {p: [0] + [rank_mod(b, p) for b in cc.boundaries] + [0]
             for p in (BIG_PRIME, 2, 3)}
    big = ranks[BIG_PRIME]
    result = homology(cc)
    assert result.betti == tuple(d - big[k] - big[k + 1]
                                 for k, d in enumerate(cc.dims))
    # equal ranks mod 2, 3 and a large prime: no 2- or 3-torsion
    assert ranks[2] == ranks[3] == big
    assert not any(f % 2 == 0 or f % 3 == 0
                   for t in result.torsion for f in t)


# Square matrices with no unit entry, too large for `minor_gcd`: every
# step of their Smith form starts as a non-unit step.
@pytest.mark.parametrize("size, density, seed",
                         [(36, 0.15, 3), (48, 0.2, 5), (60, 0.1, 3)])
def test_smith_of_medium_non_unit_cores(size, density, seed):
    rng = random.Random(seed)
    matrix = [[rng.choice([2, -2, 4, 6, 3, -3, 9])
               if rng.random() < density else 0 for _ in range(size)]
              for _ in range(size)]
    factors, rank = smith_normal_form(matrix)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    columns = column_dicts(matrix)
    assert rank == rank_mod(columns, BIG_PRIME)
    # the rank mod p counts the invariant factors that p does not divide
    for p in (2, 3, 5, 7):
        assert sum(f % p == 0 for f in factors) == rank - rank_mod(columns, p)
    det = abs(det_bareiss(matrix))
    assert det == (prod(factors) if rank == size else 0)


def test_ranks_mod_primes_see_torsion():
    cc = simplicial_chain_complex(RP2_FACES)
    assert [rank_mod(b, BIG_PRIME) for b in cc.boundaries] == [5, 10]
    assert [rank_mod(b, 3) for b in cc.boundaries] == [5, 10]
    assert [rank_mod(b, 2) for b in cc.boundaries] == [5, 9]


def test_projective_plane_simplicial_complex():
    cc = simplicial_chain_complex(RP2_FACES)
    assert cc.dims == (6, 15, 10)
    result = homology(cc)
    assert result.betti == (1, 0, 0)
    assert result.torsion == ((), (2,), ())
    assert (result.betti, result.torsion) == reference_homology(cc)


def test_dense_pivots_are_not_cleared():
    # d2(t) = 2 s1 + 3 s2 has no unit entry, so its unit pivot appears
    # only after a non-unit step leaves the remainder 3 - 2 = 1;
    # d1(s1) = 3 v and d1(s2) = -2 v.  Dropping either column of d1
    # would leave the factor 2 or 3 instead of 1.
    cc = ChainComplex((1, 2, 1), (({0: 3}, {0: -2}), ({0: 2, 1: 3},)))
    result = homology(cc)
    assert result.betti == (0, 0, 0)
    assert result.torsion == ((), (), ())
    assert (result.betti, result.torsion) == reference_homology(cc)
