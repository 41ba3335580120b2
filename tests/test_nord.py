from math import factorial

import pytest

from thetaconf import (CapExceeded, LabelMismatch, NOrdering, PosetView,
                       branching_level, degree, enumerate_nord, from_tree,
                       hasse, level_n_leaves, leq, nord, pair_level,
                       parse_symbol, parse_text, sigma_act, to_tree,
                       upper_covers)

LABELS = ("a", "b", "c", "d")


def test_ordering_validation():
    NOrdering(("a", "b"), (0,), 2)
    with pytest.raises(ValueError):
        NOrdering(("a", "a"), (0,), 2)
    with pytest.raises(ValueError):
        NOrdering(("a", "b"), (), 2)
    with pytest.raises(ValueError):
        NOrdering(("a", "b"), (2,), 2)
    with pytest.raises(ValueError):
        NOrdering(("a",), (), 0)


def test_text_roundtrip():
    s = NOrdering(("a", "b", "c"), (0, 1), 2)
    assert s.text() == "a 0 b 1 c"
    assert parse_text("a 0 b 1 c", 2) == s
    assert parse_text("a", 3) == NOrdering(("a",), (), 3)
    assert parse_text("", 2) == NOrdering((), (), 2)


def test_parse_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_text("a 0", 2)
    with pytest.raises(ValueError):
        parse_text("a x b", 2)
    with pytest.raises(ValueError):
        parse_text("a 3 b", 2)


def test_json_roundtrip():
    s = NOrdering(("a", "b"), (1,), 2)
    assert NOrdering.from_json(s.to_json()) == s


def test_exactly_four_two_orderings_of_a_pair():
    got = [o.text() for o in enumerate_nord(("a", "b"), 2)]
    assert got == ["a 0 b", "a 1 b", "b 0 a", "b 1 a"]


def test_enumeration_count_formula():
    for n in (1, 2, 3):
        for r in range(5):
            count = len(enumerate_nord(LABELS[:r], n))
            expected = factorial(r) * n ** (r - 1) if r else 1
            assert count == expected


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_nord("abcdefgh", 3, max_count=100)


@pytest.mark.parametrize("labels", [(), ("a",), ("a", "b"), "abcdefghijkl"])
def test_enumeration_rejects_height_below_one(labels):
    # raised before counting, so no cap and no empty result hides it
    for n in (0, -2):
        with pytest.raises(ValueError, match="height parameter must be >= 1"):
            enumerate_nord(labels, n, max_count=1)


def test_pair_level():
    s = NOrdering(("a", "b", "c"), (0, 1), 2)
    assert pair_level(s, "b", "c") == 1
    assert pair_level(s, "a", "b") == 0
    assert pair_level(s, "a", "c") == 0
    with pytest.raises(LabelMismatch):
        pair_level(s, "a", "z")
    with pytest.raises(ValueError):
        pair_level(s, "a", "a")


def test_to_tree():
    assert to_tree(parse_text("a 1 b", 2)) == parse_symbol("[1]([2])", 2)
    assert to_tree(parse_text("a 0 b", 2)) == parse_symbol("[2]([1],[1])", 2)
    assert to_tree(parse_text("a 0 b 1 c", 2)) == parse_symbol(
        "[2]([1],[2])", 2)
    assert to_tree(parse_text("", 2)).children == ()


def test_from_tree_inverts_to_tree():
    for n in (1, 2, 3):
        for r in range(5):
            for ordering in enumerate_nord(LABELS[:r], n):
                t = to_tree(ordering)
                assert from_tree(t, n, ordering.labels) == ordering


def test_from_tree_rejects_unhealthy():
    with pytest.raises(ValueError):
        from_tree(parse_symbol("[2]([0],[1])", 2), 2, ("a",))


def test_degree_is_edge_count():
    u = parse_text("a 1 b", 2)
    assert degree(u) == 3
    assert degree(parse_text("a 0 b", 2)) == 4
    assert degree(parse_text("", 2)) == 0
    # the word's closed form against the realizing tree, up to (3,4), (4,3)
    cases = [(n, r) for n in (1, 2, 3) for r in range(5)] + [(4, 3)]
    for n, r in cases:
        for ordering in enumerate_nord(LABELS[:r], n):
            assert degree(ordering) == to_tree(ordering).edge_count()


def test_pair_level_equals_tree_branching_level():
    for n in (1, 2, 3):
        for ordering in enumerate_nord(LABELS[:3], n):
            t = to_tree(ordering)
            leaves = dict(zip(ordering.labels, level_n_leaves(t, n)))
            for a in ordering.labels:
                for b in ordering.labels:
                    if a != b:
                        assert pair_level(ordering, a, b) == \
                            branching_level(t, n, leaves[a], leaves[b])


def test_leq_on_the_four_two_orderings():
    s, u, sp, v = (parse_text(w, 2) for w in
                   ("a 0 b", "a 1 b", "b 0 a", "b 1 a"))
    assert leq(u, s) and leq(u, sp)
    assert leq(v, s) and leq(v, sp)
    assert not leq(s, u) and not leq(s, sp) and not leq(sp, s)
    assert not leq(u, v) and not leq(v, u)
    assert all(leq(x, x) for x in (s, u, sp, v))


def test_leq_requires_same_labels_and_level():
    with pytest.raises(LabelMismatch):
        leq(parse_text("a 0 b", 2), parse_text("a 0 c", 2))
    with pytest.raises(LabelMismatch):
        leq(parse_text("a 0 b", 2), parse_text("a 0 b", 3))


def test_leq_from_first_principles():
    # drop in branching level everywhere; order preserved on ties
    def reference(low, high):
        for i, a in enumerate(low.labels):
            for b in low.labels[i + 1:]:
                lo, hi = pair_level(low, a, b), pair_level(high, a, b)
                if hi > lo:
                    return False
                if hi == lo:
                    before_low = low.labels.index(a) < low.labels.index(b)
                    before_high = high.labels.index(a) < high.labels.index(b)
                    if before_low != before_high:
                        return False
        return True

    for n in (1, 2):
        orderings = enumerate_nord(LABELS[:3], n)
        for x in orderings:
            for y in orderings:
                assert leq(x, y) == reference(x, y)


def test_sigma_act():
    swap = {"a": "b", "b": "a"}
    assert sigma_act(swap, parse_text("a 1 b", 2)) == parse_text("b 1 a", 2)
    with pytest.raises(LabelMismatch):
        sigma_act({"a": "b"}, parse_text("a 0 b", 2))


def test_sigma_act_rejects_map_missing_a_label():
    with pytest.raises(LabelMismatch):
        sigma_act({"a": "b", "z": "a"}, parse_text("a 0 b", 2))


def test_sigma_act_preserves_order():
    swap = {"a": "b", "b": "a", "c": "c"}
    orderings = enumerate_nord(("a", "b", "c"), 2)
    for x in orderings:
        for y in orderings:
            assert leq(x, y) == leq(sigma_act(swap, x), sigma_act(swap, y))


def test_leq_needs_only_hashable_labels():
    # subset inclusion is not a total order on these labels
    sets = (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    orderings = enumerate_nord(sets, 2)
    pairs = [(x, y) for x in orderings for y in orderings]
    assert len(pairs) == 576
    related = [pair for pair in pairs if leq(*pair)]
    view = PosetView.of_orderings(sets, 2)
    plain = PosetView.of_orderings(("a", "b", "c"), 2)
    assert len(view.elements) == 24
    assert len(related) - 24 == len(view.relation()) == 96
    assert len(view.covers()) == len(plain.covers()) == 60
    assert len(plain.relation()) == 96


def test_poset_view_axioms():
    for n in (1, 2):
        for r in range(4):
            view = PosetView.of_orderings(LABELS[:r], n)
            assert view.is_partial_order()


@pytest.mark.parametrize("leq_fn", [
    # 0 < 1 and 1 < 2, but not 0 < 2
    lambda a, b: a == b or (a, b) in {(0, 1), (1, 2)},
    # 0 < 1 < 0, and 2 apart
    lambda a, b: a == b or {a, b} == {0, 1},
    lambda a, b: True,
    # a chain whose leq_fn fails on the diagonal
    lambda a, b: a < b,
], ids=["non-transitive", "2-cycle", "all-pairs", "non-reflexive"])
def test_is_partial_order_rejects_non_orders(leq_fn):
    assert not PosetView((0, 1, 2), leq_fn).is_partial_order()


def test_is_partial_order_accepts_generic_orders():
    assert PosetView((0, 1, 2), lambda a, b: a <= b).is_partial_order()
    divides = PosetView(range(1, 13), lambda a, b: b % a == 0)
    assert divides.is_partial_order()
    assert divides.ups[0] == [1, 2, 4, 6, 10]


def test_covers_of_the_pair_poset():
    view = PosetView.of_orderings(("a", "b"), 2)
    got = {(a.text(), b.text()) for a, b in hasse(view)}
    assert got == {("a 1 b", "a 0 b"), ("a 1 b", "b 0 a"),
                   ("b 1 a", "a 0 b"), ("b 1 a", "b 0 a")}


def test_covers_skip_transitive_edges():
    # chain 0 < 1 < 2: the long edge 0 < 2 is not a cover
    view = PosetView((0, 1, 2), lambda a, b: a < b)
    assert view.covers() == [(0, 1), (1, 2)]
    assert view.relation() == [(0, 1), (0, 2), (1, 2)]


def test_one_orderings_form_antichain():
    view = PosetView.of_orderings(("a", "b", "c"), 1)
    assert len(view.elements) == 6
    assert view.covers() == []


def _counts(view):
    return (len(view.elements), len(view.covers()),
            sum(mask.bit_count() for mask in view.above))


def test_structural_view_equals_the_leq_view():
    cases = [(n, r) for n in (1, 2, 3, 4) for r in range(5)
             if (factorial(r) * n ** (r - 1) if r else 1) <= 700]
    assert (3, 4) in cases and (4, 4) not in cases
    for n, r in cases + [(1, 5)]:
        labels = "abcde"[:r]
        view = PosetView.of_orderings(labels, n)
        reference = PosetView(enumerate_nord(labels, n), leq)
        assert view.elements == reference.elements
        assert view.above == reference.above
        assert view.covers() == reference.covers()


def test_structural_build_makes_no_leq_call(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return leq(a, b)

    monkeypatch.setattr(nord, "leq", counting)
    PosetView.of_orderings(LABELS[:3], 3)
    assert calls == []


def test_pinned_poset_sizes():
    assert _counts(PosetView.of_orderings("abcde", 2)) == (1920, 13440, 99840)
    assert _counts(PosetView.of_orderings("abcd", 4)) == (1536, 8496, 205056)


def test_upper_covers_split_the_children_of_one_vertex():
    # the depth-1 vertex over a, b, c has three children: 2^3 - 2 splits
    got = {o.text() for o in upper_covers(parse_text("a 1 b 1 c", 2))}
    assert got == {"a 0 b 1 c", "b 0 a 1 c", "c 0 a 1 b",
                   "a 1 b 0 c", "a 1 c 0 b", "b 1 c 0 a"}
    # the root's children are never split, nor are deepest leaves
    assert upper_covers(parse_text("a 0 b", 2)) == ()
    assert upper_covers(parse_text("a 0 b 0 c", 1)) == ()
    assert upper_covers(parse_text("a", 3)) == ()
    assert upper_covers(parse_text("", 3)) == ()
