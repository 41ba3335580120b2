from functools import cache
from math import comb

import pytest

from thetaconf import (LeafId, PlanarLevelTree, ROOT_ONLY, SymbolParseError,
                       branching_level, enumerate_trees, healthify,
                       is_healthy, level_n_leaves, parse_symbol,
                       render_symbol, tree, tree_from_json, tree_to_json)


def test_root_only():
    assert ROOT_ONLY.height() == 0
    assert ROOT_ONLY.edge_count() == 0
    assert ROOT_ONLY.children == ()


def test_tree_builder():
    t = tree(tree(), tree(tree()))
    assert t.height() == 2
    assert t.edge_count() == 3
    assert t.subtree((1,)) == tree(tree())
    assert t.subtree(()) is t


def test_subtree_bad_path():
    with pytest.raises(ValueError):
        tree(tree()).subtree((2,))


@pytest.mark.parametrize("text,n", [
    ("[0]", 1),
    ("[0]", 3),
    ("[3]", 1),
    ("[2]([0],[1])", 2),
    ("[1]([1]([2]))", 3),
    ("[2]([2]([0],[1]),[0])", 3),
])
def test_parse_render_roundtrip(text, n):
    assert render_symbol(parse_symbol(text, n), n) == text


def test_parse_whitespace():
    assert parse_symbol(" [2] ( [0] , [1] ) ", 2) == parse_symbol(
        "[2]([0],[1])", 2)


def test_parse_rejects_bare_symbol_above_height_one():
    # [2] alone only denotes a tree when one level of budget remains
    with pytest.raises(SymbolParseError):
        parse_symbol("[2]", 2)


def test_parse_rejects_list_on_zero():
    with pytest.raises(SymbolParseError, match="takes no argument list"):
        parse_symbol("[0]([0])", 2)


def test_parse_rejects_arity_mismatch():
    with pytest.raises(SymbolParseError):
        parse_symbol("[2]([0])", 2)


def test_parse_rejects_trailing_input():
    with pytest.raises(SymbolParseError):
        parse_symbol("[0] x", 1)


def test_parse_error_carries_position():
    try:
        parse_symbol("[2]([0],?)", 2)
    except SymbolParseError as exc:
        assert exc.position == 8
    else:
        pytest.fail("expected a parse error")


def test_parse_rejects_list_without_budget():
    with pytest.raises(SymbolParseError):
        parse_symbol("[1]([1])", 1)


def test_leaf_id():
    leaf = LeafId((1, 0, 2))
    assert leaf.level == 3
    assert str(leaf) == "1.0.2"
    assert LeafId(()).level == 0


def test_level_n_leaves_planar_order():
    s = parse_symbol("[2]([1],[1])", 2)
    assert level_n_leaves(s, 2) == (LeafId((0, 0)), LeafId((1, 0)))
    u = parse_symbol("[1]([2])", 2)
    assert level_n_leaves(u, 2) == (LeafId((0, 0)), LeafId((0, 1)))


def test_level_n_leaves_skips_shallow_leaves():
    t = parse_symbol("[2]([0],[1])", 2)
    assert level_n_leaves(t, 2) == (LeafId((1, 0)),)


def test_is_healthy():
    assert is_healthy(ROOT_ONLY, 3)
    assert is_healthy(parse_symbol("[2]([1],[1])", 2), 2)
    assert not is_healthy(parse_symbol("[2]([0],[1])", 2), 2)
    # level-n leaves are fine, intermediate ones are not
    assert is_healthy(parse_symbol("[2]", 1), 1)


def test_branching_level():
    u = parse_symbol("[1]([2])", 2)
    assert branching_level(u, 2, LeafId((0, 0)), LeafId((0, 1))) == 1
    s = parse_symbol("[2]([1],[1])", 2)
    assert branching_level(s, 2, LeafId((0, 0)), LeafId((1, 0))) == 0


def test_branching_level_rejects_bad_input():
    s = parse_symbol("[2]([1],[1])", 2)
    a = LeafId((0, 0))
    with pytest.raises(ValueError):
        branching_level(s, 2, a, a)
    with pytest.raises(ValueError):
        branching_level(s, 2, a, LeafId((5, 0)))
    with pytest.raises(ValueError):
        branching_level(s, 2, a, LeafId((1,)))


def test_leaf_id_meet():
    a, b = LeafId((0, 1, 2)), LeafId((0, 1, 0))
    assert a.meet(b) == b.meet(a) == 2
    assert a.meet(LeafId((1, 1, 2))) == 0
    assert a.meet(a) == 3
    assert a.meet(LeafId((0,))) == 1        # an ancestor meets at itself


def test_level_n_leaves_below_and_above_height():
    t = parse_symbol("[2]([0],[1])", 2)
    assert level_n_leaves(t, 3) == ()
    assert level_n_leaves(ROOT_ONLY, 0) == (LeafId(()),)
    with pytest.raises(ValueError):
        level_n_leaves(t, 1)
    with pytest.raises(ValueError):
        is_healthy(t, 1)
    with pytest.raises(ValueError):
        healthify(t, 1)


def test_healthify_drops_dead_branches():
    t = parse_symbol("[4]([2],[3],[0],[1])", 2)
    assert render_symbol(healthify(t, 2), 2) == "[3]([2],[3],[1])"


def test_healthify_identity_on_healthy():
    s = parse_symbol("[2]([1],[1])", 2)
    assert healthify(s, 2) == s
    assert healthify(ROOT_ONLY, 2) == ROOT_ONLY


def test_healthify_can_collapse_to_root():
    t = parse_symbol("[2]([0],[0])", 2)
    assert healthify(t, 2) == ROOT_ONLY


def test_json_roundtrip():
    t = parse_symbol("[2]([2]([0],[1]),[0])", 3)
    assert tree_from_json(tree_to_json(t)) == t


@cache
def _forests(edges, height):
    # ordered lists of child slots, each slot costing 1 + subtree edges
    if edges == 0:
        return 1
    total = 0
    for sub in range(edges):
        total += _trees(sub, height) * _forests(edges - 1 - sub, height)
    return total


@cache
def _trees(edges, height):
    if edges == 0:
        return 1
    if height == 0:
        return 0
    return _forests(edges, height - 1)


def test_enumeration_counts_match_recurrence():
    for height in (1, 2, 3):
        trees = enumerate_trees(6, height)
        assert len(set(trees)) == len(trees)
        by_edges = {}
        for t in trees:
            assert t.height() <= height
            by_edges[t.edge_count()] = by_edges.get(t.edge_count(), 0) + 1
        for edges in range(7):
            assert by_edges.get(edges, 0) == _trees(edges, height)


def test_unbounded_height_count_is_catalan():
    for edges in range(8):
        assert _trees(edges, edges) == comb(2 * edges, edges) // (edges + 1)
    trees = enumerate_trees(7, 7)
    assert sum(1 for t in trees if t.edge_count() == 7) == 429


def test_enumerate_trees_deterministic():
    assert enumerate_trees(4, 2) == enumerate_trees(4, 2)


def test_enumerate_trees_height_bounds():
    assert enumerate_trees(3, 0) == (ROOT_ONLY,)
    with pytest.raises(ValueError, match="height must be >= 0, got -1"):
        enumerate_trees(3, -1)


def test_frozen_and_hashable():
    t = parse_symbol("[1]([1])", 2)
    assert t in {t}
    with pytest.raises(AttributeError):
        t.children = ()
