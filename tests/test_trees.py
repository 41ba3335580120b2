import os
import pickle
import subprocess
import sys
from functools import cache
from itertools import accumulate
from math import comb
from pathlib import Path

import pytest

from thetaconf import (DEFAULT_MAX_COUNT, ROOT_ONLY, CapExceeded, LeafId,
                       PlanarLevelTree, SymbolParseError, branching_level,
                       enumerate_trees,
                       healthify, is_healthy, level_n_leaves, parse_symbol,
                       render_symbol)
from thetaconf.trees import _parse, _word_tree


def test_root_only():
    assert ROOT_ONLY.height() == 0
    assert ROOT_ONLY.edge_count() == 0
    assert ROOT_ONLY.children == ()


def test_tree_builder():
    t = PlanarLevelTree((ROOT_ONLY, PlanarLevelTree((ROOT_ONLY,))))
    assert t.height() == 2
    assert t.edge_count() == 3
    assert t.subtree((1,)) == PlanarLevelTree((ROOT_ONLY,))
    assert t.subtree(()) is t


def test_children_are_kept_as_a_tuple():
    t = PlanarLevelTree([ROOT_ONLY])
    assert t.children == (ROOT_ONLY,)
    assert t == PlanarLevelTree((ROOT_ONLY,))
    assert hash(t) == hash(PlanarLevelTree((ROOT_ONLY,)))


def test_subtree_bad_path():
    with pytest.raises(ValueError):
        PlanarLevelTree((ROOT_ONLY,)).subtree((2,))


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


def test_branching_level_checks_the_height_first():
    t = parse_symbol("[2]([1]([1]),[1]([1]))", 3)
    a, b = LeafId((0,)), LeafId((1,))
    with pytest.raises(ValueError, match="^tree of height 3 does not fit "
                                         "height 1$"):
        branching_level(t, 1, a, b)
    two = parse_symbol("[2]", 1)
    with pytest.raises(ValueError, match="^height parameter n must be an "
                                         "integer"):
        branching_level(two, True, a, b)


def test_leaf_id_meet():
    a, b = LeafId((0, 1, 2)), LeafId((0, 1, 0))
    assert a.meet(b) == b.meet(a) == 2
    assert a.meet(LeafId((1, 1, 2))) == 0
    assert a.meet(a) == 3
    assert a.meet(LeafId((0,))) == 1        # an ancestor meets at itself


def test_level_n_leaves_below_and_above_height():
    t = parse_symbol("[2]([0],[1])", 2)
    assert level_n_leaves(t, 3) == ()
    with pytest.raises(ValueError, match="height parameter must be >= 1"):
        level_n_leaves(ROOT_ONLY, 0)
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


def test_enumerate_trees_counts_before_it_builds():
    # 2^e trees of height <= 2 have at most e edges
    for max_edges, height, total in ((21, 2, 2**21), (16, 3, 2178310)):
        assert sum(_trees(e, height) for e in range(max_edges + 1)) == total
        with pytest.raises(CapExceeded) as caught:
            enumerate_trees(max_edges, height)
        exc = caught.value
        assert (exc.stage, exc.count, exc.cap) == ("trees", total, 10**6)


def test_frozen_and_hashable():
    t = parse_symbol("[1]([1])", 2)
    assert t in {t}
    with pytest.raises(AttributeError):
        t.children = ()


def test_parse_shares_one_tree_per_symbol():
    assert parse_symbol("[2]([0],[1])", 2) is parse_symbol("[2]([0],[1])", 2)
    assert _parse.cache_info().maxsize == 4096


def test_parse_errors_are_not_cached():
    for _ in range(2):
        with pytest.raises(SymbolParseError, match="expected a natural"):
            parse_symbol("[x]", 1)


# every tree read at its own height, so each one's tables are exercised
OWN_HEIGHT = [t for n in (1, 2, 3) for t in enumerate_trees(5, n)]


def test_word_is_the_meets_of_adjacent_leaves():
    for t in OWN_HEIGHT:
        leaves = level_n_leaves(t, max(t.height(), 1))
        assert t._word == tuple(a.meet(b) for a, b in zip(leaves, leaves[1:]))


def test_word_tree_inverts_the_word_of_healthy_trees():
    for n in (1, 2, 3):
        for t in enumerate_trees(6, n):
            if t.height() == n and is_healthy(t, n):
                assert _word_tree(t._word, n) == t


def test_offsets_are_the_children_leaf_counts_summed():
    for t in OWN_HEIGHT:
        paths = [leaf.path for leaf in level_n_leaves(t, max(t.height(), 1))]
        counts = [sum(path[0] == i for path in paths)
                  for i in range(len(t.children))]
        assert t._offsets == tuple(accumulate(counts, initial=0))


def fresh_copy(t):
    """t rebuilt vertex by vertex, sharing no object with it."""
    return PlanarLevelTree(tuple(fresh_copy(c) for c in t.children))


def test_kept_hash_is_structural():
    for t in OWN_HEIGHT:
        t._word, t._offsets, hash(t)        # fill the caches first
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and hash(copy) == hash(t)
        assert hash(fresh_copy(t)) == hash(t)


@pytest.mark.parametrize("build, message", [
    (lambda: parse_symbol("[1]", 0), "must be >= 1"),
    (lambda: render_symbol(ROOT_ONLY, 0), "must be >= 1"),
    (lambda: parse_symbol("[0]", "2"), "n must be an integer, got '2'"),
    (lambda: render_symbol(ROOT_ONLY, 2.0), "n must be an integer, got 2.0"),
    (lambda: parse_symbol("[x]", 1), "expected a natural number"),
    # a digit that is not decimal: int() cannot read it
    (lambda: parse_symbol("[²]", 1),
     r"^expected a natural number \(at position 1\)$"),
])
def test_trees_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("count, stage, reached, cap", [
    # int() would read it, but no index-sized tuple holds its leaves
    ("9" * 20, "tree symbol count digits", 20, 7),
    # past 4300 digits int() raises, with no position
    ("9" * 5000, "tree symbol count digits", 5000, 7),
    (str(DEFAULT_MAX_COUNT + 1), "tree symbol count", DEFAULT_MAX_COUNT + 1,
     DEFAULT_MAX_COUNT),
])
def test_a_symbol_count_past_the_cap_is_refused_before_building(
        count, stage, reached, cap):
    with pytest.raises(CapExceeded) as info:
        parse_symbol(f"[{count}]", 1)
    assert (info.value.stage, info.value.count, info.value.cap) == \
        (stage, reached, cap)


@pytest.mark.parametrize("text, n, reached", [
    # each count is under the cap, their sum is not; the sum is checked
    # as each count is read, so the last one is never built
    ("[2]([1],[999999])", 2, DEFAULT_MAX_COUNT + 2),
    ("[1]([1]([999999]))", 3, DEFAULT_MAX_COUNT + 1),
    ("[3]([0],[2],[999998])", 2, DEFAULT_MAX_COUNT + 3),
])
def test_a_symbol_whose_counts_sum_past_the_cap_is_refused(text, n, reached):
    with pytest.raises(CapExceeded) as info:
        parse_symbol(text, n)
    assert (info.value.stage, info.value.count, info.value.cap) == \
        ("tree symbol count", reached, DEFAULT_MAX_COUNT)


def test_a_symbol_count_under_the_cap_is_read_in_full():
    # leading zeros are not significant, in any script of decimal digits
    assert parse_symbol("[" + "0" * 5000 + "2]", 1) == parse_symbol("[2]", 1)
    assert parse_symbol("[" + "\u0660" * 8 + "\u0663]", 1) == \
        parse_symbol("[3]", 1)
    # a count under the cap is built in full: 200,000 leaves from 8
    # characters, parsed uncached so that the tree goes with the test
    assert _parse.__wrapped__("[200000]", 1).edge_count() == 200000


def test_a_deep_symbol_parses_without_recursion():
    t = parse_symbol("[1](" * 1999 + "[1]" + ")" * 1999, 2000)
    assert t.height() == 2000 and t.edge_count() == 2000


TALL = """
import pickle
from thetaconf import (LabelledTree, NOrdering, embed, parse_symbol,
                       render_symbol, to_tree)
from thetaconf import trees
o = NOrdering(("a", "b", "c"), (0, 2999), 3000)
t = to_tree(o)
assert t == trees._word_tree.__wrapped__(t._word, 3000)
assert pickle.loads(pickle.dumps(t)) == t
assert repr(t).startswith("PlanarLevelTree('[2]([1]([1](")
# the spaces make a symbol the parse cache has not seen
assert parse_symbol(render_symbol(t, 3000).replace(",", ", "), 3000) == t
assert LabelledTree.from_json(embed(o).to_json()) == embed(o)
"""


def test_a_tall_tree_is_compared_pickled_and_written_without_recursion():
    # a fresh interpreter: no tree is built or cached beforehand, and the
    # recursion limit is the default one
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", TALL], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
