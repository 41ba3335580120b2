import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetaconf import (CapExceeded, LabelMismatch, LabelledTree, LeafId,
                       assemble_morphism, embed, enumerate_nord, from_tree,
                       healthify, hom_exists, hom_morphism,
                       initiality_check, label_bijection, leq, parse_symbol,
                       parse_text, retract, unit_exists)


def _obj(symbol, n, labels):
    return LabelledTree(parse_symbol(symbol, n), n, tuple(labels))


def test_validation():
    _obj("[2]([1],[1])", 2, "ab")
    with pytest.raises(ValueError):
        _obj("[2]([1],[1])", 2, "abc")
    with pytest.raises(ValueError):
        _obj("[2]([1],[1])", 2, "aa")


def test_labels_are_held_as_a_tuple():
    built = _obj("[2]", 1, "ab")
    for labels in (["a", "b"], "ab", iter("ab")):
        obj = LabelledTree(parse_symbol("[2]", 1), 1, labels)
        assert obj == built and hash(obj) == hash(built)
        assert type(obj.labels) is tuple


def test_leaf_lookup():
    obj = _obj("[2]([1],[2])", 2, "abc")
    assert obj.leaves == (LeafId((0, 0)), LeafId((1, 0)), LeafId((1, 1)))
    assert obj.leaf_of("c") == LeafId((1, 1))
    with pytest.raises(LabelMismatch):
        obj.leaf_of("z")


def test_json_roundtrip():
    obj = _obj("[2]([1],[2])", 2, "abc")
    assert LabelledTree.from_json(obj.to_json()) == obj


@pytest.mark.parametrize("data, field", [
    ({"n": 2, "labels": ["a"]}, "'tree'"),
    ({"tree": ["[1]"], "n": 1, "labels": ["a"]}, "'tree'"),
    ({"tree": "[1]", "n": "1", "labels": ["a"]}, "'n'"),
    ({"tree": "[1]", "n": 1, "labels": "a"}, "'labels'"),
])
def test_from_json_names_the_bad_field(data, field):
    with pytest.raises(ValueError, match=field):
        LabelledTree.from_json(data)


def test_label_bijection():
    a = _obj("[1]([2])", 2, "ab")
    b = _obj("[2]([1],[1])", 2, "ba")
    g = label_bijection(a, b)
    assert g.mapping == {LeafId((0, 0)): frozenset({LeafId((1, 0))}),
                         LeafId((0, 1)): frozenset({LeafId((0, 0))})}
    with pytest.raises(LabelMismatch):
        label_bijection(a, _obj("[2]([1],[1])", 2, "ac"))


def test_four_morphisms_between_pair_objects():
    """Of the sixteen ordered pairs of 2-ordering objects on two labels,
    the label-compatible morphisms are the four identities plus exactly
    four more, out of the branched objects into the separated ones."""
    s = _obj("[2]([1],[1])", 2, "ab")
    sp = _obj("[2]([1],[1])", 2, "ba")
    u = _obj("[1]([2])", 2, "ab")
    v = _obj("[1]([2])", 2, "ba")
    objs = (s, sp, u, v)
    arrows = {(a, b) for a in objs for b in objs if hom_exists(a, b)}
    identities = {(o, o) for o in objs}
    assert arrows == identities | {(u, s), (u, sp), (v, s), (v, sp)}


def test_hom_morphism_assembles_to_label_bijection():
    u = _obj("[1]([2])", 2, "ab")
    s = _obj("[2]([1],[1])", 2, "ab")
    f = hom_morphism(u, s)
    assert f is not None
    assert assemble_morphism(f, u.tree, s.tree, 2) == label_bijection(u, s)
    assert hom_morphism(s, u) is None


def test_embed_matches_to_tree():
    o = parse_text("a 0 b 1 c", 2)
    obj = embed(o)
    assert obj.tree == parse_symbol("[2]([1],[2])", 2)
    assert obj.labels == ("a", "b", "c")


def test_retract_after_embed_is_identity():
    for n in (1, 2, 3):
        for r in range(4):
            for o in enumerate_nord("abcd"[:r], n):
                assert retract(embed(o)) == o


def test_retract_prunes_dead_branches():
    obj = _obj("[4]([2],[3],[0],[1])", 2, "abcdef")
    expected = from_tree(parse_symbol("[3]([2],[3],[1])", 2), 2,
                         ("a", "b", "c", "d", "e", "f"))
    assert retract(obj) == expected
    assert healthify(obj.tree, 2) == parse_symbol("[3]([2],[3],[1])", 2)


def test_unit_exists_into_healthification():
    assert unit_exists(_obj("[4]([2],[3],[0],[1])", 2, "abcdef"))
    assert unit_exists(_obj("[2]([0],[1])", 2, "a"))
    assert unit_exists(_obj("[2]([1],[1])", 2, "ab"))


def test_initiality_small():
    assert initiality_check(_obj("[2]([0],[1])", 2, "a"))
    assert initiality_check(_obj("[3]([1],[0],[2])", 2, "abc"))


def test_hom_exists_tracks_poset_order():
    for n in (1, 2):
        orderings = enumerate_nord("abc", n)
        for a in orderings:
            for b in orderings:
                assert hom_exists(embed(a), embed(b)) == leq(a, b)


@pytest.mark.parametrize("build, error, message", [
    (lambda: label_bijection(
        LabelledTree(parse_symbol("[1]", 1), 1, ("a",)),
        LabelledTree(parse_symbol("[1]([1])", 2), 2, ("a",))),
     LabelMismatch, "height parameters differ"),
    # the orderings it compares against are capped by enumerate_nord
    (lambda: initiality_check(
        LabelledTree(parse_symbol("[10]", 1), 1, tuple("abcdefghij"))),
     CapExceeded, "orderings: 3628800 exceed the cap 1000000"),
])
def test_labelled_rejects_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


TALL = """
from thetaconf import NOrdering, embed, hom_exists, retract, unit_exists
o = NOrdering(("a", "b", "c"), (0, 999), 1000)
obj = embed(o)
assert retract(obj) == o
assert hom_exists(obj, obj) and unit_exists(obj)
"""


def test_a_tall_ordering_embeds_without_deep_recursion():
    # a fresh interpreter: no tree is built or cached beforehand, and the
    # recursion limit is the default one
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", TALL], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
