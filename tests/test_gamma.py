import json
from math import comb

import pytest

from thetaconf import (CapExceeded, DeltaMorphism, GammaMorphism,
                       LabelMismatch, delta_compose, enumerate_delta,
                       enumerate_gamma, gamma_compose, gamma_is_active, segal)


def test_delta_validates_monotone():
    DeltaMorphism(2, 3, (0, 1, 3))
    with pytest.raises(ValueError):
        DeltaMorphism(2, 3, (1, 0, 3))
    with pytest.raises(ValueError):
        DeltaMorphism(2, 3, (0, 1, 4))
    with pytest.raises(ValueError):
        DeltaMorphism(2, 3, (0, 1))


def test_delta_call_and_identity():
    f = DeltaMorphism(2, 3, (0, 1, 3))
    assert [f(i) for i in range(3)] == [0, 1, 3]
    ident = DeltaMorphism.identity(2)
    assert ident.values == (0, 1, 2)
    with pytest.raises(ValueError):
        f(3)


def test_delta_compose():
    f = DeltaMorphism(1, 2, (0, 2))
    g = DeltaMorphism(2, 3, (1, 1, 3))
    h = delta_compose(g, f)
    assert h.values == (1, 3)
    with pytest.raises(ValueError):
        delta_compose(f, g)


def test_delta_json_roundtrip():
    f = DeltaMorphism(2, 3, (0, 1, 3))
    assert DeltaMorphism.from_json(f.to_json()) == f


@pytest.mark.parametrize("data, field", [
    ({"s": 1, "values": [0, 1]}, "'t'"),
    ({"s": 1, "t": "2", "values": [0, 1]}, "'t'"),
    ({"s": 1, "t": 2, "values": [0, None]}, "'values'"),
])
def test_delta_from_json_names_the_bad_field(data, field):
    with pytest.raises(ValueError, match=field):
        DeltaMorphism.from_json(data)


def test_enumerate_delta_counts():
    # hom sets in the simplex category have size C(s+t+1, s+1)
    for s in range(5):
        for t in range(5):
            homs = enumerate_delta(s, t)
            assert len(homs) == comb(s + t + 1, s + 1)
            assert len(set(homs)) == len(homs)
    assert len(enumerate_delta(2, 1)) == 4
    assert len(enumerate_delta(1, 2)) == 6


def test_enumerate_delta_cap():
    with pytest.raises(CapExceeded) as caught:
        enumerate_delta(6, 6, max_count=10)
    exc = caught.value
    assert (exc.stage, exc.count, exc.cap) == ("monotone maps [6]->[6]",
                                               comb(13, 7), 10)
    assert str(exc) == "monotone maps [6]->[6]: 1716 exceed the cap 10"


def test_segal_intervals():
    f = DeltaMorphism(2, 3, (0, 2, 3))
    g = segal(f)
    assert g.mapping == {1: frozenset({1, 2}), 2: frozenset({3})}
    assert gamma_is_active(g)
    collapsing = segal(DeltaMorphism(2, 3, (0, 0, 3)))
    assert collapsing.mapping[1] == frozenset()


def test_segal_is_functorial():
    f = DeltaMorphism(1, 2, (0, 2))
    g = DeltaMorphism(2, 3, (0, 1, 3))
    assert segal(delta_compose(g, f)) == gamma_compose(segal(g), segal(f))


def test_gamma_validates_disjoint():
    GammaMorphism.from_map(("x", "y"), (1, 2), {"x": {1}, "y": {2}})
    with pytest.raises(ValueError):
        GammaMorphism.from_map(("x", "y"), (1, 2), {"x": {1}, "y": {1}})
    with pytest.raises(ValueError):
        GammaMorphism.from_map(("x",), (1,), {"x": {7}})


def test_gamma_holds_one_owner_per_target_label():
    g = GammaMorphism(("x", "y"), ("u", "v", "w"), (1, None, 0))
    assert g.mapping == {"x": frozenset({"w"}), "y": frozenset({"u"})}
    # a label listed twice in an image is one element of it
    assert GammaMorphism.from_map(("x",), ("u",), {"x": ["u", "u"]}) == \
        GammaMorphism(("x",), ("u",), (0,))


@pytest.mark.parametrize("owners, message", [
    ((0,), "one owner per target label"),        # too few
    ((0, 1, None), "one owner per target label"),  # too many
    ([0, 1], "a tuple of one owner"),
    ((0, 2), "not a position"),                  # out of range
    ((-1, 0), "not a position"),
    ((True, 0), "not a position"),               # a bool is not a position
    ((0, "1"), "not a position"),
])
def test_gamma_constructor_checks_owners(owners, message):
    with pytest.raises(ValueError, match=message):
        GammaMorphism(("x", "y"), ("u", "v"), owners)


def test_gamma_call_and_compose():
    theta = GammaMorphism.from_map(("x",), ("u", "v"), {"x": {"u"}})
    phi = GammaMorphism.from_map(("u", "v"), (1, 2, 3),
                                 {"u": {1, 3}, "v": {2}})
    composed = gamma_compose(phi, theta)
    assert composed.mapping == {"x": frozenset({1, 3})}
    assert theta("x") == frozenset({"u"})
    with pytest.raises(LabelMismatch, match="'z' is not a source label"):
        theta("z")
    with pytest.raises(ValueError):
        gamma_compose(theta, phi)


def test_gamma_compose_checks_middle_order():
    a = GammaMorphism.from_map(("x",), ("u", "v"), {"x": {"u"}})
    b = GammaMorphism.from_map(("v", "u"), (1,), {"v": {1}, "u": set()})
    with pytest.raises(ValueError):
        gamma_compose(b, a)


def test_gamma_identity_and_active():
    ident = GammaMorphism.identity(("a", "b"))
    assert gamma_is_active(ident)
    partial = GammaMorphism.from_map(("a", "b"), (1, 2), {"a": {1}, "b": set()})
    assert not gamma_is_active(partial)


def test_gamma_json_roundtrip():
    g = GammaMorphism.from_map(("x", "y"), ("u", "v"),
                               {"x": {"u", "v"}, "y": set()})
    assert GammaMorphism.from_json(g.to_json()) == g
    # integer labels stay integers, apart from equal-looking strings
    g = GammaMorphism.from_map((1, 2), (3, "3", 4), {1: {4, "3"}, 2: {3}})
    document = g.to_json()
    assert document == {"source": [1, 2], "target": [3, "3", 4],
                        "map": {"0": ["3", 4], "1": [3]}}
    assert GammaMorphism.from_json(json.loads(json.dumps(document))) == g
    ident = GammaMorphism.identity((1, 2))
    assert GammaMorphism.from_json(ident.to_json()) == ident


@pytest.mark.parametrize("label", [frozenset({1}), (1, 2), 1.5, True, None])
def test_gamma_to_json_rejects_labels_json_cannot_carry(label):
    g = GammaMorphism.identity(("a", label))
    with pytest.raises(ValueError, match="no JSON form"):
        g.to_json()


@pytest.mark.parametrize("data, field", [
    ({"source": ["x"], "map": {"x": []}}, "'target'"),
    ({"source": [["x"]], "target": [], "map": {}}, "'source'"),
    ({"source": ["x"], "target": ["u"], "map": ["x"]}, "'map'"),
    ({"source": ["x"], "target": ["u"], "map": {"x": "u"}}, "'x'"),
    ({"source": ["x"], "target": ["u"], "map": {"0": "u"}}, "'0'"),
    ({"source": [{"leaf": [0, "1"]}], "target": [], "map": {}}, "'leaf'"),
    ({"source": [{"path": [0]}], "target": [], "map": {}}, "'source'"),
    ({"source": ["x"], "target": [True], "map": {}}, "'target'"),
])
def test_gamma_from_json_names_the_bad_field(data, field):
    with pytest.raises(ValueError, match=field):
        GammaMorphism.from_json(data)


def test_enumerate_gamma_counts():
    # each target element picks an owner or stays unowned
    for xs in range(4):
        for ys in range(4):
            source = tuple(range(xs))
            target = tuple(range(10, 10 + ys))
            assert len(enumerate_gamma(source, target)) == (xs + 1) ** ys
            active = enumerate_gamma(source, target, active_only=True)
            assert len(active) == xs ** ys if ys else 1


def test_enumerate_gamma_empty_source():
    assert len(enumerate_gamma((), ())) == 1
    assert enumerate_gamma((), (1,), active_only=True) == ()


def test_enumerate_gamma_cap():
    with pytest.raises(CapExceeded) as caught:
        enumerate_gamma(tuple(range(9)), tuple(range(9)), max_count=100)
    exc = caught.value
    assert (exc.stage, exc.count, exc.cap) == ("set-level morphisms",
                                               10 ** 9, 100)
    assert str(exc) == "set-level morphisms: 1000000000 exceed the cap 100"


@pytest.mark.parametrize("build, message", [
    (lambda: DeltaMorphism(-1, 0, ()), "source_rank must be >= 0, got -1"),
    (lambda: DeltaMorphism(0, -1, (0,)), "target_rank must be >= 0, got -1"),
    (lambda: GammaMorphism.from_map(("x",), ("u",), {"z": {"u"}}),
     "unknown labels"),
])
def test_gamma_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
