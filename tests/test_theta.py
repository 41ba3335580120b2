import json
from math import comb

import pytest

from gamma_reference import reference_branching_holds
from thetaconf import (BranchingConditionViolation, CapExceeded,
                       DeltaMorphism, GammaMorphism, LabelMismatch, LeafId,
                       NotActive, ThetaMorphism, UnhealthyTarget,
                       assemble_morphism,
                       branching_condition_holds, enumerate_gamma,
                       enumerate_hom_bruteforce, enumerate_trees,
                       gamma_compose, gamma_is_active, identity_morphism,
                       is_healthy, level_n_leaves, lift_active, parse_symbol,
                       theta_compose)


def _delta(s, t, *values):
    return DeltaMorphism(s, t, tuple(values))


def test_level_one_morphisms_are_monotone_maps():
    f = ThetaMorphism(1, _delta(1, 2, 0, 2))
    assert f.parts == ()
    with pytest.raises(ValueError):
        ThetaMorphism(1, _delta(1, 2, 0, 2),
                      (((1, 1), ThetaMorphism(1, _delta(0, 0, 0))),))


def test_constructor_validates_parts():
    # [1]([2]) -> [2]([1],[1]): f = (0, 2), one part per target child
    delta = _delta(1, 2, 0, 2)
    first = ThetaMorphism(1, _delta(2, 1, 0, 1, 1))
    second = ThetaMorphism(1, _delta(2, 1, 0, 0, 1))
    assert ThetaMorphism(2, delta, (first, second)).parts == (first, second)
    # parts count target children f(0) < j <= f(s), not source children
    assert ThetaMorphism(2, _delta(1, 3, 1, 2), (first,)).parts == (first,)
    bad_parts = [
        (first,),                                   # too few
        (first, second, first),                     # too many
        (first, ThetaMorphism(2, _delta(0, 0, 0))),  # wrong level
        (((1, 1), first), ((1, 2), second)),        # old (i, j)-keyed pairs
        [first, second],                            # not a tuple
    ]
    for parts in bad_parts:
        with pytest.raises(ValueError):
            ThetaMorphism(2, delta, parts)
    with pytest.raises(ValueError):
        ThetaMorphism(2, _delta(0, 2, 1), (first,))


def test_identity_morphism():
    t = parse_symbol("[2]([2],[1])", 2)
    ident = identity_morphism(t, 2)
    assert ident.delta == DeltaMorphism.identity(2)
    assert theta_compose(ident, ident) == ident
    shadow = assemble_morphism(ident, t, t, 2)
    assert shadow == GammaMorphism.identity(level_n_leaves(t, 2))


def test_assembly_is_functorial():
    n = 2
    trees = enumerate_trees(2, n)
    for a in trees:
        for b in trees:
            for f in enumerate_hom_bruteforce(a, b, n):
                gf = assemble_morphism(f, a, b, n)
                for c in trees:
                    for g in enumerate_hom_bruteforce(b, c, n):
                        left = assemble_morphism(theta_compose(g, f), a, c, n)
                        right = gamma_compose(
                            assemble_morphism(g, b, c, n), gf)
                        assert left == right


def test_compose_rejects_rank_mismatch():
    f = ThetaMorphism(1, _delta(1, 2, 0, 2))
    g = ThetaMorphism(1, _delta(1, 2, 0, 2))
    with pytest.raises(ValueError):
        theta_compose(g, f)


def test_associativity_small():
    n = 2
    u = parse_symbol("[1]([1])", n)
    homs = enumerate_hom_bruteforce(u, u, n)
    for f in homs:
        for g in homs:
            for h in homs:
                assert theta_compose(h, theta_compose(g, f)) == \
                    theta_compose(theta_compose(h, g), f)


def test_hom_count_by_hand():
    # [1]([1]) -> [1]([1]) at level 2: three deltas [1]->[1]; (0,1) carries
    # the three level-1 maps [1]->[1], (0,0) and (1,1) carry none
    u = parse_symbol("[1]([1])", 2)
    assert len(enumerate_hom_bruteforce(u, u, 2)) == 5


def test_hom_count_level_one_is_delta():
    for s in range(4):
        for t in range(4):
            src = parse_symbol(f"[{s}]", 1)
            tgt = parse_symbol(f"[{t}]", 1)
            assert len(enumerate_hom_bruteforce(src, tgt, 1)) == \
                comb(s + t + 1, s + 1)


def test_enumerate_hom_cap():
    t = parse_symbol("[3]([3],[3],[3])", 2)
    with pytest.raises(CapExceeded) as caught:
        enumerate_hom_bruteforce(t, t, 2, max_count=10)
    exc = caught.value
    assert (exc.stage, exc.count, exc.cap) == ("theta morphisms", 11, 10)
    assert str(exc) == "theta morphisms: 11 exceed the cap 10"


def test_shadow_json_round_trips():
    """Shadows are labelled by leaf addresses, which the JSON form keeps."""
    shadows = 0
    for n in (1, 2):
        trees = enumerate_trees(3, n)
        for source in trees:
            for target in trees:
                for f in enumerate_hom_bruteforce(source, target, n):
                    shadow = assemble_morphism(f, source, target, n)
                    text = json.dumps(shadow.to_json())
                    assert GammaMorphism.from_json(json.loads(text)) == shadow
                    shadows += 1
    assert shadows == 679


def test_assemble_at_level_one_is_the_interval_map():
    f = ThetaMorphism(1, _delta(2, 3, 0, 2, 3))
    src = parse_symbol("[2]", 1)
    tgt = parse_symbol("[3]", 1)
    shadow = assemble_morphism(f, src, tgt, 1)
    assert shadow.mapping == {
        LeafId((0,)): frozenset({LeafId((0,)), LeafId((1,))}),
        LeafId((1,)): frozenset({LeafId((2,))}),
    }


def test_assemble_owner_runs_worked_example():
    # source leaves (0,0) | none | (2,0) (2,1): the middle run is empty
    # target leaves (0,0) (0,1) | (1,0) (1,1) (1,2)
    src = parse_symbol("[3]([1],[0],[2])", 2)
    tgt = parse_symbol("[2]([2],[3])", 2)
    tail = ThetaMorphism(1, _delta(2, 3, 0, 1, 3))
    f = ThetaMorphism(2, _delta(3, 2, 0, 1, 1, 2),
                      (ThetaMorphism(1, _delta(1, 2, 0, 1)), tail))
    # (0,1) is unowned; the second part is shifted past the empty run
    assert assemble_morphism(f, src, tgt, 2).owners == (0, None, 1, 2, 2)
    onto = ThetaMorphism(2, f.delta,
                         (ThetaMorphism(1, _delta(1, 2, 0, 2)), tail))
    shadow = assemble_morphism(onto, src, tgt, 2)
    assert shadow.owners == (0, 0, 1, 2, 2)
    assert lift_active(src, tgt, 2, shadow) == onto


def test_json_roundtrip_keeps_codomain():
    for n in (1, 2, 3):
        trees = enumerate_trees(3, n)
        for u in trees:
            for t in trees:
                for f in enumerate_hom_bruteforce(u, t, n):
                    assert ThetaMorphism.from_json(f.to_json()) == f
    # codomain rank is not recoverable from a monotone map alone
    f = ThetaMorphism(1, _delta(1, 3, 0, 1))
    assert ThetaMorphism.from_json(f.to_json()).delta.target_rank == 3


def test_json_keys_are_the_pairs_the_map_fixes():
    part = ThetaMorphism(1, _delta(2, 1, 0, 1, 1))
    data = ThetaMorphism(2, _delta(1, 2, 0, 2), (part, part)).to_json()
    assert list(data["parts"]) == ["1,1", "1,2"]
    for keys in (["1,1"], ["1,1", "1,2", "2,2"], ["1,1", "2,2"]):
        wrong = dict(data, parts={k: part.to_json() for k in keys})
        with pytest.raises(ValueError):
            ThetaMorphism.from_json(wrong)
    with pytest.raises(ValueError):
        ThetaMorphism.from_json(dict(part.to_json(),
                                     parts={"1,1": part.to_json()}))


@pytest.mark.parametrize("data, field", [
    ({"n": 1, "delta": [0]}, "'t'"),
    ({"n": 2, "delta": [0, 1], "t": 1, "parts": [{"n": 1}]}, "'parts'"),
    ({"n": 2.0, "delta": [0], "t": 0}, "'n'"),
    ({"n": 1, "delta": "01", "t": 1}, "'delta'"),
])
def test_from_json_names_the_bad_field(data, field):
    with pytest.raises(ValueError, match=field):
        ThetaMorphism.from_json(data)


def test_from_json_checks_the_part_count_before_listing_keys():
    with pytest.raises(ValueError, match="expected 1000000000000"):
        ThetaMorphism.from_json({"n": 2, "delta": [0, 10 ** 12],
                                 "t": 10 ** 12, "parts": {}})


def test_lift_worked_example():
    u = parse_symbol("[1]([2])", 2)
    t = parse_symbol("[2]([1],[1])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(u, 2), level_n_leaves(t, 2),
        {LeafId((0, 0)): {LeafId((0, 0))}, LeafId((0, 1)): {LeafId((1, 0))}})
    f = lift_active(u, t, 2, gbar)
    assert f.delta.values == (0, 2)
    assert [part.delta.values for part in f.parts] == [(0, 1, 1), (0, 0, 1)]
    assert assemble_morphism(f, u, t, 2) == gbar


def test_lift_rejects_unhealthy_target():
    u = parse_symbol("[1]([1])", 2)
    t = parse_symbol("[2]([0],[1])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(u, 2), level_n_leaves(t, 2),
        {LeafId((0, 0)): {LeafId((1, 0))}})
    with pytest.raises(UnhealthyTarget):
        lift_active(u, t, 2, gbar)


def test_lift_rejects_inactive():
    s = parse_symbol("[1]([1])", 2)
    t = parse_symbol("[1]([2])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(s, 2), level_n_leaves(t, 2),
        {LeafId((0, 0)): {LeafId((0, 0))}})
    with pytest.raises(NotActive):
        lift_active(s, t, 2, gbar)


def test_lift_rejects_endpoint_mismatch():
    s = parse_symbol("[1]([1])", 2)
    t = parse_symbol("[2]([1],[1])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(s, 2), (LeafId((9, 9)),),
        {LeafId((0, 0)): {LeafId((9, 9))}})
    with pytest.raises(LabelMismatch):
        lift_active(s, t, 2, gbar)


def test_collapsing_both_leaves_to_one_owner_is_fine():
    u = parse_symbol("[1]([2])", 2)
    t = parse_symbol("[2]([1],[1])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(u, 2), level_n_leaves(t, 2),
        {LeafId((0, 0)): {LeafId((0, 0)), LeafId((1, 0))},
         LeafId((0, 1)): set()})
    assert gamma_is_active(gbar)
    assert branching_condition_holds(u, t, 2, gbar)
    f = lift_active(u, t, 2, gbar)
    assert assemble_morphism(f, u, t, 2) == gbar


def test_lift_rejects_branching_level_rise():
    # target leaves branch at level 1, their sources already at level 0
    s = parse_symbol("[2]([1],[1])", 2)
    u = parse_symbol("[1]([2])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(s, 2), level_n_leaves(u, 2),
        {LeafId((0, 0)): {LeafId((0, 0))}, LeafId((1, 0)): {LeafId((0, 1))}})
    assert gamma_is_active(gbar)
    assert not branching_condition_holds(s, u, 2, gbar)
    with pytest.raises(BranchingConditionViolation):
        lift_active(s, u, 2, gbar)


def test_lift_rejects_order_flip_on_equal_level():
    # equal branching level demands the planar order agree
    u = parse_symbol("[1]([2])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(u, 2), level_n_leaves(u, 2),
        {LeafId((0, 0)): {LeafId((0, 1))}, LeafId((0, 1)): {LeafId((0, 0))}})
    assert gamma_is_active(gbar)
    assert not branching_condition_holds(u, u, 2, gbar)
    with pytest.raises(BranchingConditionViolation):
        lift_active(u, u, 2, gbar)


def test_branching_condition_requires_healthy_target():
    u = parse_symbol("[1]([1])", 2)
    t = parse_symbol("[2]([0],[1])", 2)
    gbar = GammaMorphism.from_map(
        level_n_leaves(u, 2), level_n_leaves(t, 2),
        {LeafId((0, 0)): {LeafId((1, 0))}})
    with pytest.raises(UnhealthyTarget):
        branching_condition_holds(u, t, 2, gbar)


def test_active_generation_matches_the_assembly_filter():
    """Pruning while generating keeps exactly the morphisms with an active
    shadow, in the order of the full enumeration, unhealthy targets
    included."""
    pairs = 0
    for n in (1, 2, 3):
        trees = enumerate_trees(4, n)
        for source in trees:
            for target in trees:
                generated = enumerate_hom_bruteforce(source, target, n,
                                                     active_only=True)
                filtered = tuple(
                    f for f in enumerate_hom_bruteforce(source, target, n)
                    if gamma_is_active(
                        assemble_morphism(f, source, target, n)))
                assert generated == filtered, (n, source, target)
                pairs += 1
    assert pairs == 765


def test_active_generation_caps_only_what_it_builds():
    # [1]([1]) -> [1]([1]) at level 2: the active route builds one part
    # and one morphism, the full one three parts and five morphisms
    u = parse_symbol("[1]([1])", 2)
    assert len(enumerate_hom_bruteforce(u, u, 2, max_count=2,
                                        active_only=True)) == 1
    with pytest.raises(CapExceeded):
        enumerate_hom_bruteforce(u, u, 2, max_count=7)
    assert len(enumerate_hom_bruteforce(u, u, 2, max_count=8)) == 5


def test_bijection_small_sweep():
    """Active morphisms onto a healthy target correspond one-to-one to
    set maps satisfying the branching condition."""
    for n in (1, 2):
        trees = enumerate_trees(3, n)
        for source in trees:
            for target in trees:
                if not is_healthy(target, n):
                    continue
                active = []
                for f in enumerate_hom_bruteforce(source, target, n):
                    shadow = assemble_morphism(f, source, target, n)
                    if gamma_is_active(shadow):
                        active.append((shadow, f))
                shadows = dict(active)
                assert len(shadows) == len(active)
                good = [g for g in enumerate_gamma(
                            level_n_leaves(source, n),
                            level_n_leaves(target, n), active_only=True)
                        if branching_condition_holds(source, target, n, g)]
                assert set(shadows) == set(good)
                for g in good:
                    assert lift_active(source, target, n, g) == shadows[g]


@pytest.mark.parametrize("build, message", [
    (lambda: ThetaMorphism(0, _delta(0, 0, 0)),
     "height parameter must be >= 1, got 0"),
    (lambda: theta_compose(
        identity_morphism(parse_symbol("[1]([1])", 2), 2),
        ThetaMorphism(1, _delta(1, 1, 0, 1))), "levels differ"),
    (lambda: assemble_morphism(ThetaMorphism(1, _delta(1, 1, 0, 1)),
                               parse_symbol("[2]", 1), parse_symbol("[1]", 1),
                               1), "do not match trees"),
    (lambda: assemble_morphism(ThetaMorphism(1, _delta(1, 1, 0, 1)),
                               parse_symbol("[1]", 1), parse_symbol("[1]", 1),
                               2), "does not match n=2"),
])
def test_theta_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_branching_condition_matches_the_image_quantifier():
    """The owner-pair form of the condition agrees with the quantifier
    over source pairs and their images, on every set map, active or
    not, into each healthy tree with at most 5 edges."""
    maps = kept = 0
    for n in (1, 2, 3):
        trees = enumerate_trees(5, n)
        for source in trees:
            for target in trees:
                if not is_healthy(target, n):
                    continue
                for g in enumerate_gamma(level_n_leaves(source, n),
                                         level_n_leaves(target, n)):
                    holds = branching_condition_holds(source, target, n, g)
                    assert holds == reference_branching_holds(g), g
                    maps += 1
                    kept += holds
    assert (maps, kept) == (21792, 7280)
