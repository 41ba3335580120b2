import json
from itertools import accumulate
from math import comb

import pytest

from gamma_reference import reference_branching_holds
from theta_reference import (reference_assemble, reference_identity,
                             reference_lift, reference_to_json)
from thetaconf import (ROOT_ONLY, BranchingConditionViolation, CapExceeded,
                       DeltaMorphism, GammaMorphism, LabelMismatch, LeafId,
                       NOrdering, NotActive, ThetaMorphism, UnhealthyTarget,
                       assemble_morphism, branching_condition_holds,
                       enumerate_delta, enumerate_gamma,
                       enumerate_hom_bruteforce, enumerate_trees,
                       gamma_compose, gamma_is_active, identity_morphism,
                       embed, hom_morphism, is_healthy, label_bijection,
                       level_n_leaves, lift_active, parse_symbol,
                       theta_compose)
from thetaconf.theta import _assemble, _lift, _runs


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


@pytest.mark.parametrize("call", [
    lambda t: identity_morphism(t, 1),
    lambda t: enumerate_hom_bruteforce(t, t, 1),
    lambda t: enumerate_hom_bruteforce(t, parse_symbol("[0]", 1), 1),
    lambda t: enumerate_hom_bruteforce(parse_symbol("[0]", 1), t, 1),
])
def test_morphisms_need_trees_that_fit_the_level(call):
    with pytest.raises(ValueError,
                       match="^tree of height 2 does not fit height 1$"):
        call(parse_symbol("[1]([1])", 2))


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
    # Theta_1 = Delta: the same monotone maps, in the same order
    for s in range(5):
        for t in range(5):
            src = parse_symbol(f"[{s}]", 1)
            tgt = parse_symbol(f"[{t}]", 1)
            homs = enumerate_hom_bruteforce(src, tgt, 1)
            assert len(homs) == comb(s + t + 1, s + 1)
            assert homs == tuple(ThetaMorphism(1, d)
                                 for d in enumerate_delta(s, t))


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


def test_runs_count_each_childs_level_n_leaves():
    # trees shorter than n included: their runs are all empty
    for n in (1, 2, 3):
        for t in enumerate_trees(5, n):
            paths = [leaf.path for leaf in level_n_leaves(t, n)]
            counts = [sum(path[0] == i for path in paths)
                      for i in range(len(t.children))]
            assert _runs(t, n) == tuple(accumulate(counts, initial=0))


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


U2 = parse_symbol("[1]([2])", 2)
T2 = parse_symbol("[2]([1],[1])", 2)
SHORT = parse_symbol("[2]", 1)      # no level-2 leaves


def _map(source, target):
    """The set map sending every target leaf to the first source label."""
    return GammaMorphism(source, target, (0,) * len(target))


@pytest.mark.parametrize("call", [branching_condition_holds, lift_active])
@pytest.mark.parametrize("source, target, n, gbar, error, message", [
    (U2, T2, 2, _map((LeafId((9, 9)),), T2._deepest), LabelMismatch,
     "set-level map endpoints do not match"),
    (U2, T2, 2, _map(U2._deepest, (LeafId((9, 9)), LeafId((9, 8)))),
     LabelMismatch, "set-level map endpoints do not match"),
    # a source shorter than n has no level-n leaves, whatever its deepest
    (SHORT, T2, 2, _map(SHORT._deepest, T2._deepest), LabelMismatch,
     "set-level map endpoints do not match"),
    (U2, ROOT_ONLY, 2, _map(U2._deepest, ROOT_ONLY._deepest), LabelMismatch,
     "set-level map endpoints do not match"),
    (U2, T2, True, _map(U2._deepest, T2._deepest), ValueError,
     "height parameter n must be an integer, got True"),
    (U2, SHORT, 1, _map(U2._deepest, SHORT._deepest), ValueError,
     "tree of height 2 does not fit height 1"),
    (SHORT, U2, 1, _map(SHORT._deepest, U2._deepest), ValueError,
     "tree of height 2 does not fit height 1"),
    (U2, parse_symbol("[2]([0],[1])", 2), 2, _map(U2._deepest, ()),
     UnhealthyTarget, ""),
])
def test_the_set_map_contract_is_checked(call, source, target, n, gbar,
                                         error, message):
    with pytest.raises(ValueError) as caught:
        call(source, target, n, gbar)
    assert type(caught.value) is error
    assert str(caught.value).startswith(message)


def test_the_set_map_contract_takes_no_leaves_below_n():
    unowned = GammaMorphism((), T2._deepest, (None, None))
    assert branching_condition_holds(SHORT, T2, 2, unowned)
    assert branching_condition_holds(U2, ROOT_ONLY, 2,
                                     GammaMorphism(U2._deepest, (), ()))


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


@pytest.mark.parametrize("n", (1, 2, 3))
def test_objects_built_unchecked_pass_the_checked_route(n):
    """The enumerations and the lift build their maps and morphisms
    without the constructor checks; each equals its rebuild through a
    public constructor, which runs them, on every tree pair with at most
    4 edges."""
    trees = enumerate_trees(4, n)
    maps = morphisms = lifts = 0
    for source in trees:
        for target in trees:
            leaves = level_n_leaves(source, n), level_n_leaves(target, n)
            for g in enumerate_gamma(*leaves):
                assert g == GammaMorphism(g.source, g.target, g.owners)
                maps += 1
            for active_only in (True, False):
                for f in enumerate_hom_bruteforce(source, target, n,
                                                  active_only=active_only):
                    assert ThetaMorphism.from_json(f.to_json()) == f
                    morphisms += 1
            if not is_healthy(target, n):
                continue
            for g in enumerate_gamma(*leaves, active_only=True):
                if branching_condition_holds(source, target, n, g):
                    f = _lift(source, target, n, g.owners)
                    assert ThetaMorphism.from_json(f.to_json()) == f
                    # a valid morphism between other trees fails here
                    assert assemble_morphism(f, source, target, n) == g
                    lifts += 1
    assert (maps, morphisms, lifts) == {1: (1279, 582, 126),
                                        2: (827, 7717, 116),
                                        3: (542, 16785, 37)}[n]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_assembly_and_lift_match_the_recursive_reference(n):
    """The work-list assembly and lift give what the recursive ones
    gave, on every tree pair with at most 4 edges: the same owner list
    for every morphism, inactive ones and unhealthy targets included,
    and the same lift for every active map the branching condition
    keeps."""
    trees = enumerate_trees(4, n)
    morphisms = lifts = 0
    for source in trees:
        for target in trees:
            for f in enumerate_hom_bruteforce(source, target, n):
                assert _assemble(f, source, target, n) == \
                    reference_assemble(f, source, target, n)
                morphisms += 1
            if not is_healthy(target, n):
                continue
            for g in enumerate_gamma(level_n_leaves(source, n),
                                     level_n_leaves(target, n),
                                     active_only=True):
                if branching_condition_holds(source, target, n, g):
                    assert _lift(source, target, n, g.owners) == \
                        reference_lift(source, target, n, g.owners)
                    lifts += 1
    assert (morphisms, lifts) == {1: (456, 126), 2: (5895, 116),
                                  3: (9325, 37)}[n]


def test_a_tall_shadow_is_lifted_and_assembled_without_recursion():
    # 1000 levels: past the default recursion limit, which the recursive
    # lift and assembly met once per level
    n = 1000
    source = embed(NOrdering(("a", "b", "c"), (0, n - 1), n))
    target = embed(NOrdering(("a", "b", "c"), (0, 0), n))
    gbar = label_bijection(source, target)
    f = hom_morphism(source, target)
    assert f is not None
    assert assemble_morphism(f, source.tree, target.tree, n) == gbar
    lifted = lift_active(source.tree, target.tree, n, gbar)
    assert assemble_morphism(lifted, source.tree, target.tree, n) == gbar


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_and_json_match_the_recursive_routes(n):
    """The identity of every tree with at most 4 edges, and the JSON of
    every morphism between trees with at most 3, equal the recursive
    routes', keys in the same order."""
    trees = enumerate_trees(4, n)
    for tree in trees:
        assert identity_morphism(tree, n) == reference_identity(tree, n)
    small = [t for t in trees if t.edge_count() <= 3]
    written = 0
    for source in small:
        for target in small:
            for f in enumerate_hom_bruteforce(source, target, n):
                assert json.dumps(f.to_json()) == \
                    json.dumps(reference_to_json(f))
                written += 1
    assert written == {1: 121, 2: 558, 3: 668}[n]


def test_a_tall_identity_is_built_and_written_without_recursion():
    # 1000 levels: the recursive identity failed from n = 498 and the
    # recursive to_json from n = 500, at the default recursion limit
    n = 1000
    x = embed(NOrdering(("a", "b"), (0,), n))
    tree = x.tree
    ident = identity_morphism(tree, n)
    assert assemble_morphism(ident, tree, tree, n) == \
        GammaMorphism.identity(level_n_leaves(tree, n))
    # the lift builds the same identity without identity_morphism, so
    # to_json is pinned on its own
    lifted = hom_morphism(x, x)
    stack = [(f.to_json(), tree, n) for f in (ident, lifted)]
    written = 0
    while stack:
        data, t, level = stack.pop()
        k = len(t.children)
        assert (data["n"], data["delta"], data["t"]) == \
            (level, list(range(k + 1)), k)
        written += 1
        if level == 1:
            assert "parts" not in data
            continue
        parts = data["parts"]
        assert list(parts) == [f"{j},{j}" for j in range(1, k + 1)]
        stack += [(parts[f"{j},{j}"], c, level - 1)
                  for j, c in enumerate(t.children, 1)]
    assert written == 2 * (2 * n - 1)


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
