"""The error contract of the argument rules.

Every public entry point that takes a height, a count, labels or a
random seed checks it through `errors.check_height`,
`errors.check_count`, `errors.check_labels` or `errors.check_seed`, so a
malformed argument raises ValueError with one wording everywhere, and
never a bare TypeError; so does a word or
a set of coordinates that is not iterable, and a tree symbol that is
not a string.  Where a label is
looked up, an unhashable one raises LabelMismatch.  The values of a
DeltaMorphism are a tuple of integers, and a point it is applied to is
an integer; the delta of a ThetaMorphism is a DeltaMorphism.  The
children of a PlanarLevelTree are an iterable of PlanarLevelTrees, and
the leaves given to `branching_level` are LeafIds.  A tree handed to a
tree reader is a PlanarLevelTree, and a vertex path is an iterable of
child indices.  The text of an ordering or of a point file is a str,
and the points given to `Configuration.from_points` are a Mapping.  The
generator given to `sample_in_cell` is a `random.Random`.  An
ordering, a configuration, a labelled tree, a poset, an order complex,
a chain complex, a matrix, a monotone map, a set-level map or a
morphism handed to an entry point is an NOrdering, a
Configuration, a LabelledTree, a PosetView, an OrderComplex, a
ChainComplex, a Sequence, a DeltaMorphism, a GammaMorphism or a
ThetaMorphism: anything else, the other kinds included, raises
ValueError naming the type it should have.  So does a stand-in that
holds the public fields of a valid instance: the type is checked before
the argument is read, or, in the three kernels that defer the check,
the first read is of a private slot.
"""

import random
import re
from dataclasses import fields, is_dataclass
from types import SimpleNamespace
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaconf import (ROOT_ONLY, CapExceeded, ChainComplex, Configuration,
                       DeltaMorphism, GammaMorphism, LabelledTree,
                       LabelMismatch, LeafId, NOrdering, OrderComplex,
                       PlanarLevelTree, PosetView, ThetaMorphism,
                       assemble_morphism, boundary_matrices,
                       branching_condition_holds, branching_level, cell_of,
                       convexity_probe, degree, delta_compose, embed,
                       enumerate_delta, enumerate_gamma,
                       enumerate_hom_bruteforce, enumerate_nord,
                       enumerate_trees, from_tree, functoriality_check,
                       gamma_compose, gamma_is_active, hasse, healthify,
                       hom_exists, hom_morphism, homology, identity_morphism,
                       in_cell, is_healthy, label_bijection, leq,
                       level_n_leaves, lift_active, midpoint, order_complex,
                       pair_level, parse_point_file, parse_symbol, parse_text,
                       poset_homology, render_symbol, retract, sample,
                       sample_in_cell, segal, sigma_act, smith_normal_form,
                       theta_compose, to_tree, upper_covers, witness)
from thetaconf.verify import (suite_cells, suite_morphisms, suite_poset,
                              suite_theorem_a, suite_theorem_b)

LOW = NOrdering(("a", "b"), (0,), 2)
HIGH = NOrdering(("a", "b"), (1,), 2)
TWO_LEAVES = parse_symbol("[2]", 1)
CONFIG = Configuration(("a", "b"), ((0,), (1,)), 1)
OBJECT = LabelledTree(TWO_LEAVES, 1, ("a", "b"))
DELTA = DeltaMorphism.identity(2)
GAMMA = GammaMorphism.identity(level_n_leaves(TWO_LEAVES, 1))
THETA = identity_morphism(TWO_LEAVES, 1)

# entry point -> call with the height under test
HEIGHTS = {
    "NOrdering": lambda n: NOrdering(("a",), (), n),
    "Configuration": lambda n: Configuration(("a",), ((0, 0),), n),
    "LabelledTree": lambda n: LabelledTree(ROOT_ONLY, n, ("a",)),
    "ThetaMorphism": lambda n: ThetaMorphism(n, DeltaMorphism(0, 0, (0,))),
    "parse_symbol": lambda n: parse_symbol("[0]", n),
    "render_symbol": lambda n: render_symbol(ROOT_ONLY, n),
    "parse_text": lambda n: parse_text("a", n),
    "from_tree": lambda n: from_tree(ROOT_ONLY, n, ("a",)),
    "level_n_leaves": lambda n: level_n_leaves(ROOT_ONLY, n),
    "is_healthy": lambda n: is_healthy(ROOT_ONLY, n),
    "healthify": lambda n: healthify(ROOT_ONLY, n),
    "enumerate_nord": lambda n: enumerate_nord("ab", n),
    "PosetView.of_orderings": lambda n: PosetView.of_orderings("ab", n),
    "sample": lambda n: sample("ab", n, 0),
    "identity_morphism": lambda n: identity_morphism(ROOT_ONLY, n),
    "enumerate_hom_bruteforce":
        lambda n: enumerate_hom_bruteforce(ROOT_ONLY, ROOT_ONLY, n),
    "suite_morphisms": lambda n: suite_morphisms(levels=(n,), max_edges=1),
    "suite_theorem_a": lambda n: suite_theorem_a(cases=((n, 2),)),
    # the initiality sweep keeps the levels m <= 2: compared after the check
    "suite_theorem_b": lambda n: suite_theorem_b(max_size=0, levels=(n,)),
}

# entry point -> call with the tree under test
TREES = {
    "LabelledTree": lambda t: LabelledTree(t, 1, ()),
    "level_n_leaves": lambda t: level_n_leaves(t, 1),
    "is_healthy": lambda t: is_healthy(t, 1),
    "healthify": lambda t: healthify(t, 1),
    "render_symbol": lambda t: render_symbol(t, 1),
    "from_tree": lambda t: from_tree(t, 1, ()),
    "identity_morphism": lambda t: identity_morphism(t, 1),
    "enumerate_hom_bruteforce(source)":
        lambda t: enumerate_hom_bruteforce(t, ROOT_ONLY, 1),
    "enumerate_hom_bruteforce(target)":
        lambda t: enumerate_hom_bruteforce(ROOT_ONLY, t, 1),
}

# entry point -> (call with the argument under test, the type it expects,
# the name it reports)
WRONG_TYPES = {
    "leq(a)": (lambda x: leq(x, LOW), NOrdering, "an ordering"),
    "leq(b)": (lambda x: leq(LOW, x), NOrdering, "an ordering"),
    "in_cell(config)":
        (lambda x: in_cell(x, LOW), Configuration, "a configuration"),
    "in_cell(ordering)":
        (lambda x: in_cell(CONFIG, x), NOrdering, "an ordering"),
    "cell_of": (cell_of, Configuration, "a configuration"),
    "to_tree": (to_tree, NOrdering, "an ordering"),
    "degree": (degree, NOrdering, "an ordering"),
    "upper_covers": (upper_covers, NOrdering, "an ordering"),
    "witness": (witness, NOrdering, "an ordering"),
    "sample_in_cell": (lambda x: sample_in_cell(x, random.Random(0)),
                       NOrdering, "an ordering"),
    "sample_in_cell(rng)": (lambda x: sample_in_cell(LOW, x), random.Random,
                            "a random generator"),
    "sigma_act": (lambda x: sigma_act({"a": "b", "b": "a"}, x), NOrdering,
                  "an ordering"),
    "embed": (embed, NOrdering, "an ordering"),
    "retract": (retract, LabelledTree, "a labelled tree"),
    "label_bijection(source)": (lambda x: label_bijection(x, OBJECT),
                                LabelledTree, "a labelled tree"),
    "label_bijection(target)": (lambda x: label_bijection(OBJECT, x),
                                LabelledTree, "a labelled tree"),
    "hom_exists(source)": (lambda x: hom_exists(x, OBJECT), LabelledTree,
                           "a labelled tree"),
    "hom_exists(target)": (lambda x: hom_exists(OBJECT, x), LabelledTree,
                           "a labelled tree"),
    "hom_morphism(source)": (lambda x: hom_morphism(x, OBJECT),
                             LabelledTree, "a labelled tree"),
    "hom_morphism(target)": (lambda x: hom_morphism(OBJECT, x),
                             LabelledTree, "a labelled tree"),
    "pair_level": (lambda x: pair_level(x, "a", "b"), NOrdering,
                   "an ordering"),
    "midpoint(a)": (lambda x: midpoint(x, CONFIG), Configuration,
                    "a configuration"),
    "midpoint(b)": (lambda x: midpoint(CONFIG, x), Configuration,
                    "a configuration"),
    "hasse": (hasse, PosetView, "a poset"),
    "order_complex": (lambda x: order_complex(x, 10), PosetView, "a poset"),
    "poset_homology": (lambda x: poset_homology(x, 10), PosetView,
                       "a poset"),
    "boundary_matrices": (boundary_matrices, OrderComplex,
                          "an order complex"),
    "homology": (homology, ChainComplex, "a chain complex"),
    "smith_normal_form": (smith_normal_form, Sequence, "a matrix"),
    "delta_compose(g)": (lambda x: delta_compose(x, DELTA), DeltaMorphism,
                         "a monotone map"),
    "delta_compose(f)": (lambda x: delta_compose(DELTA, x), DeltaMorphism,
                         "a monotone map"),
    "segal": (segal, DeltaMorphism, "a monotone map"),
    "gamma_compose(phi)": (lambda x: gamma_compose(x, GAMMA), GammaMorphism,
                           "a set-level map"),
    "gamma_compose(theta)": (lambda x: gamma_compose(GAMMA, x),
                             GammaMorphism, "a set-level map"),
    "gamma_is_active": (gamma_is_active, GammaMorphism, "a set-level map"),
    "theta_compose(g)": (lambda x: theta_compose(x, THETA), ThetaMorphism,
                         "a morphism"),
    "theta_compose(f)": (lambda x: theta_compose(THETA, x), ThetaMorphism,
                         "a morphism"),
    "assemble_morphism(f)":
        (lambda x: assemble_morphism(x, TWO_LEAVES, TWO_LEAVES, 1),
         ThetaMorphism, "a morphism"),
    "branching_condition_holds(gbar)":
        (lambda x: branching_condition_holds(TWO_LEAVES, TWO_LEAVES, 1, x),
         GammaMorphism, "a set-level map"),
    "lift_active(gbar)":
        (lambda x: lift_active(TWO_LEAVES, TWO_LEAVES, 1, x), GammaMorphism,
         "a set-level map"),
    "branching_level(tree)":
        (lambda x: branching_level(x, 1, LeafId((0,)), LeafId((1,))),
         PlanarLevelTree, "a tree"),
    "parse_text": (lambda x: parse_text(x, 2), str, "an ordering text"),
    "parse_point_file": (parse_point_file, str, "a point file"),
    "Configuration.from_points":
        (lambda x: Configuration.from_points(x, 2), Mapping, "points"),
}

POSET = PosetView.of_orderings("ab", 2)
COMPLEX = order_complex(POSET)
# a valid instance of each thetaconf class in WRONG_TYPES
VALID = {NOrdering: LOW, Configuration: CONFIG, LabelledTree: OBJECT,
         PosetView: POSET, OrderComplex: COMPLEX,
         ChainComplex: boundary_matrices(COMPLEX), DeltaMorphism: DELTA,
         GammaMorphism: GAMMA, ThetaMorphism: THETA,
         PlanarLevelTree: TWO_LEAVES}


def stand_in(value):
    """A SimpleNamespace holding the public fields of `value`."""
    names = ([f.name for f in fields(value)] if is_dataclass(value)
             else list(vars(value)))
    return SimpleNamespace(**{name: getattr(value, name) for name in names
                              if not name.startswith("_")})


def test_every_thetaconf_kind_has_a_valid_instance():
    assert {kind for _, kind, _ in WRONG_TYPES.values()
            if kind.__module__.startswith("thetaconf")} == set(VALID)


@pytest.mark.parametrize("call, kind, what", [
    pytest.param(call, kind, what, id=name)
    for name, (call, kind, what) in WRONG_TYPES.items() if kind in VALID])
def test_a_stand_in_with_the_public_fields_is_refused(call, kind, what):
    refusal = f"{what} must be a {kind.__name__}, got "
    try:
        call(VALID[kind])       # the instance itself passes the type rule
    except ValueError as exc:
        assert not str(exc).startswith(refusal)
    with pytest.raises(ValueError) as caught:
        call(stand_in(VALID[kind]))
    assert str(caught.value).startswith(refusal + "namespace(")


# entry point -> (call with the count under test, the name it reports)
COUNTS = {
    "enumerate_nord(max_count)":
        (lambda c: enumerate_nord("ab", 2, max_count=c), "max_count"),
    "PosetView.of_orderings(max_count)":
        (lambda c: PosetView.of_orderings("ab", 2, max_count=c), "max_count"),
    "order_complex(max_chains)":
        (lambda c: order_complex(PosetView.of_orderings("ab", 2), c),
         "max_chains"),
    "poset_homology(max_chains)":
        (lambda c: poset_homology(PosetView.of_orderings("ab", 2), c),
         "max_chains"),
    "enumerate_hom_bruteforce(max_count)":
        (lambda c: enumerate_hom_bruteforce(ROOT_ONLY, ROOT_ONLY, 1,
                                            max_count=c), "max_count"),
    "enumerate_delta(s)": (lambda c: enumerate_delta(c, 1), "s"),
    "enumerate_delta(t)": (lambda c: enumerate_delta(1, c), "t"),
    "enumerate_delta(max_count)":
        (lambda c: enumerate_delta(1, 1, max_count=c), "max_count"),
    "enumerate_gamma(max_count)":
        (lambda c: enumerate_gamma("a", "b", max_count=c), "max_count"),
    "DeltaMorphism(source_rank)":
        (lambda c: DeltaMorphism(c, 0, (0,)), "source_rank"),
    "DeltaMorphism(target_rank)":
        (lambda c: DeltaMorphism(0, c, (0,)), "target_rank"),
    "enumerate_trees(max_edges)":
        (lambda c: enumerate_trees(c, 2), "max_edges"),
    "enumerate_trees(height)":
        (lambda c: enumerate_trees(2, c), "tree height"),
    "convexity_probe(samples)":
        (lambda c: convexity_probe(LOW, c, 0), "samples"),
    "functoriality_check(samples)":
        (lambda c: functoriality_check(LOW, HIGH, c, 0), "samples"),
    "suite_cells(samples)":
        (lambda c: suite_cells(max_size=1, levels=(1,), samples=c),
         "samples"),
    "suite_morphisms(max_edges)":
        (lambda c: suite_morphisms(levels=(1,), max_edges=c), "max_edges"),
    "suite_morphisms(max_morphisms)":
        (lambda c: suite_morphisms(levels=(1,), max_edges=0,
                                   max_morphisms=c), "max_count"),
    "suite_theorem_a(max_chains)":
        (lambda c: suite_theorem_a(cases=((1, 2),), max_chains=c),
         "max_chains"),
    "suite_theorem_a(r)": (lambda c: suite_theorem_a(cases=((1, c),)), "r"),
    # no levels: a valid size does no work
    "suite_poset(max_size)":
        (lambda c: suite_poset(max_size=c, levels=()), "max_size"),
    "suite_theorem_b(max_size)":
        (lambda c: suite_theorem_b(max_size=c, levels=()), "max_size"),
    "suite_cells(max_size)":
        (lambda c: suite_cells(max_size=c, levels=()), "max_size"),
}

# entry point -> call with the seed under test
SEEDS = {
    "sample": lambda seed: sample(("a", "b"), 2, seed),
    "convexity_probe": lambda seed: convexity_probe(LOW, 2, seed),
    "functoriality_check": lambda seed: functoriality_check(LOW, HIGH, 2,
                                                            seed),
    "suite_cells": lambda seed: suite_cells(max_size=1, levels=(1,),
                                            samples=1, seed=seed),
}

# entry point -> call with two labels under test
LABELS = {
    "NOrdering": lambda xs: NOrdering(xs, (0,), 2),
    "Configuration": lambda xs: Configuration(xs, ((0,), (1,)), 1),
    "LabelledTree": lambda xs: LabelledTree(TWO_LEAVES, 1, xs),
    "GammaMorphism(source)": lambda xs: GammaMorphism(xs, (), ()),
    "GammaMorphism(target)": lambda xs: GammaMorphism((), xs, (None, None)),
    "GammaMorphism.identity": GammaMorphism.identity,
    "GammaMorphism.from_map(source)":
        lambda xs: GammaMorphism.from_map(xs, (), {}),
    "GammaMorphism.from_map(target)":
        lambda xs: GammaMorphism.from_map((), xs, {}),
    "enumerate_gamma(source)": lambda xs: enumerate_gamma(xs, ("u",)),
    "enumerate_gamma(target)": lambda xs: enumerate_gamma(("u",), xs),
    "enumerate_nord": lambda xs: enumerate_nord(xs, 2),
    "PosetView.of_orderings": lambda xs: PosetView.of_orderings(xs, 2),
    "sample": lambda xs: sample(xs, 1, 0),
    "from_tree": lambda xs: from_tree(TWO_LEAVES, 1, xs),
}


# entry point -> (call with a sequence field under test, message)
SEQUENCES = {
    "NOrdering(word)": (lambda word: NOrdering(("a", "b"), word, 2),
                        "word must be iterable, got"),
    "Configuration(coords)":
        (lambda coords: Configuration(("a",), coords, 1),
         "coordinates must be iterable, got"),
}


def symbol_of(text):
    return parse_symbol(text, 2)


def delta_of(values):
    return DeltaMorphism(1, 2, values)


def point_of(i):
    return DeltaMorphism(1, 1, (0, 1))(i)


def theta_of(delta):
    return ThetaMorphism(1, delta)


def leaf_of(leaf):
    return branching_level(TWO_LEAVES, 1, leaf, LeafId((1,)))


def path_of(path):
    return branching_level(TWO_LEAVES, 1, LeafId(path), LeafId((1,)))


# entry point -> (call with a label that is looked up, not held; message)
LOOKUPS = {
    "sigma_act": (lambda x: sigma_act({"a": x, "b": "a"}, LOW),
                  "not a bijection of the label set"),
    "Configuration.relabel":
        (lambda x: Configuration(("a", "b"), ((0,), (1,)), 1).relabel(
            {"a": x, "b": "a"}), "not a bijection of the label set"),
    "pair_level(first)": (lambda x: pair_level(LOW, x, "b"),
                          "[1] is not a label of the ordering"),
    "pair_level(second)": (lambda x: pair_level(LOW, "a", x),
                           "[1] is not a label of the ordering"),
}

PROBES = (
    [pytest.param(call, bad, ValueError,
                  f"height parameter n must be an integer, got {bad!r}",
                  id=f"{name}-{bad!r}")
     for name, call in HEIGHTS.items() for bad in ("2", 2.0, True)]
    + [pytest.param(call, bad, ValueError,
                    f"height parameter must be >= 1, got {bad}",
                    id=f"{name}-{bad!r}")
       for name, call in HEIGHTS.items() for bad in (0, -1)]
    + [pytest.param(call, bad, ValueError,
                    f"a tree must be a PlanarLevelTree, got {bad!r}",
                    id=f"{name}(tree)-{bad!r}")
       for name, call in TREES.items() for bad in (None, 3, "[0]", ())]
    + [pytest.param(call, bad, ValueError,
                    f"{what} must be a {kind.__name__}, got {bad!r}",
                    id=f"{name}-{bad!r}")
       for name, (call, kind, what) in WRONG_TYPES.items()
       for bad in (None, 3, "ab", LOW, CONFIG, OBJECT, ROOT_ONLY)
       if not isinstance(bad, kind)]
    + [pytest.param(call, bad, ValueError,
                    f"{field} must be an integer, got {bad!r}",
                    id=f"{name}-{bad!r}")
       for name, (call, field) in COUNTS.items()
       for bad in ("9", None, 2.5, True)]
    + [pytest.param(call, bad, ValueError,
                    f"seed must be an integer, got {bad!r}",
                    id=f"{name}(seed)-{bad!r}")
       for name, call in SEEDS.items() for bad in ("1", 1.5, None, True, [1])]
    + [pytest.param(call, bad, ValueError, message, id=f"{name}-{bad!r}")
       for name, call in LABELS.items()
       for bad, message in ((([1], "b"), "labels must be hashable"),
                            (("a", "a"), "duplicate labels"),
                            (3, "labels must be iterable, got 3"))]
    + [pytest.param(call, bad, ValueError, f"{message} {bad!r}",
                    id=f"{name}-{bad!r}")
       for name, (call, message) in SEQUENCES.items() for bad in (None, 3)]
    + [pytest.param(symbol_of, bad, ValueError,
                    f"a tree symbol must be a string, got {bad!r}",
                    id=f"parse_symbol(text)-{bad!r}")
       for bad in (5, None, b"[0]", ["[0]"])]
    + [pytest.param(delta_of, bad, ValueError, message,
                    id=f"DeltaMorphism(values)-{bad!r}")
       for bad, message in (((0, 1.5), "values must be integers, got 1.5"),
                            ((0, True), "values must be integers, got True"),
                            ((0, "1"), "values must be integers, got '1'"),
                            ([0, 1], "[1] needs a tuple of 2 values, "
                                     "got [0, 1]"))]
    + [pytest.param(point_of, bad, ValueError,
                    f"{bad!r} is not a point of [1]",
                    id=f"DeltaMorphism.__call__-{bad!r}")
       for bad in ("a", True, 1.0, None, -1, 2)]
    + [pytest.param(theta_of, bad, ValueError,
                    f"delta must be a DeltaMorphism, got {bad!r}",
                    id=f"ThetaMorphism(delta)-{bad!r}")
       for bad in (None, (0,), {"values": [0]})]
    + [pytest.param(PlanarLevelTree, bad, ValueError,
                    f"children must be an iterable of PlanarLevelTrees, "
                    f"got {bad!r}", id=f"PlanarLevelTree(children)-{bad!r}")
       for bad in (None, 3, (1,), ("a", "b"), (ROOT_ONLY, []))]
    + [pytest.param(leaf_of, bad, ValueError,
                    f"a leaf must be a LeafId, got {bad!r}",
                    id=f"branching_level(leaf)-{bad!r}")
       for bad in ((0,), None, "0", [0])]
    + [pytest.param(leaf_of, bad, ValueError, f"no vertex at path {bad.path}",
                    id=f"branching_level(leaf)-{bad!r}")
       for bad in (LeafId(("0",)), LeafId((0.0,)))]
    + [pytest.param(call, bad, ValueError, f"no vertex at path {bad!r}",
                    id=f"{name}-{bad!r}")
       for name, call in (("PlanarLevelTree.subtree", TWO_LEAVES.subtree),
                          ("branching_level(path)", path_of))
       for bad in (None, 3)]
    + [pytest.param(call, [1], LabelMismatch, message, id=f"{name}-[1]")
       for name, (call, message) in LOOKUPS.items()]
)


@pytest.mark.parametrize("call, bad, error, message", PROBES)
def test_malformed_arguments_raise_the_documented_error(call, bad, error,
                                                        message):
    with pytest.raises(error) as caught:
        call(bad)
    assert str(caught.value).startswith(message)


def test_negative_counts_name_themselves():
    for name, (call, field) in COUNTS.items():
        with pytest.raises(ValueError, match=f"^{re.escape(field)} must be "
                                             f">= 0, got -1$"):
            call(-1)


# small integers only: a valid height or count does real work
ARGUMENTS = st.one_of(st.integers(-3, 6), st.floats(), st.text(max_size=3),
                      st.booleans(), st.none(),
                      st.lists(st.integers(), max_size=2))
LABEL_ITEMS = st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2),
                        st.booleans(), st.none(),
                        st.lists(st.integers(), max_size=2))
LABEL_PAIRS = st.lists(LABEL_ITEMS, min_size=2, max_size=2).map(tuple)
FUZZED = ([(name, call, ARGUMENTS) for name, call in HEIGHTS.items()]
          + [(name, call, st.one_of(LABEL_PAIRS, ARGUMENTS))
             for name, call in TREES.items()]
          + [(name, call, st.one_of(LABEL_PAIRS, ARGUMENTS))
             for name, (call, _, _) in WRONG_TYPES.items()]
          + [(name, call, ARGUMENTS) for name, (call, _) in COUNTS.items()]
          + [(name, call, ARGUMENTS) for name, call in SEEDS.items()]
          + [(name, call, LABEL_PAIRS) for name, call in LABELS.items()]
          + [(name, call, st.one_of(LABEL_PAIRS, ARGUMENTS))
             for name, (call, _) in SEQUENCES.items()]
          + [("DeltaMorphism(values)", delta_of,
              st.one_of(LABEL_PAIRS, ARGUMENTS))]
          + [("DeltaMorphism.__call__", point_of, ARGUMENTS),
             ("ThetaMorphism(delta)", theta_of, ARGUMENTS)]
          + [("parse_symbol(text)", symbol_of,
              st.one_of(ARGUMENTS, st.binary(max_size=3)))]
          + [("PlanarLevelTree(children)", PlanarLevelTree,
              st.one_of(LABEL_PAIRS, ARGUMENTS)),
             ("branching_level(leaf)", leaf_of,
              st.one_of(LABEL_PAIRS, ARGUMENTS)),
             ("PlanarLevelTree.subtree", TWO_LEAVES.subtree, ARGUMENTS),
             ("branching_level(path)", path_of, ARGUMENTS)]
          + [(name, call, LABEL_ITEMS)
             for name, (call, _) in LOOKUPS.items()])


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_any_argument_raises_only_value_error_or_cap_exceeded(data):
    name, call, values = data.draw(st.sampled_from(FUZZED), label="entry")
    try:
        call(data.draw(values, label=name))
    except (ValueError, CapExceeded):
        pass
