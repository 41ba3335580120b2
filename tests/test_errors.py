"""The error contract of the argument rules.

Every public entry point that takes a height, a count or labels checks
it through `errors.check_height`, `errors.check_count` or
`errors.check_labels`, so a malformed argument raises ValueError with
one wording everywhere, and never a bare TypeError.  Where a label is
looked up, an unhashable one raises LabelMismatch.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaconf import (ROOT_ONLY, CapExceeded, Configuration, DeltaMorphism,
                       GammaMorphism, LabelledTree, LabelMismatch, NOrdering,
                       PosetView, ThetaMorphism, convexity_probe,
                       enumerate_delta, enumerate_gamma,
                       enumerate_hom_bruteforce, enumerate_nord,
                       enumerate_trees, from_tree, functoriality_check,
                       healthify, identity_morphism, initiality_check,
                       is_healthy, level_n_leaves, order_complex, pair_level,
                       parse_symbol, parse_text, poset_homology,
                       render_symbol, sample, sigma_act)
from thetaconf.verify import suite_cells, suite_morphisms, suite_theorem_a

LOW = NOrdering(("a", "b"), (0,), 2)
HIGH = NOrdering(("a", "b"), (1,), 2)
TWO_LEAVES = parse_symbol("[2]", 1)

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
}

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
    "initiality_check(max_size)":
        (lambda c: initiality_check(LabelledTree(ROOT_ONLY, 1, ()), c),
         "max_size"),
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
}

# entry point -> call with two labels under test
LABELS = {
    "NOrdering": lambda xs: NOrdering(xs, (0,), 2),
    "Configuration": lambda xs: Configuration(xs, ((0,), (1,)), 1),
    "LabelledTree": lambda xs: LabelledTree(TWO_LEAVES, 1, xs),
    "GammaMorphism(source)": lambda xs: GammaMorphism(xs, (), ()),
    "GammaMorphism(target)": lambda xs: GammaMorphism((), xs, (None, None)),
    "GammaMorphism.identity": GammaMorphism.identity,
    "enumerate_gamma(source)": lambda xs: enumerate_gamma(xs, ("u",)),
    "enumerate_gamma(target)": lambda xs: enumerate_gamma(("u",), xs),
    "enumerate_nord": lambda xs: enumerate_nord(xs, 2),
    "PosetView.of_orderings": lambda xs: PosetView.of_orderings(xs, 2),
    "sample": lambda xs: sample(xs, 1, 0),
    "from_tree": lambda xs: from_tree(TWO_LEAVES, 1, xs),
}

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
                    f"{field} must be an integer, got {bad!r}",
                    id=f"{name}-{bad!r}")
       for name, (call, field) in COUNTS.items()
       for bad in ("9", None, 2.5, True)]
    + [pytest.param(call, bad, ValueError, message, id=f"{name}-{bad!r}")
       for name, call in LABELS.items()
       for bad, message in ((([1], "b"), "labels must be hashable"),
                            (("a", "a"), "duplicate labels"))]
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
          + [(name, call, ARGUMENTS) for name, (call, _) in COUNTS.items()]
          + [(name, call, LABEL_PAIRS) for name, call in LABELS.items()]
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
