"""Property tests: the ordering relation against independent routes.

`leq` is checked against the labelled-tree route of theorem B
(`hom_exists` between embedded orderings), against relabelling, and,
on configurations with tied coordinates, against cell membership.
Labels range over ints, frozensets (whose `<` is not total) and mixed
str/int sets, so nothing may rely on an order of the labels.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thetaconf import (Configuration, NOrdering, cell_of, embed,
                       enumerate_nord, hom_exists, in_cell, leq, sigma_act,
                       witness)

# Deterministic draws and no deadline keep the suite steady on a busy host.
STEADY = settings(deadline=None, derandomize=True)

MAX_LABELS = 4

LABEL_SETS = st.one_of(
    st.lists(st.integers(-9, 9), unique=True, max_size=MAX_LABELS),
    st.lists(st.frozensets(st.integers(0, 3), max_size=3), unique=True,
             max_size=MAX_LABELS),
    st.lists(st.one_of(st.text("abc", max_size=2), st.integers(0, 9)),
             unique=True, max_size=MAX_LABELS),
).map(tuple)


@st.composite
def orderings(draw, labels, n):
    perm = draw(st.permutations(labels))
    size = max(len(labels) - 1, 0)
    word = draw(st.lists(st.integers(0, n - 1), min_size=size,
                         max_size=size))
    return NOrdering(tuple(perm), tuple(word), n)


@st.composite
def ordering_pairs(draw):
    labels = draw(LABEL_SETS)
    n = draw(st.integers(1, 3))
    return draw(orderings(labels, n)), draw(orderings(labels, n))


@st.composite
def tied_configurations(draw):
    """Distinct points on a 3-wide grid, so coordinates tie often."""
    labels = draw(LABEL_SETS.filter(bool))
    n = draw(st.integers(1, 3))
    grid = st.tuples(*[st.integers(0, 2)] * n)
    points = draw(st.lists(grid, unique=True, min_size=len(labels),
                           max_size=len(labels)))
    return Configuration(labels, tuple(tuple(map(Fraction, p))
                                       for p in points), n)


@STEADY
@given(ordering_pairs())
def test_leq_matches_labelled_hom_exists(pair):
    a, b = pair
    assert leq(a, b) == hom_exists(embed(a), embed(b))


@STEADY
@given(ordering_pairs(), st.data())
def test_leq_is_invariant_under_relabelling(pair, data):
    a, b = pair
    g = dict(zip(a.labels, data.draw(st.permutations(a.labels))))
    assert leq(sigma_act(g, a), sigma_act(g, b)) == leq(a, b)


@settings(STEADY, max_examples=60)
@given(tied_configurations())
def test_tied_configuration_lies_in_cells_above_its_classifier(config):
    classifier = cell_of(config)
    for other in enumerate_nord(config.labels, config.n):
        assert in_cell(config, other) == leq(classifier, other)


@STEADY
@given(st.data())
def test_witness_classifies_to_its_ordering(data):
    labels = data.draw(LABEL_SETS)
    ordering = data.draw(orderings(labels, data.draw(st.integers(1, 3))))
    assert cell_of(witness(ordering)) == ordering
