"""Property tests: the ordering relation against independent routes.

`leq` is checked against the labelled-tree route of theorem B
(`hom_exists` between embedded orderings), against relabelling, and,
on configurations with tied coordinates, against cell membership.  The
cover moves are checked to raise the order and the degree by one.
Labels range over ints, frozensets (whose `<` is not total) and mixed
str/int sets, so nothing may rely on an order of the labels.

`in_cell`, which checks neighbouring leaves only, is checked against
the cell's conditions on every pair.  `homology` is checked against the
per-degree Smith normal form on random simplicial complexes.

The tree invariants a `PlanarLevelTree` caches are checked, over every
small tree, against plain recursive walkers kept here as references.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from chain_reference import reference_homology, simplicial_chain_complex
from thetaconf import (Configuration, LeafId, NOrdering, PlanarLevelTree,
                       cell_of, degree, embed, enumerate_nord,
                       enumerate_trees, healthify, hom_exists, homology,
                       in_cell, is_healthy, leq, level_n_leaves, sigma_act,
                       tree_from_json, tree_to_json, upper_covers, witness)

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


@STEADY
@given(st.data())
def test_upper_covers_raise_order_and_degree(data):
    labels = data.draw(LABEL_SETS)
    low = data.draw(orderings(labels, data.draw(st.integers(1, 4))))
    covers = upper_covers(low)
    assert len(set(covers)) == len(covers)
    for high in covers:
        assert leq(low, high) and not leq(high, low)
        assert degree(high) == degree(low) + 1


@settings(STEADY, max_examples=60)
@given(tied_configurations())
def test_tied_configuration_lies_in_cells_above_its_classifier(config):
    classifier = cell_of(config)
    for other in enumerate_nord(config.labels, config.n):
        assert in_cell(config, other) == leq(classifier, other)


def every_pair_in_cell(config, ordering):
    """The cell's conditions on every pair, read off the coordinates."""
    points = [config.point(a) for a in ordering.labels]
    for i, j in combinations(range(len(points)), 2):
        beta = ordering.levels[i][j]
        if points[i][:beta] != points[j][:beta] \
                or points[i][beta] > points[j][beta]:
            return False
    return True


# Grid values 0, 1, 2 sent to values whose set order is not their order.
SPREAD = (Fraction(10 ** 12), Fraction(-7, 3), Fraction(1, 2))


@settings(STEADY, max_examples=60)
@given(tied_configurations())
def test_in_cell_matches_the_conditions_on_every_pair(config):
    spread = Configuration(config.labels, tuple(
        tuple(SPREAD[int(x)] for x in point) for point in config.coords),
        config.n)
    for ordering in enumerate_nord(config.labels, config.n):
        for c in (config, spread):
            assert in_cell(c, ordering) == every_pair_in_cell(c, ordering)


# Facets of two to four of seven vertices: about a quarter of the draws
# have homology above degree 0, and most have 3-simplices.
@settings(STEADY, max_examples=150)
@given(st.lists(st.frozensets(st.integers(0, 6), min_size=2, max_size=4),
                min_size=1, max_size=12))
def test_homology_matches_the_per_degree_reference(facets):
    cc = simplicial_chain_complex(facets)
    result = homology(cc)
    assert (result.betti, result.torsion) == reference_homology(cc)


@STEADY
@given(st.data())
def test_witness_classifies_to_its_ordering(data):
    labels = data.draw(LABEL_SETS)
    ordering = data.draw(orderings(labels, data.draw(st.integers(1, 3))))
    assert cell_of(witness(ordering)) == ordering


# -- tree invariants against the recursive walkers they replaced ------------


def walk_height(t):
    return 1 + max((walk_height(c) for c in t.children), default=-1)


def walk_edge_count(t):
    return len(t.children) + sum(walk_edge_count(c) for c in t.children)


def walk_level_n_leaves(t, n):
    out = []

    def walk(node, path):
        if len(path) == n:
            out.append(LeafId(path))
            return
        for i, c in enumerate(node.children):
            walk(c, path + (i,))

    walk(t, ())
    return tuple(out)


def walk_is_healthy(t, n):
    def walk(node, level):
        if not node.children:
            return level == 0 or level == n
        return all(walk(c, level + 1) for c in node.children)

    return walk(t, 0)


def walk_healthify(t, n):
    def reaches(node, depth):
        if depth == 0:
            return True
        return any(reaches(c, depth - 1) for c in node.children)

    def prune(node, depth):
        kept = [prune(c, depth - 1) for c in node.children
                if reaches(c, depth - 1)]
        return PlanarLevelTree(tuple(kept))

    return prune(t, n)


def test_tree_invariants_match_recursive_walkers():
    trees = enumerate_trees(7, 4)
    assert len(trees) == 551
    for t in trees:
        height = walk_height(t)
        assert t.height() == height
        assert t.edge_count() == walk_edge_count(t)
        for n in range(height, 5):
            assert level_n_leaves(t, n) == walk_level_n_leaves(t, n)
            assert is_healthy(t, n) == walk_is_healthy(t, n)
            assert healthify(t, n) == walk_healthify(t, n)


def test_cached_tree_equals_and_hashes_like_a_fresh_copy():
    for t in enumerate_trees(5, 3):
        n = max(t.height(), 1)
        level_n_leaves(t, n), is_healthy(t, n), t.edge_count()
        assert set(vars(t)) > {"children"}      # the caches are filled
        fresh = tree_from_json(tree_to_json(t))
        assert t == fresh and hash(t) == hash(fresh)
        assert repr(t) == repr(fresh)
        assert level_n_leaves(fresh, n) == level_n_leaves(t, n)
