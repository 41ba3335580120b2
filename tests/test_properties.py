"""Property tests: the ordering relation against independent routes.

`leq` is checked against the labelled-tree route of theorem B
(`hom_exists` between embedded orderings), against relabelling, and,
on configurations with tied coordinates, against cell membership.  The
cover moves are checked to raise the order and the degree by one.
Labels range over ints, frozensets (whose `<` is not total) and mixed
str/int sets, so nothing may rely on an order of the labels.

`leq` and `in_cell`, which check neighbouring leaves only, are checked
against their conditions on every pair, with each pair's level read
from the word, and against the nested-table route they replaced
(`order_reference`).  The flat pair-key tables are checked against
their definitions over alphabet indices, and both tests against that
route on pickled, deep-copied and renumbered copies, whose alphabets
are not the shared one, and on a copy pickled before its tables were
filled.  Points held as ints and as Fractions classify
alike.  `homology` is checked against the per-degree Smith
normal form on random simplicial complexes.

The tree invariants a `PlanarLevelTree` caches are checked, over every
small tree, against plain recursive walkers kept here as references;
`witness`, which walks the word, is checked against the tree walk it
replaced.  Random points of a cell classify to it and their midpoints
stay in it.  The text, JSON and tree-symbol forms round-trip, and so
does the JSON form of set-level morphisms whose labels are strings,
integers or leaf addresses.  Composing set-level morphisms as owner
maps agrees with composing them by unions of images.

`smith_normal_form` is checked against the determinantal divisors on
small matrices whose entries share factors, so most pivots are not
units, and against ranks mod small primes on matrices up to 10 x 10
whose entries are multiples of 2 or 3.  Malformed command-line input ends in an exit code and an
`error:` line, never in a traceback.
"""

import copy
import io
import json
import pickle
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chain_reference import (column_dicts, minor_gcd, rank_mod,
                             reference_homology, simplicial_chain_complex)
from gamma_reference import reference_compose
from order_reference import (reference_in_cell, reference_leq,
                             reference_levels)
from thetaconf import (CapExceeded, Configuration, DeltaMorphism,
                       GammaMorphism, LabelMismatch, LabelledTree, LeafId,
                       NOrdering, PlanarLevelTree, PosetView, order_complex,
                       ThetaMorphism, identity_morphism,
                       cell_of, degree, embed, enumerate_nord,
                       enumerate_trees, gamma_compose, healthify,
                       hom_exists, homology,
                       in_cell, is_healthy, leq, level_n_leaves, midpoint,
                       pair_level, parse_symbol, parse_text, render_symbol,
                       sample, sample_in_cell, sigma_act, smith_normal_form,
                       to_tree, upper_covers, witness)
from thetaconf.cli import main
from thetaconf.nord import _alphabet

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


def word_level(ordering, i, j):
    """Branching level of the leaves at positions i < j: the least word
    entry between them."""
    return min(ordering.word[i:j])


def every_pair_in_cell(config, ordering):
    """The cell's conditions on every pair, read off the coordinates."""
    points = [config.point(a) for a in ordering.labels]
    for i, j in combinations(range(len(points)), 2):
        beta = word_level(ordering, i, j)
        if points[i][:beta] != points[j][:beta] \
                or points[i][beta] > points[j][beta]:
            return False
    return True


@lru_cache(maxsize=4096)
def word_levels(ordering):
    """{(x, y): level} for each pair of labels x before y, the level
    read from the word."""
    labels = ordering.labels
    return {(labels[i], labels[j]): word_level(ordering, i, j)
            for i, j in combinations(range(len(labels)), 2)}


def every_pair_leq(a, b):
    """`leq` on every pair of labels x before y in a: the level of each
    pair weakly drops from a to b, and a pair whose level stays keeps
    its order."""
    in_b = word_levels(b)
    for (x, y), level_a in word_levels(a).items():
        kept = (x, y) in in_b
        level_b = in_b[(x, y) if kept else (y, x)]
        if level_b > level_a or (level_b == level_a and not kept):
            return False
    return True


# Every (n, r) with n, r <= 4 and at most 700 orderings, and (1, 5).
SMALL_POSETS = [(n, r) for n in range(1, 5) for r in range(5)
                if factorial(r) * n ** max(r - 1, 0) <= 700] + [(1, 5)]


def test_leq_matches_every_pair_on_small_posets():
    for n, r in SMALL_POSETS:
        elements = enumerate_nord("abcde"[:r], n)
        for a in elements:
            for b in elements:
                assert leq(a, b) == every_pair_leq(a, b) \
                    == reference_leq(a, b), (a.text(), b.text())


def test_in_cell_and_pair_level_match_the_nested_table_route():
    for n, r in SMALL_POSETS:
        labels = "abcde"[:r]
        elements = enumerate_nord(labels, n)
        # an interior point of every cell, and tied grid points
        configs = [witness(a) for a in elements] \
            + [sample(labels, n, seed) for seed in range(8) if r]
        for config in configs:
            for b in elements:
                assert in_cell(config, b) == reference_in_cell(config, b), \
                    (config, b.text())
        for a in elements:
            levels = reference_levels(a)
            for i, j in combinations(range(r), 2):
                x, y = a.labels[i], a.labels[j]
                assert pair_level(a, x, y) == pair_level(a, y, x) \
                    == levels[i][j]


@settings(STEADY, max_examples=300)
@given(ordering_pairs())
def test_leq_matches_the_conditions_on_every_pair(pair):
    a, b = pair
    assert leq(a, b) == every_pair_leq(a, b) == reference_leq(a, b)


def by_alphabet(table, key):
    """The flat r x r table with key(i, j), for the labels at indices i
    and j of `table.labels`, at the alphabet indices of those labels."""
    alphabet, r = table.alphabet, len(table.labels)
    assert alphabet.keys() == set(table.labels)
    assert sorted(alphabet.values()) == list(range(r))
    keys = [None] * (r * r)
    for i, x in enumerate(table.labels):
        for j, y in enumerate(table.labels):
            keys[alphabet[x] * r + alphabet[y]] = key(i, j)
    return tuple(keys)


@STEADY
@given(st.data())
def test_ordering_pair_keys_match_their_definition(data):
    labels = data.draw(LABEL_SETS)
    ordering = data.draw(orderings(labels, data.draw(st.integers(1, 4))))
    assert ordering.keys == by_alphabet(ordering, lambda i, j: (
        2 * ordering.n if i == j else
        2 * word_level(ordering, *sorted((i, j))) + (i < j)))


@STEADY
@given(tied_configurations())
def test_configuration_pair_keys_match_their_definition(config):
    coords = config.coords

    def agree(u, v):
        return max(k for k in range(config.n + 1) if u[:k] == v[:k])

    assert config.keys == by_alphabet(config, lambda i, j: (
        2 * agree(coords[i], coords[j]) + (coords[i] < coords[j])))


def renumbered(table):
    """A fresh copy of an ordering or configuration whose alphabet
    numbers its labels in the reverse of the shared alphabet's order,
    set in its `_tables` slot before any table is read."""
    fresh = replace(table)
    assert fresh._tables is None
    shared = list(_alphabet(frozenset(table.labels)))
    alphabet = {x: i for i, x in enumerate(reversed(shared))}
    object.__setattr__(fresh, "_tables", fresh._tables_over(alphabet))
    return fresh


def copies(table):
    """The table itself; copies of it that hold their own alphabet:
    pickled and deep-copied after its keys were read, renumbered, and
    renumbered then pickled; and a copy pickled before any of its
    tables was read, which fills them over the shared alphabet."""
    unfilled = pickle.dumps(replace(table))
    table.keys      # filled, so the copies carry it
    return [table, pickle.loads(pickle.dumps(table)), copy.deepcopy(table),
            renumbered(table), pickle.loads(pickle.dumps(renumbered(table))),
            pickle.loads(unfilled)]


def test_copies_hold_their_own_alphabet():
    a = parse_text("a 1 b 0 c", 2)
    config = witness(a)
    for table in (a, config):
        shared, *others, late = copies(table)
        for other in others:
            assert other._tables is not None
            assert other == table and other.alphabet is not shared.alphabet
            assert other.alphabet.keys() == shared.alphabet.keys()
        assert others[2].alphabet != shared.alphabet
        assert others[2].keys != shared.keys
        assert late == table and late._tables is None
        assert late.alphabet is shared.alphabet and late.keys == shared.keys
        # replace builds through the constructor: no tables come along
        assert replace(shared)._tables is None


def test_leq_and_in_cell_read_every_alphabet_alike():
    for n, r in SMALL_POSETS:
        if factorial(r) * n ** max(r - 1, 0) > 60:
            continue
        labels = "abcde"[:r]
        elements = enumerate_nord(labels, n)
        configs = [witness(a) for a in elements] \
            + [sample(labels, n, seed) for seed in range(4) if r]
        copied = {x: copies(x) for x in elements + tuple(configs)}
        for a in elements:
            for b in elements:
                expected = reference_leq(a, b)
                assert all(leq(x, y) == expected for x in copied[a]
                           for y in copied[b]), (a.text(), b.text())
        for config in configs:
            for b in elements:
                expected = reference_in_cell(config, b)
                assert all(in_cell(x, y) == expected for x in copied[config]
                           for y in copied[b]), (config, b.text())
    # the label check still runs when both alphabets are foreign
    with pytest.raises(LabelMismatch, match="label sets differ"):
        leq(renumbered(parse_text("a 0 b", 2)),
            renumbered(parse_text("a 0 c", 2)))


def test_mismatches_name_the_heights_or_the_dimensions():
    """The messages of a height mismatch are exact, whether the two
    tables share one alphabet or either holds its own; an ordering
    names the heights, a configuration the dimensions."""
    low, high = parse_text("a 1 b 0 c", 2), parse_text("c 0 a 1 b", 3)
    config = witness(low)
    for x, y in ((low, high), (renumbered(low), high),
                 (low, renumbered(high))):
        assert (x.alphabet is y.alphabet) == (x is low and y is high)
        for call, message in ((lambda: leq(x, y), "height parameters "
                               "differ: 2 vs 3"),
                              (lambda: leq(y, x), "height parameters "
                               "differ: 3 vs 2")):
            with pytest.raises(LabelMismatch) as caught:
                call()
            assert str(caught.value) == message
    for c, y in ((config, high), (renumbered(config), high),
                 (config, renumbered(high))):
        assert (c.alphabet is y.alphabet) == (c is config and y is high)
        with pytest.raises(LabelMismatch) as caught:
            in_cell(c, y)
        assert str(caught.value) == "dimensions differ: 2 vs 3"


@STEADY
@given(tied_configurations(), st.fractions(min_value=-3, max_value=3))
def test_int_and_fraction_points_agree(config, shift):
    """The same points held as ints, built from Fractions, held raw as
    Fractions past the constructor, and shifted by a common rational
    give the same classifier, cells and keys."""
    raw = tuple(tuple(map(Fraction, point)) for point in config.coords)
    built = Configuration(config.labels, raw, config.n)
    forced = Configuration(config.labels, config.coords, config.n)
    object.__setattr__(forced, "coords", raw)
    shifted = Configuration(config.labels, tuple(
        tuple(x + shift for x in point) for point in raw), config.n)
    assert all(type(x) is int for point in config.coords for x in point)
    assert built.coords == config.coords
    for other in (built, forced, shifted):
        assert cell_of(other) == cell_of(config)
        assert other.keys == config.keys
        for ordering in enumerate_nord(config.labels, config.n):
            assert in_cell(other, ordering) == in_cell(config, ordering)


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
            assert in_cell(c, ordering) == every_pair_in_cell(c, ordering) \
                == reference_in_cell(c, ordering)


@st.composite
def finite_posets(draw):
    """Up to 8 elements in a drawn order, related by the transitive
    closure of drawn pairs i < j."""
    size = draw(st.integers(0, 8))
    below = [set() for _ in range(size)]
    for j in range(size):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= below[i] | {i}
    elements = draw(st.permutations(range(size)))
    return PosetView(tuple(elements), lambda a, b: a == b or a in below[b])


# The chain counts of `order_complex` against every subset of the poset
# tested for being a chain, and its cap against the running total.
@settings(STEADY, max_examples=200)
@given(finite_posets(), st.integers(0, 300))
def test_order_complex_counts_every_chain(view, cap):
    elements = view.elements
    sizes = [0] * (len(elements) + 2)
    for mask in range(1 << len(elements)):
        subset = [x for k, x in enumerate(elements) if mask >> k & 1]
        if all(view.leq(a, b) or view.leq(b, a)
               for a, b in combinations(subset, 2)):
            sizes[len(subset)] += 1
    top = max([k for k in range(1, len(sizes)) if sizes[k]], default=1)
    expected = tuple(sizes[1:top + 1])
    assert order_complex(view, 10 ** 6).counts() == expected
    totals = [sum(expected[:d + 1]) for d in range(len(expected))]
    if totals[-1] <= cap:
        assert order_complex(view, cap).counts() == expected
        return
    degree = next(d for d, total in enumerate(totals) if total > cap)
    with pytest.raises(CapExceeded) as caught:
        order_complex(view, cap)
    assert (caught.value.stage, caught.value.count) == \
        (f"chains through degree {degree}", totals[degree])


# Facets of two to four of seven vertices: about a quarter of the draws
# have homology above degree 0, and most have 3-simplices.
@settings(STEADY, max_examples=150)
@given(st.lists(st.frozensets(st.integers(0, 6), min_size=2, max_size=4),
                min_size=1, max_size=12))
def test_homology_matches_the_per_degree_reference(facets):
    cc = simplicial_chain_complex(facets)
    result = homology(cc)
    assert (result.betti, result.torsion) == reference_homology(cc)


@st.composite
def factor_sharing_matrices(draw):
    """Up to 4 x 4, each entry a small integer times a row factor and a
    column factor, so the entries share factors."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    factor = st.sampled_from((1, 2, 3, 4, 6, 9))
    row_factors = [draw(factor) for _ in range(rows)]
    col_factors = [draw(factor) for _ in range(cols)]
    return [[draw(st.integers(-4, 4)) * row_factors[i] * col_factors[j]
             for j in range(cols)] for i in range(rows)]


@settings(STEADY, max_examples=300)
@given(factor_sharing_matrices())
def test_smith_normal_form_matches_determinantal_divisors(matrix):
    divisors = [1]
    for k in range(1, min(len(matrix), len(matrix[0])) + 1):
        d = minor_gcd(matrix, k)
        if d == 0:
            break
        divisors.append(d)
    factors = tuple(b // a for a, b in zip(divisors, divisors[1:]))
    assert smith_normal_form(matrix) == (factors, len(factors))


@st.composite
def non_unit_matrices(draw):
    """Up to 10 x 10, every entry a multiple of 2 or 3."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.integers(-6, 6).map(lambda k: 2 * k),
                      st.integers(-6, 6).map(lambda k: 3 * k))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(STEADY, max_examples=200)
@given(non_unit_matrices())
def test_smith_factors_count_the_rank_drops_mod_primes(matrix):
    # the rank mod p counts the invariant factors that p does not divide
    factors, rank = smith_normal_form(matrix)
    columns = column_dicts(matrix)
    assert rank == rank_mod(columns, 1_000_003)
    for p in (2, 3, 5, 7):
        assert sum(f % p == 0 for f in factors) == rank - rank_mod(columns, p)


@STEADY
@given(st.data())
def test_witness_classifies_to_its_ordering(data):
    labels = data.draw(LABEL_SETS)
    ordering = data.draw(orderings(labels, data.draw(st.integers(1, 3))))
    assert cell_of(witness(ordering)) == ordering


def tree_walk_witness(ordering):
    """Coordinate i of a leaf is the planar index of its level-i
    ancestor, read off the realizing tree."""
    leaves = level_n_leaves(to_tree(ordering), ordering.n)
    index_at = []
    for level in range(1, ordering.n + 1):
        prefixes = sorted({leaf.path[:level] for leaf in leaves})
        index_at.append({p: Fraction(k) for k, p in enumerate(prefixes)})
    coords = tuple(
        tuple(index_at[level - 1][leaf.path[:level]]
              for level in range(1, ordering.n + 1))
        for leaf in leaves)
    return Configuration(ordering.labels, coords, ordering.n)


def test_witness_matches_the_tree_walk():
    count = 0
    for n in (1, 2, 3, 4):
        for r in range(6):
            if (factorial(r) * n ** (r - 1) if r else 1) > 5000:
                continue
            for ordering in enumerate_nord("abcde"[:r], n):
                assert witness(ordering) == tree_walk_witness(ordering)
                count += 1
    assert count == 4648


@STEADY
@given(st.data(), st.randoms(use_true_random=False))
def test_cell_samples_classify_to_the_cell_and_so_do_midpoints(data, rng):
    labels = data.draw(st.lists(st.integers(0, 9), unique=True, max_size=5))
    ordering = data.draw(orderings(labels, data.draw(st.integers(1, 4))))
    first = sample_in_cell(ordering, rng)
    second = sample_in_cell(ordering, rng)
    assert cell_of(first) == cell_of(second) == ordering
    assert cell_of(midpoint(first, second)) == ordering


# -- round trips ---------------------------------------------------------------


def trees_of_height(n):
    """Planar level trees of height at most n, at most three children
    per vertex."""
    if n == 0:
        return st.just(PlanarLevelTree())
    return st.lists(trees_of_height(n - 1), max_size=3).map(
        lambda children: PlanarLevelTree(tuple(children)))


@STEADY
@given(st.data())
def test_tree_symbol_round_trips(data):
    n = data.draw(st.integers(1, 4))
    t = data.draw(trees_of_height(n))
    text = render_symbol(t, n)
    assert parse_symbol(text, n) == t
    assert render_symbol(parse_symbol(text, n), n) == text


@STEADY
@given(st.data())
def test_ordering_json_round_trips(data):
    labels = data.draw(LABEL_SETS)
    ordering = data.draw(orderings(labels, data.draw(st.integers(1, 4))))
    assert NOrdering.from_json(ordering.to_json()) == ordering
    plain = data.draw(st.lists(st.one_of(st.text(max_size=3),
                                         st.integers(-9, 9)),
                               unique=True, max_size=5))
    ordering = data.draw(orderings(plain, data.draw(st.integers(1, 4))))
    text = json.dumps(ordering.to_json())
    assert NOrdering.from_json(json.loads(text)) == ordering


# Labels JSON carries: strings, integers and leaf addresses.
JSON_LABELS = st.one_of(
    st.text(max_size=3), st.integers(),
    st.lists(st.integers(0, 3), max_size=3).map(lambda p: LeafId(tuple(p))))


@STEADY
@given(st.data())
def test_gamma_json_round_trips(data):
    source = data.draw(st.lists(JSON_LABELS, unique=True, max_size=4))
    target = data.draw(st.lists(JSON_LABELS, unique=True, max_size=5))
    owners = data.draw(st.lists(st.sampled_from([None, *source]),
                                min_size=len(target), max_size=len(target)))
    g = GammaMorphism.from_map(source, target, {
        x: {y for y, owner in zip(target, owners) if owner == x}
        for x in source})
    text = json.dumps(g.to_json())
    assert GammaMorphism.from_json(json.loads(text)) == g


def _set_map(data, source, target):
    """A set map source -> target: one owner position, or None, per
    target label."""
    owners = st.sampled_from([None, *range(len(source))])
    return GammaMorphism(source, target, tuple(data.draw(
        st.lists(owners, min_size=len(target), max_size=len(target)))))


@STEADY
@given(st.data())
def test_gamma_compose_unions_images(data):
    source, middle, target = (data.draw(LABEL_SETS) for _ in range(3))
    theta = _set_map(data, source, middle)
    phi = _set_map(data, middle, target)
    assert gamma_compose(phi, theta) == reference_compose(phi, theta)


# Documents made of the readers' own keys: free objects and arrays, and
# valid documents with fields dropped or replaced.
JSON_KEYS = ("n", "s", "t", "delta", "values", "parts", "labels", "word",
             "source", "target", "map", "tree", "1,1", "1,2", "2,2", "0",
             "leaf")
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.integers(),
              st.floats(allow_nan=False),
              st.sampled_from(JSON_KEYS + ("[1]", "[2]([1],[1])", "a"))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=4)),
    max_leaves=12)
VALID_DOCUMENTS = (
    identity_morphism(parse_symbol("[2]([1],[2])", 2), 2).to_json(),
    NOrdering(("a", "b", "c"), (1, 0), 2).to_json(),
    DeltaMorphism(2, 3, (0, 1, 3)).to_json(),
    GammaMorphism.identity(("a", "b")).to_json(),
    LabelledTree(parse_symbol("[2]([1],[1])", 2), 2, ("a", "b")).to_json(),
)
JSON_DOCUMENTS = st.one_of(
    st.lists(JSON_VALUES, max_size=3),
    st.dictionaries(st.sampled_from(JSON_KEYS), JSON_VALUES, max_size=5),
    st.builds(lambda base, drop, extra: {
        key: value for key, value in {**base, **extra}.items()
        if key not in drop},
        st.sampled_from(VALID_DOCUMENTS),
        st.sets(st.sampled_from(JSON_KEYS), max_size=2),
        st.dictionaries(st.sampled_from(JSON_KEYS), JSON_VALUES,
                        max_size=2)))


@settings(STEADY, max_examples=300)
@given(JSON_DOCUMENTS)
# orderings whose fields have the wrong types
@example({"labels": ["a", "b"], "word": [0.5], "n": 2})
@example({"labels": ["a", "b"], "word": [True], "n": 2})
@example({"labels": ["a", "b"], "word": [1], "n": 2.0})
@example({"labels": [[1]], "word": [], "n": 1})
@example({"labels": ["a"], "word": [], "n": "2"})
def test_json_readers_return_a_value_or_raise_value_error(document):
    for reader in (ThetaMorphism, NOrdering, DeltaMorphism, GammaMorphism,
                   LabelledTree):
        try:
            value = reader.from_json(document)
        except ValueError:
            continue
        assert isinstance(value, reader)


# Labels without whitespace, numeric-looking ones included.
TEXT_LABELS = st.text(min_size=1, max_size=3).filter(
    lambda label: label.split() == [label])


@STEADY
@given(st.data())
def test_ordering_text_round_trips(data):
    labels = data.draw(st.lists(TEXT_LABELS, unique=True, max_size=5))
    n = data.draw(st.integers(1, 4))
    ordering = data.draw(orderings(labels, n))
    assert parse_text(ordering.text(), n) == ordering


# -- tree invariants against the recursive walkers they replaced ------------


def walk_copy(t):
    return PlanarLevelTree(tuple(walk_copy(c) for c in t.children))


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
        for n in range(max(height, 1), 5):
            assert level_n_leaves(t, n) == walk_level_n_leaves(t, n)
            assert is_healthy(t, n) == walk_is_healthy(t, n)
            assert healthify(t, n) == walk_healthify(t, n)


def test_cached_tree_equals_and_hashes_like_a_fresh_copy():
    for t in enumerate_trees(5, 3):
        n = max(t.height(), 1)
        level_n_leaves(t, n), is_healthy(t, n), t.edge_count()
        fresh = walk_copy(t)
        assert t == fresh and hash(t) == hash(fresh)
        assert (t._word, t._offsets, t._deepest, t._balanced, t.height(),
                t.edge_count()) == (fresh._word, fresh._offsets,
                                    fresh._deepest, fresh._balanced,
                                    fresh.height(), fresh.edge_count())
        assert repr(t) == repr(fresh)
        assert level_n_leaves(fresh, n) == level_n_leaves(t, n)


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert any(line.startswith("error: ") for line in err.splitlines())


# At most six characters make at most three labels, which keeps every
# subcommand fast; the alphabet has separators, blanks and a dash.
LABEL_TEXT = st.text(st.sampled_from("ab,é -\t\x00"), max_size=6)
LABEL_COMMANDS = (("enumerate",), ("hasse",), ("homology",),
                  ("verify", "theorem-a"), ("verify", "theorem-b"),
                  ("verify", "poset"), ("verify", "cells", "--samples", "3"),
                  ("verify", "morphisms", "--max-edges", "2"))


@settings(STEADY, max_examples=150)
@given(st.sampled_from(LABEL_COMMANDS), st.integers(-1, 2), LABEL_TEXT)
def test_cli_labels_end_in_an_exit_code(command, n, text):
    assert_clean_exit(*run_cli([*command, "--n", str(n), f"--labels={text}"]))


# A label and a coordinate count per line that usually agree with the
# other lines, and tokens that are numbers or free text, so that
# accepted and rejected files are both drawn.
TOKEN = st.one_of(
    st.sampled_from(("0", "1", "-2", "1/2", "0.5", "3e-1", "7", "-1/3")),
    st.text(st.sampled_from("ab01-/.e#"), max_size=4))


@st.composite
def point_files(draw):
    n = draw(st.integers(1, 3))
    lines = []
    for label in draw(st.lists(st.sampled_from(("a", "b", "c", "d", "#")),
                               max_size=4)):
        count = draw(st.sampled_from((n, n, n, n - 1, n + 1)))
        lines.append(" ".join([label] + [draw(TOKEN) for _ in range(count)]))
    return "\n".join(lines)


@settings(STEADY, max_examples=200)
@given(point_files(), st.sampled_from(((), ("--format", "json"),
                                    ("--n", "2"))))
def test_cli_point_files_end_in_an_exit_code(text, options):
    assert_clean_exit(*run_cli(["classify", "--points", "-", *options],
                               stdin=text))
