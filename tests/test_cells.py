import random
from fractions import Fraction

import pytest

from thetaconf import (Configuration, LabelMismatch, NOrdering, cell_of,
                       convexity_probe, functoriality_check, in_cell, leq,
                       midpoint, pair_level, parse_point_file, sample,
                       sample_in_cell, enumerate_nord, parse_text, witness)
from thetaconf.nord import _Table


def _config(n, **points):
    return Configuration.from_points(
        {k: tuple(Fraction(x) for x in v) for k, v in points.items()}, n)


def test_configuration_validation():
    _config(2, a=(0, 0), b=(0, 1))
    with pytest.raises(ValueError):
        _config(2, a=(0, 0), b=(0, 0))
    with pytest.raises(ValueError):
        _config(2, a=(0, 0, 0))


def test_configurations_hold_their_fields_as_tuples():
    built = Configuration(("a", "b"), ((0,), (1,)), 1)
    for labels, coords in ((["a", "b"], ((0,), (1,))),
                           (("a", "b"), [[0], [1]]), ("ab", iter([[0], [1]]))):
        config = Configuration(labels, coords, 1)
        assert config == built and hash(config) == hash(built)
        assert type(config.labels) is tuple and type(config.coords) is tuple


def test_tables_live_in_a_slot_not_an_instance_dict():
    """Orderings and configurations hold their tables in the `_tables`
    slot and have no instance dict, also after every table has been
    read: a dict would slow every attribute read of `leq` and
    `in_cell`."""
    a, b = parse_text("a 1 b 0 c", 2), parse_text("c 0 a 1 b", 2)
    config = witness(a)
    leq(a, b)
    in_cell(config, b)
    pair_level(a, "a", "c")
    a.keys, b.checks, config.keys, config.alphabet
    for table in (a, b, config):
        assert table._tables is not None
        assert not hasattr(table, "__dict__")


def test_orderings_and_configurations_are_one_kind_of_table():
    """Both classes take the alphabet, the keys and the unchecked
    builder from `nord._Table` and keep their own fields and slots."""
    for cls, values in ((NOrdering, "word"), (Configuration, "coords")):
        assert issubclass(cls, _Table) and _Table.__slots__ == ()
        assert cls.__slots__ == ("labels", values, "n", "_tables")
        assert not {"alphabet", "keys", "_unchecked"} & set(vars(cls))
    assert {"alphabet", "keys", "_unchecked"} <= set(vars(_Table))


def test_point_file_entries():
    config = parse_point_file("a 1/2 3\nb -1 0.5\n")
    assert config.n == 2
    assert config.point("a") == (Fraction(1, 2), Fraction(3))
    assert config.point("b")[0] == Fraction(-1)
    # decimals carry their binary float value
    assert config.point("b")[1] == Fraction(0.5)
    assert parse_point_file("x 0.1 0\ny 0 0\n").point("x")[0] == \
        Fraction(float("0.1"))


def test_point_file_comments_and_blanks():
    config = parse_point_file("# heading\n\na 0 0\n  # more\nb 1 2\n")
    assert sorted(config.labels) == ["a", "b"]


@pytest.mark.parametrize("text,message", [
    ("a 1 2\na 3 4\n", "duplicate"),
    ("a 1 2\nb 3\n", "expected 2"),
    ("a\n", "label and coordinates"),
    ("", "no points"),
    ("a one 2\n", "bad coordinate"),
])
def test_point_file_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_point_file(text)


def test_cell_of_split_pair():
    assert cell_of(_config(2, a=(0, 0), b=(0, 1))).text() == "a 1 b"
    assert cell_of(_config(2, a=(0, 0), b=(1, -5))).text() == "a 0 b"
    assert cell_of(_config(2, b=(0, 0), a=(0, 1))).text() == "b 1 a"


def test_cell_of_three_points():
    config = _config(2, a=(0, 0), b=(0, 1), c=(1, 0))
    assert cell_of(config).text() == "a 1 b 0 c"
    assert cell_of(_config(1, a=(3,), b=(1,), c=(2,))).text() == "b 0 c 0 a"


def test_cell_of_single_and_empty():
    assert cell_of(_config(3, p=(1, 2, 3))).text() == "p"
    assert cell_of(parse_point_file("p 1 2 3")).labels == ("p",)


def test_in_cell_matches_membership():
    config = _config(2, a=(0, 0), b=(0, 1))
    assert in_cell(config, parse_text("a 1 b", 2))
    # cells are closed: both weak level-0 orderings hold when the first
    # coordinates tie
    assert in_cell(config, parse_text("a 0 b", 2))
    assert in_cell(config, parse_text("b 0 a", 2))
    assert not in_cell(config, parse_text("b 1 a", 2))
    separated = _config(2, a=(0, 0), b=(1, 0))
    assert in_cell(separated, parse_text("a 0 b", 2))
    assert not in_cell(separated, parse_text("b 0 a", 2))


def test_in_cell_checks_labels():
    config = _config(2, a=(0, 0), b=(0, 1))
    with pytest.raises(ValueError):
        in_cell(config, parse_text("a 1 c", 2))
    with pytest.raises(ValueError):
        in_cell(config, parse_text("a 1 b", 3))
    # the first neighbour pair (b, a, 1) of these orderings already fails
    # for this configuration, so no early return may hide the mismatch:
    # a foreign label, fewer labels, more labels, another dimension
    config = _config(2, a=(0, 0), b=(0, 1), c=(1, 0))
    assert not in_cell(config, parse_text("b 1 a 0 c", 2))
    for text, n in (("b 1 a 0 z", 2), ("b 1 a", 2), ("b 1 a 0 c 0 d", 2),
                    ("b 1 a 0 c", 3)):
        with pytest.raises(LabelMismatch):
            in_cell(config, parse_text(text, n))
    # no neighbour pair to read at all: no points against one label, and
    # one point against a foreign label
    for config, text in ((Configuration((), (), 2), "z"),
                         (_config(2, a=(0, 0)), "z"),
                         (_config(2, a=(0, 0)), "")):
        with pytest.raises(LabelMismatch, match="label sets differ"):
            in_cell(config, parse_text(text, 2))
    assert _config(2, a=(0, 0), b=(0, 1)).alphabet \
        is parse_text("b 0 a", 2).alphabet


def test_witness_roundtrip():
    for n in (1, 2, 3):
        for r in range(4):
            for ordering in enumerate_nord("abcd"[:r], n):
                config = witness(ordering)
                assert cell_of(config) == ordering
                assert in_cell(config, ordering)


def test_witness_coordinates_are_integers():
    w = witness(parse_text("a 1 b 0 c", 2))
    assert all(value.denominator == 1
               for point in w.coords for value in point)


def test_sample_deterministic():
    assert sample(("a", "b"), 2, seed=5) == sample(("a", "b"), 2, seed=5)
    assert sample(("a", "b"), 2, seed=5) != sample(("a", "b"), 2, seed=6)


def test_sample_ties_coordinates():
    def ties(config):
        return any(len({point[k] for point in config.coords}) < 3
                   for k in range(2))

    assert any(ties(sample(("a", "b", "c"), 2, seed)) for seed in range(20))


def test_sample_in_cell_lands_in_cell():
    rng = random.Random(11)
    for ordering in enumerate_nord("abc", 2):
        for _ in range(5):
            config = sample_in_cell(ordering, rng)
            assert cell_of(config) == ordering


def test_midpoint():
    a = _config(2, a=(0, 0), b=(0, 1))
    b = _config(2, a=(1, 0), b=(1, 3))
    mid = midpoint(a, b)
    assert mid.point("b") == (Fraction(1, 2), Fraction(2))


def test_midpoint_of_large_integers_is_exact():
    # a float quotient would round 10**20 + 1 to an even number
    mid = midpoint(Configuration(("a",), ((0,),), 1),
                   Configuration(("a",), ((10**20 + 1,),), 1))
    assert mid.coords == ((Fraction(10**20 + 1, 2),),)


def test_integral_coordinates_are_held_as_int():
    config = Configuration.from_points(
        {"a": (1, Fraction(4, 2), 2.0, True),
         "b": (Fraction(1, 3), "5/2", 0.5, -7)}, 4)
    assert config.coords == ((1, 2, 2, 1),
                             (Fraction(1, 3), Fraction(5, 2), Fraction(1, 2),
                              -7))
    assert [type(x) for x in config.coords[0]] == [int] * 4
    assert [type(x) for x in config.coords[1]] == [Fraction] * 3 + [int]
    # vectors of any sequence type are held as tuples
    assert Configuration(("a",), ([1],), 1).coords == ((1,),)
    for config in (witness(parse_text("a 1 b 0 c", 2)),
                   sample("abc", 2, seed=1),
                   sample_in_cell(parse_text("a 1 b 0 c", 2),
                                  random.Random(1)),
                   parse_point_file("a 1 3/3\nb 2 0.5\n")):
        assert {type(x) for point in config.coords for x in point} \
            <= {int, Fraction}
        assert all(type(x) is int for point in config.coords
                   for x in point if x == int(x))


def test_sample_counts_and_heights_are_checked():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"must be >= 1, got {n}"):
            sample("ab", n, 1)
    with pytest.raises(ValueError, match="samples must be >= 0, got -1"):
        convexity_probe(parse_text("a 0 b", 2), -1, 0)
    with pytest.raises(ValueError, match="samples must be >= 0, got -1"):
        functoriality_check(parse_text("a 1 b", 2), parse_text("a 0 b", 2),
                            samples=-1, seed=0)
    assert convexity_probe(parse_text("a 0 b", 2), 0, 0)


def test_convexity_probe():
    for ordering in enumerate_nord("abc", 2):
        assert convexity_probe(ordering, samples=5, seed=2)


def test_functoriality_on_related_pair():
    lower = parse_text("a 1 b", 2)
    upper = parse_text("a 0 b", 2)
    assert functoriality_check(lower, upper, samples=20, seed=3)
    with pytest.raises(ValueError):
        functoriality_check(upper, lower, samples=5, seed=3)


def _classifier_is_least_cell(labels, n, samples, seed):
    # the point lies in its classifier's cell, and every cell containing
    # it sits above the classifier
    orderings = enumerate_nord(labels, n)
    for k in range(samples):
        config = sample(labels, n, seed=seed + k)
        classifier = cell_of(config)
        assert in_cell(config, classifier)
        for other in orderings:
            assert in_cell(config, other) == leq(classifier, other)


def test_partition_small():
    _classifier_is_least_cell(("a", "b"), 2, samples=50, seed=1)
    _classifier_is_least_cell(("a", "b", "c"), 1, samples=50, seed=1)


def test_classifier_is_minimal():
    _classifier_is_least_cell(("a", "b", "c"), 2, samples=30, seed=100)


def test_relabel():
    config = _config(2, a=(0, 0), b=(0, 1))
    swapped = config.relabel({"a": "b", "b": "a"})
    assert swapped.point("b") == (Fraction(0), Fraction(0))
    assert cell_of(swapped).text() == "b 1 a"


def test_relabel_rejects_map_missing_a_label():
    config = _config(2, a=(0, 0), b=(0, 1))
    # a label left out, and a map that is not injective
    for g in ({"a": "b", "z": "a"}, {"a": "a", "b": "a"}):
        with pytest.raises(LabelMismatch):
            config.relabel(g)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Configuration(("a", "b"), ((0,),), 1), ValueError,
     "one coordinate vector per label"),
    (lambda: Configuration(("a", "a"), ((0,), (1,)), 1), ValueError,
     "duplicate labels"),
    (lambda: Configuration(("a",), ((0,),), 0), ValueError,
     "height parameter must be >= 1, got 0"),
    (lambda: Configuration(("a",), ((0,),), True), ValueError,
     "height parameter n must be an integer, got True"),
    (lambda: Configuration(("a",), ((0,),), 1.0), ValueError,
     "height parameter n must be an integer, got 1.0"),
    (lambda: sample("ab", "2", 0), ValueError,
     "height parameter n must be an integer, got '2'"),
    (lambda: Configuration(([1],), ((0,),), 1), ValueError,
     "labels must be hashable"),
    (lambda: Configuration(("a",), (5,), 1), ValueError,
     "point of 'a' is not a vector"),
    (lambda: Configuration(("a",), ((0, 1),), 1), ValueError,
     r"point of 'a', \(0, 1\), is not 1-dimensional"),
    (lambda: Configuration.from_points({"a": (None,)}, 1), ValueError,
     "coordinate None of 'a' is not a rational number"),
    (lambda: Configuration.from_points({"a": (0,), "b": (float("inf"),)}, 1),
     ValueError, "coordinate inf of 'b' is not a rational number"),
    (lambda: Configuration.from_points({"a": (float("nan"),)}, 1),
     ValueError, "coordinate nan of 'a' is not a rational number"),
    (lambda: Configuration.from_points({"a": ("1/0",)}, 1), ValueError,
     "coordinate '1/0' of 'a' is not a rational number"),
    (lambda: Configuration.from_points({"a": (1,), "b": (1.0,)}, 1),
     ValueError, "pairwise distinct"),
    (lambda: midpoint(_config(1, a=(0,)), _config(1, b=(0,))), LabelMismatch,
     "share labels"),
    (lambda: _config(1, a=(0,)).point("z"), LabelMismatch,
     "'z' is not a label"),
])
def test_cells_reject_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _assert_rebuilds(config):
    """`config` equals its rebuild through the public constructor, which
    checks it, down to the type of each coordinate: an int and an
    integral Fraction compare equal."""
    rebuilt = Configuration(config.labels, config.coords, config.n)
    assert config == rebuilt and config.keys == rebuilt.keys
    assert [type(x) for point in config.coords for x in point] \
        == [type(x) for point in rebuilt.coords for x in point]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_configurations_built_unchecked_pass_the_checked_route(n):
    """The witness and sample walks and relabelling build configurations,
    and `cell_of` its classifiers, without the constructor checks; each
    equals its rebuild through a public constructor, for every ordering
    of up to 4 labels and for seeded grid samples."""
    rng = random.Random(n)
    classified = 0
    for r in range(5):
        labels = "abcd"[:r]
        reverse = dict(zip(labels, labels[::-1]))
        configs = [sample(labels, n, seed) for seed in range(20)]
        for ordering in enumerate_nord(labels, n):
            configs += [witness(ordering), sample_in_cell(ordering, rng)]
        configs += [config.relabel(reverse) for config in configs]
        for config in configs:
            _assert_rebuilds(config)
            classifier = cell_of(config)
            assert classifier == NOrdering(classifier.labels, classifier.word,
                                           classifier.n)
            assert in_cell(config, classifier)
            classified += 1
    assert classified == {1: 336, 2: 1088, 3: 3040}[n]


def test_midpoints_stay_checked():
    # two valid configurations whose midpoint puts both labels at one point
    config = witness(parse_text("a 0 b", 2))
    swapped = Configuration(config.labels, config.coords[::-1], config.n)
    with pytest.raises(ValueError, match="pairwise distinct"):
        midpoint(config, swapped)
