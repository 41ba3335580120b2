import random
from fractions import Fraction

import pytest

from thetaconf import (Configuration, LabelMismatch, cell_of, convexity_probe,
                       functoriality_check, in_cell, leq, midpoint,
                       parse_point_file, sample,
                       sample_in_cell, enumerate_nord, parse_text, witness)


def _config(n, **points):
    return Configuration.from_points(
        {k: tuple(Fraction(x) for x in v) for k, v in points.items()}, n)


def test_configuration_validation():
    _config(2, a=(0, 0), b=(0, 1))
    with pytest.raises(ValueError):
        _config(2, a=(0, 0), b=(0, 0))
    with pytest.raises(ValueError):
        _config(2, a=(0, 0, 0))


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
    with pytest.raises(LabelMismatch):
        config.relabel({"a": "b", "z": "a"})
