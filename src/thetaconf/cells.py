"""Configuration cells in n-space, classified by orderings.

A configuration places the label set injectively in rational n-space.
The cell of an ordering S consists of the configurations where, for
a before b in S with branching level beta, the first beta coordinates
of a and b agree and coordinate beta+1 weakly increases.  Every
configuration lies in the cell of exactly one classifier: sort the
points lexicographically and count leading coordinate agreements of
neighbours.  Membership in any other cell is governed by the poset
order on classifiers, which is checked, not assumed, by the probes
here.  All arithmetic is exact (fractions), so ties are honest ties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from .errors import LabelMismatch
from .nord import NOrdering, enumerate_nord, leq, to_tree
from .trees import level_n_leaves

_SAMPLE_SPAN = 2**40


@dataclass(frozen=True)
class Configuration:
    """Injective map from labels to rational n-vectors."""

    labels: tuple[Hashable, ...]
    coords: tuple[tuple[Fraction, ...], ...]
    n: int

    def __post_init__(self):
        if len(self.labels) != len(self.coords):
            raise ValueError("one coordinate vector per label required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for vec in self.coords:
            if len(vec) != self.n:
                raise ValueError(f"vector {vec} is not {self.n}-dimensional")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("configuration points must be pairwise distinct")

    @classmethod
    def from_points(cls, points: Mapping, n: int) -> "Configuration":
        labels = tuple(points)
        coords = tuple(tuple(Fraction(x) for x in points[label])
                       for label in labels)
        return cls(labels, coords, n)

    def point(self, label: Hashable) -> tuple[Fraction, ...]:
        return self.coords[self.labels.index(label)]

    def relabel(self, g: Mapping) -> "Configuration":
        """Transport along a bijection of the label set: the point of x
        becomes the point of g(x)."""
        if not all(x in g for x in self.labels):
            raise LabelMismatch("not a bijection of the label set")
        values = tuple(g[x] for x in self.labels)
        if set(values) != set(self.labels):
            raise LabelMismatch("not a bijection of the label set")
        return Configuration(values, self.coords, self.n)


def parse_point_file(text: str) -> Configuration:
    """Lines of "label x_1 ... x_n"; entries are integers, rationals
    "p/q", or decimals.  Decimals go through float, so they denote the
    binary value of the literal."""
    points = {}
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: need a label and coordinates")
        label, *values = tokens
        if label in points:
            raise ValueError(f"line {lineno}: duplicate label {label!r}")
        if n is None:
            n = len(values)
        elif len(values) != n:
            raise ValueError(f"line {lineno}: expected {n} coordinates, "
                             f"got {len(values)}")
        points[label] = tuple(_parse_entry(v, lineno) for v in values)
    if n is None:
        raise ValueError("point file holds no points")
    return Configuration.from_points(points, n)


def _parse_entry(token: str, lineno: int) -> Fraction:
    try:
        if "/" in token:
            return Fraction(token)
        if "." in token or "e" in token or "E" in token:
            return Fraction(float(token))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"line {lineno}: bad coordinate {token!r}: {exc}") \
            from None


def _common_checks(config: Configuration, ordering: NOrdering):
    if config.n != ordering.n:
        raise LabelMismatch(
            f"dimensions differ: {config.n} vs {ordering.n}")
    if set(config.labels) != set(ordering.labels):
        raise LabelMismatch("label sets differ")


def in_cell(config: Configuration, ordering: NOrdering) -> bool:
    """Exact membership test against the ordering's defining equalities
    and weak inequalities."""
    _common_checks(config, ordering)
    by_label = dict(zip(config.labels, config.coords))
    points = [by_label[a] for a in ordering.labels]
    for i, (pa, levels) in enumerate(zip(points, ordering.levels)):
        for j in range(i + 1, len(points)):
            pb, beta = points[j], levels[j]
            if pa[:beta] != pb[:beta]:
                return False
            if pa[beta] > pb[beta]:
                return False
    return True


def cell_of(config: Configuration) -> NOrdering:
    """The classifier: labels sorted by lexicographic comparison of
    coordinate vectors; branching level of neighbours = number of
    leading equal coordinates.  Injectivity bounds that count by n-1."""
    order = sorted(zip(config.coords, config.labels))
    labels = tuple(label for _, label in order)
    word = []
    for (u, _), (v, _) in zip(order, order[1:]):
        agree = 0
        while u[agree] == v[agree]:
            agree += 1
        word.append(agree)
    return NOrdering(labels, tuple(word), config.n)


def witness(ordering: NOrdering) -> Configuration:
    """Integer configuration in the cell's interior: coordinate i of a
    leaf is the planar index of its level-i ancestor.  Distinct
    ancestors get distinct indices, so the classifier is the ordering
    itself."""
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


def sample(labels: Iterable[Hashable], n: int, seed: int) -> Configuration:
    """Seeded random configuration on a grid of side max(2, r): r
    distinct grid cells, so coordinates tie often and every cell shape
    is reachable."""
    labels = tuple(labels)
    side = max(2, len(labels))
    rng = random.Random(seed)
    coords = []
    for code in rng.sample(range(side ** n), len(labels)):
        digits = []
        for _ in range(n):
            code, digit = divmod(code, side)
            digits.append(Fraction(digit))
        coords.append(tuple(digits))
    return Configuration(labels, tuple(coords), n)


def sample_in_cell(ordering: NOrdering, rng: random.Random) -> Configuration:
    """Random point of the cell: perturb the witness by giving every
    tree vertex a random value, strictly increasing across siblings.
    Leaf coordinates are its ancestors' values; all defining equalities
    hold by construction and the inequalities hold strictly."""
    leaves = level_n_leaves(to_tree(ordering), ordering.n)
    values: dict[tuple[int, ...], Fraction] = {}
    for level in range(1, ordering.n + 1):
        prefixes = sorted({leaf.path[:level] for leaf in leaves})
        by_parent: dict[tuple[int, ...], list] = {}
        for p in prefixes:
            by_parent.setdefault(p[:-1], []).append(p)
        for siblings in by_parent.values():
            draws = sorted(rng.sample(range(_SAMPLE_SPAN), len(siblings)))
            for p, v in zip(siblings, draws):
                values[p] = Fraction(v)
    coords = tuple(
        tuple(values[leaf.path[:level]]
              for level in range(1, ordering.n + 1))
        for leaf in leaves)
    return Configuration(ordering.labels, coords, ordering.n)


def midpoint(a: Configuration, b: Configuration) -> Configuration:
    if a.labels != b.labels or a.n != b.n:
        raise LabelMismatch("configurations must share labels and dimension")
    coords = tuple(tuple((x + y) / 2 for x, y in zip(u, v))
                   for u, v in zip(a.coords, b.coords))
    return Configuration(a.labels, coords, a.n)


def convexity_probe(ordering: NOrdering, samples: int, seed: int) -> bool:
    """Midpoints of sampled cell-point pairs stay in the cell."""
    rng = random.Random(seed)
    for _ in range(samples):
        first = sample_in_cell(ordering, rng)
        second = sample_in_cell(ordering, rng)
        try:
            mid = midpoint(first, second)
        except ValueError:      # midpoint collapsed two points
            return False
        if not in_cell(mid, ordering):
            return False
    return True


def functoriality_check(lower: NOrdering, upper: NOrdering,
                        samples: int, seed: int) -> bool:
    """Cells nest along the poset order: sampled points of the lower
    cell lie in the upper cell."""
    if not leq(lower, upper):
        raise ValueError("orderings are not related; nothing to check")
    rng = random.Random(seed)
    return all(in_cell(sample_in_cell(lower, rng), upper)
               for _ in range(samples))


def partition_check(labels: Iterable[Hashable], n: int,
                    samples: int, seed: int) -> bool:
    """Sampled configurations lie in their classifier's cell, and the
    classifier is the least ordering whose cell contains them."""
    labels = tuple(labels)
    all_orderings = enumerate_nord(labels, n)
    for k in range(samples):
        config = sample(labels, n, seed + k)
        classifier = cell_of(config)
        if not in_cell(config, classifier):
            return False
        for other in all_orderings:
            if in_cell(config, other) != leq(classifier, other):
                return False
    return True
