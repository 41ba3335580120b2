"""Configuration cells in n-space, classified by orderings.

A configuration places the label set injectively in rational n-space.
The cell of an ordering S consists of the configurations where, for
a before b in S with branching level beta, the first beta coordinates
of a and b agree and coordinate beta+1 weakly increases.  Every
configuration lies in the cell of exactly one classifier: sort the
points lexicographically and count leading coordinate agreements of
neighbours.  Membership in any other cell is governed by the poset
order on classifiers, which `verify cells` checks rather than assumes.
Points inside a given cell, the integer witness and seeded random
samples, come from one walk over the word, leaf by leaf.  All
arithmetic is exact (fractions), so ties are honest ties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping

from .errors import LabelMismatch
from .nord import NOrdering, leq

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

    @cached_property
    def ranks(self) -> dict[Hashable, tuple[int, ...]]:
        """Each label's point with every coordinate replaced by its dense
        rank among the distinct values on that axis; ties and order are
        kept, so every comparison of coordinates reads the same."""
        axes = [{v: k for k, v in enumerate(sorted(set(axis)))}
                for axis in zip(*self.coords)]
        return {label: tuple(rank[x] for rank, x in zip(axes, vec))
                for label, vec in zip(self.labels, self.coords)}

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
    if config.ranks.keys() != ordering.positions.keys():
        raise LabelMismatch("label sets differ")


def in_cell(config: Configuration, ordering: NOrdering) -> bool:
    """Exact membership test against the ordering's defining equalities
    and weak inequalities.  Only neighbours in planar order are checked:
    a pair further apart branches at the least word entry between them,
    so its conditions follow from its neighbours' by transitivity."""
    _common_checks(config, ordering)
    points = list(map(config.ranks.__getitem__, ordering.labels))
    for pa, pb, beta in zip(points, points[1:], ordering.word):
        if pa[:beta] != pb[:beta] or pa[beta] > pb[beta]:
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


def _walk(ordering: NOrdering,
          step: Callable[[int, int], int]) -> Configuration:
    """One point per leaf, in planar order, from the first leaf at the
    origin: leaf k copies the first b = word[k-1] coordinates of leaf
    k-1 and moves each later axis a (0-based, so a >= b) by step(a, b).
    A positive step on axis b puts leaf k after leaf k-1 in the
    lexicographic order, agreeing on exactly b leading coordinates, so
    the configuration classifies to the ordering itself."""
    point = [Fraction(0)] * ordering.n
    coords = [tuple(point)] if ordering.size else []
    for b in ordering.word:
        for axis in range(b, ordering.n):
            point[axis] += step(axis, b)
        coords.append(tuple(point))
    return Configuration(ordering.labels, tuple(coords), ordering.n)


def witness(ordering: NOrdering) -> Configuration:
    """Integer configuration in the cell's interior: coordinate i of a
    leaf is the planar index of its level-i ancestor among all level-i
    vertices.  A leaf branching off at level b shares its first b
    ancestors with the leaf before it and starts a new vertex, the next
    in planar order, at every deeper level: each of those coordinates
    moves by one."""
    return _walk(ordering, lambda axis, b: 1)


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
    """Random point of the cell: the witness walk with random steps,
    positive on the axis where a leaf branches off and of either sign
    on the axes after it.  All defining equalities hold by construction
    and the inequalities hold strictly.  The first leaf stays at the
    origin; every cell is invariant under translation."""
    def step(axis: int, b: int) -> int:
        return rng.randrange(1 if axis == b else -_SAMPLE_SPAN, _SAMPLE_SPAN)

    return _walk(ordering, step)


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
