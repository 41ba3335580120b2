"""Configuration cells in n-space, classified by orderings.

A configuration places the label set injectively in rational n-space.
The cell of an ordering S consists of the configurations where, for
a before b in S with branching level beta, the first beta coordinates
of a and b agree and coordinate beta+1 weakly increases.  Every
configuration lies in the cell of exactly one classifier: sort the
points lexicographically and count leading coordinate agreements of
neighbours.  Membership in any other cell is governed by the poset
order on classifiers, which `verify cells` checks rather than assumes.
A configuration is a `nord._Table`, like an ordering: its pair keys,
read from its coordinates, let `in_cell` run the test of `nord.leq`.
Points inside a given cell, the integer witness and seeded random
samples, come from one walk over the word, leaf by leaf.  All
arithmetic is exact, so ties are honest ties: the constructor holds
each coordinate as an int when it is integral and as a Fraction
otherwise, so integer points compare and hash at C speed.

The public constructors and entry points check their arguments; the
configurations and classifiers built from inputs that have already
been checked (`relabel`, `cell_of` and the walk of `witness` and
`sample_in_cell`) are made by the private `_unchecked` constructors
and not checked again.  `midpoint` stays checked: the midpoints of two
valid configurations may collide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

from .errors import (LabelMismatch, bijection_values, check_count,
                     check_height, check_labels, check_type)
from .nord import NOrdering, _checks_over, _fill, _Table, leq

_SAMPLE_SPAN = 2**40


def _exact(x) -> int | Fraction:
    """A coordinate as an exact number: an int stays as it is; anything
    else goes through Fraction, and an integral result becomes its
    numerator."""
    if type(x) is int:
        return x
    value = Fraction(x)
    return value.numerator if value.denominator == 1 else value


def _point(label: Hashable, vec, n: int) -> tuple[int | Fraction, ...]:
    """The vector of one label as a tuple of n exact coordinates; raises
    ValueError naming the label and the first bad coordinate."""
    try:
        vec = tuple(vec)
    except TypeError:
        raise ValueError(f"point of {label!r} is not a vector: "
                         f"{vec!r}") from None
    if len(vec) != n:
        raise ValueError(f"point of {label!r}, {vec}, is not "
                         f"{n}-dimensional")
    point = []
    for x in vec:
        try:
            point.append(_exact(x))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise ValueError(f"coordinate {x!r} of {label!r} is not a "
                             f"rational number") from None
    return tuple(point)


@dataclass(frozen=True, slots=True)
class Configuration(_Table):
    """Injective map from labels to rational n-vectors, a table whose
    key of two labels is twice the number of leading coordinates their
    points share, plus 1 for the lexicographically first.  The
    constructor turns each vector into a tuple of coordinates through
    `_exact`, the form that `_unchecked` needs as well."""

    labels: tuple[Hashable, ...]
    coords: tuple[tuple[int | Fraction, ...], ...]
    n: int
    # (alphabet, keys), filled by `nord._fill` on first use
    _tables: tuple | None = field(default=None, init=False, compare=False,
                                  repr=False)
    _dimension = "dimensions"

    def __post_init__(self):
        self._check_table()
        labels = self.labels
        try:
            vectors = tuple(self.coords)
        except TypeError:
            raise ValueError(f"coordinates must be iterable, got "
                             f"{self.coords!r}") from None
        if len(labels) != len(vectors):
            raise ValueError("one coordinate vector per label required")
        coords = tuple(_point(label, vec, self.n)
                       for label, vec in zip(labels, vectors))
        if len(set(coords)) != len(coords):
            raise ValueError("configuration points must be pairwise distinct")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_points(cls, points: Mapping, n: int) -> "Configuration":
        labels = tuple(points)
        return cls(labels, tuple(points[label] for label in labels), n)

    def _tables_over(self, alphabet: Mapping[Hashable, int]) -> tuple:
        """(alphabet, keys) over `alphabet`, an alphabet of the labels.
        Each pair is compared once and mirrored."""
        coords, r = self.coords, len(self.coords)
        cols = [alphabet[x] for x in self.labels]
        rows = [c * r for c in cols]
        keys = [2 * self.n] * (r * r)
        for i, u in enumerate(coords):
            for j in range(i + 1, r):
                v = coords[j]
                agree = _agree(u, v)
                first = u[agree] < v[agree]
                keys[rows[i] + cols[j]] = 2 * agree + first
                keys[rows[j] + cols[i]] = 2 * agree + (not first)
        return alphabet, tuple(keys)

    def point(self, label: Hashable) -> tuple[int | Fraction, ...]:
        if label not in self.labels:
            raise LabelMismatch(f"{label!r} is not a label of this "
                                f"configuration")
        return self.coords[self.labels.index(label)]

    def relabel(self, g: Mapping) -> "Configuration":
        """Transport along a bijection of the label set: the point of x
        becomes the point of g(x)."""
        return Configuration._unchecked(bijection_values(g, self.labels),
                                        self.coords, self.n)


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


def in_cell(config: Configuration, ordering: NOrdering) -> bool:
    """Exact membership test against the ordering's defining equalities
    and weak inequalities: for x before y in the ordering with branching
    level beta, the points agree on the first beta coordinates and the
    next one weakly increases, so the points agree on more than beta
    coordinates, or on exactly beta with x first.  That is a pair key
    above 2 * beta.  Only the ordering's planar neighbours are checked:
    a pair further apart branches at the least word entry beta between
    them, so every link of the chain of neighbours joining them agrees
    on the first beta coordinates and weakly increases the one after,
    and its conditions follow by transitivity.  As in `nord.leq`, the
    ordering's checks are read against the configuration's keys when
    both share one alphabet, and through `nord._checks_over` otherwise.
    Arguments of the wrong kind fail the unpacking of their tables and
    raise ValueError."""
    try:
        alphabet, keys = config._tables or _fill(config)
        o_alphabet, _, checks = ordering._tables or _fill(ordering)
    except (AttributeError, ValueError):
        check_type(config, Configuration, "a configuration")
        check_type(ordering, NOrdering, "an ordering")
        raise
    if alphabet is not o_alphabet or config.n != ordering.n:
        checks = _checks_over(config, ordering)
    for k, bound in checks:
        if keys[k] <= bound:
            return False
    return True


def _agree(u: tuple, v: tuple) -> int:
    """Number of leading coordinates two distinct points share; below
    their length, since they differ somewhere."""
    agree = 0
    while u[agree] == v[agree]:
        agree += 1
    return agree


def cell_of(config: Configuration) -> NOrdering:
    """The classifier: labels sorted by lexicographic comparison of
    coordinate vectors; branching level of neighbours = number of
    leading equal coordinates.  Injectivity bounds that count by n-1."""
    try:
        order = sorted(zip(config.coords, config.labels))
    except AttributeError:
        check_type(config, Configuration, "a configuration")
        raise
    labels = tuple(label for _, label in order)
    word = tuple(_agree(u, v) for (u, _), (v, _) in zip(order, order[1:]))
    return NOrdering._unchecked(labels, word, config.n)


def _walk(ordering: NOrdering,
          step: Callable[[int, int], int]) -> Configuration:
    """One point per leaf, in planar order, from the first leaf at the
    origin: leaf k copies the first b = word[k-1] coordinates of leaf
    k-1 and moves each later axis a (0-based, so a >= b) by step(a, b).
    A positive step on axis b puts leaf k after leaf k-1 in the
    lexicographic order, agreeing on exactly b leading coordinates, so
    the configuration classifies to the ordering itself."""
    try:
        labels, word, n = ordering.labels, ordering.word, ordering.n
    except AttributeError:
        check_type(ordering, NOrdering, "an ordering")
        raise
    point = [0] * n
    coords = [tuple(point)] if labels else []
    for b in word:
        for axis in range(b, n):
            point[axis] += step(axis, b)
        coords.append(tuple(point))
    return Configuration._unchecked(labels, tuple(coords), n)


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
    check_height(n)
    labels = check_labels(labels)
    side = max(2, len(labels))
    rng = random.Random(seed)
    coords = []
    for code in rng.sample(range(side ** n), len(labels)):
        digits = []
        for _ in range(n):
            code, digit = divmod(code, side)
            digits.append(digit)
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
    try:
        a_coords, b_coords = a.coords, b.coords
    except AttributeError:
        check_type(a, Configuration, "a configuration")
        check_type(b, Configuration, "a configuration")
        raise
    if a.labels != b.labels or a.n != b.n:
        raise LabelMismatch("configurations must share labels and dimension")
    coords = tuple(tuple(Fraction(x + y, 2) for x, y in zip(u, v))
                   for u, v in zip(a_coords, b_coords))
    return Configuration(a.labels, coords, a.n)


def convexity_probe(ordering: NOrdering, samples: int, seed: int) -> bool:
    """Midpoints of sampled cell-point pairs stay in the cell.  Both
    samples strictly raise coordinate beta + 1 across each planar
    neighbour pair with word entry beta, and so does their midpoint."""
    check_count(samples, "samples")
    rng = random.Random(seed)
    return all(in_cell(midpoint(sample_in_cell(ordering, rng),
                                sample_in_cell(ordering, rng)), ordering)
               for _ in range(samples))


def functoriality_check(lower: NOrdering, upper: NOrdering,
                        samples: int, seed: int) -> bool:
    """Cells nest along the poset order: sampled points of the lower
    cell lie in the upper cell."""
    check_count(samples, "samples")
    if not leq(lower, upper):
        raise ValueError("orderings are not related; nothing to check")
    rng = random.Random(seed)
    return all(in_cell(sample_in_cell(lower, rng), upper)
               for _ in range(samples))
