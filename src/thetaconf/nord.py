"""Height-n orderings of a finite label set and their poset.

An n-ordering of A is a healthy height-n tree together with a bijection
of its level-n leaves with A.  Its compact encoding is the pair
(labels, word): the labels in planar leaf order and the word of
branching levels of consecutive leaves.  Branching levels of
non-adjacent pairs are the minimum of the word entries in between,
which is why the encoding is faithful.

Every reader of pair levels goes through one table per ordering,
computed on first use and kept with the instance: `positions` sends
each label to its planar index, and `levels[i][j]` is the branching
level of the leaves at positions i and j.  Comparisons therefore work
over positions and need only hashable labels, never an order on them.

There are r! * n^(r-1) such orderings for |A| = r >= 1 and exactly one
for r = 0.  The order relation: S <= T when every pairwise branching
level weakly drops from S to T and pairs with equal levels keep their
relative order.  Morphisms strictly raise the edge count, so the poset
is graded by `degree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import factorial
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import DEFAULT_MAX_COUNT, CapExceeded, LabelMismatch
from .trees import PlanarLevelTree, is_healthy, level_n_leaves


@dataclass(frozen=True)
class NOrdering:
    labels: tuple[Hashable, ...]
    word: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"height parameter must be >= 1, got {self.n}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        expected = max(len(self.labels) - 1, 0)
        if len(self.word) != expected:
            raise ValueError(f"word length {len(self.word)}, expected {expected}")
        for b in self.word:
            if not 0 <= b <= self.n - 1:
                raise ValueError(f"word entry {b} outside 0..{self.n - 1}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def positions(self) -> dict[Hashable, int]:
        """Planar index of each label."""
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Symmetric r x r table of branching levels by position: the
        minimum of the word between positions i and j, and n on the
        diagonal."""
        r, word = self.size, self.word
        rows = [[self.n] * r for _ in range(r)]
        for i in range(r):
            level = self.n
            for j in range(i + 1, r):
                level = min(level, word[j - 1])
                rows[i][j] = rows[j][i] = level
        return tuple(map(tuple, rows))

    def text(self) -> str:
        """Alternating form "a 0 b 1 c"."""
        bits = []
        for i, label in enumerate(self.labels):
            if i:
                bits.append(str(self.word[i - 1]))
            bits.append(str(label))
        return " ".join(bits)

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "word": list(self.word),
                "n": self.n}

    @classmethod
    def from_json(cls, data: Mapping) -> "NOrdering":
        return cls(tuple(data["labels"]), tuple(data["word"]), data["n"])


def parse_text(text: str, n: int) -> NOrdering:
    """Inverse of NOrdering.text(); token positions disambiguate labels
    from word entries, so numeric-looking labels are fine."""
    tokens = text.split()
    if not tokens:
        return NOrdering((), (), n)
    if len(tokens) % 2 == 0:
        raise ValueError("alternating form needs an odd number of tokens")
    labels = tuple(tokens[0::2])
    word = tuple(int(tok) for tok in tokens[1::2])
    return NOrdering(labels, word, n)


def pair_level(ordering: NOrdering, a: Hashable, b: Hashable) -> int:
    """Branching level of an arbitrary pair: min of the word between."""
    try:
        i, j = ordering.positions[a], ordering.positions[b]
    except KeyError as exc:
        raise LabelMismatch(
            f"{exc.args[0]!r} is not a label of the ordering") from None
    if i == j:
        raise ValueError(f"distinct labels required, got {a!r} twice")
    return ordering.levels[i][j]


def to_tree(ordering: NOrdering) -> PlanarLevelTree:
    """Healthy height-n tree realizing the ordering; leaf k in planar
    order carries labels[k]."""
    if ordering.size == 0:
        return PlanarLevelTree()
    n = ordering.n
    root: list = []
    spine = [root]
    for _ in range(n):
        node: list = []
        spine[-1].append(node)
        spine.append(node)
    for b in ordering.word:
        del spine[b + 1:]
        for _ in range(b, n):
            node = []
            spine[-1].append(node)
            spine.append(node)

    def freeze(node):
        return PlanarLevelTree(tuple(freeze(c) for c in node))

    return freeze(root)


def from_tree(tree: PlanarLevelTree, n: int,
              labels: Sequence[Hashable]) -> NOrdering:
    """Read off (labels, word) from a healthy tree; labels are taken in
    planar leaf order."""
    if not is_healthy(tree, n):
        raise ValueError("tree is not healthy at the given height")
    leaves = level_n_leaves(tree, n)
    if len(labels) != len(leaves):
        raise LabelMismatch(
            f"{len(labels)} labels for {len(leaves)} level-{n} leaves")
    word = tuple(a.meet(b) for a, b in zip(leaves, leaves[1:]))
    return NOrdering(tuple(labels), word, n)


def degree(ordering: NOrdering) -> int:
    """Edge count of the realizing tree."""
    return to_tree(ordering).edge_count()


def enumerate_nord(labels: Iterable[Hashable], n: int,
                   max_count: int = DEFAULT_MAX_COUNT) -> tuple[NOrdering, ...]:
    """All n-orderings of the label set: label permutations in
    lexicographic order, then words in lexicographic order."""
    try:
        base = tuple(sorted(set(labels)))
    except TypeError:       # mixed label types: any fixed order will do
        base = tuple(sorted(set(labels), key=repr))
    r = len(base)
    total = factorial(r) * n ** max(r - 1, 0)
    if total > max_count:
        raise CapExceeded(f"{total} orderings exceed the cap {max_count}")
    if r == 0:
        return (NOrdering((), (), n),)
    out = []
    for perm in permutations(base):
        for word in product(range(n), repeat=r - 1):
            out.append(NOrdering(perm, word, n))
    return tuple(out)


def leq(a: NOrdering, b: NOrdering) -> bool:
    """Pairwise branching levels weakly drop and ties keep the pair's
    relative order.  Reflexive; the induced strict relation is a partial
    order."""
    if a.n != b.n:
        raise LabelMismatch(f"height parameters differ: {a.n} vs {b.n}")
    if a.size != b.size:
        raise LabelMismatch("label sets differ")
    # a's positions carried over to b: pair (i, j) of a is (p[i], p[j]) in b
    try:
        p = list(map(b.positions.__getitem__, a.labels))
    except KeyError:
        raise LabelMismatch("label sets differ") from None
    levels_a, levels_b = a.levels, b.levels
    r = len(p)
    for i in range(r):
        pi, row_a, row_b = p[i], levels_a[i], levels_b[p[i]]
        for j in range(i + 1, r):
            pj = p[j]
            level_a, level_b = row_a[j], row_b[pj]
            if level_b > level_a or (level_b == level_a and pj < pi):
                return False
    return True


def sigma_act(g: Mapping, ordering: NOrdering) -> NOrdering:
    """Relabel through a bijection of the label set; the word (the tree
    shape) is untouched."""
    if not all(x in g for x in ordering.labels):
        raise LabelMismatch("not a bijection of the label set")
    values = [g[x] for x in ordering.labels]
    if set(values) != set(ordering.labels):
        raise LabelMismatch("not a bijection of the label set")
    return NOrdering(tuple(values), ordering.word, ordering.n)


class PosetView:
    """Finite poset with a fixed element order.  The relation is stored
    as per-element bitmasks, which keeps cover computation and
    transitivity checks cheap."""

    def __init__(self, elements: Sequence, leq_fn: Callable):
        self.elements = tuple(elements)
        self.leq = leq_fn
        n = len(self.elements)
        self.above = [0] * n     # strictly-above bitmask per element
        self.below = [0] * n
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                if i != j and leq_fn(x, y):
                    self.above[i] |= 1 << j
                    self.below[j] |= 1 << i

    @classmethod
    def of_orderings(cls, labels: Iterable[Hashable], n: int,
                     max_count: int = DEFAULT_MAX_COUNT) -> "PosetView":
        return cls(enumerate_nord(labels, n, max_count), leq)

    def relation(self) -> list[tuple[int, int]]:
        """Strictly related index pairs (i, j) with elements[i] < elements[j]."""
        out = []
        for i in range(len(self.elements)):
            mask = self.above[i]
            while mask:
                low = mask & -mask
                out.append((i, low.bit_length() - 1))
                mask ^= low
        return out

    def covers(self) -> list[tuple[int, int]]:
        """Pairs with nothing strictly in between."""
        return [(i, j) for i, j in self.relation()
                if not self.above[i] & self.below[j]]

    def is_partial_order(self) -> bool:
        n = len(self.elements)
        for i in range(n):
            if not self.leq(self.elements[i], self.elements[i]):
                return False
            if self.above[i] & self.below[i]:       # antisymmetry
                return False
            mask = self.above[i]
            while mask:                             # transitivity
                low = mask & -mask
                j = low.bit_length() - 1
                if self.above[j] & ~self.above[i]:
                    return False
                mask ^= low
        return True


def hasse(view: PosetView) -> list[tuple]:
    """Cover pairs as element pairs, deterministic order."""
    return [(view.elements[i], view.elements[j]) for i, j in view.covers()]
