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
is graded by `degree`, which the word gives as n + sum(n - b).

The covers of S come from one local tree move (`upper_covers`): take a
vertex at depth d, 1 <= d <= n - 1, with at least two children, split
its children into two nonempty subsequences A and B that keep their
order, and hang A then B under two adjacent siblings at depth d.  In
the word, the boundary between A and B becomes d - 1 and every other
boundary between the children stays d; the degree rises by one.  These
are the codimension-one incidences of the Fox-Neuwirth cells.
`PosetView.of_orderings` builds the poset from these moves alone: the
strictly-above set of S is the union of its covers and theirs, filled
from the top degree down, so it never calls `leq`.
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
    """Edge count of the realizing tree: n edges down to the first leaf,
    and n - b more for each further leaf branching off at level b."""
    if not ordering.size:
        return 0
    n = ordering.n
    return n + sum(n - b for b in ordering.word)


def enumerate_nord(labels: Iterable[Hashable], n: int,
                   max_count: int = DEFAULT_MAX_COUNT) -> tuple[NOrdering, ...]:
    """All n-orderings of the label set: label permutations in
    lexicographic order, then words in lexicographic order."""
    if n < 1:
        raise ValueError(f"height parameter must be >= 1, got {n}")
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


def _cover_moves(labels: tuple, word: tuple, n: int):
    """(labels, word) of each ordering that covers (labels, word), one
    per split of the children of a vertex at depth 1..n-1."""
    r = len(labels)
    for d in range(1, n):
        start = 0
        for end in range(1, r + 1):
            if end < r and word[end - 1] >= d:
                continue
            # positions start..end-1 are the leaves below one depth-d
            # vertex; boundaries equal to d separate its children
            cuts = [k for k in range(start + 1, end) if word[k - 1] == d]
            if cuts:
                bounds = [start, *cuts, end]
                blocks = [(labels[a:b], word[a:b - 1])
                          for a, b in zip(bounds, bounds[1:])]
                for split in range(1, (1 << len(blocks)) - 1):
                    # the blocks of A (bits set in split), then those of B
                    moved = [b for k, b in enumerate(blocks) if split >> k & 1]
                    moved += [b for k, b in enumerate(blocks)
                              if not split >> k & 1]
                    joint = split.bit_count()
                    new_labels, new_word = labels[:start], word[:start]
                    for k, (block_labels, block_word) in enumerate(moved):
                        if k:
                            new_word += (d - 1 if k == joint else d,)
                        new_labels += block_labels
                        new_word += block_word
                    yield new_labels + labels[end:], new_word + word[end - 1:]
            start = end


def upper_covers(ordering: NOrdering) -> tuple[NOrdering, ...]:
    """The orderings that cover this one, each one degree higher."""
    return tuple(NOrdering(labels, word, ordering.n) for labels, word
                 in _cover_moves(ordering.labels, ordering.word, ordering.n))


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


def _bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending.  Scans the binary digits once:
    peeling off the lowest bit would copy the whole int for every bit."""
    digits = bin(mask)[:1:-1]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


class PosetView:
    """Finite poset with a fixed element order, held as one relation:
    `above[i]` is the bitmask of the elements strictly above element i,
    and `ups[i]` lists its covers, ascending.  The constructor decides
    the relation by calling `leq_fn` on every ordered pair and derives
    the covers from the masks; `of_orderings` builds the same view from
    cover moves instead."""

    def __init__(self, elements: Sequence, leq_fn: Callable):
        self.elements = tuple(elements)
        self.leq = leq_fn
        self.above = [0] * len(self.elements)
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                if i != j and leq_fn(x, y):
                    self.above[i] |= 1 << j
        # j covers i when it lies above i but above nothing above i
        self.ups = []
        for mask in self.above:
            bits = _bits(mask)
            beyond = 0
            for m in bits:
                beyond |= self.above[m]
            self.ups.append([j for j in bits if not beyond >> j & 1])

    @classmethod
    def of_orderings(cls, labels: Iterable[Hashable], n: int,
                     max_count: int = DEFAULT_MAX_COUNT) -> "PosetView":
        """The poset of n-orderings in `enumerate_nord` order, built from
        cover moves without calling `leq`."""
        elements = enumerate_nord(labels, n, max_count)
        index = {(e.labels, e.word): k for k, e in enumerate(elements)}
        count = len(elements)
        ups: list[list[int]] = [[] for _ in range(count)]
        above = [0] * count
        # descending degree: each element's covers come before it
        for k in sorted(range(count), key=lambda k: sum(elements[k].word)):
            e = elements[k]
            mask = 0
            for key in _cover_moves(e.labels, e.word, n):
                j = index[key]
                ups[k].append(j)
                mask |= above[j] | 1 << j
            above[k] = mask
            ups[k].sort()
        view = cls.__new__(cls)
        view.elements, view.leq = elements, leq
        view.above, view.ups = above, ups
        return view

    def relation(self) -> list[tuple[int, int]]:
        """Strictly related index pairs (i, j) with elements[i] < elements[j]."""
        return [(i, j) for i, mask in enumerate(self.above)
                for j in _bits(mask)]

    def covers(self) -> list[tuple[int, int]]:
        """Pairs with nothing strictly in between."""
        return [(i, j) for i, row in enumerate(self.ups) for j in row]

    def is_partial_order(self) -> bool:
        """`leq` is reflexive, no element lies above itself, and the
        elements above i are exactly its covers and what lies above
        them.  These suffice.  A cover j of i then has j in above[i]
        and above[j] inside above[i], so along a cycle of covers through
        i the masks would put i in above[i]: the cover graph is acyclic.
        On a finite acyclic graph the third condition, read from the
        sinks up, makes above[i] the set reached from i by one or more
        covers.  So the strict relation is the transitive closure of an
        acyclic graph, which is irreflexive and transitive.  Conversely
        a finite partial order passes when `ups` lists its covers, as
        both constructors make it.  The check costs one OR per cover."""
        for i, x in enumerate(self.elements):
            if not self.leq(x, x) or self.above[i] >> i & 1:
                return False
            closure = 0
            for j in self.ups[i]:
                closure |= self.above[j] | 1 << j
            if closure != self.above[i]:
                return False
        return True


def hasse(view: PosetView) -> list[tuple]:
    """Cover pairs as element pairs, deterministic order."""
    return [(view.elements[i], view.elements[j]) for i, j in view.covers()]
