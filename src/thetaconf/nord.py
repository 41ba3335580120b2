"""Height-n orderings of a finite label set and their poset.

An n-ordering of A is a healthy height-n tree together with a bijection
of its level-n leaves with A.  Its compact encoding is the pair
(labels, word): the labels in planar leaf order and the word of
branching levels of consecutive leaves.  Branching levels of
non-adjacent pairs are the minimum of the word entries in between,
which is why the encoding is faithful.

An ordering is a `_Table`: it keeps its pair keys over a shared
label alphabet, which `_Table` describes, and adds `checks`, which
lists, for each planar neighbour pair x then y, the index ix * r + iy
of its key and twice the word entry between them.  `pair_level` halves
a key.  `leq(a, b)` reads b's checks against a's keys.  Comparisons
work over alphabet indices and need only hashable labels, never an
order on them.  `to_tree` builds the tree of each (word, n) once, with
`trees._word_tree`, and `from_tree` reads the word back off a healthy
tree (`_word`).

The public constructors and entry points check their arguments; the
orderings built from inputs that have already been checked (the
enumeration, the covers, relabelling and `from_tree` after its own
checks) are made by the private `_unchecked` constructor and not
checked again.

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
are the codimension-one incidences of the Fox-Neuwirth cells.  A move
depends on the word alone: `_cover_moves(word, n)` lists each as the
new word and the positions its labels come from, once per word in a
bounded cache, and `upper_covers` reads the labels through them.
`PosetView.of_orderings` builds the poset from these moves alone.
Element p * W + q, with W = n^(r-1), is the p-th label permutation
over the q-th word, so a cover's address is the rank of the permuted
labels times W plus the rank of the new word.  The strictly-above set
of S is the union of its covers and theirs, filled from the top degree
down, so the build never calls `leq`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import (DEFAULT_MAX_COUNT, CapExceeded, LabelMismatch,
                     bijection_values, check_count, check_height, check_labels,
                     check_type, json_field, json_items)
from .trees import PlanarLevelTree, _word_tree, is_healthy, level_n_leaves


class _Table:
    """Labels with a flat table of pair keys over a shared alphabet:
    what `leq` compares two orderings on, and `cells.in_cell` a
    configuration with an ordering.

    A table is a frozen slotted dataclass with the fields `labels`
    (distinct hashable labels), its values (`word` or `coords`), `n`
    and `_tables`, which `_fill` fills on first use from the class's
    `_tables_over`.  A slot, not a cached property: an instance dict
    would make every later attribute read on the object slow.
    `alphabet` numbers the labels, in one dict per label set while the
    cache of `_alphabet` holds it.  keys[ix * r + iy], for labels x and
    y with indices ix and iy, is twice the level at which they separate,
    plus 1 when x comes first; 2n on the diagonal.  `leq` and `in_cell`
    each test, in their own frame, that the key at each of the
    ordering's checks exceeds its bound.  A foreign alphabet (a pickled
    or copied table may hold its own) or a mismatch goes through
    `_checks_over`, which names `n` by the class's `_dimension`.
    `_check_table` holds the constructor rules on `n` and `labels`."""

    __slots__ = ()

    def _check_table(self) -> None:
        """Check `n`, then the labels, and store these as a tuple."""
        check_height(self.n)
        object.__setattr__(self, "labels", check_labels(self.labels))

    @classmethod
    def _unchecked(cls, labels: tuple, values: tuple, n: int):
        """The table with these fields, unchecked: callers guarantee
        what the public constructor checks."""
        self = object.__new__(cls)
        # explicit stores: a loop over the fields costs more per object
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, cls.__slots__[1], values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_tables", None)
        return self

    @property
    def alphabet(self) -> dict[Hashable, int]:
        """Index of each label, shared by equal label sets."""
        return (self._tables or _fill(self))[0]

    @property
    def keys(self) -> tuple[int, ...]:
        """Flat r x r table of pair keys by alphabet index."""
        return (self._tables or _fill(self))[1]


@dataclass(frozen=True, slots=True)
class NOrdering(_Table):
    """A table over the `word`: the key of two labels is twice the
    minimum of the word between them, plus 1 for the first."""

    labels: tuple[Hashable, ...]
    word: tuple[int, ...]
    n: int
    # (alphabet, keys, checks), filled by `_fill` on first use
    _tables: tuple | None = field(default=None, init=False, compare=False,
                                  repr=False)
    _dimension = "height parameters"

    def __post_init__(self):
        self._check_table()
        try:
            word = tuple(self.word)
        except TypeError:
            raise ValueError(f"word must be iterable, got {self.word!r}") \
                from None
        expected = max(len(self.labels) - 1, 0)
        if len(word) != expected:
            raise ValueError(f"word length {len(word)}, expected {expected}")
        for b in word:
            # a type check, not isinstance: a bool is not an integer here
            if type(b) is not int:
                raise ValueError(f"word entries must be integers, got {b!r}")
            if not 0 <= b <= self.n - 1:
                raise ValueError(f"word entry {b} outside 0..{self.n - 1}")
        object.__setattr__(self, "word", word)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def checks(self) -> tuple[tuple[int, int], ...]:
        """(key index, bound) of each planar neighbour pair, over this
        ordering's own alphabet."""
        return (self._tables or _fill(self))[2]

    def _tables_over(self, alphabet: Mapping[Hashable, int]) -> tuple:
        """(alphabet, keys, checks) over `alphabet`, an alphabet of the
        labels."""
        r, word, n = self.size, self.word, self.n
        cols = [alphabet[x] for x in self.labels]
        rows = [c * r for c in cols]
        keys = [2 * n] * (r * r)
        for i in range(r):
            level = n
            for j in range(i + 1, r):
                level = min(level, word[j - 1])
                keys[rows[i] + cols[j]] = 2 * level + 1
                keys[rows[j] + cols[i]] = 2 * level
        return alphabet, tuple(keys), _checks(self, alphabet)

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
        return cls(json_items(data, "labels", Hashable),
                   json_items(data, "word", int), json_field(data, "n", int))


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


def _fill(table) -> tuple:
    """Fill the `_tables` slot of an ordering or a configuration over the
    shared alphabet of its label set, and return the tables."""
    tables = table._tables_over(_alphabet(frozenset(table.labels)))
    object.__setattr__(table, "_tables", tables)
    return tables


@lru_cache(maxsize=256)
def _alphabet(labels: frozenset) -> dict[Hashable, int]:
    """Index of each label of the set, in the set's iteration order.
    Equal label sets get the same dict while the cache holds it, so the
    label check of a comparison is usually an identity test."""
    return {label: i for i, label in enumerate(labels)}


def _checks(ordering: NOrdering,
            alphabet: Mapping[Hashable, int]) -> tuple[tuple[int, int], ...]:
    """(ix * r + iy, 2 * beta) for each planar neighbour pair x then y of
    the ordering with word entry beta between them, where ix and iy are
    the indices of x and y in `alphabet`, an alphabet of its labels."""
    r = len(alphabet)
    labels = ordering.labels
    return tuple((alphabet[x] * r + alphabet[y], 2 * beta)
                 for x, y, beta in zip(labels, labels[1:], ordering.word))


def pair_level(ordering: NOrdering, a: Hashable, b: Hashable) -> int:
    """Branching level of an arbitrary pair: min of the word between."""
    try:
        labels, size = ordering.labels, ordering.size
    except AttributeError:
        check_type(ordering, NOrdering, "an ordering")
        raise
    for x in (a, b):
        if x not in labels:
            raise LabelMismatch(f"{x!r} is not a label of the ordering")
    i, j = ordering.alphabet[a], ordering.alphabet[b]
    if i == j:
        raise ValueError(f"distinct labels required, got {a!r} twice")
    return ordering.keys[i * size + j] >> 1


def to_tree(ordering: NOrdering) -> PlanarLevelTree:
    """Healthy height-n tree realizing the ordering; leaf k in planar
    order carries labels[k].  Orderings with the same word and n share
    one tree object, so its cached invariants are computed once."""
    try:
        labels, word, n = ordering.labels, ordering.word, ordering.n
    except AttributeError:
        check_type(ordering, NOrdering, "an ordering")
        raise
    return _word_tree(word, n) if labels else PlanarLevelTree()


def from_tree(tree: PlanarLevelTree, n: int,
              labels: Sequence[Hashable]) -> NOrdering:
    """Read off (labels, word) from a healthy tree; labels are taken in
    planar leaf order."""
    labels = check_labels(labels)
    if not is_healthy(tree, n):
        raise ValueError("tree is not healthy at the given height")
    leaves = level_n_leaves(tree, n)
    if len(labels) != len(leaves):
        raise LabelMismatch(
            f"{len(labels)} labels for {len(leaves)} level-{n} leaves")
    return NOrdering._unchecked(labels, tree._word, n)


def degree(ordering: NOrdering) -> int:
    """Edge count of the realizing tree: n edges down to the first leaf,
    and n - b more for each further leaf branching off at level b."""
    try:
        labels, word, n = ordering.labels, ordering.word, ordering.n
    except AttributeError:
        check_type(ordering, NOrdering, "an ordering")
        raise
    return n + sum(n - b for b in word) if labels else 0


def enumerate_nord(labels: Iterable[Hashable], n: int,
                   max_count: int = DEFAULT_MAX_COUNT) -> tuple[NOrdering, ...]:
    """All n-orderings of the distinct labels: label permutations in
    lexicographic order, then words in lexicographic order."""
    check_height(n)
    labels = check_labels(labels)
    check_count(max_count, "max_count")
    try:
        base = tuple(sorted(labels))
    except TypeError:       # mixed label types: any fixed order will do
        base = tuple(sorted(labels, key=repr))
    r = len(base)
    total = factorial(r) * n ** max(r - 1, 0)
    if total > max_count:
        raise CapExceeded("orderings", total, max_count)
    out = []
    for perm in permutations(base):
        for word in product(range(n), repeat=max(r - 1, 0)):
            out.append(NOrdering._unchecked(perm, word, n))
    return tuple(out)


@lru_cache(maxsize=4096)
def _cover_moves(word: tuple[int, ...],
                 n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(new_word, positions) of each ordering that covers an ordering
    with this word, one per split of the children of a vertex at depth
    1..n-1: label i of the covering ordering is the label at
    positions[i] of the covered one.  A move depends on the word alone."""
    r = len(word) + 1
    moves = []
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
                blocks = [(tuple(range(a, b)), word[a:b - 1])
                          for a, b in zip(bounds, bounds[1:])]
                for split in range(1, (1 << len(blocks)) - 1):
                    # the blocks of A (bits set in split), then those of B
                    moved = [b for k, b in enumerate(blocks) if split >> k & 1]
                    moved += [b for k, b in enumerate(blocks)
                              if not split >> k & 1]
                    joint = split.bit_count()
                    new_positions, new_word = tuple(range(start)), word[:start]
                    for k, (block_positions, block_word) in enumerate(moved):
                        if k:
                            new_word += (d - 1 if k == joint else d,)
                        new_positions += block_positions
                        new_word += block_word
                    moves.append((new_word + word[end - 1:],
                                  new_positions + tuple(range(end, r))))
            start = end
    return tuple(moves)


def upper_covers(ordering: NOrdering) -> tuple[NOrdering, ...]:
    """The orderings that cover this one, each one degree higher."""
    try:
        labels, word, n = ordering.labels, ordering.word, ordering.n
    except AttributeError:
        check_type(ordering, NOrdering, "an ordering")
        raise
    return tuple(NOrdering._unchecked(tuple(labels[i] for i in positions),
                                      new_word, n)
                 for new_word, positions in _cover_moves(word, n))


def leq(a: NOrdering, b: NOrdering) -> bool:
    """Pairwise branching levels weakly drop and ties keep the pair's
    relative order.  Reflexive; the induced strict relation is a partial
    order.

    Only b's planar neighbours are checked: for each x then y in b with
    the word entry beta between them, at positions i and j of a, it
    fails when a's level of the pair is below beta, or equal to it with
    i > j.  That suffices.  Take any x before y in b, with the chain of
    b's neighbours between them; their level in b is the least word
    entry m along it.  Levels in a are ultrametric: the level of two
    leaves is at least the least level along any chain joining them.
    Every link of the chain has a-level at least its beta >= m, so x
    and y have a-level >= m.  When that level is exactly m, all leaves
    of the chain lie below one depth-m vertex v of a, with x and y under
    different children of v.  A link with a-level above m stays inside
    one child; a link with a-level m has beta = m, so the tie rule makes
    it move to a child further right.  So the child of v walks
    rightward from x's to y's, and x comes before y in a.  The checks
    are necessary, since neighbour pairs are pairs.

    A pair fails exactly when its key in a is at most 2 * beta, so the
    test reads b's `checks` against a's `keys`.  They index one
    alphabet when a and b share it, as equal label sets do while the
    cache holds it; otherwise `_checks_over` reads b's checks again over
    a's alphabet, or raises LabelMismatch.  An argument that is not an
    ordering fails the unpacking of its tables and raises ValueError."""
    try:
        alphabet, keys, _ = a._tables or _fill(a)
        b_alphabet, _, checks = b._tables or _fill(b)
    except (AttributeError, ValueError):
        check_type(a, NOrdering, "an ordering")
        check_type(b, NOrdering, "an ordering")
        raise
    if alphabet is not b_alphabet or a.n != b.n:
        checks = _checks_over(a, b)
    for k, bound in checks:
        if keys[k] <= bound:
            return False
    return True


def _checks_over(table: _Table,
                 ordering: NOrdering) -> tuple[tuple[int, int], ...]:
    """The checks of `ordering` over the alphabet of `table`, for `leq`
    and `cells.in_cell` when the two do not share one alphabet or one
    height.  Raises LabelMismatch, before any pair is read, when the
    heights differ (named by the table's `_dimension`) or the label
    sets do."""
    if table.n != ordering.n:
        raise LabelMismatch(f"{table._dimension} differ: {table.n} vs "
                            f"{ordering.n}")
    alphabet = table.alphabet
    if alphabet.keys() != ordering.alphabet.keys():
        raise LabelMismatch("label sets differ")
    return _checks(ordering, alphabet)


def sigma_act(g: Mapping, ordering: NOrdering) -> NOrdering:
    """Relabel through a bijection of the label set; the word (the tree
    shape) is untouched."""
    try:
        labels, word, n = ordering.labels, ordering.word, ordering.n
    except AttributeError:
        check_type(ordering, NOrdering, "an ordering")
        raise
    return NOrdering._unchecked(bijection_values(g, labels), word, n)


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
        word moves without calling `leq`.  With W = n^(r-1) words per
        permutation, element p * W + q is the p-th label permutation
        over the q-th word.  Each word's moves are walked once, and a
        move (new_word, positions) takes element p * W + q to the one
        whose permutation reads the p-th at `positions` and whose word
        is new_word."""
        elements = enumerate_nord(labels, n, max_count)
        width = n ** max(elements[0].size - 1, 0)
        perms = [e.labels for e in elements[::width]]
        words = [e.word for e in elements[:width]]
        prank = {perm: p for p, perm in enumerate(perms)}
        wrank = {word: q for q, word in enumerate(words)}
        ups: list[list[int]] = [[] for _ in elements]
        above = [0] * len(elements)
        # one int object per address, shared by every `ups` entry
        ids = list(range(len(elements)))
        # descending degree: each element's covers come before it
        for q in sorted(range(width), key=lambda q: sum(words[q])):
            # a move exists only for r >= 2, so each getter gives a tuple
            moves = [(wrank[word], itemgetter(*positions))
                     for word, positions in _cover_moves(words[q], n)]
            for p, perm in enumerate(perms):
                row = [ids[prank[pick(perm)] * width + cover_q]
                       for cover_q, pick in moves]
                mask = 0
                for j in row:
                    mask |= above[j] | 1 << j
                row.sort()
                k = p * width + q
                ups[k], above[k] = row, mask
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
    try:
        elements, covers = view.elements, view.covers()
    except AttributeError:
        check_type(view, PosetView, "a poset")
        raise
    return [(elements[i], elements[j]) for i, j in covers]
