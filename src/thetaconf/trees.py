"""Planar level trees and their leaf combinatorics.

A planar level tree is a finite rooted tree with a total order on the
children of every vertex.  The level of a vertex is its edge distance to
the root.  A tree "of height n" is a tree whose height is at most n; the
bound n is never stored on the tree, it is passed to the operations that
need it, so the same object can be read at any sufficient height.

A tree computes its invariants when it is built, from its children's,
and keeps them in slots: its height, its edge count, its hash, the
addresses of its deepest vertices in planar order, whether every leaf
sits at the deepest level, where each child's run of deepest leaves
starts (`_offsets`) and its word (`_word`), the branching levels of
consecutive deepest leaves.  Reading one never walks the tree.  A
healthy height-n tree is its word, which `_word_tree` builds back, level
by level from the leaves up.  The leaf readers below are lookups on
these.  `parse_symbol` and `_word_tree` hand out one tree per argument
pair from caches bounded at 4096 entries.

The bracket symbol is a tree's one written form: `render_symbol` writes
it, `parse_symbol` reads it, and repr and pickles hold it.  Both work
from an explicit stack, as `==` does, without recursion, so a tree of
any height can be written, read, compared and pickled.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import NamedTuple

from .errors import (DEFAULT_MAX_COUNT, CapExceeded, SymbolParseError,
                     check_count, check_height, check_type)


class LeafId(NamedTuple):
    """Address of a vertex: child indices along the root-to-vertex path.

    Tuple comparison on equal-length paths is exactly the planar
    left-to-right order, so level-n leaves sort into their planar order
    for free.
    """

    path: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.path)

    def meet(self, other: "LeafId") -> int:
        """Level of the deepest common ancestor of the two vertices."""
        level = 0
        for i, j in zip(self.path, other.path):
            if i != j:
                break
            level += 1
        return level

    def __str__(self):
        return ".".join(str(i) for i in self.path)


@dataclass(frozen=True, slots=True, eq=False)
class PlanarLevelTree:
    """Immutable planar level tree; equality and hashing are structural.

    `__post_init__` computes the invariants from the children's, which
    they hold already, so no tree is walked twice.  Equality compares
    the vertex pairs from a stack; repr and pickles hold the symbol."""

    children: tuple["PlanarLevelTree", ...] = ()
    _hash: int = field(init=False)
    _height: int = field(init=False)
    _edges: int = field(init=False)
    # addresses of the vertices at level height(), in planar order
    _deepest: tuple[LeafId, ...] = field(init=False)
    # where each child's run of deepest leaves starts, then the total:
    # child c owns positions _offsets[c] to _offsets[c + 1] - 1
    _offsets: tuple[int, ...] = field(init=False)
    # branching levels of consecutive deepest leaves: the words of the
    # children that reach below, entries raised by one, joined by 0s
    _word: tuple[int, ...] = field(init=False)
    # True when every leaf sits at level height()
    _balanced: bool = field(init=False)

    def __post_init__(self):
        if type(self.children) is not tuple:
            with suppress(TypeError):
                object.__setattr__(self, "children", tuple(self.children))
        children = self.children
        if type(children) is not tuple or not all(
                isinstance(c, PlanarLevelTree) for c in children):
            raise ValueError(f"children must be an iterable of "
                             f"PlanarLevelTrees, got {children!r}")
        below = max([c._height for c in children], default=-1)
        deepest = [] if children else [LeafId(())]
        offsets, word, edges, balanced = [0], [], len(children), True
        for i, c in enumerate(children):
            edges += c._edges
            if c._height == below:
                deepest += [LeafId((i, *leaf.path)) for leaf in c._deepest]
                word += [b + 1 for b in c._word]
                word.append(0)
                balanced = balanced and c._balanced
            else:
                balanced = False
            offsets.append(len(word))
        # explicit stores: a loop over the fields costs more per tree
        store = object.__setattr__
        store(self, "_hash", hash((children,)))
        store(self, "_height", below + 1)
        store(self, "_edges", edges)
        store(self, "_deepest", tuple(deepest))
        store(self, "_offsets", tuple(offsets))
        store(self, "_word", tuple(word[:-1]))
        store(self, "_balanced", balanced)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not PlanarLevelTree:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if a._hash != b._hash or len(a.children) != len(b.children):
                    return False
                pairs += zip(a.children, b.children)
        return True

    def __reduce__(self):
        # the symbol: the hash holds only in the interpreter that made it
        n = max(self._height, 1)
        return _parse, (render_symbol(self, n), n)

    def height(self) -> int:
        return self._height

    def edge_count(self) -> int:
        return self._edges

    def subtree(self, path: tuple[int, ...]) -> "PlanarLevelTree":
        node = self
        try:
            for i in path:
                if type(i) is not int or not 0 <= i < len(node.children):
                    raise ValueError(f"no vertex at path {path}")
                node = node.children[i]
        except TypeError:       # a path that is not iterable
            raise ValueError(f"no vertex at path {path!r}") from None
        return node

    def __repr__(self):
        n = max(self.height(), 1)
        return f"PlanarLevelTree({render_symbol(self, n)!r})"


ROOT_ONLY = PlanarLevelTree()


@lru_cache(maxsize=4096)
def _word_tree(word: tuple[int, ...], n: int) -> PlanarLevelTree:
    """The healthy height-n tree whose word is `word`, with entries in
    0..n-1, built bottom-up from its len(word) + 1 leaves: at each level
    d from n - 1 down to 0, the vertices separated by an entry d become
    the children of one vertex, and the entries d go."""
    vertices, separators = [ROOT_ONLY] * (len(word) + 1), word
    for d in reversed(range(n)):
        groups = [[vertices[0]]]
        for b, vertex in zip(separators, vertices[1:]):
            if b == d:
                groups[-1].append(vertex)
            else:
                groups.append([vertex])
        vertices = [PlanarLevelTree(tuple(group)) for group in groups]
        separators = [b for b in separators if b != d]
    return vertices[0]


# -- symbol grammar ---------------------------------------------------------
#
#   tree := "[" nat "]" [ "(" tree { "," tree } ")" ]
#
# "[s](T_1,...,T_s)" needs exactly s arguments.  "[0]" never takes a list.
# A bare "[s]" with s >= 1 is only legal where a height-1 object is
# expected.  Whitespace is insignificant.  A token is a nat, a run of
# decimal digits (`\d` is `str.isdecimal`), or one other character.  A
# nat above DEFAULT_MAX_COUNT raises CapExceeded before any of its
# leaves is built.
_TOKEN = re.compile(r"\s*(\d+|\S)")
_COUNT_DIGITS = len(str(DEFAULT_MAX_COUNT))


def parse_symbol(text: str, n: int) -> PlanarLevelTree:
    """Parse a tree symbol as an object of height n (n >= 1).  Equal
    symbols at one height give the same tree object while the cache
    holds it; a malformed symbol raises on every call, and so does a
    count above DEFAULT_MAX_COUNT (CapExceeded)."""
    if not isinstance(text, str):
        raise ValueError(f"a tree symbol must be a string, got {text!r}")
    check_height(n)
    return _parse(text, n)


@lru_cache(maxsize=4096)
def _parse(text: str, n: int) -> PlanarLevelTree:
    """One loop over the tokens.  `lists` holds the argument lists still
    open, each as (its trees so far, its count s, the token index of its
    "["); a tree read inside k of them has the height budget n - k."""
    tokens = _TOKEN.findall(text) + [""]        # "": the end of the text
    lists, i = [], 0
    while True:
        if tokens[i] != "[":
            raise _error(text, "expected '['", i)
        digits = tokens[i + 1]
        if not digits.isdecimal():
            raise _error(text, "expected a natural number", i + 1)
        # a count shorter than the cap's is under it
        s = int(digits) if len(digits) < _COUNT_DIGITS else _long_count(digits)
        if tokens[i + 2] != "]":
            raise _error(text, "expected ']'", i + 2)
        head, budget = i, n - len(lists)
        i += 3
        if tokens[i] == "(":
            if s == 0:
                raise _error(text, "[0] takes no argument list", i)
            if budget < 2:
                raise _error(text, "argument list exceeds the height budget",
                             i)
            lists.append(([], s, head))
            i += 1
            continue
        if s and budget != 1:
            raise _error(text, f"bare [{s}] is only legal as a height-1 "
                               f"object", head, 1)
        tree = PlanarLevelTree((ROOT_ONLY,) * s) if s else ROOT_ONLY
        # close each open list that ends here, until one goes on after ","
        while lists:
            children, s, head = lists[-1]
            children.append(tree)
            if tokens[i] == ",":
                i += 1
                break
            if tokens[i] != ")":
                raise _error(text, "expected ')'", i)
            i += 1
            if len(children) != s:
                raise _error(text, f"[{s}] expects {s} arguments, got "
                                   f"{len(children)}", head, 1)
            lists.pop()
            tree = PlanarLevelTree(tuple(children))
        else:
            if tokens[i]:
                raise _error(text, "trailing input after tree symbol", i)
            return tree


def _long_count(digits: str) -> int:
    """The count written by a run of decimal digits as long as the cap's
    or longer.  CapExceeded when the count has more significant digits
    than the cap, before int() reads it (past 4300 digits int() raises),
    or when its value is above the cap.  Leading zeros, in any script,
    are not significant."""
    first = next((k for k, d in enumerate(map(int, digits)) if d),
                 len(digits))
    size = len(digits) - first
    if size > _COUNT_DIGITS:
        raise CapExceeded("tree symbol count digits", size, _COUNT_DIGITS)
    count = int(digits[first:] or "0")
    if count > DEFAULT_MAX_COUNT:
        raise CapExceeded("tree symbol count", count, DEFAULT_MAX_COUNT)
    return count


def _error(text: str, message: str, k: int, shift: int = 0):
    """The parse error at token k of `text` (its end past the last
    token), or `shift` characters after it."""
    starts = [match.start(1) for match in _TOKEN.finditer(text)]
    return SymbolParseError(message, (starts + [len(text)])[k] + shift)


def render_symbol(t: PlanarLevelTree, n: int) -> str:
    """Canonical symbol of t read as an object of height n.

    The root-only tree renders as "[0]" at every height; any other tree
    at height 1 renders bare "[s]"; otherwise children render at
    height n-1.  parse_symbol(render_symbol(t, n), n) == t.
    """
    _check_fits(t, n)
    # the (tree, height) pairs still to write, and the "," and ")" after them
    parts, stack = [], [(t, n)]
    while stack:
        top = stack.pop()
        if type(top) is str:
            parts.append(top)
            continue
        t, n = top
        s = len(t.children)
        if s == 0 or n == 1:
            parts.append(f"[{s}]")
            continue
        parts.append(f"[{s}](")
        stack.append(")")
        for c in reversed(t.children):
            stack += ((c, n - 1), ",")
        stack.pop()
    return "".join(parts)


# -- leaves and levels ------------------------------------------------------


def level_n_leaves(t: PlanarLevelTree, n: int) -> tuple[LeafId, ...]:
    """All vertices at level exactly n, in planar order.

    In a tree of height <= n every level-n vertex is a leaf, and there
    are level-n vertices only when the height is exactly n.
    """
    _check_fits(t, n)
    return t._deepest if t._height == n else ()


def is_healthy(t: PlanarLevelTree, n: int) -> bool:
    """True when no leaf sits at a level strictly between 0 and n.

    The root-only tree is healthy for every n.
    """
    _check_fits(t, n)
    return not t.children or (t._height == n and t._balanced)


def branching_level(t: PlanarLevelTree, n: int, a: LeafId, b: LeafId) -> int:
    """Level of the deepest common ancestor of two distinct level-n leaves."""
    _check_fits(t, n)
    if a == b:
        raise ValueError(f"branching level needs two distinct leaves, got {a}")
    for leaf in (a, b):
        if not isinstance(leaf, LeafId):
            raise ValueError(f"a leaf must be a LeafId, got {leaf!r}")
        try:
            level = leaf.level
        except TypeError:       # a path with no length
            raise ValueError(f"no vertex at path {leaf.path!r}") from None
        if level != n:
            raise ValueError(f"{leaf} is not a level-{n} leaf")
        t.subtree(leaf.path)
    return a.meet(b)


def healthify(t: PlanarLevelTree, n: int) -> PlanarLevelTree:
    """Subtree spanned by the root and all vertices with level-n descendants.

    It is the healthy tree of t's word, or the root alone when t has no
    level-n leaves, so those leaves come out unchanged and in the same
    planar order.  Idempotent; the result is healthy at n.
    """
    _check_fits(t, n)
    return _word_tree(t._word, n) if t._height == n else ROOT_ONLY


def _check_fits(t: PlanarLevelTree, n: int):
    if type(n) is not int or n < 1:
        check_height(n)     # raises: a height is an int >= 1
    try:
        height = t._height
    except AttributeError:
        check_type(t, PlanarLevelTree, "a tree")
        raise
    if height > n:
        raise ValueError(f"tree of height {height} does not fit height {n}")


# -- enumeration ------------------------------------------------------------


def enumerate_trees(max_edges: int, height: int) -> tuple[PlanarLevelTree, ...]:
    """All planar level trees with at most max_edges edges and height
    at most `height`, in a fixed deterministic order (by edge count,
    then recursively by first subtree).  The trees are counted first,
    by the same recursion, and more than DEFAULT_MAX_COUNT of them
    raise CapExceeded before any is built."""
    check_count(max_edges, "max_edges")
    check_count(height, "tree height")

    # The memos live for one call, so subtrees are shared within the
    # result and nothing outlives it.  Forests are counted with their
    # connecting edges: a forest of k trees with e_1..e_k edges costs
    # k + sum(e_i).  A tree of height at most h is a root over a forest
    # of height at most h - 1.
    @cache
    def forest_count(edges, height):
        """Forests of trees of height at most `height`: at height 0 one
        of each size, at height -1 only the empty one."""
        if edges == 0 or height <= 0:
            return int(edges == 0 or height == 0)
        return sum(forest_count(first_edges, height - 1)
                   * forest_count(edges - 1 - first_edges, height)
                   for first_edges in range(edges))

    # in ascending edges, so each count finds the smaller ones memoised
    total = sum(forest_count(edges, height - 1)
                for edges in range(max_edges + 1))
    if total > DEFAULT_MAX_COUNT:
        raise CapExceeded("trees", total, DEFAULT_MAX_COUNT)

    @cache
    def forests(edges, height):
        if edges == 0:
            return ((),)
        return tuple((first,) + tail
                     for first_edges in range(edges)
                     for first in trees(first_edges, height)
                     for tail in forests(edges - 1 - first_edges, height))

    @cache
    def trees(edges, height):
        if edges == 0:
            return (ROOT_ONLY,)
        if height < 1:
            return ()
        return tuple(PlanarLevelTree(f) for f in forests(edges, height - 1))

    return tuple(t for edges in range(max_edges + 1)
                 for t in trees(edges, height))
