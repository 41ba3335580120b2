"""Planar level trees and their leaf combinatorics.

A planar level tree is a finite rooted tree with a total order on the
children of every vertex.  The level of a vertex is its edge distance to
the root.  A tree "of height n" is a tree whose height is at most n; the
bound n is never stored on the tree, it is passed to the operations that
need it, so the same object can be read at any sufficient height.

A tree computes its invariants once, bottom-up from its children, and
keeps them with the instance: its height, its edge count, the addresses
of its deepest vertices in planar order, and whether every leaf sits at
the deepest level.  The leaf readers below are lookups on these.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from .errors import SymbolParseError, check_count, check_height


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


@dataclass(frozen=True)
class PlanarLevelTree:
    """Immutable planar level tree; equality and hashing are structural.

    The cached invariants stay out of equality, hashing and repr."""

    children: tuple["PlanarLevelTree", ...] = ()

    @cached_property
    def _height(self) -> int:
        return 1 + max((c.height() for c in self.children), default=-1)

    @cached_property
    def _edges(self) -> int:
        return len(self.children) + sum(c.edge_count() for c in self.children)

    @cached_property
    def _deepest(self) -> tuple[LeafId, ...]:
        """Addresses of the vertices at level height(), in planar order."""
        if not self.children:
            return (LeafId(()),)
        below = self._height - 1
        return tuple(LeafId((i,) + leaf.path)
                     for i, c in enumerate(self.children) if c._height == below
                     for leaf in c._deepest)

    @cached_property
    def _balanced(self) -> bool:
        """True when every leaf sits at level height()."""
        below = self._height - 1
        return all(c._height == below and c._balanced for c in self.children)

    def height(self) -> int:
        return self._height

    def edge_count(self) -> int:
        return self._edges

    def subtree(self, path: tuple[int, ...]) -> "PlanarLevelTree":
        node = self
        for i in path:
            if not 0 <= i < len(node.children):
                raise ValueError(f"no vertex at path {path}")
            node = node.children[i]
        return node

    def __repr__(self):
        n = max(self.height(), 1)
        return f"PlanarLevelTree({render_symbol(self, n)!r})"


ROOT_ONLY = PlanarLevelTree()


def tree(*children: PlanarLevelTree) -> PlanarLevelTree:
    """Convenience constructor: a root with the given subtrees."""
    return PlanarLevelTree(tuple(children))


# -- symbol grammar ---------------------------------------------------------
#
#   tree := "[" nat "]" [ "(" tree { "," tree } ")" ]
#
# "[s](T_1,...,T_s)" needs exactly s arguments.  "[0]" never takes a list.
# A bare "[s]" with s >= 1 is only legal where a height-1 object is
# expected.  Whitespace is insignificant.


def parse_symbol(text: str, n: int) -> PlanarLevelTree:
    """Parse a tree symbol as an object of height n (n >= 1)."""
    check_height(n)
    parser = _SymbolParser(text)
    result = parser.parse_tree(n)
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise SymbolParseError("trailing input after tree symbol", parser.pos)
    return result


class _SymbolParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise SymbolParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SymbolParseError("expected a natural number", start)
        return int(self.text[start : self.pos])

    def parse_tree(self, budget):
        self.expect("[")
        count_pos = self.pos
        s = self.parse_nat()
        self.expect("]")
        self.skip_ws()
        has_list = self.pos < len(self.text) and self.text[self.pos] == "("
        if not has_list:
            if s == 0:
                return ROOT_ONLY
            if budget != 1:
                raise SymbolParseError(
                    f"bare [{s}] is only legal as a height-1 object", count_pos
                )
            return PlanarLevelTree(tuple([ROOT_ONLY] * s))
        if s == 0:
            raise SymbolParseError("[0] takes no argument list", self.pos)
        if budget < 2:
            raise SymbolParseError(
                "argument list exceeds the height budget", self.pos
            )
        self.expect("(")
        children = [self.parse_tree(budget - 1)]
        self.skip_ws()
        while self.pos < len(self.text) and self.text[self.pos] == ",":
            self.pos += 1
            children.append(self.parse_tree(budget - 1))
            self.skip_ws()
        self.expect(")")
        if len(children) != s:
            raise SymbolParseError(
                f"[{s}] expects {s} arguments, got {len(children)}", count_pos
            )
        return PlanarLevelTree(tuple(children))


def render_symbol(t: PlanarLevelTree, n: int) -> str:
    """Canonical symbol of t read as an object of height n.

    The root-only tree renders as "[0]" at every height; any other tree
    at height 1 renders bare "[s]"; otherwise children render at
    height n-1.  parse_symbol(render_symbol(t, n), n) == t.
    """
    check_height(n)
    _check_fits(t, n)
    s = len(t.children)
    if s == 0:
        return "[0]"
    if n == 1:
        return f"[{s}]"
    return f"[{s}](" + ",".join(render_symbol(c, n - 1) for c in t.children) + ")"


def tree_to_json(t: PlanarLevelTree) -> list:
    """Nested-array form: a vertex is the list of its children."""
    return [tree_to_json(c) for c in t.children]


def tree_from_json(data: list) -> PlanarLevelTree:
    if not isinstance(data, list):
        raise ValueError(f"expected a nested list, got {type(data).__name__}")
    return PlanarLevelTree(tuple(tree_from_json(c) for c in data))


# -- leaves and levels ------------------------------------------------------


def level_n_leaves(t: PlanarLevelTree, n: int) -> tuple[LeafId, ...]:
    """All vertices at level exactly n, in planar order.

    In a tree of height <= n every level-n vertex is a leaf, and there
    are level-n vertices only when the height is exactly n.
    """
    _check_fits(t, n)
    return t._deepest if t.height() == n else ()


def is_healthy(t: PlanarLevelTree, n: int) -> bool:
    """True when no leaf sits at a level strictly between 0 and n.

    The root-only tree is healthy for every n.
    """
    _check_fits(t, n)
    return not t.children or (t.height() == n and t._balanced)


def branching_level(t: PlanarLevelTree, n: int, a: LeafId, b: LeafId) -> int:
    """Level of the deepest common ancestor of two distinct level-n leaves."""
    if a == b:
        raise ValueError(f"branching level needs two distinct leaves, got {a}")
    for leaf in (a, b):
        if leaf.level != n:
            raise ValueError(f"{leaf} is not a level-{n} leaf")
        t.subtree(leaf.path)
    return a.meet(b)


def healthify(t: PlanarLevelTree, n: int) -> PlanarLevelTree:
    """Subtree spanned by the root and all vertices with level-n descendants.

    Planar order of the surviving vertices is preserved, so the level-n
    leaves come out unchanged and in the same order.  Idempotent; the
    result is healthy at n.
    """
    _check_fits(t, n)

    def prune(node, depth):
        # a child has vertices at depth - 1 below it iff it is that tall
        kept = [prune(c, depth - 1) for c in node.children
                if c.height() >= depth - 1]
        return PlanarLevelTree(tuple(kept))

    return prune(t, n)


def _check_fits(t: PlanarLevelTree, n: int):
    if type(n) is not int:
        check_height(n)     # raises: a height is an int
    if t.height() > n:
        raise ValueError(f"tree of height {t.height()} does not fit height {n}")


# -- enumeration ------------------------------------------------------------


def enumerate_trees(max_edges: int, height: int) -> tuple[PlanarLevelTree, ...]:
    """All planar level trees with at most max_edges edges and height
    at most `height`, in a fixed deterministic order (by edge count,
    then recursively by first subtree)."""
    check_count(max_edges, "max_edges")
    check_count(height, "tree height")

    # Both memos live for one call, so subtrees are shared within the
    # result and nothing outlives it.
    @cache
    def forests(edges, height):
        # Forests are counted with their connecting edges: a forest of k
        # trees with e_1..e_k edges costs k + sum(e_i).
        if edges == 0:
            return ((),)
        if height < 0:
            return ()
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
