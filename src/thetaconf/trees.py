"""Planar level trees and their leaf combinatorics.

A planar level tree is a finite rooted tree with a total order on the
children of every vertex.  The level of a vertex is its edge distance to
the root.  A tree "of height n" is a tree whose height is at most n; the
bound n is never stored on the tree, it is passed to the operations that
need it, so the same object can be read at any sufficient height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import SymbolParseError


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

    def __str__(self):
        return ".".join(str(i) for i in self.path)


@dataclass(frozen=True)
class PlanarLevelTree:
    """Immutable planar level tree; equality and hashing are structural."""

    children: tuple["PlanarLevelTree", ...] = ()

    def height(self) -> int:
        return 1 + max((c.height() for c in self.children), default=-1)

    def edge_count(self) -> int:
        return len(self.children) + sum(c.edge_count() for c in self.children)

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
    if n < 1:
        raise ValueError(f"height parameter must be >= 1, got {n}")
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
    if n < 1:
        raise ValueError(f"height parameter must be >= 1, got {n}")
    if t.height() > n:
        raise ValueError(f"tree of height {t.height()} does not fit height {n}")
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

    In a tree of height <= n every level-n vertex is a leaf.
    """
    if t.height() > n:
        raise ValueError(f"tree of height {t.height()} does not fit height {n}")
    out: list[LeafId] = []

    def walk(node, path):
        if len(path) == n:
            out.append(LeafId(path))
            return
        for i, c in enumerate(node.children):
            walk(c, path + (i,))

    walk(t, ())
    return tuple(out)


def is_healthy(t: PlanarLevelTree, n: int) -> bool:
    """True when no leaf sits at a level strictly between 0 and n.

    The root-only tree is healthy for every n.
    """
    if t.height() > n:
        raise ValueError(f"tree of height {t.height()} does not fit height {n}")

    def walk(node, level):
        if not node.children:
            return level == 0 or level == n
        return all(walk(c, level + 1) for c in node.children)

    return walk(t, 0)


def branching_level(t: PlanarLevelTree, n: int, a: LeafId, b: LeafId) -> int:
    """Level of the deepest common ancestor of two distinct level-n leaves."""
    if a == b:
        raise ValueError(f"branching level needs two distinct leaves, got {a}")
    for leaf in (a, b):
        if leaf.level != n:
            raise ValueError(f"{leaf} is not a level-{n} leaf")
        t.subtree(leaf.path)
    common = 0
    while a.path[common] == b.path[common]:
        common += 1
    return common


def branching_table(t: PlanarLevelTree, n: int) -> dict[tuple[LeafId, LeafId], int]:
    """Branching level for every ordered pair of distinct level-n leaves."""
    leaves = level_n_leaves(t, n)
    table = {}
    for i, a in enumerate(leaves):
        for b in leaves[i + 1 :]:
            common = 0
            while a.path[common] == b.path[common]:
                common += 1
            table[(a, b)] = common
            table[(b, a)] = common
    return table


def healthify(t: PlanarLevelTree, n: int) -> PlanarLevelTree:
    """Subtree spanned by the root and all vertices with level-n descendants.

    Planar order of the surviving vertices is preserved, so the level-n
    leaves come out unchanged and in the same order.  Idempotent; the
    result is healthy at n.
    """
    if t.height() > n:
        raise ValueError(f"tree of height {t.height()} does not fit height {n}")

    def reaches(node, depth):
        if depth == 0:
            return True
        return any(reaches(c, depth - 1) for c in node.children)

    def prune(node, depth):
        kept = [prune(c, depth - 1) for c in node.children if reaches(c, depth - 1)]
        return PlanarLevelTree(tuple(kept))

    return prune(t, n)


# -- enumeration ------------------------------------------------------------

_TREES_EXACT: dict[tuple[int, int], tuple[PlanarLevelTree, ...]] = {}
_FORESTS_EXACT: dict[tuple[int, int], tuple[tuple[PlanarLevelTree, ...], ...]] = {}


def _forests_exact(edges, height):
    # Forests are counted with their connecting edges: a forest of k trees
    # with e_1..e_k edges costs k + sum(e_i).
    key = (edges, height)
    if key in _FORESTS_EXACT:
        return _FORESTS_EXACT[key]
    if edges == 0:
        result: tuple = ((),)
    elif height < 0:
        result = ()
    else:
        acc = []
        for first_edges in range(edges):
            rest = _forests_exact(edges - 1 - first_edges, height)
            for first in _trees_exact(first_edges, height):
                for tail in rest:
                    acc.append((first,) + tail)
        result = tuple(acc)
    _FORESTS_EXACT[key] = result
    return result


def _trees_exact(edges, height):
    key = (edges, height)
    if key in _TREES_EXACT:
        return _TREES_EXACT[key]
    if edges == 0:
        result = (ROOT_ONLY,)
    elif height < 1:
        result = ()
    else:
        result = tuple(
            PlanarLevelTree(f) for f in _forests_exact(edges, height - 1)
        )
    _TREES_EXACT[key] = result
    return result


def enumerate_trees(max_edges: int, height: int) -> tuple[PlanarLevelTree, ...]:
    """All planar level trees with at most max_edges edges and height
    at most `height`, in a fixed deterministic order (by edge count,
    then recursively by first subtree)."""
    out = []
    for edges in range(max_edges + 1):
        out.extend(_trees_exact(edges, height))
    return tuple(out)
