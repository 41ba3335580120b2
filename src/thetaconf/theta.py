"""Morphisms of iterated wreath-product tree categories.

A level-n morphism between trees S and T (read at height n) is a
monotone map f between the child counts together with one level-(n-1)
morphism S_i -> T_j for each pair with f(i-1) < j <= f(i).  Those pairs
are in bijection with the target children f(0) < j <= f(s), so the
parts are stored by target child, in ascending j, and f alone fixes
the source child i of each.  Level 1 is the simplex category.

Assembly sends a morphism to its set-level shadow on level-n leaves.
For a healthy target this shadow is a bijection onto the active
set-level maps satisfying the branching condition; `lift_active`
inverts it constructively.  Both work on owner positions: each child
owns a contiguous run of its parent's level-n leaves, and part (i, j)
fills target child j's run, shifted by the start of source child i's.
The runs are each tree's `_offsets`, and the branching condition reads
the levels of leaf pairs from the trees' words (`_word`).  Neither
recurses, so a morphism of any height is assembled and lifted.
Assembly makes one pass top down, from a stack of parts with the
absolute offsets of their runs, and writes each level-1 owner at its
place in one owner list.  The lift makes one pass breadth first, which
reads each part's map off the owner list, then builds the morphisms
bottom up, each from the slice of parts its children made.

The public constructors and entry points check their arguments; the
morphisms the enumeration and the lift build from checked trees and
maps are made by the private `_unchecked` constructors and not checked
again.  `branching_condition_holds` and `lift_active` share one
contract check, `_check_contract`: the level and each tree once, the
target's health, and the map's endpoints against the trees' level-n
leaves, read from the trees' invariants.  Below those entry
points a shadow is its owner tuple: `_assemble` returns one, and
`_branching_holds` and `_lift` take one.  These private routines take
their contract as checked (`_assemble` still checks each part's
ranks).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, product
from typing import Mapping

from .errors import (DEFAULT_MAX_COUNT, BranchingConditionViolation,
                     CapExceeded, LabelMismatch, NotActive, UnhealthyTarget,
                     check_count, check_height, check_type, json_field,
                     json_items)
from .gamma import (DeltaMorphism, GammaMorphism, _part_keys,
                    delta_compose, gamma_is_active)
from .trees import PlanarLevelTree, _check_fits, is_healthy, level_n_leaves


@dataclass(frozen=True)
class ThetaMorphism:
    """Level-n morphism.  `parts` holds one level-(n-1) morphism per
    target child j with f(0) < j <= f(s), in ascending j; its source
    child is the i with f(i-1) < j <= f(i).  At level 1 the morphism is
    just its monotone map and `parts` is empty."""

    n: int
    delta: DeltaMorphism
    parts: tuple["ThetaMorphism", ...] = ()

    def __post_init__(self):
        check_height(self.n)
        if not isinstance(self.delta, DeltaMorphism):
            raise ValueError(f"delta must be a DeltaMorphism, got "
                             f"{self.delta!r}")
        values = self.delta.values
        expected = values[-1] - values[0] if self.n > 1 else 0
        if not isinstance(self.parts, tuple) or len(self.parts) != expected:
            raise ValueError(f"a level-{self.n} morphism with map {values} "
                             f"needs a tuple of {expected} parts")
        for sub in self.parts:
            if not isinstance(sub, ThetaMorphism) or sub.n != self.n - 1:
                raise ValueError(
                    f"each part must be a level-{self.n - 1} ThetaMorphism")

    @classmethod
    def _unchecked(cls, n: int, delta: DeltaMorphism,
                   parts: tuple["ThetaMorphism", ...]) -> "ThetaMorphism":
        """The morphism with these fields, without the checks of the
        public constructor.  Callers guarantee what those check: n is an
        int >= 1, `delta` a DeltaMorphism, and `parts` a tuple of
        delta.values[-1] - delta.values[0] level-(n-1) morphisms, empty
        at level 1."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "parts", parts)
        return self

    def to_json(self) -> dict:
        # "t" is carried alongside the value list because a monotone map
        # does not determine its codomain rank.
        out = {"n": self.n, "delta": list(self.delta.values),
               "t": self.delta.target_rank}
        if self.n > 1:
            out["parts"] = {f"{i},{j}": sub.to_json() for (i, j), sub
                            in zip(_part_keys(self.delta.values), self.parts)}
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "ThetaMorphism":
        n = json_field(data, "n", int)
        values = json_items(data, "delta", int)
        delta = DeltaMorphism(len(values) - 1, json_field(data, "t", int),
                              values)
        given = json_field(data, "parts", Mapping) if "parts" in data else {}
        # the count is checked first: a huge f(s) - f(0) lists no keys
        expected = values[-1] - values[0] if n > 1 else 0
        if len(given) != expected:
            raise ValueError(f"{len(given)} parts given, expected {expected}")
        keys = [f"{i},{j}" for i, j in _part_keys(values)] if n > 1 else []
        if set(given) != set(keys):
            raise ValueError(f"parts keyed {list(given)}, expected {keys}")
        return cls(n, delta, tuple(cls.from_json(given[k]) for k in keys))


def identity_morphism(tree: PlanarLevelTree, n: int) -> ThetaMorphism:
    _check_fits(tree, n)
    return ThetaMorphism(n, DeltaMorphism.identity(len(tree.children)),
                         tuple(identity_morphism(c, n - 1)
                               for c in tree.children if n > 1))


def theta_compose(g: ThetaMorphism, f: ThetaMorphism) -> ThetaMorphism:
    """g after f.  Caller guarantees the middle trees agree; the rank
    mismatch below catches shape errors."""
    try:
        g_delta, g_parts, f_delta, f_parts = g.delta, g.parts, f.delta, f.parts
    except AttributeError:
        check_type(g, ThetaMorphism, "a morphism")
        check_type(f, ThetaMorphism, "a morphism")
        raise
    if g.n != f.n:
        raise ValueError(f"levels differ: {f.n} vs {g.n}")
    if f_delta.target_rank != g_delta.source_rank:
        raise ValueError("middle ranks differ")
    delta = delta_compose(g_delta, f_delta)
    # Part k of g.f is g's part k after f's part at k's g-owner j; the
    # parts of g.f are exactly the k whose owner has f(0) < j <= f(s).
    first, last = f_delta.values[0], f_delta.values[-1]
    return ThetaMorphism(f.n, delta, tuple(
        theta_compose(g_part, f_parts[j - first - 1])
        for (j, _), g_part in zip(_part_keys(g_delta.values), g_parts)
        if first < j <= last))


def _check_ranks(f: ThetaMorphism, source: PlanarLevelTree,
                 target: PlanarLevelTree):
    if f.delta.source_rank != len(source.children) \
            or f.delta.target_rank != len(target.children):
        raise ValueError(
            f"morphism ranks [{f.delta.source_rank}]->[{f.delta.target_rank}] "
            f"do not match trees with {len(source.children)} and "
            f"{len(target.children)} children")


def assemble_morphism(f: ThetaMorphism, source: PlanarLevelTree,
                      target: PlanarLevelTree, n: int) -> GammaMorphism:
    """Set-level shadow of f on level-n leaves."""
    try:
        level, _ = f.n, f.delta     # an ordering has a level, no delta
    except AttributeError:
        check_type(f, ThetaMorphism, "a morphism")
        raise
    if level != n:
        raise ValueError(f"morphism level {level} does not match n={n}")
    return GammaMorphism(level_n_leaves(source, n), level_n_leaves(target, n),
                         tuple(_assemble(f, source, target, n)))


def _runs(tree: PlanarLevelTree, n: int) -> tuple[int, ...]:
    """Where each child's run of level-n leaves starts, then the total:
    child c owns positions runs[c] to runs[c + 1] - 1.  A tree shorter
    than n has no level-n leaves."""
    if tree._height == n:
        return tree._offsets
    return (0,) * (len(tree.children) + 1)


def _assemble(f, source, target, n) -> list[int | None]:
    """The owner positions of f's shadow, filled top down from a stack
    of (part, source subtree, target subtree, level, source offset,
    target offset).  Part (i, j) fills target child j's run from source
    child i's, so its offsets are the entry's plus the runs' starts; at
    level 1 each run is one leaf, whose owner is written at its absolute
    position.  Leaves no part reaches stay unowned."""
    owners: list = [None] * _runs(target, n)[-1]
    stack = [(f, source, target, n, 0, 0)]
    while stack:
        f, source, target, n, s_off, t_off = stack.pop()
        _check_ranks(f, source, target)
        s_runs, t_runs = _runs(source, n), _runs(target, n)
        keys = _part_keys(f.delta.values)
        if n == 1:
            for i, j in keys:
                owners[t_off + t_runs[j - 1]] = s_off + s_runs[i - 1]
            continue
        s_children, t_children = source.children, target.children
        stack += [(part, s_children[i - 1], t_children[j - 1], n - 1,
                   s_off + s_runs[i - 1], t_off + t_runs[j - 1])
                  for (i, j), part in zip(keys, f.parts)]
    return owners


# -- branching condition and the constructive lift --------------------------


def _check_contract(source: PlanarLevelTree, target: PlanarLevelTree, n: int,
                    gbar: GammaMorphism, unhealthy: str):
    """The contract of `branching_condition_holds` and `lift_active`:
    n is a height both trees fit, the target is healthy (else
    UnhealthyTarget with the message `unhealthy`), and gbar is a
    set-level map between the trees' level-n leaves (else
    LabelMismatch)."""
    if not is_healthy(target, n):
        raise UnhealthyTarget(unhealthy)
    _check_fits(source, n)
    try:
        gbar_source, gbar_target = gbar.source, gbar.target
    except AttributeError:
        check_type(gbar, GammaMorphism, "a set-level map")
        raise
    if gbar_source != (source._deepest if source._height == n else ()) \
            or gbar_target != (target._deepest if target._height == n
                               else ()):
        raise LabelMismatch(
            "set-level map endpoints do not match the trees' level-n leaves")


def branching_condition_holds(source: PlanarLevelTree, target: PlanarLevelTree,
                              n: int, gbar: GammaMorphism) -> bool:
    """Deepest-common-ancestor levels may only drop, and may stay equal
    only when the planar order of the pair is preserved.

    Quantified over pairs c before d of owned target leaves, with owners
    a and b: the condition fails when c.meet(d) > a.meet(b), or when the
    levels are equal and b comes before a.  A pair with one owner always
    passes, because a.meet(a) = n exceeds the level of any two distinct
    leaves.
    """
    _check_contract(source, target, n, gbar, "branching condition contract "
                    "applies to healthy targets only")
    return _branching_holds(source, target, gbar.owners)


def _branching_holds(source: PlanarLevelTree, target: PlanarLevelTree,
                     owners) -> bool:
    """The condition itself, for a map given as its owner positions
    whose contract is checked, on consecutive owned target leaves only,
    by the neighbour lemma of `nord.leq`.  For maps, owners may repeat,
    and a pair with one owner passes; unowned leaves may lie in a gap,
    and a pair's target level is the least word entry over the whole
    gap, read at height n."""
    s_word, t_word = source._word, target._word
    k = i = None    # position and owner of the last owned target leaf
    for m, j in enumerate(owners):
        if j is None:
            continue
        if i is not None and i != j:    # leaf k precedes leaf m
            level_cd = min(t_word[k:m])
            level_ab = min(s_word[i:j] if i < j else s_word[j:i])
            if level_cd > level_ab or (level_cd == level_ab and i > j):
                return False
        k, i = m, j
    return True


def lift_active(source: PlanarLevelTree, target: PlanarLevelTree, n: int,
                gbar: GammaMorphism) -> ThetaMorphism:
    """The unique morphism whose shadow is gbar.

    Requires a healthy target, an active gbar and the branching
    condition; each failure is reported distinctly.  The cut points
    f(i) are forced because every target child has leaves, all owned
    under one source child; each part is then the lift of its child's
    run, found level by level in one pass (`_lift`).
    """
    _check_contract(source, target, n, gbar,
                    "cannot lift into an unhealthy target")
    if not gamma_is_active(gbar):
        raise NotActive("only active set-level maps lift")
    if not _branching_holds(source, target, gbar.owners):
        raise BranchingConditionViolation(
            "set-level map violates the branching condition")
    return _lift(source, target, n, gbar.owners)


def _lift(source, target, n, owners) -> ThetaMorphism:
    """The lift of a map, given as its owner positions, already known to
    go into a healthy target, be active and satisfy the branching
    condition; `lift_active` checks these first.

    One pass breadth first, over entries (source subtree, target
    subtree, level, source offset, target offset), finds each entry's
    map; a second, bottom up, builds the morphisms.  Target child j's
    head is the source child whose run holds every owner in j's run:
    the one whose run holds the least, if it holds the largest too.
    f(i) counts the heads h < i (0-based h, 1-based i), and part j
    lifts j's run under its head, as the next entry.  An entry's parts
    are thus the entries its own children appended, in one slice."""
    entries = [(source, target, n, 0, 0)]
    maps = []   # per entry: its level, its map and the span of its parts
    for source, target, n, s_off, t_off in entries:     # entries grows
        # a healthy target's subtrees, and the source subtrees that own
        # its leaves, reach their level, so their runs are their offsets
        s_runs, t_runs = source._offsets, target._offsets
        s, t = len(source.children), len(target.children)
        counts, first = [0] * s, len(entries)
        if n == 1:      # each run is one leaf, whose owner is its head
            heads = [o - s_off for o in owners[t_off:t_off + t]]
            for h in heads:
                counts[h] += 1
        else:
            heads = []
            for a, b in zip(t_runs, t_runs[1:]):
                run = owners[t_off + a:t_off + b]
                h = bisect_right(s_runs, min(run) - s_off) - 1
                assert max(run) - s_off < s_runs[h + 1], \
                    "each target child must be owned under exactly one " \
                    "source child"
                heads.append(h)
                counts[h] += 1
            entries += [(source.children[h], target.children[j], n - 1,
                         s_off + s_runs[h], t_off + t_runs[j])
                        for j, h in enumerate(heads)]
        assert heads == sorted(heads), "heads must be monotone"
        # 0 <= heads < s, so f(0) = 0 and f(s) = t: one part per target child
        maps.append((n, DeltaMorphism._unchecked(
            s, t, tuple(accumulate(counts, initial=0))), first, len(entries)))
    built = [None] * len(maps)
    for k in reversed(range(len(maps))):
        n, delta, first, end = maps[k]
        built[k] = ThetaMorphism._unchecked(n, delta, tuple(built[first:end]))
    return built[0]


# -- brute-force hom sets ----------------------------------------------------


def enumerate_hom_bruteforce(source: PlanarLevelTree, target: PlanarLevelTree,
                             n: int, max_count: int = DEFAULT_MAX_COUNT,
                             active_only: bool = False
                             ) -> tuple[ThetaMorphism, ...]:
    """Every morphism source -> target at level n: for each monotone map
    f, in lexicographic order, one per combination of its parts' hom
    sets.  At level 1 there are no parts, and the product of no pools is
    the one empty combination.  The cap counts every morphism built,
    sub-level ones included.

    With `active_only`, only the morphisms whose shadow is active are
    built, in the same order.  At each level a monotone map f into a
    tree T is kept only when f(0) < j <= f(s) for every child j of T
    of height level - 1 (the children that own leaves at this level;
    the first and last such j decide it), and each part comes from the
    pool filtered by the same rule.  Children without leaves constrain
    nothing, so the rule holds for unhealthy targets too.
    """
    _check_fits(source, n)
    _check_fits(target, n)
    check_count(max_count, "max_count")
    budget = [max_count]
    memo: dict = {}

    def charge():
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded("theta morphisms", max_count - budget[0],
                              max_count)

    def homs(src, tgt, level):
        key = (src, tgt, level)
        if key in memo:
            return memo[key]
        s, t = len(src.children), len(tgt.children)
        maps = combinations_with_replacement(range(t + 1), s + 1)
        if active_only:
            owners = [j for j, child in enumerate(tgt.children, 1)
                      if child._height == level - 1]
            if owners:
                first, last = owners[0], owners[-1]
                maps = [v for v in maps if v[0] < first and v[-1] >= last]
        out = []
        # values are monotone into [t]; combo holds one morphism per part
        for values in maps:
            delta = DeltaMorphism._unchecked(s, t, values)
            pools = [homs(src.children[i - 1], tgt.children[j - 1],
                          level - 1)
                     for i, j in _part_keys(values)] if level > 1 else []
            for combo in product(*pools):
                charge()
                out.append(ThetaMorphism._unchecked(level, delta, combo))
        memo[key] = out
        return out

    return tuple(homs(source, target, n))
