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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Mapping

from .errors import (DEFAULT_MAX_COUNT, BranchingConditionViolation,
                     CapExceeded, LabelMismatch, NotActive, UnhealthyTarget,
                     check_count, check_height, json_field, json_items)
from .gamma import (DeltaMorphism, GammaMorphism, delta_compose,
                    gamma_is_active)
from .trees import PlanarLevelTree, is_healthy, level_n_leaves


def _part_keys(values: tuple[int, ...]) -> list[tuple[int, int]]:
    """The 1-based (i, j) of each part of a morphism with monotone map
    `values`: f(i-1) < j <= f(i), in ascending j."""
    return [(i, j) for i in range(1, len(values))
            for j in range(values[i - 1] + 1, values[i] + 1)]


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
        values = self.delta.values
        expected = values[-1] - values[0] if self.n > 1 else 0
        if not isinstance(self.parts, tuple) or len(self.parts) != expected:
            raise ValueError(f"a level-{self.n} morphism with map {values} "
                             f"needs a tuple of {expected} parts")
        for sub in self.parts:
            if not isinstance(sub, ThetaMorphism) or sub.n != self.n - 1:
                raise ValueError(
                    f"each part must be a level-{self.n - 1} ThetaMorphism")

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
    check_height(n)
    delta = DeltaMorphism.identity(len(tree.children))
    if n == 1:
        return ThetaMorphism(1, delta)
    return ThetaMorphism(n, delta, tuple(identity_morphism(c, n - 1)
                                         for c in tree.children))


def theta_compose(g: ThetaMorphism, f: ThetaMorphism) -> ThetaMorphism:
    """g after f.  Caller guarantees the middle trees agree; the rank
    mismatch below catches shape errors."""
    if g.n != f.n:
        raise ValueError(f"levels differ: {f.n} vs {g.n}")
    if f.delta.target_rank != g.delta.source_rank:
        raise ValueError("middle ranks differ")
    delta = delta_compose(g.delta, f.delta)
    if f.n == 1:
        return ThetaMorphism(1, delta)
    # Part k of g.f is g's part k after f's part at k's g-owner j; the
    # parts of g.f are exactly the k whose owner has f(0) < j <= f(s).
    first, last = f.delta.values[0], f.delta.values[-1]
    return ThetaMorphism(f.n, delta, tuple(
        theta_compose(g_part, f.parts[j - first - 1])
        for (j, _), g_part in zip(_part_keys(g.delta.values), g.parts)
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
    if f.n != n:
        raise ValueError(f"morphism level {f.n} does not match n={n}")
    return GammaMorphism(level_n_leaves(source, n), level_n_leaves(target, n),
                         tuple(_assemble(f, source, target, n)))


def _runs(tree: PlanarLevelTree, n: int) -> list[int]:
    """Where each child's run of level-n leaves starts, then the total:
    child c owns positions runs[c] to runs[c + 1] - 1."""
    runs = [0]
    for child in tree.children:
        runs.append(runs[-1] + len(level_n_leaves(child, n - 1)))
    return runs


def _assemble(f, source, target, n) -> list[int | None]:
    """The owner positions of f's shadow.  Part (i, j) fills target
    child j's run with its owners shifted to source child i's run; at
    level 1 each run is one leaf, owned by the part's source leaf."""
    _check_ranks(f, source, target)
    s_runs, t_runs = _runs(source, n), _runs(target, n)
    owners: list = [None] * t_runs[-1]
    for k, (i, j) in enumerate(_part_keys(f.delta.values)):
        sub = [0] if n == 1 else _assemble(
            f.parts[k], source.children[i - 1], target.children[j - 1], n - 1)
        owners[t_runs[j - 1]:t_runs[j]] = [
            None if o is None else o + s_runs[i - 1] for o in sub]
    return owners


# -- branching condition and the constructive lift --------------------------


def _check_endpoints(gbar: GammaMorphism, source: PlanarLevelTree,
                     target: PlanarLevelTree, n: int):
    if gbar.source != level_n_leaves(source, n) \
            or gbar.target != level_n_leaves(target, n):
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
    if not is_healthy(target, n):
        raise UnhealthyTarget(
            "branching condition contract applies to healthy targets only")
    _check_endpoints(gbar, source, target, n)
    return _branching_holds(gbar)


def _branching_holds(gbar: GammaMorphism) -> bool:
    """The condition itself, for a map whose contract is checked."""
    source = gbar.source
    owned = [(c, i) for c, i in zip(gbar.target, gbar.owners)
             if i is not None]
    for k, (c, i) in enumerate(owned):
        a = source[i]
        for d, j in owned[k + 1:]:  # c precedes d in planar order
            level_cd = c.meet(d)
            level_ab = a.meet(source[j])
            if level_cd > level_ab or (level_cd == level_ab and i > j):
                return False
    return True


def lift_active(source: PlanarLevelTree, target: PlanarLevelTree, n: int,
                gbar: GammaMorphism) -> ThetaMorphism:
    """The unique morphism whose shadow is gbar.

    Requires a healthy target, an active gbar and the branching
    condition; each failure is reported distinctly.  The cut points
    f(i) are forced because every target child has leaves, all owned
    under one source child; sub-maps are split off child by child and
    lifted recursively.
    """
    if not is_healthy(target, n):
        raise UnhealthyTarget("cannot lift into an unhealthy target")
    _check_endpoints(gbar, source, target, n)
    if not gamma_is_active(gbar):
        raise NotActive("only active set-level maps lift")
    if not _branching_holds(gbar):
        raise BranchingConditionViolation(
            "set-level map violates the branching condition")
    return _lift(source, target, n, gbar.owners)


def _lift(source, target, n, owners) -> ThetaMorphism:
    """The lift of a map, given as its owner positions, already known to
    go into a healthy target, be active and satisfy the branching
    condition; `lift_active` checks these first.

    Target child j's head is the source child whose run holds every
    owner in j's run; f(i) is the number of heads h < i (0-based h,
    1-based i), and part j lifts j's run, shifted to the head's run."""
    s_runs, t_runs = _runs(source, n), _runs(target, n)
    by_child = [owners[a:b] for a, b in zip(t_runs, t_runs[1:])]
    heads = []
    for run in by_child:
        child_heads = {bisect_right(s_runs, o) - 1 for o in run}
        assert len(child_heads) == 1, \
            "each target child must be owned under exactly one source child"
        heads.extend(child_heads)
    assert heads == sorted(heads), "heads must be monotone"
    s, t = len(source.children), len(target.children)
    delta = DeltaMorphism(s, t, tuple(bisect_left(heads, i)
                                      for i in range(s + 1)))
    if n == 1:
        return ThetaMorphism(1, delta)
    return ThetaMorphism(n, delta, tuple(
        _lift(source.children[h], target.children[j], n - 1,
              [o - s_runs[h] for o in run])
        for j, (h, run) in enumerate(zip(heads, by_child))))


# -- brute-force hom sets ----------------------------------------------------


def enumerate_hom_bruteforce(source: PlanarLevelTree, target: PlanarLevelTree,
                             n: int, max_count: int = DEFAULT_MAX_COUNT,
                             active_only: bool = False
                             ) -> tuple[ThetaMorphism, ...]:
    """Every morphism source -> target at level n, by exhausting monotone
    maps and part combinations.  Deterministic order.  The cap counts
    every morphism built, sub-level ones included.

    With `active_only`, only the morphisms whose shadow is active are
    built, in the same order.  At each level a monotone map f into a
    tree T is kept only when f(0) < j <= f(s) for every child j of T
    of height level - 1 (the children that own leaves at this level;
    the first and last such j decide it), and each part comes from the
    pool pruned by the same rule.  Children without leaves constrain
    nothing, so the rule holds for unhealthy targets too.
    """
    check_height(n)
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
        maps = _monotone_tuples(s, t)
        if active_only:
            owners = [j for j, child in enumerate(tgt.children, 1)
                      if child.height() == level - 1]
            if owners:
                first, last = owners[0], owners[-1]
                maps = [v for v in maps if v[0] < first and v[-1] >= last]
        out = []
        if level == 1:
            for values in maps:
                charge()
                out.append(ThetaMorphism(1, DeltaMorphism(s, t, values)))
        else:
            for values in maps:
                delta = DeltaMorphism(s, t, values)
                pools = [homs(src.children[i - 1], tgt.children[j - 1],
                              level - 1) for i, j in _part_keys(values)]
                if any(not pool for pool in pools):
                    continue
                for combo in product(*pools):
                    charge()
                    out.append(ThetaMorphism(level, delta, combo))
        memo[key] = out
        return out

    return tuple(homs(source, target, n))


def _monotone_tuples(s, t):
    return combinations_with_replacement(range(t + 1), s + 1)
