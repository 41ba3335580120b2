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
inverts it constructively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Mapping

from .errors import (DEFAULT_MAX_COUNT, BranchingConditionViolation,
                     CapExceeded, LabelMismatch, NotActive, UnhealthyTarget,
                     json_field, json_items)
from .gamma import (DeltaMorphism, GammaMorphism, delta_compose,
                    gamma_is_active)
from .trees import LeafId, PlanarLevelTree, is_healthy, level_n_leaves


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
        if self.n < 1:
            raise ValueError(f"level must be >= 1, got {self.n}")
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
    mapping = _assemble(f, source, target, n)
    return GammaMorphism.from_map(level_n_leaves(source, n),
                                  level_n_leaves(target, n), mapping)


def _assemble(f, source, target, n) -> dict[LeafId, frozenset]:
    _check_ranks(f, source, target)
    mapping: dict[LeafId, set] = {
        leaf: set() for leaf in level_n_leaves(source, n)}
    keys = _part_keys(f.delta.values)
    if n == 1:
        # leaf i goes to the leaves j with f(i-1) < j <= f(i)
        for i, j in keys:
            mapping[LeafId((i - 1,))].add(LeafId((j - 1,)))
    for (i, j), part in zip(keys, f.parts):
        sub = _assemble(part, source.children[i - 1],
                        target.children[j - 1], n - 1)
        for a_local, image in sub.items():
            a = LeafId((i - 1,) + a_local.path)
            mapping[a] |= {LeafId((j - 1,) + d.path) for d in image}
    return {a: frozenset(img) for a, img in mapping.items()}


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

    Quantified over pairs a != b of source leaves and c in gbar(a),
    d in gbar(b); c and d are distinct because images are disjoint.
    """
    if not is_healthy(target, n):
        raise UnhealthyTarget(
            "branching condition contract applies to healthy targets only")
    _check_endpoints(gbar, source, target, n)
    return _branching_holds(gbar)


def _branching_holds(gbar: GammaMorphism) -> bool:
    """The condition itself, for a map whose contract is checked."""
    pairs = tuple(zip(gbar.source, gbar.images))
    for idx, (a, image_a) in enumerate(pairs):
        for b, image_b in pairs[idx + 1:]:  # a precedes b in planar order
            level_ab = a.meet(b)
            for c in image_a:
                for d in image_b:
                    level_cd = c.meet(d)
                    if level_cd > level_ab:
                        return False
                    if level_cd == level_ab and not c < d:
                        return False
    return True


def lift_active(source: PlanarLevelTree, target: PlanarLevelTree, n: int,
                gbar: GammaMorphism) -> ThetaMorphism:
    """The unique morphism whose shadow is gbar.

    Requires a healthy target, an active gbar and the branching
    condition; each failure is reported distinctly.  The cut points
    f(i) are forced because every target child owns a nonempty leaf
    block; sub-maps are split off child by child and lifted recursively.
    """
    if not is_healthy(target, n):
        raise UnhealthyTarget("cannot lift into an unhealthy target")
    _check_endpoints(gbar, source, target, n)
    if not gamma_is_active(gbar):
        raise NotActive("only active set-level maps lift")
    if not _branching_holds(gbar):
        raise BranchingConditionViolation(
            "set-level map violates the branching condition")
    return _lift(source, target, n, gbar.mapping)


def _lift(source, target, n, mapping) -> ThetaMorphism:
    """The lift of a map already known to go into a healthy target, be
    active and satisfy the branching condition; `lift_active` checks
    these first."""
    s, t = len(source.children), len(target.children)
    source_leaves = level_n_leaves(source, n)
    if n == 1:
        cuts = [0]
        for i in range(s):
            cuts.append(cuts[-1] + len(mapping[source_leaves[i]]))
        delta = DeltaMorphism(s, t, tuple(cuts))
        for i in range(s):
            block = frozenset(LeafId((j - 1,))
                              for j in range(cuts[i] + 1, cuts[i + 1] + 1))
            assert mapping[source_leaves[i]] == block, \
                "validated map stopped being interval-shaped"
        return ThetaMorphism(1, delta)

    if t == 0:
        assert all(not img for img in mapping.values())
        return ThetaMorphism(n, DeltaMorphism(s, 0, (0,) * (s + 1)))

    # Leaves grouped by the child they live under, on both sides.
    source_groups = [[a for a in source_leaves if a.path[0] == i]
                     for i in range(s)]
    target_blocks = [frozenset(d for d in level_n_leaves(target, n)
                               if d.path[0] == j)
                     for j in range(t)]
    unions = [frozenset().union(*(mapping[a] for a in group)) if group
              else frozenset() for group in source_groups]

    owner = []
    for j in range(t):
        hits = [i for i in range(s) if target_blocks[j] & unions[i]]
        assert len(hits) == 1, "active validated map must cover each block once"
        assert target_blocks[j] <= unions[hits[0]], \
            "validated map must not split a child block"
        owner.append(hits[0])
    assert owner == sorted(owner), "block owners must be monotone"

    cuts = [0]
    for i in range(s):
        cuts.append(sum(1 for o in owner if o <= i))
    delta = DeltaMorphism(s, t, tuple(cuts))

    # every target child has an owner, so part j lies under child j
    parts = []
    for j, i in enumerate(owner):
        sub = {LeafId(a.path[1:]): frozenset(LeafId(d.path[1:])
                                             for d in mapping[a]
                                             if d.path[0] == j)
               for a in source_groups[i]}
        parts.append(_lift(source.children[i], target.children[j],
                           n - 1, sub))
    return ThetaMorphism(n, delta, tuple(parts))


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
