"""Morphisms of iterated wreath-product tree categories.

A level-n morphism between trees S and T (read at height n) is a
monotone map between the child counts together with one level-(n-1)
morphism S_i -> T_j for exactly the pairs with f(i-1) < j <= f(i).
Level 1 is the simplex category.

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
                     CapExceeded, LabelMismatch, NotActive, UnhealthyTarget)
from .gamma import (DeltaMorphism, GammaMorphism, delta_compose,
                    gamma_is_active, segal)
from .trees import (LeafId, PlanarLevelTree, branching_table, is_healthy,
                    level_n_leaves)


@dataclass(frozen=True)
class ThetaMorphism:
    """Level-n morphism.  `parts` is a tuple of ((i, j), sub-morphism)
    pairs sorted by key; i and j are 1-based child indices.  At level 1
    the morphism is just its monotone map and `parts` is empty."""

    n: int
    delta: DeltaMorphism
    parts: tuple[tuple[tuple[int, int], "ThetaMorphism"], ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"level must be >= 1, got {self.n}")
        keys = [key for key, _ in self.parts]
        if self.n == 1:
            if keys:
                raise ValueError("level-1 morphisms carry no parts")
            return
        expected = [(i, j)
                    for i in range(1, self.delta.source_rank + 1)
                    for j in range(self.delta(i - 1) + 1, self.delta(i) + 1)]
        if keys != expected:
            raise ValueError(f"parts keyed {keys}, expected {expected}")
        for _, sub in self.parts:
            if sub.n != self.n - 1:
                raise ValueError("part level must be one below the morphism")

    @classmethod
    def make(cls, n: int, delta: DeltaMorphism,
             parts: Mapping[tuple[int, int], "ThetaMorphism"] | None = None
             ) -> "ThetaMorphism":
        items = tuple(sorted((parts or {}).items()))
        return cls(n, delta, items)

    @property
    def parts_map(self) -> dict[tuple[int, int], "ThetaMorphism"]:
        return dict(self.parts)

    def to_json(self) -> dict:
        # "t" is carried alongside the value list because a monotone map
        # does not determine its codomain rank.
        out = {"n": self.n, "delta": list(self.delta.values),
               "t": self.delta.target_rank}
        if self.n > 1:
            out["parts"] = {f"{i},{j}": sub.to_json()
                            for (i, j), sub in self.parts}
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "ThetaMorphism":
        n = data["n"]
        values = tuple(data["delta"])
        delta = DeltaMorphism(len(values) - 1, data["t"], values)
        parts = {}
        for key, sub in data.get("parts", {}).items():
            i, j = key.split(",")
            parts[(int(i), int(j))] = cls.from_json(sub)
        return cls.make(n, delta, parts)


def identity_morphism(tree: PlanarLevelTree, n: int) -> ThetaMorphism:
    s = len(tree.children)
    delta = DeltaMorphism.identity(s)
    if n == 1:
        return ThetaMorphism(1, delta)
    parts = {(i, i): identity_morphism(tree.children[i - 1], n - 1)
             for i in range(1, s + 1)}
    return ThetaMorphism.make(n, delta, parts)


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
    f_parts, g_parts = f.parts_map, g.parts_map
    parts = {}
    for i in range(1, delta.source_rank + 1):
        for k in range(delta(i - 1) + 1, delta(i) + 1):
            # k lies in exactly one interval (g(j-1), g(j)] with j in
            # the interval (f(i-1), f(i)]; images of distinct j's are
            # disjoint, so the scan finds a unique j.
            for j in range(f.delta(i - 1) + 1, f.delta(i) + 1):
                if g.delta(j - 1) < k <= g.delta(j):
                    parts[(i, k)] = theta_compose(g_parts[(j, k)],
                                                  f_parts[(i, j)])
                    break
            else:
                raise AssertionError("interval decomposition failed")
    return ThetaMorphism.make(f.n, delta, parts)


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
    if n == 1:
        shadow = segal(f.delta)
        return {LeafId((i - 1,)): frozenset(LeafId((j - 1,)) for j in shadow(i))
                for i in range(1, len(source.children) + 1)}
    parts = f.parts_map
    mapping: dict[LeafId, set] = {
        leaf: set() for leaf in level_n_leaves(source, n)}
    for i in range(1, len(source.children) + 1):
        for j in range(f.delta(i - 1) + 1, f.delta(i) + 1):
            sub = _assemble(parts[(i, j)], source.children[i - 1],
                            target.children[j - 1], n - 1)
            for a_local, image in sub.items():
                a = LeafId((i - 1,) + a_local.path)
                mapping[a] |= {LeafId((j - 1,) + d.path) for d in image}
    return {a: frozenset(img) for a, img in mapping.items()}


def theta_is_active(f: ThetaMorphism, source: PlanarLevelTree,
                    target: PlanarLevelTree, n: int) -> bool:
    return gamma_is_active(assemble_morphism(f, source, target, n))


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
    bt_source = branching_table(source, n)
    bt_target = branching_table(target, n)
    leaves = gbar.source
    for idx, a in enumerate(leaves):
        for b in leaves[idx + 1:]:          # a precedes b in planar order
            level_ab = bt_source[(a, b)]
            for c in gbar(a):
                for d in gbar(b):
                    level_cd = bt_target[(c, d)]
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
    if not branching_condition_holds(source, target, n, gbar):
        raise BranchingConditionViolation(
            "set-level map violates the branching condition")
    return _lift(source, target, n, gbar.mapping)


def _lift(source, target, n, mapping) -> ThetaMorphism:
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
        return ThetaMorphism.make(
            n, DeltaMorphism(s, 0, (0,) * (s + 1)),
            {})

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

    parts = {}
    for i in range(1, s + 1):
        for j in range(cuts[i - 1] + 1, cuts[i] + 1):
            sub = {}
            for a in source_groups[i - 1]:
                a_local = LeafId(a.path[1:])
                sub[a_local] = frozenset(LeafId(d.path[1:])
                                         for d in mapping[a]
                                         if d.path[0] == j - 1)
            parts[(i, j)] = _lift(source.children[i - 1],
                                  target.children[j - 1], n - 1, sub)
    return ThetaMorphism.make(n, delta, parts)


# -- brute-force hom sets ----------------------------------------------------


def enumerate_hom_bruteforce(source: PlanarLevelTree, target: PlanarLevelTree,
                             n: int, active_only: bool = False,
                             max_count: int = DEFAULT_MAX_COUNT
                             ) -> tuple[ThetaMorphism, ...]:
    """Every morphism source -> target at level n, by exhausting monotone
    maps and part combinations.  Deterministic order.  The cap counts
    all morphisms built, including sub-level ones."""
    budget = [max_count]
    memo: dict = {}

    def charge(k=1):
        budget[0] -= k
        if budget[0] < 0:
            raise CapExceeded(f"morphism enumeration exceeded cap {max_count}")

    def homs(src, tgt, level):
        key = (src, tgt, level)
        if key in memo:
            return memo[key]
        s, t = len(src.children), len(tgt.children)
        out = []
        if level == 1:
            for values in _monotone_tuples(s, t):
                charge()
                out.append(ThetaMorphism(1, DeltaMorphism(s, t, values)))
        else:
            for values in _monotone_tuples(s, t):
                delta = DeltaMorphism(s, t, values)
                keys = [(i, j) for i in range(1, s + 1)
                        for j in range(values[i - 1] + 1, values[i] + 1)]
                pools = [homs(src.children[i - 1], tgt.children[j - 1],
                              level - 1) for i, j in keys]
                if any(not pool for pool in pools):
                    continue
                for combo in product(*pools):
                    charge()
                    out.append(ThetaMorphism.make(
                        level, delta, dict(zip(keys, combo))))
        memo[key] = out
        return out

    result = homs(source, target, n)
    if active_only:
        result = [f for f in result
                  if gamma_is_active(assemble_morphism(f, source, target, n))]
    return tuple(result)


def _monotone_tuples(s, t):
    return combinations_with_replacement(range(t + 1), s + 1)
