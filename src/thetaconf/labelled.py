"""Trees with labelled level-n leaves.

A labelled object is a height-n tree plus a bijection of its level-n
leaves with a label set; morphisms are tree morphisms whose leaf shadow
respects the labels.  Into a healthy target there is at most one such
morphism, and it exists exactly when the branching condition holds for
the label-matching leaf bijection.  Orderings embed as their realizing
trees; healthification retracts a labelled object back onto an ordering,
and that retraction is left adjoint-like: a unit morphism into the
healthification always exists, and maps out of S into embedded orderings
are governed by the retract alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .errors import (LabelMismatch, check_count, check_height, check_labels,
                     json_field, json_items)
from .gamma import GammaMorphism
from .nord import NOrdering, enumerate_nord, from_tree, leq, to_tree
from .theta import ThetaMorphism, _lift, branching_condition_holds
from .trees import (LeafId, PlanarLevelTree, healthify, level_n_leaves,
                    parse_symbol, render_symbol)


@dataclass(frozen=True)
class LabelledTree:
    """Height-n tree with labels listed in planar leaf order."""

    tree: PlanarLevelTree
    n: int
    labels: tuple[Hashable, ...]

    def __post_init__(self):
        check_height(self.n)
        check_labels(self.labels)
        leaves = level_n_leaves(self.tree, self.n)
        if len(self.labels) != len(leaves):
            raise LabelMismatch(
                f"{len(self.labels)} labels for {len(leaves)} leaves")

    @property
    def leaves(self) -> tuple[LeafId, ...]:
        return level_n_leaves(self.tree, self.n)

    def leaf_of(self, label: Hashable) -> LeafId:
        if label not in self.labels:
            raise LabelMismatch(f"{label!r} is not a label of this object")
        return self.leaves[self.labels.index(label)]

    def to_json(self) -> dict:
        return {"tree": render_symbol(self.tree, self.n), "n": self.n,
                "labels": list(self.labels)}

    @classmethod
    def from_json(cls, data: Mapping) -> "LabelledTree":
        n = json_field(data, "n", int)
        return cls(parse_symbol(json_field(data, "tree", str), n), n,
                   json_items(data, "labels", Hashable))


def label_bijection(source: LabelledTree, target: LabelledTree) -> GammaMorphism:
    """The only candidate shadow of a label-respecting morphism: each
    source leaf goes to the singleton of the equally labelled target leaf."""
    if source.n != target.n:
        raise LabelMismatch(f"height parameters differ: {source.n} vs {target.n}")
    if set(source.labels) != set(target.labels):
        raise LabelMismatch("label sets differ")
    position = {x: i for i, x in enumerate(source.labels)}
    return GammaMorphism(source.leaves, target.leaves,
                         tuple(position[x] for x in target.labels))


def hom_exists(source: LabelledTree, target: LabelledTree) -> bool:
    """Whether the unique label-respecting morphism into a healthy
    target exists."""
    return branching_condition_holds(source.tree, target.tree, source.n,
                                     label_bijection(source, target))


def hom_morphism(source: LabelledTree, target: LabelledTree) -> ThetaMorphism | None:
    """The morphism itself, when it exists.  The label bijection is
    active, so once the branching condition holds it lifts unchecked."""
    gbar = label_bijection(source, target)
    if not branching_condition_holds(source.tree, target.tree, source.n,
                                     gbar):
        return None
    return _lift(source.tree, target.tree, source.n, gbar.owners)


def embed(ordering: NOrdering) -> LabelledTree:
    """Orderings are labelled healthy trees; full embedding."""
    return LabelledTree(to_tree(ordering), ordering.n, ordering.labels)


def retract(obj: LabelledTree) -> NOrdering:
    """Healthify and read the ordering back off.  Level-n leaves survive
    healthification unchanged and in order, so the labels carry over;
    retract(embed(S)) == S."""
    return from_tree(healthify(obj.tree, obj.n), obj.n, obj.labels)


def unit_exists(obj: LabelledTree) -> bool:
    """Whether the label-matching morphism from the object into its
    healthification exists.  It always does; exposed as a check rather
    than an axiom."""
    return hom_exists(obj, embed(retract(obj)))


def initiality_check(obj: LabelledTree, max_size: int = 8) -> bool:
    """Maps out of obj into embedded orderings are exactly maps out of
    its retract: hom_exists(obj, embed(T)) == leq(retract(obj), T) for
    every ordering T of the same labels."""
    check_count(max_size, "max_size")
    if len(obj.labels) > max_size:
        raise ValueError(f"label set larger than the bound {max_size}")
    retracted = retract(obj)
    for other in enumerate_nord(obj.labels, obj.n):
        if hom_exists(obj, embed(other)) != leq(retracted, other):
            return False
    return True
