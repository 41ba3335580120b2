"""The simplex category and Segal's category of finite sets.

Objects of the simplex category are [s] = {0 < ... < s}; morphisms are
weakly monotone maps.  A morphism X -> Y in Segal's category sends each
element of X to a subset of Y, with pairwise disjoint images; it is
active when the images cover Y.  Disjoint images say that each y in Y
has at most one owner x with y in the image of x, so a morphism is the
same thing as a pointed map Y+ -> X+ (Segal's category is Fin+^op, the
opposite of finite pointed sets), and it is stored that way: one owner
position per target label, None for the base point.  Composition
composes the owner maps, and a morphism is active when no target label
is unowned.  The interval functor turns a monotone f: [s] -> [t] into
the set-level map i |-> {j : f(i-1) < j <= f(i)} on {1..s} -> {1..t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Hashable, Mapping, Sequence

from .errors import (DEFAULT_MAX_COUNT, CapExceeded, LabelMismatch,
                     check_count, check_labels, json_field, json_items)
from .trees import LeafId


@dataclass(frozen=True)
class DeltaMorphism:
    """Weakly monotone map [s] -> [t], stored as the value tuple
    (f(0), ..., f(s))."""

    source_rank: int
    target_rank: int
    values: tuple[int, ...]

    def __post_init__(self):
        check_count(self.source_rank, "source_rank")
        check_count(self.target_rank, "target_rank")
        if len(self.values) != self.source_rank + 1:
            raise ValueError(
                f"[{self.source_rank}] needs {self.source_rank + 1} values, "
                f"got {len(self.values)}"
            )
        prev = 0
        for v in self.values:
            if not (prev <= v <= self.target_rank):
                raise ValueError(f"values {self.values} are not monotone into "
                                 f"[{self.target_rank}]")
            prev = v

    def __call__(self, i: int) -> int:
        if not 0 <= i <= self.source_rank:
            raise ValueError(f"{i} is not a point of [{self.source_rank}]")
        return self.values[i]

    @classmethod
    def identity(cls, s: int) -> "DeltaMorphism":
        return cls(s, s, tuple(range(s + 1)))

    def to_json(self) -> dict:
        return {"s": self.source_rank, "t": self.target_rank,
                "values": list(self.values)}

    @classmethod
    def from_json(cls, data: Mapping) -> "DeltaMorphism":
        return cls(json_field(data, "s", int), json_field(data, "t", int),
                   json_items(data, "values", int))


def delta_compose(g: DeltaMorphism, f: DeltaMorphism) -> DeltaMorphism:
    """g after f."""
    if f.target_rank != g.source_rank:
        raise ValueError(f"cannot compose [{f.source_rank}]->[{f.target_rank}] "
                         f"with [{g.source_rank}]->[{g.target_rank}]")
    return DeltaMorphism(f.source_rank, g.target_rank,
                         tuple(g.values[v] for v in f.values))


@dataclass(frozen=True)
class GammaMorphism:
    """Set-level morphism, held as its pointed map target -> source:
    `owners[k]` is the position in `source` of the label whose image
    holds `target[k]`, or None when no image does.  Images are disjoint
    by construction.  Source and target are ordered label tuples (the
    order carries the planar order when labels are leaf ids)."""

    source: tuple[Hashable, ...]
    target: tuple[Hashable, ...]
    owners: tuple[int | None, ...]

    def __post_init__(self):
        if not isinstance(self.owners, tuple) \
                or len(self.owners) != len(self.target):
            raise ValueError("a tuple of one owner per target label required")
        check_labels(self.source)
        check_labels(self.target)
        size = len(self.source)
        for y, i in zip(self.target, self.owners):
            if i is not None and (type(i) is not int or not 0 <= i < size):
                raise ValueError(f"owner {i!r} of {y!r} is not a position "
                                 f"in a source of {size} labels")

    @classmethod
    def from_map(cls, source: Sequence, target: Sequence,
                 mapping: Mapping) -> "GammaMorphism":
        """The morphism sending each source label x to `mapping[x]`
        (empty when x is absent); images must be disjoint subsets of
        the target."""
        source = tuple(source)
        target = tuple(target)
        extra = set(mapping) - set(source)
        if extra:
            raise ValueError(f"mapping mentions unknown labels {extra}")
        position = {y: k for k, y in enumerate(target)}
        owners: list = [None] * len(target)
        for i, x in enumerate(source):
            for y in set(mapping.get(x, ())):
                k = position.get(y)
                if k is None:
                    raise ValueError(f"image of {x!r} leaves the target set")
                if owners[k] is not None:
                    raise ValueError(f"image of {x!r} overlaps an earlier "
                                     f"image")
                owners[k] = i
        return cls(source, target, tuple(owners))

    @classmethod
    def identity(cls, labels: Sequence) -> "GammaMorphism":
        labels = tuple(labels)
        return cls(labels, labels, tuple(range(len(labels))))

    def __call__(self, x: Hashable) -> frozenset:
        if x not in self.source:
            raise LabelMismatch(f"{x!r} is not a source label of this map")
        i = self.source.index(x)
        return frozenset(y for y, o in zip(self.target, self.owners) if o == i)

    @property
    def mapping(self) -> dict:
        images: list[set] = [set() for _ in self.source]
        for y, i in zip(self.target, self.owners):
            if i is not None:
                images[i].add(y)
        return {x: frozenset(img) for x, img in zip(self.source, images)}

    def to_json(self) -> dict:
        """{"source": [...], "target": [...], "map": {"k": [...]}}: both
        label lists in order, and under the key "k" (k in decimal) the
        image of source[k], listed in target order.  A label is written
        as itself when it is a string or an integer, and as
        {"leaf": [path]} when it is a `LeafId`, so the shadows of
        Theta_n morphisms round-trip.  Any other label raises
        ValueError."""
        return {
            "source": [_label_json(x) for x in self.source],
            "target": [_label_json(y) for y in self.target],
            "map": {str(k): [_label_json(y) for y, o
                             in zip(self.target, self.owners) if o == k]
                    for k in range(len(self.source))},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "GammaMorphism":
        source = _labels_from_json(data, "source")
        target = _labels_from_json(data, "target")
        given = json_field(data, "map", Mapping)
        keys = {str(k): x for k, x in enumerate(source)}
        mapping = {}
        for key in given:
            if key not in keys:
                raise ValueError(f"field 'map' has key {key!r}, which is "
                                 f"not the index of a source label")
            mapping[keys[key]] = frozenset(_labels_from_json(given, key))
        return cls.from_map(source, target, mapping)


def _is_plain(label) -> bool:
    """A string or an integer (not a bool): JSON carries it as itself."""
    return isinstance(label, (str, int)) and not isinstance(label, bool)


def _label_json(label):
    if isinstance(label, LeafId):
        return {"leaf": list(label.path)}
    if _is_plain(label):
        return label
    raise ValueError(f"label {label!r} of type {type(label).__name__} has "
                     f"no JSON form")


def _labels_from_json(data, key: str) -> tuple:
    """The labels of the list field `key`, as `_label_json` wrote them."""
    labels = []
    for item in json_field(data, key, (list, tuple)):
        if _is_plain(item):
            labels.append(item)
        elif isinstance(item, Mapping) and item.keys() == {"leaf"}:
            labels.append(LeafId(json_items(item, "leaf", int)))
        else:
            raise ValueError(f"items of field {key!r} must be labels: a "
                             f"string, an integer or {{\"leaf\": [...]}}, "
                             f"got {type(item).__name__}")
    return tuple(labels)


def gamma_compose(phi: GammaMorphism, theta: GammaMorphism) -> GammaMorphism:
    """phi after theta: x |-> union of phi(t) over t in theta(x), that
    is, the owner of z is theta's owner of phi's owner of z."""
    if theta.target != phi.source:
        raise ValueError("middle objects differ (order included)")
    return GammaMorphism(theta.source, phi.target, tuple(
        None if o is None else theta.owners[o] for o in phi.owners))


def gamma_is_active(theta: GammaMorphism) -> bool:
    return None not in theta.owners


def segal(f: DeltaMorphism) -> GammaMorphism:
    """Interval map of a monotone f: {1..s} -> {1..t},
    i |-> {f(i-1)+1, ..., f(i)}."""
    owners: list = [None] * f.target_rank
    for i in range(f.source_rank):
        for j in range(f.values[i], f.values[i + 1]):
            owners[j] = i
    return GammaMorphism(tuple(range(1, f.source_rank + 1)),
                         tuple(range(1, f.target_rank + 1)), tuple(owners))


def enumerate_delta(s: int, t: int,
                    max_count: int = DEFAULT_MAX_COUNT) -> tuple[DeltaMorphism, ...]:
    """All weakly monotone [s] -> [t], lexicographic by value tuple."""
    check_count(s, "s")
    check_count(t, "t")
    check_count(max_count, "max_count")
    total = math.comb(s + t + 1, s + 1)
    if total > max_count:
        raise CapExceeded(f"monotone maps [{s}]->[{t}]", total, max_count)
    return tuple(DeltaMorphism(s, t, values)
                 for values in combinations_with_replacement(range(t + 1),
                                                             s + 1))


def enumerate_gamma(source: Sequence, target: Sequence,
                    active_only: bool = False,
                    max_count: int = DEFAULT_MAX_COUNT
                    ) -> tuple[GammaMorphism, ...]:
    """All set-level morphisms source -> target (disjoint images).

    A morphism is exactly a choice, for each target label, of the source
    label owning it (or of no owner when inactive morphisms are allowed),
    which makes the count (|X| + 1)^|Y|, or |X|^|Y| active.
    """
    check_count(max_count, "max_count")
    source = tuple(source)
    target = tuple(target)
    choices: tuple = tuple(range(len(source)))
    if not active_only:
        choices = (None,) + choices
    total = len(choices) ** len(target)
    if total > max_count:
        raise CapExceeded("set-level morphisms", total, max_count)
    return tuple(GammaMorphism(source, target, owners)
                 for owners in product(choices, repeat=len(target)))
