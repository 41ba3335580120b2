"""The simplex category and Segal's category of finite sets.

Objects of the simplex category are [s] = {0 < ... < s}; morphisms are
weakly monotone maps.  A morphism X -> Y in Segal's category sends each
element of X to a subset of Y, with pairwise disjoint images; it is
active when the images cover Y.  The interval functor turns a monotone
f: [s] -> [t] into the set-level map i |-> {j : f(i-1) < j <= f(i)} on
{1..s} -> {1..t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Hashable, Mapping, Sequence

from .errors import DEFAULT_MAX_COUNT, CapExceeded, json_field, json_items
from .trees import LeafId


@dataclass(frozen=True)
class DeltaMorphism:
    """Weakly monotone map [s] -> [t], stored as the value tuple
    (f(0), ..., f(s))."""

    source_rank: int
    target_rank: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.source_rank < 0 or self.target_rank < 0:
            raise ValueError("ranks must be non-negative")
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
    """Set-level morphism: each source label gets a subset of the target,
    images pairwise disjoint.  Source and target are ordered label tuples
    (the order carries the planar order when labels are leaf ids)."""

    source: tuple[Hashable, ...]
    target: tuple[Hashable, ...]
    images: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source):
            raise ValueError("one image per source label required")
        if len(set(self.source)) != len(self.source):
            raise ValueError("duplicate source labels")
        if len(set(self.target)) != len(self.target):
            raise ValueError("duplicate target labels")
        target_set = set(self.target)
        seen: set = set()
        for x, img in zip(self.source, self.images):
            if not img <= target_set:
                raise ValueError(f"image of {x!r} leaves the target set")
            if img & seen:
                raise ValueError(f"image of {x!r} overlaps an earlier image")
            seen |= img

    @classmethod
    def from_map(cls, source: Sequence, target: Sequence,
                 mapping: Mapping) -> "GammaMorphism":
        source = tuple(source)
        extra = set(mapping) - set(source)
        if extra:
            raise ValueError(f"mapping mentions unknown labels {extra}")
        images = tuple(frozenset(mapping.get(x, ())) for x in source)
        return cls(source, tuple(target), images)

    @classmethod
    def identity(cls, labels: Sequence) -> "GammaMorphism":
        labels = tuple(labels)
        return cls(labels, labels, tuple(frozenset([x]) for x in labels))

    def __call__(self, x: Hashable) -> frozenset:
        return self.images[self.source.index(x)]

    @property
    def mapping(self) -> dict:
        return dict(zip(self.source, self.images))

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
            "map": {str(k): [_label_json(y) for y in self.target if y in img]
                    for k, img in enumerate(self.images)},
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
    """phi after theta: x |-> union of phi(t) over t in theta(x)."""
    if theta.target != phi.source:
        raise ValueError("middle objects differ (order included)")
    images = []
    for img in theta.images:
        acc: set = set()
        for t in img:
            acc |= phi(t)
        images.append(frozenset(acc))
    return GammaMorphism(theta.source, phi.target, tuple(images))


def gamma_is_active(theta: GammaMorphism) -> bool:
    covered: set = set()
    for img in theta.images:
        covered |= img
    return covered == set(theta.target)


def segal(f: DeltaMorphism) -> GammaMorphism:
    """Interval map of a monotone f: {1..s} -> {1..t},
    i |-> {f(i-1)+1, ..., f(i)}."""
    source = tuple(range(1, f.source_rank + 1))
    target = tuple(range(1, f.target_rank + 1))
    images = tuple(
        frozenset(range(f(i - 1) + 1, f(i) + 1)) for i in source
    )
    return GammaMorphism(source, target, images)


def enumerate_delta(s: int, t: int,
                    max_count: int = DEFAULT_MAX_COUNT) -> tuple[DeltaMorphism, ...]:
    """All weakly monotone [s] -> [t], lexicographic by value tuple."""
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
    source = tuple(source)
    target = tuple(target)
    owners: tuple = source if active_only else (None,) + source
    total = len(owners) ** len(target)
    if total > max_count:
        raise CapExceeded("set-level morphisms", total, max_count)
    out = []
    for choice in product(owners, repeat=len(target)):
        images = {x: set() for x in source}
        for y, owner in zip(target, choice):
            if owner is not None:
                images[owner].add(y)
        out.append(GammaMorphism(
            source, target, tuple(frozenset(images[x]) for x in source)))
    return tuple(out)
