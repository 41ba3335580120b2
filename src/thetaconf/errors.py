"""Shared exception types, the resource-cap default, the argument rules
(labels, heights and counts) and the field checks of the JSON readers."""

from contextlib import suppress
from typing import Hashable, Mapping, Sequence

DEFAULT_MAX_COUNT = 10**6


class SymbolParseError(ValueError):
    """Malformed tree symbol. Carries the offset of the offending character."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self._message, self.position = message, position

    def __reduce__(self):
        return type(self), (self._message, self.position)


class CapExceeded(RuntimeError):
    """An enumeration or chain build went past its configured resource cap.

    `stage` names what was being counted, `count` is the count reached
    (the exact total when it is known before building) and `cap` is the
    cap it went past."""

    def __init__(self, stage: str, count: int, cap: int):
        super().__init__(f"{stage}: {count} exceed the cap {cap}")
        self.stage, self.count, self.cap = stage, count, cap

    def __reduce__(self):
        # rebuilt from the attributes, so it crosses process boundaries
        return type(self), (self.stage, self.count, self.cap)


class LabelMismatch(ValueError):
    """Two objects that must share a label set (or a level) do not."""


class UnhealthyTarget(ValueError):
    """Operation requires a healthy target tree."""


class NotActive(ValueError):
    """Operation requires an active morphism."""


class BranchingConditionViolation(ValueError):
    """Set-level map admits no lift because the branching condition fails."""


def check_labels(labels: Sequence) -> None:
    """Reject labels that are not all hashable, or not distinct."""
    try:
        distinct = len(set(labels))
    except TypeError as exc:
        raise ValueError(f"labels must be hashable: {exc}") from None
    if distinct != len(labels):
        raise ValueError("duplicate labels")


def check_height(n: int) -> None:
    """Reject a height parameter that is not an int (a bool is not one)
    or is below 1."""
    if type(n) is not int:
        raise ValueError(f"height parameter n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"height parameter must be >= 1, got {n}")


def check_count(value: int, name: str) -> None:
    """Reject a count, size or resource cap that is not an int (a bool is
    not one) or is negative: an input error, not a cap the work goes past."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def bijection_values(g: Mapping, labels: tuple) -> tuple:
    """(g(x) for x in labels), checked to be a bijection of the label
    set; raises LabelMismatch otherwise."""
    with suppress(TypeError):   # g is no mapping, or a value is unhashable
        values = tuple(g[x] for x in labels if x in g)
        if len(values) == len(labels) and set(values) == set(labels):
            return values
    raise LabelMismatch("not a bijection of the label set")


# -- JSON fields -------------------------------------------------------------

_KINDS = {int: "an integer", str: "a string", Mapping: "an object",
          (list, tuple): "a list", Hashable: "hashable"}


def _is_a(value, kind) -> bool:
    if kind is Hashable:
        try:
            hash(value)
        except TypeError:
            return False
        return True
    return isinstance(value, kind) and not (kind is int
                                            and isinstance(value, bool))


def json_field(data, key: str, kind):
    """`data[key]`, checked to be of `kind`, a key of `_KINDS` (a bool is
    not an int).  Raises ValueError naming the field when `data` is not
    an object or the field is missing or of another kind."""
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    value = data[key]
    if not _is_a(value, kind):
        raise ValueError(f"field {key!r} must be {_KINDS[kind]}, "
                         f"got {type(value).__name__}")
    return value


def json_items(data, key: str, kind) -> tuple:
    """The array `data[key]` as a tuple whose items are each of `kind`,
    with the errors of `json_field`."""
    items = json_field(data, key, (list, tuple))
    for item in items:
        if not _is_a(item, kind):
            raise ValueError(f"items of field {key!r} must be {_KINDS[kind]}, "
                             f"got {type(item).__name__}")
    return tuple(items)
