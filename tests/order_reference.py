"""The nested-table route of `leq` and `in_cell`, kept as references.

`reference_levels` is the r x r table of branching levels by position,
n on the diagonal, as orderings once cached it.  `reference_leq` reads
it with two position lookups per planar neighbour pair of b, and
`reference_in_cell` compares the coordinate slices of each planar
neighbour pair of the ordering.  Neither reads the flat `keys` tables
nor the interned `label_set`, and both raise LabelMismatch as the
library does.
"""

from functools import lru_cache

from thetaconf import LabelMismatch


def reference_levels(ordering):
    return _tables(ordering)[1]


@lru_cache(maxsize=4096)
def _tables(ordering):
    """Label positions and the nested level table, kept per ordering as
    the library once kept them."""
    r, word = ordering.size, ordering.word
    rows = [[ordering.n] * r for _ in range(r)]
    for i in range(r):
        level = ordering.n
        for j in range(i + 1, r):
            level = min(level, word[j - 1])
            rows[i][j] = rows[j][i] = level
    positions = {x: i for i, x in enumerate(ordering.labels)}
    return positions, tuple(map(tuple, rows))


def _neighbours(ordering):
    return zip(ordering.labels, ordering.labels[1:], ordering.word)


def reference_leq(a, b):
    if a.n != b.n:
        raise LabelMismatch("height parameters differ")
    positions, levels = _tables(a)
    if positions.keys() != _tables(b)[0].keys():
        raise LabelMismatch("label sets differ")
    for x, y, beta in _neighbours(b):
        i, j = positions[x], positions[y]
        level = levels[i][j]
        if level < beta or (level == beta and i > j):
            return False
    return True


def reference_in_cell(config, ordering):
    if config.n != ordering.n:
        raise LabelMismatch("dimensions differ")
    points = dict(zip(config.labels, config.coords))
    if points.keys() != set(ordering.labels):
        raise LabelMismatch("label sets differ")
    for x, y, beta in _neighbours(ordering):
        pa, pb = points[x], points[y]
        if pa[:beta] != pb[:beta] or pa[beta] > pb[beta]:
            return False
    return True
