"""The nested-table route of `leq` and `in_cell`, kept as references.

`reference_levels` is the r x r table of branching levels by position,
n on the diagonal, as orderings once cached it.  `reference_leq` reads
it with two position lookups per planar neighbour pair of b, and
`reference_in_cell` compares the coordinate slices of each planar
neighbour pair of the ordering.  Neither reads the flat `keys` tables
nor the interned `label_set`, and both raise LabelMismatch as the
library does.  `reference_upper_covers` walks the cover moves of one
labelled ordering, carrying its labels through every split, as the
library did before it walked each word once.  `reference_word_tree`
builds the tree of a word on a mutable spine of open vertices and
freezes it, as `to_tree` did before it recursed on the runs of the word
between its zeros.
"""

from functools import lru_cache

from thetaconf import LabelMismatch, NOrdering, PlanarLevelTree


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


def reference_upper_covers(ordering):
    """The covers of the ordering in the library's order, one per split
    of the children of a vertex at depth 1..n-1."""
    labels, word, n = ordering.labels, ordering.word, ordering.n
    r = len(labels)
    out = []
    for d in range(1, n):
        start = 0
        for end in range(1, r + 1):
            if end < r and word[end - 1] >= d:
                continue
            cuts = [k for k in range(start + 1, end) if word[k - 1] == d]
            if cuts:
                bounds = [start, *cuts, end]
                blocks = [(labels[a:b], word[a:b - 1])
                          for a, b in zip(bounds, bounds[1:])]
                for split in range(1, (1 << len(blocks)) - 1):
                    moved = [b for k, b in enumerate(blocks) if split >> k & 1]
                    moved += [b for k, b in enumerate(blocks)
                              if not split >> k & 1]
                    joint = split.bit_count()
                    new_labels, new_word = labels[:start], word[:start]
                    for k, (block_labels, block_word) in enumerate(moved):
                        if k:
                            new_word += (d - 1 if k == joint else d,)
                        new_labels += block_labels
                        new_word += block_word
                    out.append(NOrdering(new_labels + labels[end:],
                                         new_word + word[end - 1:], n))
            start = end
    return tuple(out)


def reference_word_tree(word, n):
    """The tree of a nonempty ordering; its shape depends on the word
    alone."""
    root: list = []
    spine = [root]
    for _ in range(n):
        node: list = []
        spine[-1].append(node)
        spine.append(node)
    for b in word:
        del spine[b + 1:]
        for _ in range(b, n):
            node = []
            spine[-1].append(node)
            spine.append(node)

    def freeze(node):
        return PlanarLevelTree(tuple(freeze(c) for c in node))

    return freeze(root)
