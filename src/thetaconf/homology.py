"""Order complexes and integral homology via Smith normal form.

The order complex of a finite poset has the strict chains as simplices.
`order_complex` only counts them, degree by degree, so its cap refuses
before any chain is built; `boundary_matrices` builds them one degree
at a time and indexes only the degree below the one it builds.
Boundary maps use the usual alternating signs.  Homology is computed
degree by degree from ranks and invariant factors of the boundary
matrices; arithmetic is plain Python integers throughout, so nothing
can overflow.

The Smith normal form is one sparse elimination.  Rounds of +-1 pivots
(boundary matrices are full of them) choose the pivot of least fill;
eliminating a unit pivot with row operations splits off an invariant
factor 1 and leaves the Schur complement.  The rows of a boundary
matrix stay its faces and the shortest rows go first: a face with one
coface is a free face, and its pivot is an elementary collapse with no
fill.  When no unit is left, one step works on the entry p of least
magnitude: it reduces the other entries of p's column to their
remainders mod p by row operations, or, once that column is clear, the
other entries of p's row by column operations, or, once both are
clear, retires |p| as a diagonal entry.  A nonzero remainder is a
smaller entry, so the loop ends, and a remainder +-1 goes to the next
unit round.  The retired entries are put in divisibility order by
replacing pairs with their gcd and lcm.

`homology` reduces the boundaries from the top degree down and clears
(Chen-Kerber, "Persistent homology computation with a twist", 2011):
the reduction of d_(k+1) reports the row of each unit pivot taken
before its first non-unit step, a k-simplex, and those columns are
dropped from d_k before its Smith form.  This is exact over the
integers.  Let R be those rows of d_(k+1) and C their columns; up to
then the elimination did row operations only.  It factors d_(k+1)[R, C]
as a unit lower triangular matrix times a triangular one with +-1 on
the diagonal, so it is invertible over Z; for each s in R some integral
v has d_(k+1) v equal to 1 at s and 0 elsewhere on R.  That boundary z
is a cycle, and replacing each e_s by its z is a unimodular change of
basis of C_k that makes the columns of d_k at R zero and leaves the
others alone.  So d_k and d_k without the columns R have the same
invariant factors.  Unit pivots after a non-unit step follow column
operations as well, and are never cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Container, Sequence

from .errors import DEFAULT_MAX_COUNT, CapExceeded, check_count, check_type
from .nord import PosetView, _bits


@dataclass(frozen=True)
class OrderComplex:
    """The strict chains of a poset, counted and not built: vertex k is
    elements[k] of the source poset, succ[k] lists the vertices above
    it, ascending, and sizes[d] is the number of d-simplices."""

    elements: tuple
    succ: list[list[int]]
    sizes: tuple[int, ...]

    def counts(self) -> tuple[int, ...]:
        return self.sizes


def order_complex(view: PosetView,
                  max_chains: int = DEFAULT_MAX_COUNT) -> OrderComplex:
    """Count the strict chains of each degree, building none.  With
    starts[i] the degree-d chains that start at i, as many degree d + 1
    chains start at i as the sum of starts[j] over j above i, since the
    relation is transitive.  The running total through a degree is
    checked against the cap before the next degree is counted."""
    check_count(max_chains, "max_chains")
    try:
        elements, above = view.elements, view.above
    except AttributeError:
        check_type(view, PosetView, "a poset")
        raise
    succ = [_bits(mask) for mask in above]
    sizes: list[int] = []
    total, starts = 0, [1] * len(succ)
    while True:
        size = sum(starts)
        total += size
        if total > max_chains:
            raise CapExceeded(f"chains through degree {len(sizes)}", total,
                              max_chains)
        sizes.append(size)
        starts = [sum(map(starts.__getitem__, up)) for up in succ]
        if not any(starts):
            return OrderComplex(elements, succ, tuple(sizes))


@dataclass
class ChainComplex:
    """dims[k] = rank of the degree-k chain group; boundaries[k] is the
    matrix of C_k -> C_(k-1) as column dicts {row: coefficient}, for
    k >= 1 (the degree-0 boundary is zero and not stored)."""

    dims: tuple[int, ...]
    boundaries: tuple[tuple[dict[int, int], ...], ...]


def boundary_matrices(cx: OrderComplex) -> ChainComplex:
    """Alternating-sign boundary matrices.  Each degree's chains extend
    those of the degree below by each successor of the last vertex, so
    each degree is listed lexicographically.  Only the degree below is
    indexed, one index at a time: the top degree never is."""
    try:
        dims, succ = cx.counts(), cx.succ
    except AttributeError:
        check_type(cx, OrderComplex, "an order complex")
        raise
    layer = [(i,) for i in range(len(succ))]
    boundaries = []
    for _ in dims[1:]:
        faces = dict(zip(layer, range(len(layer))))
        layer = [chain + (j,) for chain in layer for j in succ[chain[-1]]]
        cols = []
        for simplex in layer:
            col: dict[int, int] = {}
            sign = 1
            for drop in range(len(simplex)):
                col[faces[simplex[:drop] + simplex[drop + 1:]]] = sign
                sign = -sign
            cols.append(col)
        boundaries.append(tuple(cols))
        del faces
    return ChainComplex(dims, tuple(boundaries))


# -- Smith normal form -------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors (nonzero diagonal of the Smith form, ones
    included, divisibility order) and the rank.  Raises ValueError for
    a matrix or a row that is not a sequence, rows of unequal length
    and an entry that is not an int (a bool is not one), so the
    arithmetic stays exact."""
    try:
        for r, row in enumerate(matrix):
            if not isinstance(row, Sequence):
                raise ValueError(f"row {r} must be a sequence, got {row!r}")
        width = len(matrix[0]) if matrix else 0
    except TypeError:
        check_type(matrix, Sequence, "a matrix")
        raise
    columns: list[dict[int, int]] = [{} for _ in range(width)]
    for r, row in enumerate(matrix):
        if len(row) != width:
            raise ValueError(
                f"row {r} has {len(row)} entries, row 0 has {width}")
        for c, v in enumerate(row):
            if type(v) is not int:
                raise ValueError(
                    f"entry ({r}, {c}) must be an integer, got {v!r}")
            if v:
                columns[c][r] = v
    factors, _ = _smith_sparse(columns)
    return factors, len(factors)


def _smith_sparse(columns: Sequence[dict[int, int]],
                  skip: Container[int] = ()) -> tuple[tuple[int, ...], list[int]]:
    """Invariant factors of the matrix given by its column dicts
    {row: value}, without the columns in `skip`, and the original row
    of each unit pivot taken before the first non-unit step.  The
    column dicts are read, never changed."""
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for c, col in enumerate(columns):
        if c in skip:
            continue
        members = set()
        for r, v in col.items():
            if v:
                row = rows.get(r)
                if row is None:
                    rows[r] = {c: v}
                else:
                    row[c] = v
                members.add(r)
        if members:
            col_rows[c] = members

    def subtract(r: int, factor: int, pivot_row: dict[int, int]) -> None:
        # row r -= factor * pivot_row; an emptied row is dropped
        other = rows[r]
        for c, v in pivot_row.items():
            step = factor * v
            old = other.get(c)
            if old is None:
                other[c] = -step
                col_rows[c].add(r)
            elif old == step:
                del other[c]
                col_rows[c].discard(r)
            else:
                other[c] = old - step
        if not other:
            del rows[r]

    pivot_rows: list[int] = []
    prefix = None           # unit pivots before the first non-unit step
    core: list[int] = []
    while rows:
        # A round of unit pivots, shortest rows first; within a row the
        # unit entry with the emptiest column wins, ties to the lower
        # column.
        progressed = False
        for r0 in sorted(rows, key=lambda r: len(rows[r])):
            pivot_row = rows.get(r0)
            if pivot_row is None:
                continue
            c0, least = -1, 0
            for c, v in pivot_row.items():
                if v == 1 or v == -1:
                    size = len(col_rows[c])
                    if c0 < 0 or size < least or size == least and c < c0:
                        c0, least = c, size
            if c0 < 0:
                continue
            del rows[r0]
            eps = pivot_row.pop(c0)
            for c in pivot_row:
                col_rows[c].discard(r0)
            targets = col_rows.pop(c0)
            targets.discard(r0)
            # With eps = +-1, clearing the pivot column by row operations
            # and dropping the pivot row and column leaves the exact
            # Schur complement and an invariant factor 1.  Each target
            # loses its pivot column entry up front.
            for r in targets:
                subtract(r, rows[r].pop(c0) * eps, pivot_row)
            pivot_rows.append(r0)
            progressed = True
        if progressed:
            continue
        # No unit left: one step on the entry p of least magnitude.
        r0, c0 = min(((r, c) for r, row in rows.items() for c in row),
                     key=lambda rc: (abs(rows[rc[0]][rc[1]]), rc))
        if prefix is None:
            prefix = len(pivot_rows)
        pivot_row = rows[r0]
        p = pivot_row[c0]
        targets = col_rows[c0] - {r0}
        if targets:
            # Row step: the remainders v % p stay in the column.
            for r in targets:
                subtract(r, rows[r][c0] // p, pivot_row)
        elif len(pivot_row) > 1:
            # Column step: the column of p is clear, so subtracting
            # multiples of it from the other columns touches this row
            # only and leaves the remainders v % p.
            for c in [c for c in pivot_row if c != c0]:
                v = pivot_row[c] % p
                if v:
                    pivot_row[c] = v
                else:
                    del pivot_row[c]
                    col_rows[c].discard(r0)
        else:
            del rows[r0]
            del col_rows[c0]
            core.append(abs(p))

    # diag(a, b) ~ diag(gcd, lcm): for each prime a selection sort of
    # its exponents, which leaves the core in divisibility order
    for i in range(len(core)):
        for j in range(i + 1, len(core)):
            g = gcd(core[i], core[j])
            core[i], core[j] = g, core[i] // g * core[j]
    # 1 divides everything: still a chain
    return (1,) * len(pivot_rows) + tuple(core), pivot_rows[:prefix]


# -- homology ----------------------------------------------------------------


@dataclass(frozen=True)
class HomologyResult:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler: int
    simplex_counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {"betti": list(self.betti),
                "torsion": [list(t) for t in self.torsion],
                "euler": self.euler,
                "simplex_counts": list(self.simplex_counts)}


def homology(cc: ChainComplex) -> HomologyResult:
    """Betti numbers and torsion coefficients per degree.  Betti numbers
    are dims minus adjacent ranks, so their alternating sum equals the
    simplex-count Euler characteristic by construction.  The boundaries
    are reduced from the top degree down, each without the columns that
    the unit pivots of the one above cleared."""
    try:
        dims, boundaries = cc.dims, cc.boundaries
    except AttributeError:
        check_type(cc, ChainComplex, "a chain complex")
        raise
    dim = len(dims)
    factor_lists: list[tuple[int, ...]] = [()] * (dim + 1)
    cleared: set[int] = set()
    for k in range(dim - 1, 0, -1):
        factor_lists[k], pivot_rows = _smith_sparse(boundaries[k - 1],
                                                    cleared)
        cleared = set(pivot_rows)
    ranks = [len(factors) for factors in factor_lists]
    betti = tuple(dims[k] - ranks[k] - ranks[k + 1] for k in range(dim))
    torsion = tuple(tuple(f for f in factor_lists[k + 1] if f > 1)
                    for k in range(dim))
    euler = sum((-1) ** k * d for k, d in enumerate(dims))
    return HomologyResult(betti, torsion, euler, tuple(dims))


def poset_homology(view: PosetView,
                   max_chains: int = DEFAULT_MAX_COUNT) -> HomologyResult:
    """Convenience pipeline: order complex, boundaries, homology."""
    return homology(boundary_matrices(order_complex(view, max_chains)))
