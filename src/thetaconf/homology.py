"""Order complexes and integral homology via Smith normal form.

The order complex of a finite poset has the strict chains as simplices.
Boundary maps use the usual alternating signs.  Homology is computed
degree by degree from ranks and invariant factors of the boundary
matrices; arithmetic is plain Python integers throughout, so nothing
can overflow.

The Smith normal form runs in two phases: a sparse pass that peels off
+-1 pivots (boundary matrices are full of them) choosing the pivot of
least fill, then a dense textbook pass with smallest-magnitude pivoting
on whatever small core is left.  Eliminating a unit pivot with row
operations splits off an invariant factor 1 and leaves the Schur
complement, so the phases compose exactly.  The rows of a boundary
matrix stay its faces and the shortest rows go first: a face with one
coface is a free face, and its pivot is an elementary collapse with no
fill.

`homology` reduces the boundaries from the top degree down and clears
(Chen-Kerber, "Persistent homology computation with a twist", 2011):
the reduction of d_(k+1) reports the row of each unit pivot, a
k-simplex, and those columns are dropped from d_k before its Smith
form.  This is exact over the integers.  Let R be the unit-pivot rows
of d_(k+1) and C their columns.  The elimination factors d_(k+1)[R, C]
as a unit lower triangular matrix times a triangular one with +-1 on
the diagonal, so it is invertible over Z; for each s in R some integral
v has d_(k+1) v equal to 1 at s and 0 elsewhere on R.  That boundary z
is a cycle, and replacing each e_s by its z is a unimodular change of
basis of C_k that makes the columns of d_k at R zero and leaves the
others alone.  So d_k and d_k without the columns R have the same
invariant factors.  Pivots of the dense phase need not be units and
are never cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Sequence

from .errors import DEFAULT_MAX_COUNT, CapExceeded
from .nord import PosetView, _bits

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class OrderComplex:
    """Simplices per dimension; vertex k is elements[k] of the source
    poset.  Simplex tuples are strictly increasing chains listed
    lexicographically."""

    elements: tuple
    simplices: tuple[tuple[Simplex, ...], ...]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.simplices)


def order_complex(view: PosetView,
                  max_chains: int = DEFAULT_MAX_COUNT) -> OrderComplex:
    """All strict chains of the poset.  Consecutive-successor extension
    is enough because the relation is transitive."""
    count = len(view.elements)
    succ = [_bits(mask) for mask in view.above]

    layers: list[tuple[Simplex, ...]] = []
    current: list[Simplex] = [(i,) for i in range(count)]
    total = count
    while current:
        layers.append(tuple(current))
        nxt = []
        for chain in current:
            for j in succ[chain[-1]]:
                nxt.append(chain + (j,))
                total += 1
                if total > max_chains:
                    raise CapExceeded(
                        f"chain count exceeded the cap {max_chains}")
        current = nxt
    if not layers:
        layers = [()]
    return OrderComplex(view.elements, tuple(layers))


@dataclass
class ChainComplex:
    """dims[k] = rank of the degree-k chain group; boundaries[k] is the
    matrix of C_k -> C_(k-1) as column dicts {row: coefficient}, for
    k >= 1 (the degree-0 boundary is zero and not stored)."""

    dims: tuple[int, ...]
    boundaries: tuple[tuple[dict[int, int], ...], ...]

    def boundary_dense(self, k: int) -> list[list[int]]:
        """Dense copy of the degree-k boundary, rows x cols."""
        rows, cols = self.dims[k - 1], self.dims[k]
        out = [[0] * cols for _ in range(rows)]
        for c, col in enumerate(self.boundaries[k - 1]):
            for r, v in col.items():
                out[r][c] = v
        return out


def boundary_matrices(cx: OrderComplex) -> ChainComplex:
    """Alternating-sign boundary matrices."""
    dims = cx.counts()
    index: list[dict[Simplex, int]] = [
        {simplex: k for k, simplex in enumerate(layer)}
        for layer in cx.simplices]
    boundaries = []
    for k in range(1, len(dims)):
        faces = index[k - 1]
        cols = []
        for simplex in cx.simplices[k]:
            col: dict[int, int] = {}
            sign = 1
            for drop in range(len(simplex)):
                face = simplex[:drop] + simplex[drop + 1:]
                col[faces[face]] = sign
                sign = -sign
            cols.append(col)
        boundaries.append(tuple(cols))
    return ChainComplex(dims, tuple(boundaries))


# -- Smith normal form -------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors (nonzero diagonal of the Smith form, ones
    included, divisibility order) and the rank."""
    columns: list[dict[int, int]] = [{} for _ in range(
        max(map(len, matrix), default=0))]
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            if v:
                columns[c][r] = v
    factors, _ = _smith_sparse(columns)
    return factors, len(factors)


def _smith_sparse(columns: Sequence[dict[int, int]],
                  skip: Container[int] = ()) -> tuple[tuple[int, ...], list[int]]:
    """Invariant factors of the matrix given by its column dicts
    {row: value}, without the columns in `skip`, and the original row
    of each unit pivot.  The column dicts are read, never changed."""
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for c, col in enumerate(columns):
        if c in skip:
            continue
        for r, v in col.items():
            if v:
                rows.setdefault(r, {})[c] = v
                col_rows.setdefault(c, set()).add(r)

    pivot_rows = []
    # Rounds of unit-pivot elimination, shortest rows first; within a
    # row the unit entry with the emptiest column wins.  Unit pivots
    # are smallest-magnitude pivots, so this refines the documented
    # smallest-nonzero-magnitude rule with a fill heuristic.
    progressed = True
    while progressed:
        progressed = False
        for r0 in sorted(rows, key=lambda r: len(rows[r])):
            row = rows.get(r0)
            if row is None:
                continue
            unit_cols = [c for c, v in row.items() if v in (1, -1)]
            if not unit_cols:
                continue
            c0 = min(unit_cols, key=lambda c: (len(col_rows[c]), c))
            pivot_row = rows.pop(r0)
            eps = pivot_row[c0]
            for c in pivot_row:
                col_rows[c].discard(r0)
            # Row-eliminate the pivot column; with eps = +-1, dropping
            # the pivot row and column afterwards leaves the exact
            # Schur complement and an invariant factor 1.
            for r in list(col_rows.get(c0, ())):
                other = rows[r]
                factor = other[c0] * eps
                for c, v in pivot_row.items():
                    new = other.get(c, 0) - factor * v
                    if new:
                        if c not in other:
                            col_rows.setdefault(c, set()).add(r)
                        other[c] = new
                    elif c in other:
                        del other[c]
                        col_rows[c].discard(r)
                if not other:
                    del rows[r]
            col_rows.pop(c0, None)
            pivot_rows.append(r0)
            progressed = True

    # Dense residue: no unit entries left anywhere.
    if rows:
        row_ids = sorted(rows)
        col_ids = sorted({c for row in rows.values() for c in row})
        col_pos = {c: k for k, c in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in row_ids]
        for k, r in enumerate(row_ids):
            for c, v in rows[r].items():
                dense[k][col_pos[c]] = v
        core = tuple(_smith_dense(dense))
    else:
        core = ()

    # 1 divides everything: still a chain
    return (1,) * len(pivot_rows) + core, pivot_rows


def _smith_dense(m: list[list[int]]) -> list[int]:
    """Textbook Smith reduction with smallest-nonzero-magnitude pivoting.
    Returns the nonzero diagonal in divisibility order: before a pivot
    is retired, the offender step makes it divide the rest of the live
    block, so every later pivot is a multiple of it."""
    factors = []
    top = 0
    nrows, ncols = len(m), len(m[0]) if m else 0
    while True:
        pivot = None
        for r in range(top, nrows):
            for c in range(ncols):
                v = m[r][c]
                if v and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (r, c)
        if pivot is None:
            break
        r0, c0 = pivot
        m[top], m[r0] = m[r0], m[top]
        for row in m:
            row[c0], row[0] = row[0], row[c0]
        # Columns are swapped logically by always working at column 0 of
        # the live block; physical swap keeps indexing simple.
        while True:
            p = m[top][0]
            dirty = False
            for r in range(top + 1, nrows):
                if m[r][0]:
                    q = m[r][0] // p
                    if q:
                        m[r] = [a - q * b for a, b in zip(m[r], m[top])]
                    if m[r][0]:
                        m[top], m[r] = m[r], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for c in range(1, ncols):
                if m[top][c]:
                    q = m[top][c] // p
                    if q:
                        for r in range(top, nrows):
                            m[r][c] -= q * m[r][0]
                    if m[top][c]:
                        for r in range(top, nrows):
                            m[r][0], m[r][c] = m[r][c], m[r][0]
                        dirty = True
                        break
            if dirty:
                continue
            offender = None
            for r in range(top + 1, nrows):
                for c in range(1, ncols):
                    if m[r][c] % p:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
        factors.append(abs(m[top][0]))
        # Retire row `top` and column 0 of the live block.
        for r in range(nrows):
            m[r] = m[r][1:]
        ncols -= 1
        top += 1
        if ncols == 0:
            break
    return factors


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
    dim = len(cc.dims)
    factor_lists: list[tuple[int, ...]] = [()] * (dim + 1)
    cleared: set[int] = set()
    for k in range(dim - 1, 0, -1):
        factor_lists[k], pivot_rows = _smith_sparse(cc.boundaries[k - 1],
                                                    cleared)
        cleared = set(pivot_rows)
    ranks = [len(factors) for factors in factor_lists]
    betti = tuple(cc.dims[k] - ranks[k] - ranks[k + 1] for k in range(dim))
    torsion = tuple(tuple(f for f in factor_lists[k + 1] if f > 1)
                    for k in range(dim))
    euler = sum((-1) ** k * d for k, d in enumerate(cc.dims))
    return HomologyResult(betti, torsion, euler, tuple(cc.dims))


def euler_characteristic(cx: OrderComplex) -> int:
    """Alternating simplex-count sum, independent of any rank computation."""
    return sum((-1) ** k * c for k, c in enumerate(cx.counts()))


def poset_homology(view: PosetView,
                   max_chains: int = DEFAULT_MAX_COUNT) -> HomologyResult:
    """Convenience pipeline: order complex, boundaries, homology."""
    return homology(boundary_matrices(order_complex(view, max_chains)))
