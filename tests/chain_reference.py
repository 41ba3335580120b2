"""Reference routes for the homology tests.

`reference_homology` takes the Smith normal form of every full boundary
matrix, degree by degree, with no clearing: the route `homology` took
before it reduced from the top degree down.  `simplicial_chain_complex`
builds the simplicial chain complex of the faces of given facets, with
no order complex in between.  `chain_store_complex` builds the
boundaries of a poset's order complex the way the library did when it
stored every chain: all degrees built and indexed before the first
boundary.  `minor_gcd` gives the determinantal
divisors of a matrix, the classical oracle of its invariant factors.
`boundary_dense` copies one boundary of a chain complex into a dense
matrix and `column_dicts` a dense matrix into column dicts.  `rank_mod` is a rank route that shares no code with the
library: column reduction over the integers mod a prime.  `det_bareiss`
is the determinant by fraction-free elimination, which stays
polynomial where `minor_gcd` does not.
"""

from itertools import combinations
from math import gcd

from thetaconf import ChainComplex
from thetaconf.homology import _smith_sparse


def reference_homology(cc):
    """(betti, torsion) from per-degree invariant factors."""
    dim = len(cc.dims)
    factors = [()] * (dim + 1)
    for k in range(1, dim):
        factors[k], _ = _smith_sparse(cc.boundaries[k - 1])
    ranks = [len(f) for f in factors]
    betti = tuple(cc.dims[k] - ranks[k] - ranks[k + 1] for k in range(dim))
    torsion = tuple(tuple(f for f in factors[k + 1] if f > 1)
                    for k in range(dim))
    return betti, torsion


def simplicial_chain_complex(facets):
    """Chain complex of every nonempty face of the facets, faces listed
    as sorted vertex tuples in (size, lexicographic) order."""
    faces = sorted({face for facet in facets
                    for size in range(1, len(facet) + 1)
                    for face in combinations(sorted(facet), size)},
                   key=lambda f: (len(f), f))
    layers = []
    for face in faces:
        if len(face) > len(layers):
            layers.append([])
        layers[-1].append(face)
    index = [{face: k for k, face in enumerate(layer)} for layer in layers]
    boundaries = []
    for k in range(1, len(layers)):
        cols = []
        for face in layers[k]:
            cols.append({index[k - 1][face[:i] + face[i + 1:]]: (-1) ** i
                         for i in range(len(face))})
        boundaries.append(tuple(cols))
    return ChainComplex(tuple(map(len, layers)), tuple(boundaries))


def chain_store_complex(view):
    """The order complex of `view` with every degree's chains stored and
    indexed: each degree extends the chains of the one below by every
    element above the last vertex, read bit by bit from `view.above`."""
    size = len(view.elements)
    succ = [[j for j in range(size) if mask >> j & 1] for mask in view.above]
    layers = []
    current = [(i,) for i in range(size)]
    while current:
        layers.append(current)
        current = [chain + (j,) for chain in current for j in succ[chain[-1]]]
    if not layers:
        layers = [[]]
    index = [{chain: k for k, chain in enumerate(layer)} for layer in layers]
    boundaries = []
    for k in range(1, len(layers)):
        cols = []
        for chain in layers[k]:
            cols.append({index[k - 1][chain[:i] + chain[i + 1:]]: (-1) ** i
                         for i in range(len(chain))})
        boundaries.append(tuple(cols))
    return ChainComplex(tuple(map(len, layers)), tuple(boundaries))


def boundary_dense(cc, k):
    """Dense copy of the degree-k boundary of `cc`, rows x cols."""
    rows, cols = cc.dims[k - 1], cc.dims[k]
    out = [[0] * cols for _ in range(rows)]
    for c, col in enumerate(cc.boundaries[k - 1]):
        for r, v in col.items():
            out[r][c] = v
    return out


def column_dicts(matrix):
    """The columns of a dense matrix as dicts {row: nonzero value}."""
    return [{r: row[c] for r, row in enumerate(matrix) if row[c]}
            for c in range(len(matrix[0]))]


def minor_gcd(matrix, k):
    """gcd of all k x k minors; the k-th invariant factor is
    minor_gcd(matrix, k) // minor_gcd(matrix, k - 1)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    g = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            g = gcd(g, det([[matrix[i][j] for j in cs] for i in rs]))
    return g


def rank_mod(columns, p):
    """Rank mod the prime p of the matrix given by its column dicts
    {row: value}.  Each column is reduced against the kept columns by
    its largest row until it is zero or its largest row is new; a kept
    column is scaled to 1 at its largest row."""
    kept = {}
    for col in columns:
        v = {r: x % p for r, x in col.items() if x % p}
        while v:
            low = max(v)
            pivot = kept.get(low)
            if pivot is None:
                inverse = pow(v[low], -1, p)
                kept[low] = {r: x * inverse % p for r, x in v.items()}
                break
            factor = v[low]
            for r, x in pivot.items():
                y = (v.get(r, 0) - factor * x) % p
                if y:
                    v[r] = y
                else:
                    v.pop(r, None)
    return len(kept)


def det_bareiss(matrix):
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: after step k every entry of the live block is a
    (k + 1) x (k + 1) minor, so each division is exact."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign, previous = 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1] if size else 1
