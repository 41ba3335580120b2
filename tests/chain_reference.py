"""Reference routes for the homology tests.

`reference_homology` takes the Smith normal form of every full boundary
matrix, degree by degree, with no clearing: the route `homology` took
before it reduced from the top degree down.  `simplicial_chain_complex`
builds the simplicial chain complex of the faces of given facets, with
no order complex in between.  `minor_gcd` gives the determinantal
divisors of a matrix, the classical oracle of its invariant factors.
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
