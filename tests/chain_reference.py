"""Reference routes for the homology tests.

`reference_homology` takes the Smith normal form of every full boundary
matrix, degree by degree, with no clearing: the route `homology` took
before it reduced from the top degree down.  `simplicial_chain_complex`
builds the simplicial chain complex of the faces of given facets, with
no order complex in between.
"""

from itertools import combinations

from thetaconf import ChainComplex
from thetaconf.homology import _smith_sparse


def reference_homology(cc):
    """(betti, torsion) from per-degree invariant factors."""
    dim = len(cc.dims)
    factors = [()] * (dim + 1)
    for k in range(1, dim):
        entries = [(r, c, v) for c, col in enumerate(cc.boundaries[k - 1])
                   for r, v in col.items()]
        factors[k], _ = _smith_sparse(entries)
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
