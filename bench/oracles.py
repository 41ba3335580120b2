"""Reference values for the benchmark's correctness checks.

Nothing here imports thetaconf: every number is re-derived from a closed
form or a generating-function recurrence, so a check that compares the
program against these functions compares two independent routes.
"""

from __future__ import annotations

from math import comb, factorial


def configuration_betti(n: int, r: int) -> tuple[int, ...]:
    """Betti numbers of the configuration space of r points in n-space,
    by degree: the coefficients of prod_(i<r) (1 + i*t^(n-1))."""
    poly = [1]
    for i in range(1, r):
        out = poly + [0] * (n - 1)
        for k, c in enumerate(poly):
            out[k + n - 1] += i * c
        poly = out
    return tuple(poly)


def ordering_count(n: int, r: int) -> int:
    """Number of n-orderings of r labels: r! * n^(r-1), and 1 for r = 0."""
    return factorial(r) * n ** (r - 1) if r else 1


def ordering_degree(word: tuple[int, ...], n: int) -> int:
    """Edge count of the tree realizing an ordering with this word: the
    first leaf hangs from an n-edge spine, and a later leaf whose word
    entry is b adds the n - b edges below its branching level."""
    return n + sum(n - b for b in word)


def _inverse_one_minus(b: list[int]) -> list[int]:
    """Power series 1/(1 - b), truncated to len(b) terms; b[0] == 0."""
    out = [1] + [0] * (len(b) - 1)
    for k in range(1, len(b)):
        out[k] = sum(b[j] * out[k - j] for j in range(1, k + 1))
    return out


def tree_counts(height: int, max_edges: int) -> list[int]:
    """Planar level trees of height <= `height` by edge count 0..max_edges:
    coefficients of T_h(x) = 1/(1 - x*T_(h-1)(x)) with T_0 = 1."""
    series = [1] + [0] * max_edges
    for _ in range(height):
        series = _inverse_one_minus([0] + series[:-1])
    return series


def healthy_tree_counts(height: int, max_edges: int) -> list[int]:
    """Trees whose leaves all sit at level `height`, plus the root-only
    tree, by edge count.  With A_0 = 1, a tree with all leaves at level h
    is a nonempty sequence of (edge, tree with all leaves at level h-1):
    A_h = B/(1 - B) with B = x*A_(h-1)."""
    series = [1] + [0] * max_edges
    for _ in range(height):
        shifted = [0] + series[:-1]
        inverse = _inverse_one_minus(shifted)
        series = [sum(shifted[j] * inverse[k - j] for j in range(k + 1))
                  for k in range(max_edges + 1)]
    series[0] += 1
    return series


def level1_active_homs(max_edges: int) -> int:
    """Active level-1 morphisms [s] -> [t] summed over 0 <= s, t <= max_edges.

    An active monotone map has f(0) = 0 and f(s) = t, which leaves
    C(s+t-1, s-1) choices for s >= 1; for s = 0 only [0] -> [0] is active.
    """
    return 1 + sum(comb(s + t - 1, s - 1)
                   for s in range(1, max_edges + 1)
                   for t in range(max_edges + 1))
