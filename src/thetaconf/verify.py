"""Verification suites behind the `verify` subcommand.

Each suite re-derives a piece of the library's contract from scratch at
a configurable exhaustive scale and reports one entry per check.  The
sweeps are deterministic.  `theorem-a` reports dd = 0 of every
boundary matrix it builds as a check of its own; the library computes
without asserting it.  `poset` decides the order a second way after its
other checks: `leq` on every pair against the view built from cover
moves.

No check depends on label names: every size-r case uses `_labels(r)`.
A suite sized by `max_size` runs its per-ordering round trips (retract,
witness) to r = max_size + 1, its sweeps over pairs or samples to r =
max_size.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .cells import (cell_of, convexity_probe, functoriality_check, in_cell,
                    sample, witness)
from .errors import (DEFAULT_MAX_COUNT, CapExceeded, UnhealthyTarget,
                     check_count, check_height)
from .gamma import enumerate_gamma
from .homology import ChainComplex, boundary_matrices, homology, order_complex
from .labelled import (LabelledTree, embed, hom_exists, initiality_check,
                       retract, unit_exists)
from .nord import PosetView, degree, enumerate_nord, leq, sigma_act
from .theta import (_assemble, _lift, branching_condition_holds,
                    enumerate_hom_bruteforce)
from .trees import (enumerate_trees, is_healthy, level_n_leaves, parse_symbol,
                    render_symbol)


def _check(name: str, passed: bool, checked: int, **extra) -> dict:
    return {"name": name, "passed": bool(passed), "checked": checked, **extra}


def _report(suite: str, checks: list[dict], **params) -> dict:
    return {"suite": suite, "params": params,
            "passed": all(c["passed"] for c in checks), "checks": checks}


def _all(name: str, outcomes: Iterable[bool]) -> dict:
    """One check over every outcome, each computed; counts them all."""
    outcomes = list(outcomes)
    return _check(name, all(outcomes), len(outcomes))


def _labels(r: int) -> tuple[str, ...]:
    """The labels of every size-r case: x0, ..., x(r-1)."""
    check_count(r, "r")
    return tuple(f"x{k}" for k in range(r))


def _levels(levels: Iterable[int]) -> tuple[int, ...]:
    """The heights of a sweep, each checked before any work."""
    levels = tuple(levels)
    for n in levels:
        check_height(n)
    return levels


def _orderings(levels: Sequence[int], max_size: int) -> Iterator[tuple]:
    """The orderings of each case, r <= max_size at every height."""
    return (enumerate_nord(_labels(r), n)
            for n in levels for r in range(max_size + 1))


def expected_configuration_betti(n: int, r: int) -> list[int]:
    """Betti numbers of the configuration space of r points in n-space:
    coefficients of prod_(i=1..r-1) (1 + i*t^(n-1)).  Classical
    (Arnold for the plane, Cohen in general)."""
    poly = [1]
    for i in range(1, r):
        shifted = [0] * (n - 1) + [i * c for c in poly]
        poly = [a + b for a, b in
                zip(poly + [0] * (len(shifted) - len(poly)), shifted)]
    return poly


# -- suite: theorem-a (nerve homology matches configuration spaces) ---------

DEFAULT_HOMOLOGY_CASES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4),
                          (3, 3))


def _dd_zero(cc: ChainComplex) -> bool:
    """Every boundary of a boundary vanishes."""
    for k in range(2, len(cc.dims)):
        lower = cc.boundaries[k - 2]
        for col in cc.boundaries[k - 1]:
            acc: dict[int, int] = {}
            for r, v in col.items():
                for rr, vv in lower[r].items():
                    acc[rr] = acc.get(rr, 0) + v * vv
            if any(acc.values()):
                return False
    return True


def suite_theorem_a(cases: Sequence[tuple[int, int]] = DEFAULT_HOMOLOGY_CASES,
                    max_chains: int = DEFAULT_MAX_COUNT) -> dict:
    cases = tuple(cases)        # read once: the report lists them too
    sized = [(n, _labels(r)) for n, r in cases]    # each r checked first
    checks = []
    for n, labels in sized:
        r = len(labels)
        view = PosetView.of_orderings(labels, n)
        cc = boundary_matrices(order_complex(view, max_chains))
        result = homology(cc)
        expected = expected_configuration_betti(n, r)
        betti = list(result.betti)
        betti_ok = betti[:len(expected)] == expected \
            and all(b == 0 for b in betti[len(expected):])
        checks.append(_check(
            f"betti(n={n},r={r})", betti_ok, 1,
            betti=betti, expected=expected))
        checks.append(_check(
            f"torsion-free(n={n},r={r})",
            all(not t for t in result.torsion), 1))
        checks.append(_check(
            f"euler(n={n},r={r})",
            result.euler == sum((-1) ** k * b for k, b in enumerate(expected)),
            1, euler=result.euler))
        checks.append(_check(f"dd-zero(n={n},r={r})", _dd_zero(cc),
                             sum(len(cols) for cols in cc.boundaries[1:])))
    return _report("theorem-a", checks, cases=list(map(list, cases)))


# -- suite: morphisms (leaf-shadow bijection onto branching maps) ------------


def _pair_jobs(n: int, max_edges: int) -> list[tuple]:
    """One job per source tree and healthy target tree; more than
    DEFAULT_MAX_COUNT pairs raise CapExceeded before any job is built."""
    trees = enumerate_trees(max_edges, n)
    healthy = [t for t in trees if is_healthy(t, n)]
    pairs = len(trees) * len(healthy)
    if pairs > DEFAULT_MAX_COUNT:
        raise CapExceeded("tree pairs", pairs, DEFAULT_MAX_COUNT)
    return [(n, render_symbol(s, n), render_symbol(t, n))
            for s in trees for t in healthy]


def check_morphism_pair(job: tuple) -> tuple[bool, int, str]:
    """One (source, target) cell of the sweep: the generated active
    morphisms must have active shadows and biject with branching-condition
    set maps, with assembly injective and lift inverse to it.  Each
    shadow is its owner tuple, the key of its morphism.  The set maps are
    enumerated without pruning, as the independent route, and walked
    once: each goes through the public `branching_condition_holds`, and
    each it keeps must be a key and lift to that key's morphism.  The
    target must be healthy and the trees are checked here once, so the
    shadows are assembled, and the kept maps lifted, unchecked.  The
    count is of generated morphisms.
    """
    n, source_symbol, target_symbol, max_morphisms = job
    source = parse_symbol(source_symbol, n)
    target = parse_symbol(target_symbol, n)
    if not is_healthy(target, n):
        raise UnhealthyTarget(f"sweep target {target_symbol} is unhealthy")
    generated = enumerate_hom_bruteforce(source, target, n,
                                         max_count=max_morphisms,
                                         active_only=True)
    by_shadow = {}
    for count, f in enumerate(generated):
        owners = tuple(_assemble(f, source, target, n))
        if None in owners:
            return False, count, "generated morphism is not active"
        by_shadow[owners] = f
    count = len(generated)
    if len(by_shadow) != count:
        return False, count, "assembly not injective on active morphisms"
    lifted = 0
    for g in enumerate_gamma(level_n_leaves(source, n),
                             level_n_leaves(target, n), active_only=True,
                             max_count=max_morphisms):
        if not branching_condition_holds(source, target, n, g):
            continue
        f = by_shadow.get(g.owners)
        if f is None:
            return False, count, "shadow image differs from branching maps"
        # f's shadow is g, so a lift equal to f also assembles back to g
        if _lift(source, target, n, g.owners) != f:
            return False, count, "lift is not inverse to assembly"
        lifted += 1
    if lifted != count:
        return False, count, "shadow image differs from branching maps"
    return True, count, ""


def suite_morphisms(levels: Iterable[int] = (1, 2, 3), max_edges: int = 6,
                    max_morphisms: int = DEFAULT_MAX_COUNT) -> dict:
    levels = _levels(levels)
    check_count(max_edges, "max_edges")
    checks = []
    for n in levels:
        jobs = [job + (max_morphisms,) for job in _pair_jobs(n, max_edges)]
        results = [check_morphism_pair(job) for job in jobs]
        bad = [(job[1], job[2], message)
               for job, (ok, _, message) in zip(jobs, results) if not ok]
        checks.append(_check(
            f"active-bijection(n={n})", not bad, len(jobs),
            morphisms=sum(r[1] for r in results), failures=bad[:5]))
    return _report("morphisms", checks, max_edges=max_edges,
                   max_morphisms=max_morphisms)


# -- suite: poset (order axioms, grading, symmetry) ---------------------------


def suite_poset(max_size: int = 4, levels: Iterable[int] = (1, 2, 3)) -> dict:
    check_count(max_size, "max_size")
    levels = _levels(levels)
    checks = []
    agreement = []
    for n in levels:
        for r in range(max_size + 1):
            labels = _labels(r)
            view = PosetView.of_orderings(labels, n)
            relation = view.relation()
            checks.append(_check(
                f"partial-order(n={n},r={r})", view.is_partial_order(),
                len(view.elements)))
            degrees = list(map(degree, view.elements))
            graded = all(degrees[i] < degrees[j] for i, j in relation)
            checks.append(_check(
                f"degree-raising(n={n},r={r})", graded, len(relation)))
            index = {e: k for k, e in enumerate(view.elements)}
            relset = set(relation)
            free = equivariant = True
            for perm in permutations(labels):
                g = dict(zip(labels, perm))
                moved = [index[sigma_act(g, e)] for e in view.elements]
                if any(g[x] != x for x in labels):
                    free &= all(moved[k] != k
                                for k in range(len(view.elements)))
                equivariant &= all((moved[i], moved[j]) in relset
                                   for i, j in relation)
            checks.append(_check(f"free-action(n={n},r={r})", free,
                                 len(view.elements)))
            checks.append(_check(f"equivariant-action(n={n},r={r})",
                                 equivariant, len(relation)))
            # the N^2 route: leq on every ordered pair
            reference = PosetView(view.elements, leq)
            agrees = reference.above == view.above \
                and all(map(leq, view.elements, view.elements))
            agreement.append(_check(f"leq-agrees(n={n},r={r})", agrees,
                                    len(view.elements) ** 2))
    return _report("poset", checks + agreement, max_size=max_size,
                   levels=list(levels))


# -- suite: theorem-b (embedding, retraction, units, initiality) -------------


def _objects(levels: Sequence[int]) -> Iterator[LabelledTree]:
    """Every tree of at most 8 edges at each height, its leaves labelled
    by `_labels`: the objects of the unit and initiality sweeps."""
    return (LabelledTree(tree, n, _labels(len(level_n_leaves(tree, n))))
            for n in levels for tree in enumerate_trees(8, n))


def suite_theorem_b(max_size: int = 3,
                    levels: Iterable[int] = (1, 2, 3)) -> dict:
    check_count(max_size, "max_size")
    levels = _levels(levels)
    checks = [
        # retraction splits the embedding
        _all("retract-after-embed",
             (retract(embed(o)) == o
              for orderings in _orderings(levels, max_size + 1)
              for o in orderings)),
        # unit morphisms into the healthification always exist
        _all("unit-into-healthification",
             (unit_exists(obj) for obj in _objects(levels)
              if not is_healthy(obj.tree, obj.n))),
        # maps out of any object into embedded orderings see only the retract
        _all("initiality",
             (initiality_check(obj)
              for obj in _objects([m for m in levels if m <= 2] or levels[:1])
              if len(obj.labels) <= max_size)),
        # the embedding is full: hom between embedded orderings iff leq
        _all("fullness",
             (hom_exists(embed(a), embed(b)) == leq(a, b)
              for orderings in _orderings(levels, max_size)
              for a in orderings for b in orderings)),
    ]
    return _report("theorem-b", checks, max_size=max_size, levels=list(levels))


# -- suite: cells (classifier, witnesses, convexity, partition) --------------


def suite_cells(max_size: int = 3, levels: Iterable[int] = (1, 2, 3),
                samples: int = 1000, seed: int = 0) -> dict:
    check_count(max_size, "max_size")
    check_count(samples, "samples")
    levels = _levels(levels)
    checks = [_all("witness-roundtrip",
                   (cell_of(witness(o)) == o
                    for orderings in _orderings(levels, max_size + 1)
                    for o in orderings))]

    for n in levels:
        for r in range(max_size + 1):
            labels = _labels(r)
            orderings = enumerate_nord(labels, n)
            universal = partition = True
            for k, config in enumerate(
                    [witness(o) for o in orderings]
                    + [sample(labels, n, seed + k) for k in range(samples)]):
                classifier = cell_of(config)
                universal &= all(
                    in_cell(config, other) == leq(classifier, other)
                    for other in orderings)
                # the first sampled configurations lie in their own cell
                if 0 <= k - len(orderings) < min(samples, 200):
                    partition &= in_cell(config, classifier)
            checks.append(_check(
                f"classifier-universal(n={n},r={r})", universal,
                len(orderings) + samples))
            checks.append(_check(f"partition(n={n},r={r})", partition,
                                 min(samples, 200)))
            convex = all(convexity_probe(o, 10, seed) for o in orderings)
            checks.append(_check(f"midpoint-convexity(n={n},r={r})", convex,
                                 10 * len(orderings)))

    # cells nest along the order
    checks.append(_all("cell-nesting",
                       (functoriality_check(a, b, 10, seed)
                        for orderings in _orderings(levels, max_size)
                        for a in orderings for b in orderings
                        if a != b and leq(a, b))))
    return _report("cells", checks, max_size=max_size, samples=samples,
                   seed=seed)


SUITES = {
    "theorem-a": suite_theorem_a,
    "theorem-b": suite_theorem_b,
    "morphisms": suite_morphisms,
    "poset": suite_poset,
    "cells": suite_cells,
}
