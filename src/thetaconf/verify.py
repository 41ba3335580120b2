"""Verification suites behind the `verify` subcommand.

Each suite re-derives a piece of the library's contract from scratch at
a configurable exhaustive scale and reports one entry per check.  The
sweeps are deterministic.  `theorem-a` reports dd = 0 of every
boundary matrix it builds as a check of its own; the library computes
without asserting it.  `poset` decides the order a second way after its
other checks: `leq` on every pair against the view built from cover
moves.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

from .cells import (cell_of, convexity_probe, functoriality_check, in_cell,
                    sample, witness)
from .errors import DEFAULT_MAX_COUNT, UnhealthyTarget, check_count, check_height
from .gamma import enumerate_gamma, gamma_is_active
from .homology import ChainComplex, boundary_matrices, homology, order_complex
from .labelled import (LabelledTree, embed, hom_exists, initiality_check,
                       retract, unit_exists)
from .nord import PosetView, degree, enumerate_nord, leq, sigma_act
from .theta import (_lift, assemble_morphism, branching_condition_holds,
                    enumerate_hom_bruteforce)
from .trees import (enumerate_trees, is_healthy, level_n_leaves, parse_symbol,
                    render_symbol)

DEFAULT_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h")


def _check(name: str, passed: bool, checked: int, **extra) -> dict:
    entry = {"name": name, "passed": bool(passed), "checked": checked}
    entry.update(extra)
    return entry


def _report(suite: str, checks: list[dict], **params) -> dict:
    return {"suite": suite, "params": params,
            "passed": all(c["passed"] for c in checks), "checks": checks}


def _pool(label_pool: Sequence, sizes: Iterable[int]) -> tuple:
    """The label pool as a tuple, checked to hold r labels for each r."""
    pool, r = tuple(label_pool), max(sizes, default=0)
    if r > len(pool):
        raise ValueError(f"r must be <= {len(pool)}, the pool size, got {r}")
    return pool


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
                    max_chains: int = DEFAULT_MAX_COUNT,
                    label_pool: Sequence = DEFAULT_LABELS) -> dict:
    pool = _pool(label_pool, [r for _, r in cases])
    checks = []
    for n, r in cases:
        labels = pool[:r]
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
    trees = list(enumerate_trees(max_edges, n))
    healthy = [t for t in trees if is_healthy(t, n)]
    return [(n, render_symbol(s, n), render_symbol(t, n))
            for s in trees for t in healthy]


def check_morphism_pair(job: tuple) -> tuple[bool, int, str]:
    """One (source, target) cell of the sweep: the generated active
    morphisms must have active shadows and biject with branching-condition
    set maps, with assembly injective and lift inverse to it.  The set
    maps are enumerated without pruning, as the independent route.  The
    target must be healthy, so the maps the filter keeps lift unchecked.
    """
    n, source_symbol, target_symbol, max_morphisms = job
    source = parse_symbol(source_symbol, n)
    target = parse_symbol(target_symbol, n)
    if not is_healthy(target, n):
        raise UnhealthyTarget(f"sweep target {target_symbol} is unhealthy")
    active = []
    for f in enumerate_hom_bruteforce(source, target, n,
                                      max_count=max_morphisms,
                                      active_only=True):
        shadow = assemble_morphism(f, source, target, n)
        if not gamma_is_active(shadow):
            return False, len(active), "generated morphism is not active"
        active.append((shadow, f))
    by_shadow = dict(active)
    if len(by_shadow) != len(active):
        return False, len(active), "assembly not injective on active morphisms"
    source_leaves = level_n_leaves(source, n)
    target_leaves = level_n_leaves(target, n)
    good = [g for g in enumerate_gamma(source_leaves, target_leaves,
                                       active_only=True,
                                       max_count=max_morphisms)
            if branching_condition_holds(source, target, n, g)]
    if set(by_shadow) != set(good):
        return False, len(active), "shadow image differs from branching maps"
    # each shadow in by_shadow is its own morphism's, so a lift equal to
    # by_shadow[g] also assembles back to g
    for g in good:
        if _lift(source, target, n, g.owners) != by_shadow[g]:
            return False, len(active), "lift is not inverse to assembly"
    return True, len(active), ""


def suite_morphisms(levels: Iterable[int] = (1, 2, 3), max_edges: int = 6,
                    max_morphisms: int = DEFAULT_MAX_COUNT) -> dict:
    levels = tuple(levels)
    for n in levels:
        check_height(n)
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


def suite_poset(sizes: Iterable[int] = (0, 1, 2, 3, 4),
                levels: Iterable[int] = (1, 2, 3),
                label_pool: Sequence = DEFAULT_LABELS) -> dict:
    sizes = tuple(sizes)
    pool = _pool(label_pool, sizes)
    checks = []
    agreement = []
    for n in levels:
        for r in sizes:
            labels = pool[:r]
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
    return _report("poset", checks + agreement, sizes=list(sizes),
                   levels=list(levels))


# -- suite: theorem-b (embedding, retraction, units, initiality) -------------


def _canonical_labelled(tree, n) -> LabelledTree:
    count = len(level_n_leaves(tree, n))
    return LabelledTree(tree, n, tuple(f"x{k}" for k in range(count)))


def suite_theorem_b(max_retract_size: int = 4,
                    unit_max_edges: int = 8,
                    initiality_max_size: int = 3,
                    fullness_max_size: int = 3,
                    levels: Iterable[int] = (1, 2, 3),
                    label_pool: Sequence = DEFAULT_LABELS) -> dict:
    levels = tuple(levels)
    pool = tuple(label_pool)
    checks = []
    # retraction splits the embedding
    count = 0
    ok = True
    for n in levels:
        for r in range(min(max_retract_size, len(pool)) + 1):
            for ordering in enumerate_nord(pool[:r], n):
                ok &= retract(embed(ordering)) == ordering
                count += 1
    checks.append(_check("retract-after-embed", ok, count))

    # unit morphisms into the healthification always exist
    count = 0
    ok = True
    for n in levels:
        for tree in enumerate_trees(unit_max_edges, n):
            if is_healthy(tree, n):
                continue
            ok &= unit_exists(_canonical_labelled(tree, n))
            count += 1
    checks.append(_check("unit-into-healthification", ok, count))

    # maps out of any object into embedded orderings see only the retract
    count = 0
    ok = True
    for n in [m for m in levels if m <= 2] or levels[:1]:
        for tree in enumerate_trees(unit_max_edges, n):
            obj = _canonical_labelled(tree, n)
            if len(obj.labels) > initiality_max_size:
                continue
            ok &= initiality_check(obj, max_size=initiality_max_size)
            count += 1
    checks.append(_check("initiality", ok, count))

    # the embedding is full: hom between embedded orderings iff leq
    count = 0
    ok = True
    for n in levels:
        for r in range(min(fullness_max_size, len(pool)) + 1):
            orderings = enumerate_nord(pool[:r], n)
            for a in orderings:
                for b in orderings:
                    ok &= hom_exists(embed(a), embed(b)) == leq(a, b)
                    count += 1
    checks.append(_check("fullness", ok, count))
    return _report("theorem-b", checks, max_retract_size=max_retract_size,
                   unit_max_edges=unit_max_edges,
                   initiality_max_size=initiality_max_size,
                   fullness_max_size=fullness_max_size,
                   levels=list(levels))


# -- suite: cells (classifier, witnesses, convexity, partition) --------------


def suite_cells(max_size: int = 3, levels: Iterable[int] = (1, 2, 3),
                samples: int = 1000, seed: int = 0,
                label_pool: Sequence = DEFAULT_LABELS) -> dict:
    check_count(samples, "samples")
    levels = tuple(levels)
    pool = tuple(label_pool)
    checks = []
    # witness round-trip, one size larger than the sampled sweeps
    count = 0
    ok = True
    for n in levels:
        for r in range(min(max_size + 1, len(pool)) + 1):
            for ordering in enumerate_nord(pool[:r], n):
                ok &= cell_of(witness(ordering)) == ordering
                count += 1
    checks.append(_check("witness-roundtrip", ok, count))

    for n in levels:
        for r in range(min(max_size, len(pool)) + 1):
            labels = pool[:r]
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
    count = 0
    ok = True
    for n in levels:
        for r in range(min(max_size, len(pool)) + 1):
            orderings = enumerate_nord(pool[:r], n)
            for a in orderings:
                for b in orderings:
                    if a != b and leq(a, b):
                        ok &= functoriality_check(a, b, 10, seed)
                        count += 1
    checks.append(_check("cell-nesting", ok, count))
    return _report("cells", checks, max_size=max_size, samples=samples,
                   seed=seed)


SUITES = {
    "theorem-a": suite_theorem_a,
    "theorem-b": suite_theorem_b,
    "morphisms": suite_morphisms,
    "poset": suite_poset,
    "cells": suite_cells,
}
