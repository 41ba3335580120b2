"""The benchmark's workloads.

`orders` runs the nerve, poset and cells job lists in one pass;
`morphisms` runs the shadow-lift sweep.  Each job list has three parts:

- `prepare(rng)` makes the pass's inputs from the seeded generator;
- `execute(inputs, ops)` is the timed job list.  Every call into
  thetaconf goes through `ops.run`, which counts and times one operation
  and records an exception as a failed operation;
- `check(inputs, results)` compares the outputs with oracles.py and with
  properties the method must have, and returns the problems found.

Calls go through `thetaconf.<name>` and `thetaconf.verify.<name>` at call
time, so a traced pass sees them once tracing.install has rebound those
names.
"""

from __future__ import annotations

import random
import string
import time

import thetaconf as tc
from thetaconf import verify

import oracles


LOOP_EVERY_S = 0.05


def loop_time():
    """Time of a fixed pure-Python integer loop of about 2 ms.  It calls
    nothing of thetaconf, so it shows how fast the shared CPU ran at that
    moment, apart from the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


class Ops:
    """Counts attempted operations, keeps the failed ones and times each.
    After an operation, at most once per LOOP_EVERY_S, it also times
    loop_time, so that the loop samples the host's speed all through the
    job list."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.seconds: list[float] = []
        self.loop_seconds: list[float] = []
        self._last_loop = time.perf_counter()

    def run(self, name, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:    # a failed operation is data, not a crash
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            end = time.perf_counter()
            self.seconds.append(end - start)
            if end - self._last_loop >= LOOP_EVERY_S:
                self.loop_seconds.append(loop_time())
                self._last_loop = time.perf_counter()


def seeded_labels(rng: random.Random, r: int) -> tuple[str, ...]:
    """r distinct three-letter labels in generator order."""
    labels: list[str] = []
    while len(labels) < r:
        label = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if label not in labels:
            labels.append(label)
    return tuple(labels)


# -- nerve: poset_homology stage by stage -------------------------------------

NERVE_CASES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3))


def _nerve_case(n, labels):
    view = tc.PosetView.of_orderings(labels, n)
    cx = tc.order_complex(view)
    cc = tc.boundary_matrices(cx)
    return view, cx.counts(), cc, tc.homology(cc)


class Nerve:
    def prepare(self, rng):
        return [(n, seeded_labels(rng, r)) for n, r in NERVE_CASES]

    def execute(self, inputs, ops):
        return [ops.run(f"nerve(n={n},r={len(labels)})", _nerve_case, n, labels)
                for n, labels in inputs]

    def check(self, inputs, results):
        problems = []
        for (n, labels), out in zip(inputs, results):
            if out is None:
                continue
            r = len(labels)
            _, counts, _, result = out
            expected = oracles.configuration_betti(n, r)
            betti = tuple(result.betti)
            padded = expected + (0,) * (len(betti) - len(expected))
            if betti != padded:
                problems.append(f"nerve({n},{r}): betti {betti} != {expected}")
            if any(result.torsion):
                problems.append(f"nerve({n},{r}): torsion {result.torsion}")
            euler = sum((-1) ** k * c for k, c in enumerate(counts))
            if euler != sum((-1) ** k * b for k, b in enumerate(betti)):
                problems.append(f"nerve({n},{r}): Euler characteristic {euler} "
                                f"!= alternating Betti sum")
        return problems

    def facts(self, inputs, results):
        return {f"n={n},r={len(labels)}": {
                    "orderings": len(out[0].elements),
                    "relations": sum(m.bit_count() for m in out[0].above),
                    "chains": sum(out[1]),
                    "nonzeros": sum(len(col) for layer in out[2].boundaries
                                    for col in layer)}
                for (n, labels), out in zip(inputs, results) if out}


# -- poset: PosetView build and covers, order decided a second way -----------

POSET_CASES = ((2, 4), (4, 3), (3, 4))
# (n, r) -> (sampled covers, sampled random pairs) checked with hom_exists
PAIR_SAMPLES = {(2, 4): (100, 100), (3, 4): (300, 300)}


def _build(n, labels):
    view = tc.PosetView.of_orderings(labels, n)
    return view, view.covers()


def _both_ways(a, b):
    return tc.leq(a, b), tc.hom_exists(tc.embed(a), tc.embed(b))


class Poset:
    def prepare(self, rng):
        return [(n, seeded_labels(rng, r), random.Random(rng.getrandbits(64)))
                for n, r in POSET_CASES]

    def execute(self, inputs, ops):
        results = []
        for n, labels, rng in inputs:
            r = len(labels)
            built = ops.run(f"poset(n={n},r={r})", _build, n, labels)
            pairs = []
            if built is not None:
                view, covers = built
                count = len(view.elements)
                n_covers, n_random = PAIR_SAMPLES.get((n, r), (0, 0))
                sample = rng.sample(covers, min(n_covers, len(covers))) + [
                    (rng.randrange(count), rng.randrange(count))
                    for _ in range(n_random)]
                for i, j in sample:
                    answer = ops.run(f"pair(n={n},r={r},{i},{j})", _both_ways,
                                     view.elements[i], view.elements[j])
                    pairs.append((i, j, answer))
            results.append((built, pairs))
        return results

    def check(self, inputs, results):
        problems = []
        for (n, labels, _), (built, pairs) in zip(inputs, results):
            if built is None:
                continue
            r = len(labels)
            view, covers = built
            count = len(view.elements)
            if count != oracles.ordering_count(n, r):
                problems.append(f"poset({n},{r}): {count} orderings")
            degree = [oracles.ordering_degree(e.word, n) for e in view.elements]
            raised = [(i, j) for i, j in covers if degree[j] != degree[i] + 1]
            if raised:
                problems.append(f"poset({n},{r}): covers {raised[:3]} do not "
                                f"raise the degree by 1")
            relations = sum(m.bit_count() for m in view.above)
            order = oracles.ordering_count(1, r)
            if relations % order or len(covers) % order:
                problems.append(f"poset({n},{r}): {relations} relations, "
                                f"{len(covers)} covers, not divisible by {r}!")
            for i, j, answer in pairs:
                if answer is None:
                    continue
                in_view = i == j or bool(view.above[i] >> j & 1)
                if answer != (in_view, in_view):
                    problems.append(f"poset({n},{r}): pair ({i},{j}) gives "
                                    f"leq, hom_exists = {answer}, view "
                                    f"{in_view}")
        return problems

    def facts(self, inputs, results):
        out = {}
        for (n, labels, _), (built, pairs) in zip(inputs, results):
            if built:
                view, covers = built
                out[f"n={n},r={len(labels)}"] = {
                    "orderings": len(view.elements),
                    "relations": sum(m.bit_count() for m in view.above),
                    "covers": len(covers),
                    "pairs": len(pairs),
                    "related_pairs": sum(1 for _, _, a in pairs if a and a[0])}
        return out


# -- morphisms: the serial shadow-lift sweep ----------------------------------

MORPHISM_LEVELS = (1, 2, 3)
MORPHISM_MAX_EDGES = 5
MORPHISM_CAP = 10**6


class Morphisms:
    def prepare(self, rng):
        jobs = []
        sizes = {}
        for n in MORPHISM_LEVELS:
            trees = tc.enumerate_trees(MORPHISM_MAX_EDGES, n)
            healthy = [t for t in trees if tc.is_healthy(t, n)]
            sizes[n] = (len(trees), len(healthy))
            jobs += [(n, tc.render_symbol(s, n), tc.render_symbol(t, n),
                      MORPHISM_CAP)
                     for s in trees for t in healthy]
        rng.shuffle(jobs)
        return jobs, sizes

    def execute(self, inputs, ops):
        jobs, _ = inputs
        return [ops.run(f"pair{job[:3]}", verify.check_morphism_pair, job)
                for job in jobs]

    def check(self, inputs, results):
        jobs, sizes = inputs
        problems = []
        for job, out in zip(jobs, results):
            if out is not None and not out[0]:
                problems.append(f"morphisms{job[:3]}: {out[2]}")
        for n, (trees, healthy) in sizes.items():
            expected = (sum(oracles.tree_counts(n, MORPHISM_MAX_EDGES)),
                        sum(oracles.healthy_tree_counts(n, MORPHISM_MAX_EDGES)))
            if (trees, healthy) != expected:
                problems.append(f"morphisms(n={n}): {trees} trees, {healthy} "
                                f"healthy, expected {expected}")
        level1 = sum(out[1] for job, out in zip(jobs, results)
                     if job[0] == 1 and out is not None)
        if level1 != oracles.level1_active_homs(MORPHISM_MAX_EDGES):
            problems.append(f"morphisms(n=1): {level1} active morphisms")
        return problems

    def facts(self, inputs, results):
        jobs, _ = inputs
        out = {}
        for job, res in zip(jobs, results):
            level = out.setdefault(f"n={job[0]}", {"pairs": 0, "active": 0})
            level["pairs"] += 1
            level["active"] += res[1] if res else 0
        return out


# -- cells: classifying seeded configurations with tied coordinates -----------

# (n, r, configurations)
CELL_CASES = ((2, 3, 400), (3, 3, 400), (2, 4, 300), (3, 4, 150))


def _grid_configuration(rng, labels, n):
    """Distinct points on a grid of side 2..r, so that coordinates tie."""
    side = rng.randint(2, len(labels))
    while True:
        points = [tuple(rng.randrange(side) for _ in range(n)) for _ in labels]
        if len(set(points)) == len(points):
            return tc.Configuration.from_points(dict(zip(labels, points)), n)


def _classify(config, orderings, relabel):
    classifier = tc.cell_of(config)
    inside = tc.in_cell(config, classifier)
    disagree = 0
    for other in orderings:
        if tc.in_cell(config, other) != tc.leq(classifier, other):
            disagree += 1
    commutes = tc.cell_of(config.relabel(relabel)) \
        == tc.sigma_act(relabel, classifier)
    return classifier, inside, disagree, commutes


def _roundtrip(ordering):
    return tc.cell_of(tc.witness(ordering)) == ordering


class Cells:
    def prepare(self, rng):
        cases = []
        for n, r, count in CELL_CASES:
            labels = seeded_labels(rng, r)
            configs = []
            for _ in range(count):
                image = list(labels)
                rng.shuffle(image)
                configs.append((_grid_configuration(rng, labels, n),
                                dict(zip(labels, image))))
            cases.append((n, labels, configs))
        return cases

    def execute(self, inputs, ops):
        results = []
        for n, labels, configs in inputs:
            r = len(labels)
            orderings = ops.run(f"orderings(n={n},r={r})", tc.enumerate_nord,
                                labels, n) or ()
            trips = [ops.run(f"witness({o.text()})", _roundtrip, o)
                     for o in orderings]
            classified = [ops.run(f"classify(n={n},r={r},#{k})", _classify,
                                  config, orderings, relabel)
                          for k, (config, relabel) in enumerate(configs)]
            results.append((orderings, trips, classified))
        return results

    def check(self, inputs, results):
        problems = []
        for (n, labels, _), (orderings, trips, classified) in zip(inputs,
                                                                  results):
            r = len(labels)
            if len(orderings) != oracles.ordering_count(n, r):
                problems.append(f"cells({n},{r}): {len(orderings)} orderings")
            if False in trips:
                problems.append(f"cells({n},{r}): {trips.count(False)} "
                                f"witnesses classify elsewhere")
            for k, out in enumerate(classified):
                if out is None:
                    continue
                _, inside, disagree, commutes = out
                if not inside or disagree or not commutes:
                    problems.append(f"cells({n},{r}) #{k}: in own cell "
                                    f"{inside}, {disagree} orderings disagree "
                                    f"with leq, relabelling commutes "
                                    f"{commutes}")
        return problems

    def facts(self, inputs, results):
        out = {}
        for (n, labels, configs), (orderings, _, classified) in zip(inputs,
                                                                    results):
            degrees: dict[int, int] = {}
            for res in classified:
                if res:
                    d = oracles.ordering_degree(res[0].word, n)
                    degrees[d] = degrees.get(d, 0) + 1
            out[f"n={n},r={len(labels)}"] = {
                "orderings": len(orderings),
                "configurations": len(configs),
                "classifier_degrees": dict(sorted(degrees.items()))}
        return out


# -- orders: nerve, poset and cells in one pass ------------------------------


class Orders:
    """The three job lists over orderings, one after another.  They stay
    apart in the per-layer metrics; one workload lets each run be twice as
    long, which the host's slow phases call for (see README.md)."""

    parts = (Nerve(), Poset(), Cells())

    def prepare(self, rng):
        return [part.prepare(rng) for part in self.parts]

    def execute(self, inputs, ops):
        return [part.execute(given, ops)
                for part, given in zip(self.parts, inputs)]

    def check(self, inputs, results):
        return [problem for part, given, out in zip(self.parts, inputs, results)
                for problem in part.check(given, out)]

    def facts(self, inputs, results):
        return {type(part).__name__.lower(): part.facts(given, out)
                for part, given, out in zip(self.parts, inputs, results)}


WORKLOADS = {"orders": Orders(), "morphisms": Morphisms()}
