"""Reference route for the shadow tests.

`reference_assemble` and `reference_lift` are the recursive assembly and
lift the library used before they became loops over a work list: each
recurses once per tree level, splitting the owner list into one
sub-list per target child and shifting it to its source child's run.
They share the library's helpers, not its traversal, and the lift
builds through the public constructors, so each of its morphisms is
checked.
"""

from bisect import bisect_left, bisect_right

from thetaconf.gamma import DeltaMorphism, _part_keys
from thetaconf.theta import ThetaMorphism, _check_ranks, _runs


def reference_assemble(f, source, target, n) -> list[int | None]:
    """The owner positions of f's shadow.  Part (i, j) fills target
    child j's run with its owners shifted to source child i's run; at
    level 1 each run is one leaf, owned by the part's source leaf."""
    _check_ranks(f, source, target)
    s_runs, t_runs = _runs(source, n), _runs(target, n)
    owners: list = [None] * t_runs[-1]
    for k, (i, j) in enumerate(_part_keys(f.delta.values)):
        sub = [0] if n == 1 else reference_assemble(
            f.parts[k], source.children[i - 1], target.children[j - 1], n - 1)
        owners[t_runs[j - 1]:t_runs[j]] = [
            None if o is None else o + s_runs[i - 1] for o in sub]
    return owners


def reference_lift(source, target, n, owners) -> ThetaMorphism:
    """The lift of a map, given as its owner positions, already known to
    go into a healthy target, be active and satisfy the branching
    condition.

    Target child j's head is the source child whose run holds every
    owner in j's run; f(i) is the number of heads h < i (0-based h,
    1-based i), and part j lifts j's run, shifted to the head's run."""
    s_runs, t_runs = _runs(source, n), _runs(target, n)
    by_child = [owners[a:b] for a, b in zip(t_runs, t_runs[1:])]
    heads = []
    for run in by_child:
        child_heads = {bisect_right(s_runs, o) - 1 for o in run}
        assert len(child_heads) == 1, \
            "each target child must be owned under exactly one source child"
        heads.extend(child_heads)
    assert heads == sorted(heads), "heads must be monotone"
    s, t = len(source.children), len(target.children)
    # 0 <= heads < s, so f(0) = 0 and f(s) = t: one part per target child
    delta = DeltaMorphism(s, t, tuple(bisect_left(heads, i)
                                      for i in range(s + 1)))
    parts = () if n == 1 else tuple(
        reference_lift(source.children[h], target.children[j], n - 1,
                       [o - s_runs[h] for o in run])
        for j, (h, run) in enumerate(zip(heads, by_child)))
    return ThetaMorphism(n, delta, parts)
