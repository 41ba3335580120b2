"""Reference routes for the set-map tests.

Both read a `GammaMorphism` only through its images (`mapping`), not
through the owner tuple the library computes with.
`reference_branching_holds` quantifies the branching condition over
pairs a before b of source leaves and c in the image of a, d in the
image of b.  `reference_compose` unions images: x goes to the union of
phi(t) over t in theta(x).
"""

from thetaconf import GammaMorphism


def reference_branching_holds(gbar):
    """Levels of c, d may not rise above the level of a, b, and may
    equal it only when c precedes d."""
    pairs = list(gbar.mapping.items())  # in source order
    for idx, (a, image_a) in enumerate(pairs):
        for b, image_b in pairs[idx + 1:]:  # a precedes b in planar order
            level_ab = a.meet(b)
            for c in image_a:
                for d in image_b:
                    level_cd = c.meet(d)
                    if level_cd > level_ab:
                        return False
                    if level_cd == level_ab and not c < d:
                        return False
    return True


def reference_compose(phi, theta):
    """phi after theta, by unions of images."""
    if theta.target != phi.source:
        raise ValueError("middle objects differ (order included)")
    images = phi.mapping
    return GammaMorphism.from_map(theta.source, phi.target, {
        x: frozenset().union(*(images[t] for t in image))
        for x, image in theta.mapping.items()})
