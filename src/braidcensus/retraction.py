"""Retracting a braid-group homomorphism onto the cycles of a generator image.

Fix a homomorphism on k strands and a cycle length r.  The r-cycles of
the first generator image span a set that every generator image far from
the first permutes, inducing permutations of the cycle labels.  This
yields a homomorphism of the braid group on k-2 strands into S(t), where
t is the number of r-cycles, together with the block map that lifts a
permutation of t labels to r-point blocks, used by the cohomological
classification of its lifts.
"""

from __future__ import annotations

from .homs import BraidHom
from .perm import Permutation, r_component


def normalize(hom, r):
    """Conjugate hom so the r-cycles of the first generator image become
    ((m-1)r+1, ..., mr) for m = 1..t, with the leftover points above rt.

    Returns (normalized hom, t)."""
    comp = r_component(hom.sigma[0], r)
    if comp.t == 0:
        raise ValueError("first generator image has no %d-cycles" % r)
    # cycles() lists each cycle from its least point, by least point.
    order = [x for cyc in comp.cycles for x in cyc]
    order += sorted(set(range(1, hom.n + 1)) - comp.support)
    return hom.conjugate(Permutation(order).inv()), comp.t


def cycle_label_action(x, cycles):
    """The permutation of cycle labels induced by conjugation by x.

    cycles[m-1] is the m-th labeled cycle (a Permutation); x must carry
    each of them onto another one exactly."""
    t = len(cycles)
    index = {c: m for m, c in enumerate(cycles, start=1)}
    images = []
    for c in cycles:
        target = c.conj(x)
        if target not in index:
            raise ValueError("conjugation does not preserve the labeled cycles")
        images.append(index[target])
    return Permutation(images)


def _labeled_cycles(hom, r, q):
    """The r-cycles of the q-th generator image, labeled by conjugating the
    first generator's cycles (ordered by least point) with the full cycle."""
    base = r_component(hom.sigma[0], r).cycles
    n = hom.n
    conj = hom.alpha() ** (q - 1)
    return [
        Permutation.from_cycles([c], n).conj(conj) for c in base
    ]


def label_image(hom, r, q, j):
    """The S(t) image of the j-th generator on the labeled r-cycles of the
    q-th generator; defined when |j - q| >= 2."""
    if abs(j - q) < 2:
        raise ValueError("generator %d does not commute with generator %d" % (j, q))
    return cycle_label_action(hom.sigma[j - 1], _labeled_cycles(hom, r, q))


def _retraction(hom, r, q, offset):
    """Generator i of the k-2 strand retraction acts on the labels of the
    r-cycles of generator q through generator i + offset."""
    k = hom.k
    if k < 4:
        raise ValueError("need at least four strands")
    t = r_component(hom.sigma[0], r).t
    if t == 0:
        raise ValueError("first generator image has no %d-cycles" % r)
    return BraidHom(
        k - 2, t, tuple(label_image(hom, r, q, i + offset) for i in range(1, k - 2))
    )


def omega(hom, r):
    """The retracted homomorphism on k-2 strands: generator i acts on the
    labels of the first generator's r-cycles through generator i+2."""
    return _retraction(hom, r, 1, 2)


def omega_star(hom, r):
    """The retraction computed at the last generator instead of the first."""
    return _retraction(hom, r, hom.k - 1, 0)


def block_projection(p, r, t):
    """Project a permutation of {1..rt} mapping blocks of size r to blocks
    onto the induced permutation of the t block labels."""
    images = []
    for m in range(1, t + 1):
        first = p((m - 1) * r + 1)
        target = (first - 1) // r + 1
        for q in range(1, r + 1):
            if (p((m - 1) * r + q) - 1) // r + 1 != target:
                raise ValueError("permutation does not respect the blocks")
        images.append(target)
    return Permutation(images)


def block_map(s, r, h):
    """Lift a permutation s of t block labels to {1..rt}.  Block m holds the
    points (m-1)r+1..mr and goes onto block s(m), rotated by h[s(m)-1]:
    (m-1)r + q goes to (s(m)-1)r + ((q-1 + h[s(m)-1]) mod r) + 1."""
    images = []
    for m in range(1, s.degree + 1):
        target = s(m)
        shift = h[target - 1]
        images += [(target - 1) * r + (q + shift) % r + 1 for q in range(r)]
    return Permutation(images)


def restriction_hom(hom, r):
    """The k-2 strand homomorphism into S(rt) restricting generators 3..k-1
    to the (normalized) span of the first generator's r-cycles."""
    normed, t = normalize(hom, r)
    span = set(range(1, r * t + 1))
    images = []
    for i in range(1, normed.k - 2):
        g = normed.sigma[i + 2 - 1]
        if any(g(x) not in span for x in span):
            raise ValueError("a far generator image does not preserve the span")
        images.append(g.restrict(span))
    return BraidHom(normed.k - 2, r * t, tuple(images))


def label_table_report(hom, r):
    """Consistency report for the label retraction of one homomorphism.

    Checks that both end retractions agree, that the restriction projects
    onto the retraction, and that every far label image reduces to one of
    the two end retractions with the expected index shift."""
    k = hom.k
    normed, t = normalize(hom, r)
    om = omega(normed, r)
    om_star = omega_star(normed, r)
    rest = restriction_hom(hom, r)
    report = {
        "ends_agree": om.sigma == om_star.sigma,
        "restriction_projects": all(
            block_projection(rest.sigma[i], r, t) == om.sigma[i]
            for i in range(k - 3)
        ),
    }
    # Every label image is built, so a table that cannot be built raises.
    report["shift_to_last"] = all(
        [
            label_image(normed, r, q, j) == om_star.sigma[j - q - 2]
            for q in range(1, k - 2)
            for j in range(q + 2, k)
        ]
    )
    report["shift_to_first"] = all(
        [
            label_image(normed, r, q, j) == om.sigma[j + k - q - 2]
            for q in range(3, k)
            for j in range(1, q - 1)
        ]
    )
    return report


def label_tables_clean(hom, r):
    return all(label_table_report(hom, r).values())
