"""Homomorphisms of the commutator subgroup of the braid group.

For k >= 5 the commutator subgroup of the k-strand braid group is
finitely presented on generators u, v, w and c_1 .. c_{k-3}: the 2k - 4
relations of ``_relations`` involve u, v or w, and the c_i satisfy the
braid relations of k-2 strands, ``words.braid_relations(k - 2)``.  Both
are checked on construction.  The census enumerates all homomorphisms
into S(n) up to conjugacy by staging: the chains c_1..c_{k-3} are the
leaf chains of the braid-group census tree, one per class; two of the
relations force v = c_2^-1 u c_2 and w = u c_1 u^-1, which turns the
others into relators in u and the chain.  The relations of k strands
hold those of k - 1, and the two that c_i adds involve only u, v and c_i,
so ``perm.relator_solutions`` searches once per prefix (c_1, c_2), with
the relators of B'_5 and the prefix as the images of their letters (equal
images cancel as one letter), and each longer chain keeps the u of its
prefix's set that pass the two relations of each later c_i.  The sets of
the last point count are kept, so censuses of several k at one n share
them.  The u-images of a chain are split into orbits under the chain's
centralizer, which the leaf carries.
The group is perfect for k >= 5, so every image lies in A_n and only the
chains with an even c_1 are walked.
"""

from __future__ import annotations

import functools

from .census import MAX_POINTS, MAX_STRANDS, chain_leaves
from .perm import (
    Permutation,
    GeneratedGroup,
    Record,
    all_partitions,
    centralizer_generators,
    conjugation_orbits,
    integer,
    relator_solutions,
)
from .words import braid_relations, inverse, perm_image


def generator_words(k):
    """The generators u, v, w, c_1..c_{k-3} as words in the Artin letters."""
    if k < 4:
        raise ValueError("k must be >= 4")
    out = {
        "u": (2, -1),
        "v": (1, 2, -1, -1),
        "w": (2, 3, -1, -2),
    }
    for i in range(1, k - 2):
        out["c%d" % i] = (i + 2, -1)
    return out


class CommutatorHom(Record):
    """Images in S(n) of the commutator-subgroup generators for k strands."""

    k: int
    n: int
    u: Permutation
    v: Permutation
    w: Permutation
    c: tuple

    def __post_init__(self):
        if self.k < 5:
            raise ValueError("k must be >= 5")
        if len(self.c) != self.k - 3:
            raise ValueError("need %d chain images" % (self.k - 3))
        perms = (self.u, self.v, self.w) + self.c
        if any(p.degree != self.n for p in perms):
            raise ValueError("degree mismatch")
        ok, reason = _relations_report(self.k, self.u, self.v, self.w, self.c)
        if not ok:
            raise ValueError("images violate the defining relations: " + reason)

    def images(self):
        return (self.u, self.v, self.w) + self.c

    def group(self):
        return GeneratedGroup(self.n, self.images())

    def is_trivial(self):
        return all(p.is_identity() for p in self.images())

    def conjugate(self, g):
        return CommutatorHom(
            self.k,
            self.n,
            self.u.conj(g),
            self.v.conj(g),
            self.w.conj(g),
            tuple(ci.conj(g) for ci in self.c),
        )

    def is_tame(self):
        """Whether the chain images alone already move n-2 points in one orbit."""
        chain = GeneratedGroup(self.n, self.c)
        return any(len(o) == self.n - 2 for o in chain.orbits())

    def to_json(self):
        return {
            "k": self.k,
            "n": self.n,
            "u": self.u.to_json(),
            "v": self.v.to_json(),
            "w": self.w.to_json(),
            "c": [ci.to_json() for ci in self.c],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            integer(data["k"]),
            integer(data["n"]),
            Permutation(map(integer, data["u"])),
            Permutation(map(integer, data["v"])),
            Permutation(map(integer, data["w"])),
            tuple(Permutation(map(integer, ci)) for ci in data["c"]),
        )


@functools.cache
def _relations(k):
    """The Gorin-Lin relations of the commutator subgroup on k strands
    (Mat. Sb. 1969) that involve u, v or w: 2k - 4 triples (name, lhs,
    rhs), built once per k.  Letters in the order of
    ``CommutatorHom.images``: 1, 2, 3 for u, v, w and 3 + i for c_i.  The
    rest say that c_1..c_{k-3} satisfy ``words.braid_relations(k - 2)``."""
    rels = [
        ("u c1 u^-1 = w", (1, 4, -1), (3,)),
        ("u w u^-1 = w^2 c1^-1 w", (1, 3, -1), (3, 3, -4, 3)),
        ("v c1 v^-1 = c1^-1 w", (2, 4, -2), (-4, 3)),
        (
            "v w v^-1 = (c1^-1 w)^3 c1^-2 w",
            (2, 3, -2),
            (-4, 3) * 3 + (-4, -4, 3),
        ),
    ]
    for i in range(2, k - 2):
        rels.append(("u c%d = c%d v" % (i, i), (1, 3 + i), (3 + i, 2)))
        rels.append(("v c%d = c%d u^-1 v" % (i, i), (2, 3 + i), (3 + i, -1, 2)))
    return tuple(rels)


def _relations_report(k, u, v, w, c):
    """Check ``_relations``, then the chain's braid relations as
    ``words.braid_relations`` yields them, unless every c_i is equal;
    returns (ok, first failing name)."""
    images = (u, v, w) + tuple(c)
    for name, lhs, rhs in _relations(k):
        if perm_image(lhs, images) != perm_image(rhs, images):
            return False, name
    if all(ci == c[0] for ci in c):
        # Both sides of each braid relation are positive words of one
        # length, so a constant chain sends them to one power.
        return True, ""
    for lhs, rhs in braid_relations(k - 2):
        if perm_image(lhs, c) != perm_image(rhs, c):
            return False, "chain relation %s = %s" % (lhs, rhs)
    return True, ""


def standard_commutator_hom(k, n=None):
    """Restriction of the standard braid map to the commutator subgroup."""
    n = k if n is None else n
    if n < k:
        raise ValueError("need n >= k")
    u = Permutation.from_cycles("(1,3,2)", n)
    v = Permutation.from_cycles("(1,2,3)", n)
    w = Permutation.from_cycles("(1,3)(2,4)", n)
    c = tuple(
        Permutation.from_cycles("(1,2)(%d,%d)" % (i + 2, i + 3), n)
        for i in range(1, k - 2)
    )
    return CommutatorHom(k, n, u, v, w, c)


def exceptional_commutator_hom_six():
    """The wild class on six strands and six points."""

    def p(text):
        return Permutation.from_cycles(text, 6)

    return CommutatorHom(
        6,
        6,
        p("(1,3,6)(2,5,4)"),
        p("(1,6,3)(2,4,5)"),
        p("(2,3)(5,6)"),
        (p("(1,4)(2,3)"), p("(3,6)(4,5)"), p("(1,3)(2,4)")),
    )


def restrict_braid_hom(hom):
    """The commutator-subgroup homomorphism induced by a braid-group one."""
    words = generator_words(hom.k)
    return CommutatorHom(
        hom.k,
        hom.n,
        hom(words["u"]),
        hom(words["v"]),
        hom(words["w"]),
        tuple(hom(words["c%d" % i]) for i in range(1, hom.k - 2)),
    )


def _vw_words(m):
    """v = c2^-1 u c2 and w = u c1 u^-1, in the letters of ``_u_relator_words``."""
    return (-2, m + 1, 2), (m + 1, 1, -m - 1)


@functools.cache
def _u_relator_words(m):
    """``_relations`` with v and w of ``_vw_words`` substituted, as relator
    words for a chain of m images: letter i stands for c_i and m + 1 for u,
    the format of ``perm.relator_solutions`` with the chain as its images.
    Built once per m; a relation that the substitution makes hold outright
    is empty."""
    letters = [(m + 1,), *_vw_words(m)] + [(i,) for i in range(1, m + 1)]
    sub = {}
    for g, word in enumerate(letters, 1):
        sub[g], sub[-g] = word, inverse(word)
    return tuple(
        tuple(x for g in lhs + inverse(rhs) for x in sub[g])
        for _, lhs, rhs in _relations(m + 3)
    )


# The u-images of each chain prefix (c_1, c_2) of the last point count n, as
# {n: {(c_1, c_2): sorted u-images}}: the solutions of the B'_5 system,
# ``_u_relator_words(2)``, which every longer chain through the prefix
# filters.  A commutator census at another n drops them, as ``chain_leaves``
# drops the tree.
_U_SETS = {}


def _u_images(chain):
    """Every u-image of a leaf chain of two or more images, in increasing
    order, as (u, v, w) with v and w of ``_vw_words``.

    ``_relations(k)`` holds ``_relations(k - 1)``, and the two relations
    that c_i adds involve only u, v = c_2^-1 u c_2 and c_i.  So the u-images
    of the chain are those of its prefix (c_1, c_2), searched once per n,
    that pass those two for each later c_i; a c_i equal to an earlier one
    of c_2..c_{i-1} adds the same two again and is skipped."""
    n, m = chain[0].degree, len(chain)
    if n not in _U_SETS:
        _U_SETS.clear()
        _U_SETS[n] = {}
    sets = _U_SETS[n]
    prefix = chain[:2]
    us = sets.get(prefix)
    if us is None:
        us = sets[prefix] = relator_solutions(n, _u_relator_words(2), prefix)
    first = {}
    for i, ci in enumerate(chain[1:], 2):
        first.setdefault(ci, i)
    rels = _relations(m + 3)
    checks = [r for i in first.values() if i > 2 for r in rels[2 * i : 2 * i + 2]]
    vw = _vw_words(m)
    out = []
    for u in us:
        images = (u, *(perm_image(x, chain + (u,)) for x in vw)) + chain
        if all(perm_image(a, images) == perm_image(b, images) for _, a, b in checks):
            out.append(images[:3])
    return out


def commutator_census(k, n):
    """All homomorphisms of the commutator subgroup into S(n), one per
    conjugacy class, for 5 <= k <= ``census.MAX_STRANDS`` and
    1 <= n <= ``census.MAX_POINTS``, sorted by (c_1, ..., c_{k-3}, u).

    The chains c_1..c_{k-3} are the leaves of ``census.chain_leaves`` for
    k-2 strands, and ``_u_images`` gives the u-images of each: one relator
    search per prefix (c_1, c_2), filtered by the later c_i.  B'_k is
    perfect, so its image lies in A_n: only the even cycle types of c_1 are
    walked, and a u-image that passes the relations but is odd is an error.
    Building its ``CommutatorHom`` validates each u-image against every
    relation, and the least u of each orbit of the chain's centralizer is
    kept.  A leaf chain is the least member of its orbit under the
    centralizer of c_1, so each class is printed by the least member of its
    orbit of (c_2, ..., c_{k-3}, u) under that centralizer.
    """
    if not 5 <= k <= MAX_STRANDS:
        raise ValueError("k must be in 5..%d" % MAX_STRANDS)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_POINTS:
        raise ValueError("n must be <= %d" % MAX_POINTS)
    found = []
    for parts in all_partitions(n):
        if sum(p - 1 for p in parts) % 2:
            # B'_k is perfect for k >= 5, so its image lies in A_n: c_1 is
            # even, and so is the rest of the chain, all conjugate to c_1.
            continue
        for chain, _, cent in chain_leaves(k - 2, n, parts):
            homs = {}
            for u, v, w in _u_images(chain):
                try:
                    homs[u] = CommutatorHom(k, n, u, v, w, chain)
                except ValueError:
                    raise RuntimeError("relator search found an invalid u-image")
                if not u.is_even():
                    raise RuntimeError(
                        "odd u-image, but B'_k is perfect, so every image "
                        "lies in A_n: the relations present another group"
                    )
            us = list(homs)
            if len(us) > 1:
                # C(chain) fixes a lone u-image, so it needs no generators.
                gens = centralizer_generators(cent)
                us = [u for u, _ in conjugation_orbits(us, gens)]
            if not homs.keys() >= set(us):
                raise RuntimeError("a centralizer orbit leaves the u-images")
            found.extend(homs[u] for u in us)
    return sorted(found, key=lambda h: (h.c, h.u))
