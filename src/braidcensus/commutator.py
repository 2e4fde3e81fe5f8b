"""Homomorphisms of the commutator subgroup of the braid group.

For k >= 5 the commutator subgroup of the k-strand braid group is
finitely presented on generators u, v, w and c_1 .. c_{k-3}; its defining
relations are checked on construction.  The census enumerates all
homomorphisms into S(n) up to conjugacy by staging: the c-images satisfy
the braid relations of k-2 strands among themselves and come from the
braid-group census; two of the relations force v = c_2^-1 u c_2 and
w = u c_1 u^-1, which turns the others into relators in u alone, and
``perm.relator_solutions`` finds every u-image that satisfies them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import census
from .homs import are_conjugate  # noqa: F401  (re-exported)
from .perm import (
    Permutation,
    GeneratedGroup,
    centralizer_generators,
    conjugation_orbits,
    relator_solutions,
)


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


@dataclass(frozen=True)
class CommutatorHom:
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
            int(data["k"]),
            int(data["n"]),
            Permutation(data["u"]),
            Permutation(data["v"]),
            Permutation(data["w"]),
            tuple(Permutation(ci) for ci in data["c"]),
        )


def _relations_report(k, u, v, w, c):
    """Check the defining relations; returns (ok, first failing name)."""
    c1 = c[0]
    checks = [
        ("u c1 u^-1 = w", u * c1 * u.inv() == w),
        ("u w u^-1 = w^2 c1^-1 w", u * w * u.inv() == w * w * c1.inv() * w),
        ("v c1 v^-1 = c1^-1 w", v * c1 * v.inv() == c1.inv() * w),
        (
            "v w v^-1 = (c1^-1 w)^3 c1^-2 w",
            v * w * v.inv() == (c1.inv() * w) ** 3 * c1.inv() ** 2 * w,
        ),
    ]
    for i in range(2, k - 2):
        ci = c[i - 1]
        checks.append(("u c%d = c%d v" % (i, i), u * ci == ci * v))
        checks.append(
            ("v c%d = c%d u^-1 v" % (i, i), v * ci == ci * u.inv() * v)
        )
    for i in range(1, k - 2):
        for j in range(i + 2, k - 2):
            checks.append(
                (
                    "c%d c%d = c%d c%d" % (i, j, j, i),
                    c[i - 1] * c[j - 1] == c[j - 1] * c[i - 1],
                )
            )
    for i in range(1, k - 3):
        a, b = c[i - 1], c[i]
        checks.append(
            ("chain braiding at %d" % i, a * b * a == b * a * b)
        )
    for name, ok in checks:
        if not ok:
            return False, name
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


def _u_relators(c):
    """The relations of ``_relations_report`` that involve u, v or w, with
    v = c2^-1 u c2 and w = u c1 u^-1 substituted: relator words in u alone
    for ``perm.relator_solutions``, where None stands for u.  The relations
    that the substitution makes hold outright reduce to empty words."""

    def inv(word):
        return tuple((g, -e) for g, e in reversed(word))

    u = ((None, 1),)
    c1, c2 = ((c[0], 1),), ((c[1], 1),)
    v = inv(c2) + u + c2
    w = u + c1 + inv(u)
    c1w = inv(c1) + w
    rels = [
        (u + c1 + inv(u), w),
        (u + w + inv(u), w + w + inv(c1) + w),
        (v + c1 + inv(v), c1w),
        (v + w + inv(v), c1w * 3 + inv(c1) * 2 + w),
    ]
    for ci in c[1:]:
        ci = ((ci, 1),)
        rels += [(u + ci, ci + v), (v + ci, ci + inv(u) + v)]
    return [lhs + inv(rhs) for lhs, rhs in rels]


def commutator_census(k, n):
    """All homomorphisms of the commutator subgroup into S(n), one per
    conjugacy class, for k in {5, 6}.

    The chain images c_1..c_{k-3} satisfy exactly the braid relations of
    k-2 strands, so the chains are taken one per conjugacy class from
    census(k - 2, n), whose first image is class-minimal.  The u-image
    determines v through the mixed relation at the second chain element
    and w through conjugation, so the remaining relations constrain u
    alone, and the relator search finds every u-image at once; each is
    validated against every relation, and the tuples are split into orbits
    under the centralizer of the first chain image.
    """
    if k not in (5, 6):
        raise ValueError("the staged census is provided for k in {5, 6}")
    by_c1 = {}
    for rec in census(k - 2, n):
        chain = rec.hom.sigma
        c1, c2 = chain[0], chain[1]
        pool = by_c1.setdefault(c1, [])
        for u in relator_solutions(n, _u_relators(chain)):
            v = c2.inv() * u * c2
            w = u * c1 * u.inv()
            if not _relations_report(k, u, v, w, chain)[0]:
                raise RuntimeError("relator search found an invalid u-image")
            pool.append(chain[1:] + (u,))
    out = []
    for c1 in sorted(by_c1):
        # Census chains are pairwise non-conjugate, so each orbit meets the
        # pool in one chain only; its least member is the representative.
        gens = centralizer_generators(c1)
        for rep, _ in conjugation_orbits(by_c1[c1], gens):
            chain = (c1,) + rep[:-1]
            u = rep[-1]
            v = chain[1].inv() * u * chain[1]
            w = u * c1 * u.inv()
            out.append(CommutatorHom(k, n, u, v, w, chain))
    return out
