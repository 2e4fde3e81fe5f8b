"""Homomorphisms from the k-strand braid group into symmetric groups.

A homomorphism is recorded by the images of the Artin generators; the
defining relations (far commutation and the length-3 braiding) are
checked on construction unless explicitly deferred.
"""

from __future__ import annotations

from .perm import GeneratedGroup, Permutation, Record, integer, tuple_conjugacy_witness
from .words import alpha_word, braid_relations, perm_image


class BraidHom(Record):
    """Images of the k-1 Artin generators in S(n)."""

    k: int
    n: int
    sigma: tuple

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if len(self.sigma) != self.k - 1:
            raise ValueError("need %d generator images" % (self.k - 1))
        if any(g.degree != self.n for g in self.sigma):
            raise ValueError("generator image degree mismatch")
        if not self.satisfies_relations():
            raise ValueError("generator images violate the braid relations")

    def satisfies_relations(self):
        """Whether both sides of each ``words.braid_relations`` pair agree.
        Each pair is two positive words of one length, so a cyclic map, all
        of whose images are equal, sends both sides to one power."""
        return self.is_cyclic() or all(
            self(lhs) == self(rhs) for lhs, rhs in braid_relations(self.k)
        )

    def __call__(self, w):
        return perm_image(w, self.sigma)

    def images(self):
        return self.sigma

    def alpha(self):
        """Image of the full cycle: product of all generator images in order."""
        return self(alpha_word(self.k))

    def beta(self):
        return self.alpha() * self.sigma[0]

    def is_cyclic(self):
        """True when all generator images coincide (abelian image)."""
        return all(g == self.sigma[0] for g in self.sigma)

    def group(self):
        return GeneratedGroup(self.n, self.sigma)

    def is_transitive(self):
        return self.group().is_transitive()

    def conjugate(self, g):
        return BraidHom(self.k, self.n, tuple(s.conj(g) for s in self.sigma))

    def extend(self, n):
        """The same images viewed in S(n), fixing the added points."""
        return BraidHom(self.k, n, tuple(s.extend(n) for s in self.sigma))

    def to_json(self):
        return {
            "k": self.k,
            "n": self.n,
            "sigma": [s.to_json() for s in self.sigma],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            integer(data["k"]),
            integer(data["n"]),
            tuple(Permutation(map(integer, im)) for im in data["sigma"]),
        )


def from_sigma1_alpha(k, n, sigma1, alpha):
    """Reconstruct a homomorphism from the images of the first generator
    and of the full cycle, or return None when no homomorphism fits.

    The i-th generator image must be the (i-1)-fold cycle-conjugate of the
    first, and the generator images must multiply back to the cycle image.
    """
    sigma = [sigma1]
    for _ in range(k - 2):
        sigma.append(sigma[-1].conj(alpha))
    if perm_image(alpha_word(k), sigma) != alpha:
        return None
    try:
        return BraidHom(k, n, tuple(sigma))
    except ValueError:
        return None


def from_alpha_beta(k, n, alpha, beta):
    """Reconstruct a homomorphism from the full-cycle and successor images."""
    return from_sigma1_alpha(k, n, alpha.inv() * beta, alpha)


def cyclic_hom(k, g):
    """The homomorphism sending every generator to the same permutation."""
    return BraidHom(k, g.degree, tuple([g] * (k - 1)))


def are_conjugate(h1, h2):
    """Conjugacy of homomorphisms by a single permutation of the points.

    Serves braid-group and commutator-subgroup homomorphisms alike: both
    have k, n and images().
    """
    if (h1.k, h1.n) != (h2.k, h2.n):
        return False
    return tuple_conjugacy_witness(h1.images(), h2.images()) is not None


# Named homomorphisms.


def standard_hom(k, n=None):
    """Generator i goes to the transposition (i, i+1)."""
    n = k if n is None else n
    return BraidHom(
        k, n, tuple(Permutation.from_cycles([(i, i + 1)], n) for i in range(1, k))
    )


def _cyc(text, n):
    return Permutation.from_cycles(text, n)


def _require_hom(h):
    """A named homomorphism, whose images must define one."""
    if h is None:
        raise RuntimeError("named images define no braid-group homomorphism")
    return h


def exceptional_hom_six():
    """The transitive non-standard class on six strands and six points."""
    return _require_hom(
        from_sigma1_alpha(
            6, 6, _cyc("(1,2)(3,4)(5,6)", 6), _cyc("(1,2,3)(4,5)", 6)
        )
    )


def exceptional_homs_four():
    """The three transitive non-cyclic non-standard classes on four strands."""
    specs = [
        ("(1,2,3,4)", "(1,2)"),
        ("(1,3,2,4)", "(1,2,3,4)"),
        ("(1,2,3)", "(1,2)(3,4)"),
    ]
    out = []
    for s1, a in specs:
        out.append(_require_hom(from_sigma1_alpha(4, 4, _cyc(s1, 4), _cyc(a, 4))))
    return out


def three_strand_catalog():
    """Non-cyclic classes from three strands into S(4)..S(7), keyed by
    (n, index), each given by full-cycle and successor images.

    Every entry is transitive except (6, 5), whose image splits the six
    points into two orbits. The entries for n <= 6 lie in the paper's range
    n <= 2k and are all the transitive non-cyclic classes there, (6, 8)
    being the one whose sigma_1 has cycle type (4, 2) and whose image has
    order 24. The six entries for n = 7 lie beyond that range and are all
    the transitive non-cyclic classes on seven points, checked
    against an independent scan of S(7). (7, 1)..(7, 3) are the published
    classes; (7, 4) and (7, 5) are (7, 1) and (7, 2) composed with the
    inversion automorphism sigma_i -> sigma_i^-1 of B_3; (7, 6) is fixed by
    that automorphism, with sigma_1 of cycle type (5, 2).
    """
    table = {
        (4, 1): ("(1,2,3)", "(1,4)"),
        (4, 2): ("(1,2,3)", "(1,2)(3,4)"),
        (5, 1): ("(1,2,3)", "(1,4)(2,5)"),
        (6, 1): ("(1,2,3)(4,5,6)", "(1,2)(3,4)(5,6)"),
        (6, 2): ("(1,2,3)(4,5,6)", "(1,4)(2,6)(3,5)"),
        (6, 3): ("(1,2,3)(4,5,6)", "(1,2)(3,4)"),
        (6, 4): ("(1,2,3)(4,5,6)", "(1,4)(2,5)"),
        (6, 5): ("(1,2,3)(4,5,6)", "(1,2)"),
        (6, 6): ("(1,2,3)(4,5,6)", "(1,4)"),
        (6, 7): ("(1,2,3)", "(1,4)(2,5)(3,6)"),
        (6, 8): ("(1,2,3)(4,5,6)", "(1,5)(2,4)"),
        (7, 1): ("(1,2,3)(4,5,6)", "(1,4)(2,7)"),
        (7, 2): ("(1,2,3)(4,5,6)", "(1,2)(3,4)(5,7)"),
        (7, 3): ("(1,2,3)(4,5,6)", "(1,4)(2,5)(3,7)"),
        (7, 4): ("(1,2,3)(4,5,6)", "(1,4)(3,7)"),
        (7, 5): ("(1,2,3)(4,5,6)", "(1,2)(3,4)(6,7)"),
        (7, 6): ("(1,2,3)(4,5,6)", "(1,4)(2,6)(3,7)"),
    }
    out = {}
    for (n, idx), (a, b) in table.items():
        out[(n, idx)] = _require_hom(from_alpha_beta(3, n, _cyc(a, n), _cyc(b, n)))
    return out


def four_strand_five_points():
    """The unique transitive non-cyclic class from four strands into S(5)."""
    return _require_hom(
        from_alpha_beta(4, 5, _cyc("(1,4)(2,5)", 5), _cyc("(3,5,4)", 5))
    )


def four_strand_six_points():
    """The transitive classes from four strands into S(6) with distinct
    first and third generator images, by explicit generator triples."""
    specs = [
        ("(1,2)(3,4)(5,6)", "(1,5)(2,3)(4,6)", "(1,3)(2,4)(5,6)"),
        ("(1,2,4,3)", "(1,5,4,6)", "(3,4,2,1)"),
        ("(1,2)(3,4)", "(2,5)(4,6)", "(1,4)(2,3)"),
        ("(4,3,2,1)(5,6)", "(4,6,2,5)(1,3)", "(1,2,3,4)(5,6)"),
    ]
    return [
        BraidHom(4, 6, tuple(_cyc(s, 6) for s in spec)) for spec in specs
    ]


def five_strand_six_points():
    """The unique transitive non-cyclic class from five strands into S(6)."""
    specs = [
        "(1,2)(3,4)(5,6)",
        "(1,5)(2,3)(4,6)",
        "(1,3)(2,4)(5,6)",
        "(1,2)(3,5)(4,6)",
    ]
    return BraidHom(5, 6, tuple(_cyc(s, 6) for s in specs))


def six_strand_ten_points():
    """A transitive non-cyclic example on six strands and ten points."""
    specs = [
        "(1,2)(3,4)(5,6)",
        "(1,7)(3,8)(5,9)",
        "(3,6)(4,5)(7,10)",
        "(1,3)(2,4)(7,8)",
        "(3,5)(4,6)(8,9)",
    ]
    return BraidHom(6, 10, tuple(_cyc(s, 10) for s in specs))


def strand_collapse_words():
    """Words realizing the strand-merging map from four to three strands:
    the outer generators merge, the middle one survives."""
    return [(1,), (2,), (1,)]


def transposition_pair_hom(k):
    """Generator i goes to (1,2)(i+2,i+3), an intransitive non-cyclic map."""
    n = k + 2
    return BraidHom(
        k,
        n,
        tuple(
            _cyc("(1,2)(%d,%d)" % (i + 2, i + 3), n) for i in range(1, k)
        ),
    )


def doubled_standard_classes(k):
    """The four pairwise non-conjugate lifts of the standard map to 2k points.

    Each class projects onto the standard map under the pairing
    {2i-1, 2i} -> i; they differ by twisting with one-dimensional classes.
    """
    n2 = 2 * k

    def plain(i):
        return [(2 * i - 1, 2 * i + 1), (2 * i, 2 * i + 2)]

    def crossed(i):
        return [(2 * i - 1, 2 * i + 2, 2 * i, 2 * i + 1)]

    def off_block(i):
        return [
            (2 * j - 1, 2 * j) for j in range(1, k + 1) if j not in (i, i + 1)
        ]

    variants = [
        lambda i: plain(i),
        lambda i: crossed(i),
        lambda i: plain(i) + off_block(i),
        lambda i: crossed(i) + off_block(i),
    ]
    return [
        BraidHom(
            k,
            n2,
            tuple(
                Permutation.from_cycles(make(i), n2) for i in range(1, k)
            ),
        )
        for make in variants
    ]


def six_point_outer_map():
    """The outer automorphism of S(6) as an explicit dictionary.

    Determined by sending (1,2) to (1,2)(3,4)(5,6) and the 6-cycle
    (1,...,6) to (1,2,3)(4,5); built by expressing each element as a word
    in those two generators.
    """
    t = _cyc("(1,2)", 6)
    c = _cyc("(1,2,3,4,5,6)", 6)
    ft = _cyc("(1,2)(3,4)(5,6)", 6)
    fc = _cyc("(1,2,3)(4,5)", 6)
    ident = Permutation.identity(6)
    table = {ident: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for gen, img in ((t, ft), (c, fc)):
                h = gen * g
                if h not in table:
                    table[h] = img * table[g]
                    nxt.append(h)
        frontier = nxt
    if len(table) != 720:
        raise RuntimeError("outer automorphism table is not a bijection of S(6)")
    return table
