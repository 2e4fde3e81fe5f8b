"""Exhaustive references for the tests.

Each function here answers by brute force, over every candidate, a question
the package answers by search or by linear algebra, or builds a map the
tests feed to the census.  They are meant for tiny inputs only, and nothing
in ``src`` imports them.  ``build_parser`` is the argparse command line that
``cli._parse`` replaced, kept as the reference it is compared against.
"""

import argparse
import fractions
import functools
import itertools
import math

from braidcensus.cohomology import (
    cocycle_matrix,
    hom_from_cocycle,
    smith_normal_form,
)
from braidcensus import __version__, cli
from braidcensus.census import MAX_POINTS, MAX_STRANDS, braid_partners
from braidcensus.homs import (
    BraidHom,
    are_conjugate,
    doubled_standard_classes,
    exceptional_hom_six,
    exceptional_homs_four,
    five_strand_six_points,
    four_strand_five_points,
    four_strand_six_points,
    six_point_outer_map,
    six_strand_ten_points,
    standard_hom,
    three_strand_catalog,
)
from braidcensus.perm import (
    Permutation,
    all_partitions,
    canonical_of_cycle_type,
    centralizer_generators,
    conjugation_orbits,
    tuple_centralizer,
)
from braidcensus.words import alpha_word, beta_word, perm_image, power

# Permutations.


@functools.cache
def all_permutations(n):
    """Every element of S(n), in increasing order; one shared tuple per n."""
    return tuple(
        Permutation(im) for im in itertools.permutations(range(1, n + 1))
    )


def conjugacy_class_representatives(n):
    """One class-minimal representative per conjugacy class of S(n)."""
    return sorted(canonical_of_cycle_type(p, n) for p in all_partitions(n))


def centralizer_order(p):
    """The order of the centralizer of p in S(n): the product of l^m m!
    over the cycle lengths l, fixed points included, that occur m times."""
    lengths = [len(c) for c in p.cycles(include_fixed=True)]
    return math.prod(
        length ** lengths.count(length) * math.factorial(lengths.count(length))
        for length in set(lengths)
    )


def invariant_subsets(p, r):
    """All p-invariant sets of size r: unions of cycle supports and fixed
    points, found by trying every set of cycles."""
    if not 1 <= r < p.degree:
        raise ValueError("r out of range")
    cycles = p.cycles(include_fixed=True)
    unions = (
        frozenset(x for c in chosen for x in c)
        for size in range(len(cycles) + 1)
        for chosen in itertools.combinations(cycles, size)
    )
    return sorted((s for s in unions if len(s) == r), key=sorted)


def disjoint_product(a, b):
    """The permutation acting as a on {1..deg a} and as b shifted above it."""
    n = a.degree + b.degree
    return a.extend(n) * b.shift(a.degree, n)


# Braid words.


def exponent_sum(w):
    return sum(1 if x > 0 else -1 for x in w)


def two_generator_relators(k):
    """Relators presenting B_k on the k-cycle word and its successor.

    With a = alpha_word(k) and b = beta_word(k): b a^(i-1) b equals
    a^i b a^-(i+1) b a^i for 2 <= i <= k//2, and a^k equals b^(k-1).
    """
    a, b = alpha_word(k), beta_word(k)
    rels = []
    for i in range(2, k // 2 + 1):
        lhs = b + power(a, i - 1) + b
        rhs = power(a, i) + b + power(a, -(i + 1)) + b + power(a, i)
        rels.append(("conjugation relator i=%d" % i, lhs, rhs))
    rels.append(("power relator", power(a, k), power(b, k - 1)))
    return rels


def defect_balance_holds(rec, k):
    """Check k * defect(image of alpha) == (k-1) * defect(image of beta)."""
    n = rec["n"]
    defect = {"a": n - 1, "b": n}
    return (
        k * rec["p"] * defect[rec["alpha_unit"]]
        == (k - 1) * rec["q"] * defect[rec["beta_unit"]]
    )


# Homomorphisms and their classes.


@functools.cache
def named_homs():
    """Every named map of ``homs``: the three-strand catalog, the
    four-, five- and six-strand maps, the exceptional maps, the standard
    maps on 2 to 8 strands and on 4 of 6 points, and the doubled classes at
    3 and 4 strands.  A check that holds only for some of them says so by a
    filter on this tuple."""
    return (
        *three_strand_catalog().values(),
        four_strand_five_points(),
        *four_strand_six_points(),
        five_strand_six_points(),
        six_strand_ten_points(),
        *exceptional_homs_four(),
        exceptional_hom_six(),
        *(standard_hom(k) for k in range(2, 9)),
        standard_hom(4, 6),
        *doubled_standard_classes(3),
        *doubled_standard_classes(4),
    )


def walking_census(k, n):
    """The census as (s1, alpha, orbit_size) image triples, sorted, found
    by walking orbits: every chain through each C(s1)-orbit representative
    s_2 is searched in full, and the full-cycle images of all of them are
    split into C(s1)-orbits, whose sizes must count every map."""
    out = []
    for parts in all_partitions(n):
        s1 = canonical_of_cycle_type(parts, n)
        root = tuple_centralizer((s1,))
        gens = centralizer_generators(root)
        partners = braid_partners((s1,), symmetry=root)
        pool = []
        maps = 0
        for s2, s2_orbit in conjugation_orbits(partners, gens):
            if s2 == s1:
                chains = [(s1,) * (k - 1)]
            else:
                chains = [(s1, s2)]
                for _ in range(k - 3):
                    chains = [
                        chain + (x,)
                        for chain in chains
                        for x in braid_partners(chain)
                    ]
            # Conjugating by C(s1) carries the chains through s2 onto those
            # through each member of its orbit.
            maps += s2_orbit * len(chains)
            pool.extend(perm_image(alpha_word(k), chain) for chain in chains)
        orbits = conjugation_orbits(pool, gens)
        assert sum(size for _, size in orbits) == maps
        out.extend((s1.images, alpha.images, size) for alpha, size in orbits)
    return sorted(out)


def product_hom(h1, h2):
    """Componentwise product acting on the disjoint union of the two point sets."""
    if h1.k != h2.k:
        raise ValueError("strand counts differ")
    return BraidHom(
        h1.k,
        h1.n + h2.n,
        tuple(disjoint_product(a, b) for a, b in zip(h1.sigma, h2.sigma)),
    )


def compose_word_map(h, words):
    """Precompose h with the map sending generator i to words[i-1]."""
    return BraidHom(len(words) + 1, h.n, tuple(h(w) for w in words))


def apply_outer_six(h):
    """Postcompose a homomorphism into S(6) with the outer automorphism."""
    if h.n != 6:
        raise ValueError("the outer automorphism lives on six points")
    table = six_point_outer_map()
    return BraidHom(h.k, 6, tuple(table[s] for s in h.sigma))


def conjugacy_classes(homs):
    """Group a list of homomorphisms into conjugacy classes (list of lists),
    in the order of each class's first member."""
    classes = []
    for h in homs:
        for cls in classes:
            if are_conjugate(cls[0], h):
                cls.append(h)
                break
        else:
            classes.append([h])
    return classes


def class_match(found, expected):
    """Require a one-for-one match up to conjugacy: as many found maps as
    expected ones, each found map conjugate to exactly one expected map, and
    no expected map matched twice.  Serves braid-group and commutator maps
    alike."""
    assert len(found) == len(expected), (len(found), len(expected))
    hits = []
    for h in found:
        matches = [i for i, e in enumerate(expected) if are_conjugate(h, e)]
        assert len(matches) == 1, (h.to_json(), matches)
        hits.append(matches[0])
    assert len(set(hits)) == len(hits), hits


# Counting maps, independently of the search.


def map_counts(records):
    """(h, t) for the census records of one (k, n): how many maps into S(n)
    the classes hold, and how many of them are transitive.  A class whose
    first image s has centralizer C(s) holds n! / |C(s)| * orbit_size maps:
    orbit_size chains for each conjugate of s."""
    h = t = 0
    for rec in records:
        s = rec.hom.sigma[0]
        maps = math.factorial(s.degree) // centralizer_order(s) * rec.orbit_size
        h += maps
        t += maps if rec.transitive else 0
    return h, t


def exponential_transform(t):
    """h_0..h_N from t_1..t_N (t[0] is not read) by the exponential formula
    sum h_n x^n / n! = exp(sum t_n x^n / n!): an action on n points is a
    transitive action on the orbit of point n, of some j points, and any
    action on the other n - j, so h_n = sum_j C(n - 1, j - 1) t_j h_{n-j}
    (M. Hall, Canad. J. Math. 1949; Stanley, Enumerative Combinatorics 2,
    ch. 5)."""
    h = [1]
    for n in range(1, len(t)):
        h.append(
            sum(math.comb(n - 1, j - 1) * t[j] * h[n - j] for j in range(1, n + 1))
        )
    return h


def root_count(parts, m):
    """The number of m-th roots in S(n) of a permutation of cycle type parts
    (fixed points as parts 1).  A root x is a product of cycles of length
    d L, each of whose m-th power is d cycles of length L, which needs
    d | m and gcd(L, m / d) = 1; d given L-cycles join into such a cycle in
    L^(d-1) (d-1)! ways.  So the a cycles of length L have a! [y^a] of
    exp(sum L^(d-1) y^d / d) roots, and the lengths multiply."""
    total = 1
    for length in set(parts):
        a = parts.count(length)
        f = {
            d: fractions.Fraction(length ** (d - 1), d)
            for d in range(1, m + 1)
            if m % d == 0 and math.gcd(length, m // d) == 1
        }
        # g = exp(f) by g' = f' g: i g_i = sum_d d f_d g_(i-d).
        g = [fractions.Fraction(1)]
        for i in range(1, a + 1):
            g.append(sum(d * f[d] * g[i - d] for d in f if d <= i) / i)
        total *= g[a] * math.factorial(a)
    return int(total)


def three_strand_map_count(n):
    """|Hom(B_3, S(n))| without the census: B_3 = <x, y | x^2 = y^3> with
    x = s1 s2 s1 and y = s1 s2, so a map is a pair of a square root and a
    cube root of one z, and the count is the sum over z of r_2(z) r_3(z),
    r_m depending only on the cycle type of z."""
    total = 0
    for parts in all_partitions(n):
        class_size = math.factorial(n) // math.prod(
            length ** parts.count(length) * math.factorial(parts.count(length))
            for length in set(parts)
        )
        total += class_size * root_count(parts, 2) * root_count(parts, 3)
    return total


# Cocycles over Z/r, by exhaustion.


def _require_modulus(r):
    if r < 2:
        raise ValueError("need r >= 2")


def permute_coords(s, h):
    """The coordinate action: result[i] = h[s^-1(i)], 1-indexed positions."""
    si = s.inv()
    return tuple(h[si(i + 1) - 1] for i in range(len(h)))


def coboundary_of(omega, r, h):
    """The cocycle of the block-translation conjugation by h; r = 0 means
    integer coordinates."""
    out = []
    for g in omega.sigma:
        v = [a - b for a, b in zip(permute_coords(g, h), h)]
        out.append(tuple(x % r for x in v) if r else tuple(v))
    return out


def coboundary_matrix(omega):
    """The integer coboundary matrix B: column j is the coboundary of the
    unit vector e_j, one row per generator and point."""
    t = omega.n
    columns = [
        sum(coboundary_of(omega, 0, [int(i == j) for i in range(t)]), ())
        for j in range(t)
    ]
    return [list(row) for row in zip(*columns)]


def is_cocycle(omega, r, z):
    """Direct check: the block homomorphism built from z satisfies the
    defining relations (independent of the linear-system encoding)."""
    _require_modulus(r)
    try:
        hom_from_cocycle(omega, r, z)
        return True
    except ValueError:
        return False


def solution_count(M, r):
    """Number of solutions of M x = 0 over Z/r, read off the Smith diagonal."""
    _require_modulus(r)
    d = smith_normal_form(M)
    count = 1
    for j in range(len(M[0])):
        dj = d[j] if j < len(d) else 0
        count *= math.gcd(dj, r) if dj else r
    return count


def all_cocycles(omega, r):
    """Every cocycle over Z/r: every vector the cocycle matrix kills."""
    _require_modulus(r)
    m, t = omega.k, omega.n
    M = cocycle_matrix(omega)
    out = []
    for flat in itertools.product(range(r), repeat=(m - 1) * t):
        if all(sum(a * x for a, x in zip(row, flat)) % r == 0 for row in M):
            out.append(
                [tuple(flat[p * t : (p + 1) * t]) for p in range(m - 1)]
            )
    return out


def all_coboundaries(omega, r):
    """Every coboundary over Z/r, sorted, one per distinct value."""
    _require_modulus(r)
    out = set()
    for flat in itertools.product(range(r), repeat=omega.n):
        out.add(tuple(coboundary_of(omega, r, flat)))
    return [list(z) for z in sorted(out)]


def cocycles_equal_mod(z1, z2, r):
    _require_modulus(r)
    return all(
        all((a - b) % r == 0 for a, b in zip(v1, v2)) for v1, v2 in zip(z1, z2)
    )


def cohomologous(omega, r, z1, z2):
    """Whether two cocycles differ by a coboundary (exhaustive in h)."""
    _require_modulus(r)
    diff = [
        tuple((a - b) % r for a, b in zip(v1, v2)) for v1, v2 in zip(z1, z2)
    ]
    return diff in all_coboundaries(omega, r)


# The command line.


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # One line without the usage block, like an InputError report.
        self.exit(2, "%s: error: %s\n" % (self.prog, " ".join(message.split())))


def _at_least(low, high=None):
    """An argparse type: an integer no smaller than low, nor larger than
    high if it is given."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be <= %d, got %d" % (high, value))
        return value

    return integer


def build_parser():
    """The argparse parser of the command line, as the package built it
    before ``cli._parse`` read argv from ``cli._COMMANDS``; each command's
    ``func`` is the package's own."""
    parser = _Parser(
        prog="braidcensus",
        description="Censuses and invariants of braid-group homomorphisms "
        "into symmetric groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumerate homomorphism classes")
    p.add_argument("k", type=_at_least(3, MAX_STRANDS), help="number of strands")
    p.add_argument("n", type=_at_least(1, MAX_POINTS), help="number of points")
    p.add_argument(
        "--workers",
        type=_at_least(1),
        default=1,
        help="processes, at most the CPU count",
    )
    p.add_argument("--transitive", action="store_true")
    p.add_argument("--noncyclic", action="store_true")
    p.set_defaults(func=cli._cmd_census)

    p = sub.add_parser(
        "census-bprime", help="enumerate commutator-subgroup classes"
    )
    p.add_argument("k", type=_at_least(5, MAX_STRANDS), help="5..%d" % MAX_STRANDS)
    p.add_argument("n", type=_at_least(1, MAX_POINTS), help="number of points")
    p.set_defaults(func=cli._cmd_census_commutator)

    p = sub.add_parser("cohomology", help="first cohomology of a block base")
    p.add_argument(
        "base", choices=("standard", "exceptional6", "fivesix", "cyclic")
    )
    p.add_argument(
        "n",
        type=_at_least(1),
        help="points of the base (cycle length for cyclic)",
    )
    p.add_argument(
        "r", type=_at_least(0), help="coefficient modulus (0 for integers)"
    )
    p.set_defaults(func=cli._cmd_cohomology)

    p = sub.add_parser("retract", help="retract a homomorphism onto cycle labels")
    p.add_argument("hom", help="path to a homomorphism JSON file, or -")
    p.add_argument("r", type=_at_least(2), help="cycle length")
    p.set_defaults(func=cli._cmd_retract)

    p = sub.add_parser("hom", help="inspect a homomorphism, optionally on a word")
    p.add_argument("hom", help="path to a homomorphism JSON file, or -")
    p.add_argument("--word", help="JSON list of signed generator indices")
    p.set_defaults(func=cli._cmd_hom)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", choices=sorted(cli._SUITES) + ["all"])
    p.set_defaults(func=cli._cmd_verify)
    return parser
