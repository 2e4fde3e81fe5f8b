"""End-to-end acceptance checks for the enumeration and classification engine.

Each test pins one advertised guarantee: exact small-degree class lists,
self-degree classification, low-degree cyclicity, cohomology invariant
factors, the cocycle/homomorphism bijection, retraction-table consistency,
the doubled model maps, the commutator-subgroup census, word identities,
the admissible-degree arithmetic, and the supporting permutation lemmas.
"""

import itertools
import math
import random
import time

import oracles
from braidcensus.census import select
from braidcensus.cohomology import (
    cocycle_from_hom,
    cocycle_matrix,
    cyclic_base_cocycle,
    five_strand_exceptional_base_cocycle,
    h1_invariants,
    hom_from_cocycle,
    six_point_exceptional_base_cocycle,
    standard_base_cocycle,
)
from braidcensus.commutator import (
    commutator_census,
    exceptional_commutator_hom_six,
    standard_commutator_hom,
)
from braidcensus.homs import (
    BraidHom,
    are_conjugate,
    cyclic_hom,
    doubled_standard_classes,
    exceptional_hom_six,
    exceptional_homs_four,
    five_strand_six_points,
    four_strand_five_points,
    four_strand_six_points,
    standard_hom,
    three_strand_catalog,
)
from braidcensus.perm import (
    GeneratedGroup,
    Permutation,
    centralizer_generators,
    r_component,
    tuple_centralizer,
)
from braidcensus.retraction import label_tables_clean
from braidcensus.words import (
    cable_hom,
    known_identities,
    perm_image,
    progression_degrees,
    special_params,
    words_equal,
)


# 1. Small-degree class lists.


def test_small_census_runtime(census_cache):
    start = time.monotonic()
    for k, n in [(3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (5, 6)]:
        census_cache(k, n)
    assert time.monotonic() - start < 10.0


def test_three_strand_classes_up_to_six_points(census_cache):
    catalog = three_strand_catalog()
    for n, count in [(4, 2), (5, 1), (6, 7)]:
        records = select(census_cache(3, n), transitive=True, cyclic=False)
        assert len(records) == count
        expected = [
            h for (m, _), h in catalog.items() if m == n and h.is_transitive()
        ]
        oracles.class_match([r.hom for r in records], expected)


def _three_strand_scan(n):
    """Independent oracle for the transitive non-cyclic classes B_3 -> S(n):
    fix sigma_1 at one representative per cycle type, run sigma_2 over all
    of S(n), and keep one braiding pair per conjugacy class."""
    homs = []
    for a in oracles.conjugacy_class_representatives(n):
        for b in oracles.all_permutations(n):
            if a == b or a * b * a != b * a * b:
                continue
            hom = BraidHom(3, n, (a, b))
            if hom.is_transitive():
                homs.append(hom)
    return [cls[0] for cls in oracles.conjugacy_classes(homs)]


def _inverted(hom):
    """hom composed with the inversion automorphism sigma_i -> sigma_i^-1."""
    return BraidHom(hom.k, hom.n, tuple(s.inv() for s in hom.sigma))


def test_three_strand_classes_on_seven_points(census_cache):
    # n = 7 lies beyond the paper's range n <= 2k. The census and an
    # independent scan of S(7) agree on 6 classes up to conjugation; the
    # published list has 3, which the inversion automorphism (generating
    # Out(B_3)) and one further class account for.
    records = select(census_cache(3, 7), transitive=True, cyclic=False)
    oracles.class_match([r.hom for r in records], _three_strand_scan(7))
    assert len(records) == 6
    catalog = three_strand_catalog()
    oracles.class_match(
        [r.hom for r in records], [catalog[(7, i)] for i in range(1, 7)]
    )
    published = [catalog[(7, i)] for i in range(1, 4)]
    for h in published:
        assert sum(are_conjugate(r.hom, h) for r in records) == 1

    twins = [
        [
            j
            for j, r in enumerate(records)
            if are_conjugate(r.hom, _inverted(rec.hom))
        ]
        for rec in records
    ]
    assert all(len(t) == 1 for t in twins)
    orbits = {frozenset((i, t[0])) for i, t in enumerate(twins)}
    assert len(orbits) == 4
    uncovered = [
        orbit
        for orbit in orbits
        if not any(
            are_conjugate(records[i].hom, h) for i in orbit for h in published
        )
    ]
    # the published classes lie in three distinct orbits; the fourth is a
    # single class that the published list misses even up to Aut(B_3)
    assert len(uncovered) == 1
    (extra,) = uncovered
    assert len(extra) == 1
    extra_class = BraidHom(
        3,
        7,
        (
            Permutation.from_cycles("(1,2)(3,4,5,6,7)", 7),
            Permutation.from_cycles("(1,3,7,2,5)(4,6)", 7),
        ),
    )
    assert are_conjugate(records[min(extra)].hom, extra_class)


def test_four_strand_five_point_classes(census_cache):
    records = census_cache(4, 5)
    noncyclic = select(records, transitive=True, cyclic=False)
    oracles.class_match([r.hom for r in noncyclic], [four_strand_five_points()])
    for rec in select(records, transitive=True):
        assert rec.hom.sigma[0] == rec.hom.sigma[2]


def test_four_strand_six_point_distinct_end_classes(census_cache):
    records = [
        r
        for r in select(census_cache(4, 6), transitive=True)
        if r.hom.sigma[0] != r.hom.sigma[2]
    ]
    oracles.class_match([r.hom for r in records], four_strand_six_points())


def test_five_strand_six_point_classes(census_cache):
    records = select(census_cache(5, 6), transitive=True, cyclic=False)
    oracles.class_match([r.hom for r in records], [five_strand_six_points()])


# 2. Self-degree classification.


def test_self_degree_censuses_match_named_classes(census_cache):
    start = time.monotonic()
    expected = {
        4: [standard_hom(4)] + exceptional_homs_four(),
        5: [standard_hom(5)],
        6: [standard_hom(6), exceptional_hom_six()],
        7: [standard_hom(7)],
    }
    for k, homs in expected.items():
        records = select(census_cache(k, k), cyclic=False)
        if k == 4:
            records = select(records, transitive=True)
        oracles.class_match([r.hom for r in records], homs)
    assert time.monotonic() - start < 120.0


# 3. Low-degree cyclicity and adjacent-degree sweeps.


def test_maps_to_fewer_points_are_cyclic(census_cache):
    for k in (5, 6, 7):
        for n in range(2, k):
            assert all(r.cyclic for r in census_cache(k, n))


def test_adjacent_degree_sweeps(census_cache):
    start = time.monotonic()
    sizes = [(6, 7), (7, 8), (6, 8), (6, 9)]
    sizes += [(7, n) for n in range(9, 14)]
    for k, n in sizes:
        for rec in select(census_cache(k, n), transitive=True):
            assert rec.cyclic
    noncyclic = select(census_cache(5, 7), cyclic=False)
    fix67 = Permutation.from_cycles([(6, 7)], 7)
    expected = [
        standard_hom(5).extend(7),
        five_strand_six_points().extend(7),
        BraidHom(
            5, 7, tuple(s.extend(7) * fix67 for s in standard_hom(5).sigma)
        ),
    ]
    oracles.class_match([r.hom for r in noncyclic], expected)
    assert all(not r.transitive for r in noncyclic)
    assert time.monotonic() - start < 900.0


def test_seven_strands_on_fourteen_points_give_the_three_doubled_classes(
    census_cache,
):
    """The n = 2k count at k = 7: the transitive non-cyclic classes are the
    three non-standard doubled lifts of the standard map, all imprimitive."""
    found = select(census_cache(7, 14), transitive=True, cyclic=False)
    oracles.class_match([r.hom for r in found], doubled_standard_classes(7)[1:])
    assert not any(r.hom.group().is_primitive() for r in found)


# 4. First-cohomology invariant factors.


def test_first_cohomology_invariant_factors():
    start = time.monotonic()
    for r in (0, 1, 2, 3, 4, 5, 6, 8, 12):
        # Over Z (r = 0) the 2-torsion of the five-strand base is gone: it
        # is the Tor term of the universal coefficient theorem.
        standard = [r, r] if r != 1 else []
        fivesix = [x for x in (math.gcd(2, r), r) if x != 1] if r else [0]
        single = [r] if r != 1 else []
        for base in (standard_hom(5), standard_hom(6), standard_hom(7)):
            assert h1_invariants(base, r) == standard
        assert h1_invariants(five_strand_six_points(), r) == fivesix
        assert h1_invariants(exceptional_hom_six(), r) == single
        for m in (5, 6, 7):
            for t in range(2, 7):
                cyc = cyclic_hom(
                    m, Permutation.from_cycles([tuple(range(1, t + 1))], t)
                )
                assert h1_invariants(cyc, r) == single
    assert time.monotonic() - start < 5.0


# 5. Cocycle <-> homomorphism bijection.


def _roundtrip(base, r, z):
    assert oracles.is_cocycle(base, r, z)
    hom = hom_from_cocycle(base, r, z)
    assert oracles.cocycles_equal_mod(cocycle_from_hom(base, r, hom), z, r)


def test_cocycle_roundtrips_and_exhaustive_block_homs(census_cache):
    start = time.monotonic()
    for r in (2, 3, 4, 5):
        for a in range(r):
            for b in range(r):
                for n in (4, 5, 6):
                    _roundtrip(
                        standard_hom(n), r, standard_base_cocycle(n, r, a, b)
                    )
        for y in range(r):
            _roundtrip(
                exceptional_hom_six(),
                r,
                six_point_exceptional_base_cocycle(r, y),
            )
            for x in range(r):
                if (2 * x) % r:
                    continue
                _roundtrip(
                    five_strand_six_points(),
                    r,
                    five_strand_exceptional_base_cocycle(r, x, y),
                )
        for a in range(r):
            base = cyclic_hom(5, Permutation.from_cycles([(1, 2, 3)], 3))
            _roundtrip(base, r, cyclic_base_cocycle(5, 3, r, a))

    base = standard_hom(4)
    cocycles = oracles.all_cocycles(base, 2)
    assert len(cocycles) == oracles.solution_count(cocycle_matrix(base), 2)
    homs = [hom_from_cocycle(base, 2, z) for z in cocycles]
    classes = oracles.conjugacy_classes(homs)
    assert len(classes) == 4
    oracles.class_match([reps[0] for reps in classes], doubled_standard_classes(4))
    assert time.monotonic() - start < 60.0


# 6. Retraction tables.


def test_retraction_tables_clean_on_catalog():
    for hom in oracles.named_homs():
        if hom.k < 4:
            continue
        for r in sorted(set(hom.sigma[0].cycle_type())):
            assert label_tables_clean(hom, r), (hom.to_json(), r)


def test_retraction_tables_clean_on_census(census_cache):
    for k, n in [(6, 6), (6, 7), (6, 8), (6, 9), (7, 7), (7, 8)]:
        for rec in select(census_cache(k, n), cyclic=False):
            for r in sorted(set(rec.hom.sigma[0].cycle_type())):
                assert label_tables_clean(rec.hom, r), (rec.hom.to_json(), r)


# 7. The three doubled model maps at seven and eight strands.


def test_doubled_model_maps():
    for k in (7, 8):
        models = doubled_standard_classes(k)[1:]
        for hom, two_cycles in zip(models, (0, k, k - 2)):
            assert not hom.is_cyclic()
            assert hom.is_transitive()
            assert not hom.group().is_primitive()
            assert r_component(hom.sigma[0], 2).t == two_cycles
            z = cocycle_from_hom(standard_hom(k), 2, hom)
            assert oracles.is_cocycle(standard_hom(k), 2, z)
            rebuilt = hom_from_cocycle(standard_hom(k), 2, z)
            assert rebuilt.sigma == hom.sigma
            for r in sorted(set(hom.sigma[0].cycle_type())):
                assert label_tables_clean(hom, r)
        for a, b in itertools.combinations(models, 2):
            assert not are_conjugate(a, b)


# 8. Commutator-subgroup census.


def test_commutator_subgroup_censuses():
    start = time.monotonic()
    five = [h for h in commutator_census(5, 5) if not h.is_trivial()]
    assert len(five) == 1
    assert are_conjugate(five[0], standard_commutator_hom(5))
    six = [h for h in commutator_census(6, 6) if not h.is_trivial()]
    assert len(six) == 2
    oracles.class_match(
        six, [standard_commutator_hom(6), exceptional_commutator_hom_six()]
    )
    for h in five + six:
        g = h.group()
        assert g.order() == math.factorial(h.n) // 2
        assert all(p.is_even() for p in h.images())
    assert time.monotonic() - start < 300.0


# 9. Word identities through the reduction oracle and the projection.


def test_word_identities():
    start = time.monotonic()
    for k in range(4, 8):
        mu = standard_hom(k)
        for name, w1, w2 in known_identities(k):
            assert words_equal(w1, w2), (k, name)
            assert perm_image(w1, mu.sigma) == perm_image(w2, mu.sigma), (
                k,
                name,
            )
    assert time.monotonic() - start < 30.0


# 10. Admissible-degree arithmetic and cabling.


def test_admissible_degree_progressions():
    start = time.monotonic()
    for k in (3, 5, 6, 7):
        table = progression_degrees(k, 60)
        d = k * (k - 1)
        allowed = {k % d, 0, 1, (k - 1) ** 2 % d}
        for n in range(2, 61):
            records = special_params(k, n)
            assert (len(records) > 0) == (n % d in allowed and n >= k - 1), (
                k,
                n,
            )
            for rec in records:
                assert n in table[rec["case"]]
                assert oracles.defect_balance_holds(rec, k)
        for case, degrees in table.items():
            for n in degrees:
                assert any(r["case"] == case for r in special_params(k, n))
    assert time.monotonic() - start < 60.0


def test_cabling_preserves_braid_relations():
    for k, m in [(3, 2), (3, 3), (4, 2)]:
        images = cable_hom(k, m)
        for i in range(k - 1):
            for j in range(i + 2, k - 1):
                lhs = images[i] + images[j]
                rhs = images[j] + images[i]
                assert words_equal(lhs, rhs)
            if i + 1 < k - 1:
                lhs = images[i] + images[i + 1] + images[i]
                rhs = images[i + 1] + images[i] + images[i + 1]
                assert words_equal(lhs, rhs)
    assert oracles.exponent_sum(cable_hom(2, 2, (1,))[0]) == 5


# 11. Supporting permutation lemmas.


def _braid_like(a, b):
    return a * b != b * a and a * b * a == b * a * b


def test_braid_like_power_couples_force_bounded_order():
    for n in (4, 5, 6):
        for a in oracles.conjugacy_class_representatives(n):
            powers = [a**q for q in range(7)]
            for b in oracles.all_permutations(n):
                if not _braid_like(a, b):
                    continue
                for q in range(2, 7):
                    if not _braid_like(powers[q], b):
                        continue
                    nu = math.gcd(q + 1, 4)
                    e = nu * (q - 1)
                    assert (a**e).is_identity()
                    assert (b**e).is_identity()
    rng = random.Random(7)
    for n in (7, 8):
        reps = oracles.conjugacy_class_representatives(n)
        pts = list(range(1, n + 1))
        for a in reps:
            powers = [a**q for q in range(7)]
            for _ in range(3000):
                images = pts[:]
                rng.shuffle(images)
                b = Permutation(images)
                if not _braid_like(a, b):
                    continue
                for q in range(2, 7):
                    if not _braid_like(powers[q], b):
                        continue
                    nu = math.gcd(q + 1, 4)
                    e = nu * (q - 1)
                    assert (a**e).is_identity()
                    assert (b**e).is_identity()


def test_braid_like_power_couple_bound_is_sharp():
    a = Permutation.from_cycles([(1, 2, 3, 4, 5, 6, 7, 8)], 8)
    b = Permutation.from_cycles([(1, 7, 6, 8, 5, 3, 2, 4)], 8)
    q = 3
    assert _braid_like(a, b)
    assert _braid_like(a**q, b)
    nu = math.gcd(q + 1, 4)
    assert a.order() == 8 == nu * (q - 1)


def _centralizer_elements(a):
    gens = centralizer_generators(tuple_centralizer((a,)))
    return GeneratedGroup(a.degree, gens).elements()


def test_commuting_permutations_preserve_support():
    for n in (5, 6):
        for a in oracles.conjugacy_class_representatives(n):
            supp = set(a.support())
            for b in _centralizer_elements(a):
                assert {b(x) for x in supp} == supp
                for r in sorted(set(a.cycle_type())):
                    comp = r_component(a, r)
                    if comp.t != 1:
                        continue
                    cyc = comp.cycles[0]
                    c = Permutation.from_cycles([cyc], n)
                    assert any(
                        all(b(x) == (c**q)(x) for x in cyc)
                        for q in range(r)
                    )


def test_unique_invariant_set_transfers():
    rng = random.Random(11)
    for n in (5, 6):
        pts = list(range(1, n + 1))
        for a in oracles.conjugacy_class_representatives(n):
            for r in range(1, n):
                family = oracles.invariant_subsets(a, r)
                if len(family) != 1:
                    continue
                sigma = frozenset(family[0])
                for _ in range(25):
                    images = pts[:]
                    rng.shuffle(images)
                    c = Permutation(images)
                    moved = frozenset(c(x) for x in sigma)
                    conj_family = oracles.invariant_subsets(a.conj(c), r)
                    assert [frozenset(s) for s in conj_family] == [moved]
                for b in _centralizer_elements(a):
                    assert frozenset(b(x) for x in sigma) == sigma
                    if b.cycle_type() == a.cycle_type():
                        fam_b = oracles.invariant_subsets(b, r)
                        assert [frozenset(s) for s in fam_b] == [sigma]


def _double_cycle_shapes(D, bcyc, ccyc, A):
    p = len(bcyc)
    n = 2 * p
    B = Permutation.from_cycles([bcyc], n)
    C = Permutation.from_cycles([ccyc], n)
    shapes = []
    if any(
        D == B**m * C**q for m in range(p) for q in range(p)
    ):
        shapes.append("cycle powers")
    for r in range(p):
        if all(
            D(bcyc[i]) == ccyc[(i + r) % p]
            and D(ccyc[(i + r) % p]) == bcyc[i]
            for i in range(p)
        ):
            shapes.append("paired transpositions")
            break
    if D.cycle_type() == (n,):
        r = ccyc.index(D(bcyc[0]))
        s = bcyc.index(D(ccyc[0]))
        if (r + s) % p != 0:
            q = pow(r + s, -1, p)
            if D ** (2 * q) == A:
                shapes.append("interleaving long cycle")
    return shapes


def test_commuters_of_two_equal_prime_cycles_fall_into_three_shapes():
    bcyc, ccyc = (1, 2, 3), (4, 5, 6)
    A = Permutation.from_cycles([bcyc, ccyc], 6)
    for D in oracles.all_permutations(6):
        if A * D != D * A:
            continue
        assert len(_double_cycle_shapes(D, bcyc, ccyc, A)) == 1, D
    bcyc, ccyc = (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)
    A = Permutation.from_cycles([bcyc, ccyc], 10)
    for D in _centralizer_elements(A):
        assert A * D == D * A
        assert len(_double_cycle_shapes(D, bcyc, ccyc, A)) == 1, D


def test_braid_like_chains_of_three_cycles_close_up():
    three_cycles = [
        g for g in oracles.all_permutations(6) if g.cycle_type() == (3,)
    ]
    partners = {
        a: [b for b in three_cycles if a * b * a == b * a * b]
        for a in three_cycles
    }
    for a in three_cycles:
        for b in partners[a]:
            for c in partners[b]:
                if a * c == c * a:
                    assert a == c


def test_products_of_equal_cycles_leave_the_class():
    three_cycles = [
        g for g in oracles.all_permutations(6) if g.cycle_type() == (3,)
    ]
    for a in three_cycles:
        for b in three_cycles:
            assert (a * b).cycle_type() != (3,) or (
                a.inv() * b
            ).cycle_type() != (3,)
    five_cycles = [
        g for g in oracles.all_permutations(5) if g.cycle_type() == (5,)
    ]
    for a in five_cycles:
        for b in five_cycles:
            products = [
                a * b,
                a.inv() * b,
                a.inv() * a.inv() * b,
                b * b * a * b,
            ]
            assert any(g.cycle_type() != (5,) for g in products)


def test_distinct_cycle_lengths_bound_the_support(census_cache):
    for k, n in [(6, 6), (6, 7), (6, 8), (6, 9), (7, 7), (7, 8)]:
        for rec in select(census_cache(k, n), transitive=True):
            parts = rec.hom.sigma[0].cycle_type()
            if not parts or len(set(parts)) != len(parts):
                continue
            if max(parts) >= n:
                continue
            sigma = rec.hom.sigma
            for i in range(len(sigma)):
                for j in range(i + 2, len(sigma)):
                    assert not (
                        set(sigma[i].support()) & set(sigma[j].support())
                    )
            assert sum(parts) * (k // 2) <= n


def test_fixed_point_bound_for_transitive_maps(census_cache):
    cases = []
    for k, n in [(5, 5), (6, 6), (6, 7), (6, 8), (6, 9), (7, 7), (7, 8)]:
        if k <= 4:
            continue
        primes = [p for p in (3, 5, 7) if n / 2 < p <= k - 2]
        if not primes:
            continue
        cases.append((k, n))
        for rec in select(census_cache(k, n), transitive=True, cyclic=False):
            assert len(rec.hom.sigma[0].fixed_points()) >= k - 2
            assert n >= k
    assert cases, "the hypothesis should be satisfiable somewhere"
