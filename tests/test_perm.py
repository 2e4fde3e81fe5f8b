"""Unit tests for the permutation layer."""

import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from braidcensus.census import CensusRecord, braid_partners
from braidcensus.commutator import CommutatorHom, standard_commutator_hom
from braidcensus.homs import BraidHom, standard_hom
from braidcensus.perm import (
    CycleType,
    GeneratedGroup,
    Permutation,
    RComponent,
    TupleCentralizer,
    all_partitions,
    canonical_of_cycle_type,
    centralizer_generators,
    conjugation_orbits,
    cycle_type_classes,
    least_conjugate,
    r_component,
    relator_solutions,
    tuple_centralizer,
    tuple_conjugacy_witness,
)
from braidcensus.words import perm_image


def test_cycle_text_parsing_and_composition_convention():
    a = Permutation.from_cycles("(1,2)", 3)
    b = Permutation.from_cycles("(2,3)", 3)
    # (a*b)(x) = a(b(x))
    assert (a * b)(3) == 1
    assert (b * a)(1) == 3
    assert a * a == Permutation.identity(3)


def test_public_construction_validates_and_products_are_trusted():
    for bad in ([1, 1, 2], [0, 1, 2], [2, 3, 4]):
        with pytest.raises(ValueError):
            Permutation(bad)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1,4)", 3)
    rng = random.Random(7)
    sym = oracles.all_permutations(4)
    for _ in range(30):
        a, b = rng.choice(sym), rng.choice(sym)
        # Products and inverses skip the check; they must pass it anyway.
        for p in (a * b, a.inv()):
            assert type(p.images) is tuple
            assert p == Permutation(p.images)
            assert hash(p) == hash(Permutation(p.images))
        assert a * a.inv() == Permutation.identity(4)


def test_construction_refuses_images_that_are_not_ints():
    # Each would pass the bijection check: 2.0 == 2 and True == 1.
    for bad in ([2.0, 1.0], [2.7, 1], [True, 2], ["2", "1"], [2, 1.0]):
        with pytest.raises(ValueError, match="ints"):
            Permutation(bad)
    assert Permutation(range(1, 4)) == Permutation.identity(3)


def test_inverse_power_and_conjugation():
    g = Permutation.from_cycles("(1,2,3,4,5)", 6)
    assert g * g.inv() == Permutation.identity(6)
    assert g**5 == Permutation.identity(6)
    assert g**-2 == (g.inv()) ** 2
    h = Permutation.from_cycles("(1,6)", 6)
    assert g.conj(h) == h * g * h.inv()
    assert g.conj(h).cycle_type() == g.cycle_type()


def test_cycle_string_roundtrip():
    g = Permutation.from_cycles("(1,4)(2,5,6)", 7)
    assert Permutation.from_cycles(g.cycle_string(), 7) == g
    assert g.order() == 6
    assert set(g.support()) == {1, 2, 4, 5, 6}
    assert set(g.fixed_points()) == {3, 7}


def test_cycle_type_is_conjugation_invariant():
    rng = random.Random(3)
    for n in range(2, 9):
        pts = list(range(1, n + 1))
        for _ in range(50):
            a_imgs, g_imgs = pts[:], pts[:]
            rng.shuffle(a_imgs)
            rng.shuffle(g_imgs)
            a, g = Permutation(a_imgs), Permutation(g_imgs)
            assert a.conj(g).cycle_type() == a.cycle_type()


def test_conjugacy_witness_exists_iff_types_agree():
    for n in (4, 5):
        reps = oracles.conjugacy_class_representatives(n)
        for a in reps:
            for b in reps:
                w = tuple_conjugacy_witness((a,), (b,))
                if a.cycle_type() == b.cycle_type():
                    assert w is not None and a.conj(w) == b
                else:
                    assert w is None


def _brute_tuple_conjugacy(aa, bb, n):
    for g in oracles.all_permutations(n):
        if all(x.conj(g) == y for x, y in zip(aa, bb)):
            return g
    return None


def test_tuple_conjugacy_matches_brute_force():
    rng = random.Random(5)
    n = 5
    pts = list(range(1, n + 1))

    def rand():
        imgs = pts[:]
        rng.shuffle(imgs)
        return Permutation(imgs)

    for _ in range(60):
        aa = tuple(rand() for _ in range(3))
        g = rand()
        bb = tuple(x.conj(g) for x in aa)
        w = tuple_conjugacy_witness(aa, bb)
        assert w is not None
        assert all(x.conj(w) == y for x, y in zip(aa, bb))
        cc = tuple(rand() for _ in range(3))
        expected = _brute_tuple_conjugacy(aa, cc, n)
        found = tuple_conjugacy_witness(aa, cc)
        assert (found is None) == (expected is None)
        if found is not None:
            assert all(x.conj(found) == y for x, y in zip(aa, cc))


def test_centralizer_generators_span_the_full_centralizer():
    for n in (4, 5, 6, 7):
        for a in oracles.conjugacy_class_representatives(n):
            gens = centralizer_generators(tuple_centralizer((a,)))
            generated = GeneratedGroup(n, gens).order()
            assert generated == oracles.centralizer_order(a)
            # at most a rotation, a swap and a shift per cycle length
            lengths = {len(c) for c in a.cycles(include_fixed=True)}
            assert len(gens) <= 3 * len(lengths)


def _copied_tuple(rng, n):
    """One to three permutations of S(n) whose group has several isomorphic
    orbits: a random tuple on m points, copied onto t blocks, the points
    left over moved at random, and all of it relabelled at random."""
    r = rng.randint(1, 3)
    m = rng.randint(1, min(3, n))
    t = rng.randint(1, n // m)
    rest = n - m * t
    out = []
    for _ in range(r):
        base = rng.choice(oracles.all_permutations(m))
        p = rng.choice(oracles.all_permutations(rest)) if rest else None
        for _ in range(t):
            p = base if p is None else oracles.disjoint_product(p, base)
        out.append(p)
    g = rng.choice(oracles.all_permutations(n))
    return tuple(p.conj(g) for p in out)


def _brute_centralizer(perms):
    n = perms[0].degree
    return {
        x
        for x in oracles.all_permutations(n)
        if all(x * p == p * x for p in perms)
    }


def test_tuple_centralizer_matches_brute_force():
    rng = random.Random(17)
    for n in range(1, 8):
        sym = oracles.all_permutations(n)
        for trial in range(30):
            if trial % 3:
                perms = _copied_tuple(rng, n)
            else:
                perms = tuple(rng.choice(sym) for _ in range(rng.randint(1, 3)))
            cent = tuple_centralizer(perms)
            expected = _brute_centralizer(perms)
            assert cent.order == len(expected), perms
            gens = centralizer_generators(cent)
            assert GeneratedGroup(n, gens).elements() == expected, perms
            # Each element of C_m taken at least doubles the group the ones
            # before it generate; a swap and a shift move the copies.
            for copies, cm in zip(cent.copies, cent.constituents):
                points = {x for copy in copies for x in copy}
                moving = [g for g in gens if any(g(x) != x for x in points)]
                assert len(moving) <= len(cm).bit_length() - 1 + 2, perms
            points = [x for cls in cent.copies for copy in cls for x in copy]
            assert sorted(points) == list(range(1, n + 1))
            # The point table: each point lies in the copy it names, and two
            # points share a key exactly when the centralizer joins them.
            holder = {copy[0]: copy for cls in cent.copies for copy in cls}
            for x in range(1, n + 1):
                assert x in holder[cent.copy_of[x - 1]], perms
            joined = {(x, c(x)) for c in expected for x in range(1, n + 1)}
            for x, y in itertools.product(range(1, n + 1), repeat=2):
                same = cent.orbit_of[x - 1] == cent.orbit_of[y - 1]
                assert same == ((x, y) in joined), perms
            # Every copy, and every image of the first under C_m, is aligned
            # with the first copy by a map that commutes with the tuple.
            for copies, cm in zip(cent.copies, cent.constituents):
                first = copies[0]
                at = {x: i for i, x in enumerate(first)}
                images = list(copies) + [[first[j] for j in pi] for pi in cm]
                for image in images:
                    assert all(
                        p(image[i]) == image[at[p(x)]]
                        for p in perms
                        for i, x in enumerate(first)
                    ), perms


def _cycle_type(x):
    return tuple(sorted(map(len, x.cycles(include_fixed=True)), reverse=True))


def _assert_one_element_per_class(perms, classes_of):
    """``classes_of(parts)`` against C(G) found by scanning S(n): for each
    partition of n, its elements lie in C(G), have that cycle type, and
    meet each C(G)-class of such elements exactly once."""
    n = perms[0].degree
    expected = _brute_centralizer(perms)
    classes, left = {}, set(expected)
    while left:
        x = min(left)
        cls = frozenset(x.conj(g) for g in expected)
        left -= cls
        classes.setdefault(_cycle_type(x), set()).add(cls)
    for parts in all_partitions(n):
        found = list(classes_of(parts))
        assert all(x in expected and _cycle_type(x) == parts for x in found)
        met = [next(c for c in classes[parts] if x in c) for x in found]
        assert len(set(met)) == len(met), (perms, parts)
        assert set(met) == classes.get(parts, set()), (perms, parts)


def test_cycle_type_classes_match_brute_force():
    """One element per class of C(s) for each class-minimal s up to 7
    points."""
    for n in range(1, 8):
        for s in oracles.conjugacy_class_representatives(n):
            _assert_one_element_per_class(
                (s,), lambda parts: cycle_type_classes(s, parts)
            )


def test_the_class_oracle_matches_brute_force_on_tuples():
    """The reference enumerator for any ``tuple_centralizer``, on tuples
    whose group has isomorphic orbits, where C_m may be non-abelian (it is
    S_3 on a regular orbit of S_3)."""

    def check(perms):
        cent = tuple_centralizer(perms)
        _assert_one_element_per_class(
            perms, lambda parts: oracles.centralizer_classes_of_type(cent, parts)
        )

    a, b = Permutation.from_cycles("(1,2)(3,4)(5,6)", 6), Permutation.from_cycles(
        "(1,3,5)(2,6,4)", 6
    )
    check((a, b))
    rng = random.Random(5)
    for n in range(2, 8):
        for _ in range(6):
            check(_copied_tuple(rng, n))


def test_cycle_type_classes_match_the_class_oracle():
    """For every class-minimal s and every partition of n up to 10 points,
    ``cycle_type_classes`` and the reference enumerator on C(s) give as
    many elements, with the same least conjugates under C(s)."""
    for n in range(1, 11):
        for s in oracles.conjugacy_class_representatives(n):
            cent = tuple_centralizer((s,))
            for parts in all_partitions(n):
                found = cycle_type_classes(s, parts)
                expected = oracles.centralizer_classes_of_type(cent, parts)
                assert len(found) == len(expected), (s, parts)

                def keys(ys):
                    return {
                        least_conjugate(y, s, tuple_centralizer((s, y))) for y in ys
                    }

                assert keys(found) == keys(expected), (s, parts)


def test_tuple_centralizer_of_one_permutation_is_its_centralizer():
    for n in (4, 6, 7):
        for a in oracles.conjugacy_class_representatives(n):
            cent = tuple_centralizer((a,))
            assert cent.order == oracles.centralizer_order(a)
            gens = centralizer_generators(cent)
            assert GeneratedGroup(n, gens).elements() == (
                _brute_centralizer((a,))
            )


def test_least_conjugate_is_the_least_of_the_centralizer_orbit():
    rng = random.Random(19)
    for n in range(1, 8):
        sym = oracles.all_permutations(n)
        for s in oracles.conjugacy_class_representatives(n):
            centralizer = sorted(_brute_centralizer((s,)))
            for trial in range(6):
                if trial % 3 == 0:
                    a = rng.choice(sym)
                elif trial % 3 == 1:
                    a = rng.choice(centralizer)
                else:
                    a = rng.choice(_copied_tuple(rng, n))
                found = least_conjugate(a, s, tuple_centralizer((s, a)))
                assert found == min(a.conj(g) for g in centralizer), (s, a)


def test_least_conjugate_checks_its_conjugator(monkeypatch):
    """The least image must be the conjugate by the map the search built;
    a conjugation that disagrees with the search is an error, not an
    answer."""
    s = Permutation.from_cycles("(1,2)(3,4)", 4)
    a = Permutation.from_cycles("(1,4)", 4)
    cent = tuple_centralizer((s, a))
    assert least_conjugate(a, s, cent) == Permutation.from_cycles("(2,3)", 4)
    monkeypatch.setattr(Permutation, "conj", lambda self, g: self)
    with pytest.raises(RuntimeError, match="not a conjugate"):
        least_conjugate(a, s, cent)


def test_generated_group_orbits_order_and_primitivity():
    g = GeneratedGroup(
        5,
        [
            Permutation.from_cycles("(1,2)", 5),
            Permutation.from_cycles("(1,2,3,4,5)", 5),
        ],
    )
    assert g.is_transitive()
    assert g.order() == 120
    assert g.is_primitive()
    blocks = GeneratedGroup(
        6,
        [
            Permutation.from_cycles("(1,2)(3,4)", 6),
            Permutation.from_cycles("(1,3,5)(2,4,6)", 6),
        ],
    )
    assert blocks.is_transitive()
    assert not blocks.is_primitive()
    split = GeneratedGroup(5, [Permutation.from_cycles("(1,2,3)", 5)])
    assert sorted(sorted(o) for o in split.orbits()) == [
        [1, 2, 3],
        [4],
        [5],
    ]
    trivial = GeneratedGroup(3, ())
    assert trivial.orbits() == [(1,), (2,), (3,)]
    assert trivial.order() == 1
    with pytest.raises(ValueError, match="degree mismatch"):
        GeneratedGroup(3, (Permutation.identity(4),))


def _equal_block_partitions(points, d):
    """Every partition of the points into blocks of size d."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for others in itertools.combinations(rest, d - 1):
        block = frozenset((first,) + others)
        left = [x for x in rest if x not in block]
        for tail in _equal_block_partitions(left, d):
            yield [block] + tail


def _has_block_system(n, gens):
    """Brute force: a partition of 1..n into equal blocks of a size d,
    1 < d < n, that every generator maps onto itself."""
    for d in range(2, n):
        if n % d:
            continue
        for system in _equal_block_partitions(list(range(1, n + 1)), d):
            blocks = set(system)
            if all(frozenset(map(g, b)) in blocks for g in gens for b in system):
                return True
    return False


def test_primitivity_agrees_with_a_search_for_block_systems():
    rng = random.Random(23)
    outcomes = []
    for n in range(1, 7):
        sym = oracles.all_permutations(n)
        for a in oracles.conjugacy_class_representatives(n):
            for b in rng.sample(sym, min(len(sym), 40)):
                g = GeneratedGroup(n, (a, b))
                if not g.is_transitive():
                    with pytest.raises(ValueError):
                        g.is_primitive()
                    continue
                primitive = g.is_primitive()
                assert primitive == (not _has_block_system(n, (a, b))), (a, b)
                outcomes.append(primitive)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 50


def test_transposition_in_primitive_transitive_group_forces_everything():
    # Jordan's criterion, spot-checked by explicit closure at small degree.
    for n in (4, 5, 6, 7):
        for seed_cycle in [(1, 2, 3, n), tuple(range(1, n + 1))]:
            gens = [
                Permutation.from_cycles([(1, 2)], n),
                Permutation.from_cycles([seed_cycle], n),
            ]
            g = GeneratedGroup(n, gens)
            if g.is_transitive() and g.is_primitive():
                assert g.order() == math.factorial(n)


def test_invariant_subsets_examples():
    p = Permutation.from_cycles("(1,2,3)", 4)
    assert [sorted(s) for s in oracles.invariant_subsets(p, 1)] == [[4]]
    p = Permutation.from_cycles("(1,2)(3,4)", 4)
    assert sorted(sorted(s) for s in oracles.invariant_subsets(p, 2)) == [
        [1, 2],
        [3, 4],
    ]
    p = Permutation.from_cycles("(1,2)(3,4,5)", 6)
    assert sorted(sorted(s) for s in oracles.invariant_subsets(p, 3)) == [
        [1, 2, 6],
        [3, 4, 5],
    ]
    with pytest.raises(ValueError):
        oracles.invariant_subsets(p, 6)


def test_r_component_extraction():
    p = Permutation.from_cycles("(1,2)(3,4)(5,6,7)", 8)
    comp = r_component(p, 2)
    assert comp.t == 2
    assert sorted(sorted(c) for c in comp.cycles) == [[1, 2], [3, 4]]
    assert r_component(p, 4).t == 0


def test_class_representatives_cover_all_partitions():
    for n in (5, 6, 7):
        reps = oracles.conjugacy_class_representatives(n)
        assert len(reps) == len(all_partitions(n))
        assert len({r.cycle_type() for r in reps}) == len(reps)
        for r in reps:
            parts = tuple(p for p in r.cycle_type())
            assert canonical_of_cycle_type(parts, n) == r


def test_braid_partners_match_a_scan_of_the_symmetric_group():
    for n in range(1, 6):
        sym = oracles.all_permutations(n)
        sample = sym[:: max(1, len(sym) // 10)]
        for a in oracles.conjugacy_class_representatives(n):
            braiding = [x for x in sym if a * x * a == x * a * x]
            assert braid_partners((a,)) == braiding
            for c in sample:
                commuting = [x for x in braiding if x * c == c * x]
                assert braid_partners((c, a)) == commuting
            # three-image chains: x braids with a, commutes with c and d
            for c, d in itertools.product(sample[::2], repeat=2):
                assert braid_partners((c, d, a)) == [
                    x
                    for x in sym
                    if a * x * a == x * a * x and x * c == c * x and x * d == d * x
                ]


def _assert_orbit_leasts_kept(a, commuting=(), symmetry=None):
    """The symmetric search under ``symmetry`` (by default the centralizer
    of a) gives a sorted subset of the partners that holds the least member
    of every orbit of that centralizer; returns how many it skips."""
    if symmetry is None:
        symmetry = tuple_centralizer((a,))
    full = braid_partners(commuting + (a,))
    cut = braid_partners(commuting + (a,), symmetry=symmetry)
    assert cut == sorted(cut)
    assert set(cut) <= set(full)
    gens = centralizer_generators(symmetry)
    if not gens:
        assert cut == full
        return 0
    orbits = conjugation_orbits(full, gens)
    assert {least for least, _ in orbits} <= set(cut)
    return len(full) - len(cut)


def test_symmetric_search_keeps_the_least_member_of_every_orbit():
    skipped = 0
    for n in range(1, 8):
        for a in oracles.conjugacy_class_representatives(n):
            root = tuple_centralizer((a,))
            _assert_orbit_leasts_kept(a)
            braiding = [(1, 2, 1, -2, -1, -2)]
            assert relator_solutions(
                n, braiding, (a,), first=True, symmetry=root
            ) == relator_solutions(n, braiding, (a,), first=True)
            if n > 6:
                continue
            # the census's level-3 search, s3 braiding with s2 and commuting
            # with a, under the centralizer of the prefix (a, s2)
            for s2 in braid_partners((a,), symmetry=root):
                cent = tuple_centralizer((a, s2))
                skipped += _assert_orbit_leasts_kept(s2, (a,), symmetry=cent)
    # pairs whose group has isomorphic orbits, where C_m need not be
    # transitive on an orbit, so a class holds several keys
    rng = random.Random(23)
    for n in range(2, 7):
        for _ in range(40):
            a, c = (_copied_tuple(rng, n) * 2)[:2]
            cent = tuple_centralizer((a, c))
            skipped += _assert_orbit_leasts_kept(a, (c,), symmetry=cent)
    assert skipped > 0
    # an image that every element of C(b) commutes with
    b = Permutation.from_cycles("(1,2)(3,4,5)", 6)
    _assert_orbit_leasts_kept(b, (Permutation.from_cycles("(3,4,5)", 6),))


def test_symmetric_search_refuses_letters_outside_the_centralizer():
    a = Permutation.from_cycles("(1,2)(3,4)", 5)
    cent = tuple_centralizer((a,))
    with pytest.raises(ValueError, match="commute"):
        braid_partners((Permutation.from_cycles("(1,3)", 5), a), symmetry=cent)
    # (1,2) commutes with a but not with (1,3)(2,4) in C(a), so C(a) does
    # not permute the solutions
    with pytest.raises(ValueError, match="commute"):
        braid_partners((Permutation.from_cycles("(1,2)", 5), a), symmetry=cent)
    # an image that no relator names is checked all the same
    with pytest.raises(ValueError, match="commute"):
        relator_solutions(
            5, [(2, 2)], (Permutation.from_cycles("(1,3)", 5),), symmetry=cent
        )
    with pytest.raises(ValueError, match="degree mismatch"):
        relator_solutions(5, [(1, 1)], symmetry=tuple_centralizer((a.extend(6),)))


def _as_letters(relators):
    """Relators drawn as (permutation or None, +-1) pairs, as words for
    ``relator_solutions``: each occurrence of a permutation is a letter of
    its own, so that equal images cancel only by the search's alias, and
    None is x, the letter after them.  Returns (words, images)."""
    images = [g for word in relators for g, _ in word if g is not None]
    x, i = len(images) + 1, 0
    words = []
    for word in relators:
        letters = []
        for g, e in word:
            if g is not None:
                i += 1
            letters.append(e * (x if g is None else i))
        words.append(tuple(letters))
    return words, tuple(images)


def _solutions_by_scan(n, words, images=()):
    return [
        x
        for x in oracles.all_permutations(n)
        if all(perm_image(w, images + (x,)).is_identity() for w in words)
    ]


def _assert_drawn_relators_solved(n, relators):
    """The search on drawn relators matches the scan; whether it found any."""
    words, images = _as_letters(relators)
    expected = _solutions_by_scan(n, words, images)
    assert relator_solutions(n, words, images) == expected
    assert relator_solutions(n, words, images, first=True) == expected[:1]
    return bool(expected)


def test_relator_solutions_match_a_scan_of_the_symmetric_group():
    rng = random.Random(11)
    n = 4
    sym = oracles.all_permutations(n)
    for _ in range(80):
        fixed = [rng.choice(sym) for _ in range(2)]
        relators = [
            tuple(
                (rng.choice([None, None] + fixed), rng.choice([1, -1]))
                for _ in range(rng.randint(1, 7))
            )
            for _ in range(rng.randint(1, 2))
        ]
        _assert_drawn_relators_solved(n, relators)


def test_relator_solutions_edge_cases():
    n = 3
    a = Permutation.from_cycles("(1,2)", n)
    # words that reduce to nothing, or to a letter without x; with a as
    # letter 1, x is letter 2
    sym = list(oracles.all_permutations(n))
    assert relator_solutions(n, [(1, -1)]) == sym
    assert relator_solutions(n, [(2, 1, -1, -2)], (a,)) == sym
    assert relator_solutions(n, [(2, 1, -2)], (a,)) == []
    assert relator_solutions(n, [(2, 1, 1, -2)], (a,)) == sym
    # a letter that names no image or x
    for word in ((2, 3), (2, -3), (0,)):
        with pytest.raises(ValueError, match="names no image"):
            relator_solutions(n, [word], (a,))
    with pytest.raises(ValueError):
        relator_solutions(n, [(2, 1)], (Permutation.identity(4),))
    # equal images are one letter: a^-1 as letter 2 cancels a as letter 1
    assert relator_solutions(n, [(3, 1, -2, -3)], (a, a)) == sym
    ident = Permutation.identity(n)
    assert relator_solutions(n, [(1, 3, -2, -3)], (a, a)) == [ident, a]
    # x^e g^f x^-e h^d: a same-sign pair x g x h is left to the scans; an
    # identity letter makes x(p) = h(x(p)) hold for every x or for none
    h = Permutation.from_cycles("(1,3)", n)
    for word, images in (((3, 1, 3, 2), (a, h)), ((2, 1, 2, -1), (a,))):
        assert relator_solutions(n, [word], images) == _solutions_by_scan(
            n, [word], images
        )
    assert relator_solutions(n, [(2, 1, -2, -1)], (ident,)) == sym
    assert relator_solutions(n, [(3, 1, -3, 2)], (ident, h)) == []
    assert relator_solutions(n, [(3, 2, -3, 1)], (ident, h)) == []
    with pytest.raises(ValueError):
        relator_solutions(n, [(3, 1, -3, -2)], (a, ident.extend(4)))
    one = Permutation.identity(1)
    assert relator_solutions(1, [(2, 1, -2, -1)], (one,)) == [one]


def test_equivariance_relators_match_a_scan_of_the_symmetric_group():
    """Relators x^e g^f x^-e h^d, which the search propagates instead of
    scanning: g = h and g != h, every sign, every rotation, alone or next to
    a braid relator."""
    rng = random.Random(13)
    n = 5
    sym = oracles.all_permutations(n)
    x, x_inv = (None, 1), (None, -1)
    nonempty = 0
    for _ in range(300):
        # most relators hold at x0, so that many sets have solutions
        x0 = rng.choice(sym)
        relators = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(sym)
            e, f, d = (rng.choice([1, -1]) for _ in range(3))
            # x0^e g^f x0^-e h^d = 1, h = g, or any h
            planted = (x0**e * g**f * x0**-e) ** -d
            h = rng.choice([planted, planted, g, rng.choice(sym)])
            word = [(None, e), (g, f), (None, -e), (h, d)]
            r = rng.randrange(4)
            relators.append(tuple(word[r:] + word[:r]))
        if rng.random() < 0.5:
            a = rng.choice([x0, rng.choice(sym)])
            braid = ((a, 1), x, (a, 1), x_inv, (a, -1), x_inv)
            relators.insert(rng.randrange(len(relators) + 1), braid)
        nonempty += _assert_drawn_relators_solved(n, relators)
    assert nonempty >= 100


def test_segment_relators_match_a_scan_of_the_symmetric_group():
    """Words that the search compiles into segments of an x-letter and a
    run of fixed letters: x^e A x^-e B with runs A and B of one to three
    letters, which it propagates as x(A^-1 p) = B(x(p)) (for e = 1), and
    words of three to six x-letters between runs of none to three, which it
    scans.  Every rotation and sign, alone or next to a braid relator; the
    letters come from three permutations, so runs repeat, cancel and compose
    to the identity."""
    rng = random.Random(17)
    n = 5
    sym = oracles.all_permutations(n)
    x, x_inv = (None, 1), (None, -1)
    nonempty = 0
    for case in range(240):
        x0 = rng.choice(sym)
        pool = [rng.choice(sym) for _ in range(3)]

        def run(lo, hi):
            return [
                (rng.choice(pool), rng.choice([1, -1]))
                for _ in range(rng.randint(lo, hi))
            ]

        relators = []
        for _ in range(rng.randint(1, 2)):
            if case % 2:
                word, m = [], rng.randint(3, 6)
                for i in range(m):
                    word += [(None, rng.choice([1, -1]))] + run(0, 3 - (i == m - 1))
            else:
                e = rng.choice([1, -1])
                word = [(None, e)] + run(1, 3) + [(None, -e)] + run(0, 2)
            # most words end with a letter that makes x0 a solution
            if rng.random() < 0.8:
                (letters,), images = _as_letters([word])
                word.append((perm_image(letters, images + (x0,)), -1))
            elif word[-1][0] is None:
                word += run(1, 1)
            r = rng.randrange(len(word))
            relators.append(tuple(word[r:] + word[:r]))
        if rng.random() < 0.5:
            a = rng.choice([x0, rng.choice(sym)])
            braid = ((a, 1), x, (a, 1), x_inv, (a, -1), x_inv)
            relators.insert(rng.randrange(len(relators) + 1), braid)
        nonempty += _assert_drawn_relators_solved(n, relators)
    assert nonempty >= 100


def test_a_partner_that_commutes_with_its_base_is_the_base():
    """a x a = x a x and a x = x a give a = x: past s_2 = s_1 a census
    chain is constant."""
    for n in range(1, 8):
        for a in oracles.conjugacy_class_representatives(n):
            assert braid_partners((a, a)) == [a]


def test_conjugation_orbits_of_single_permutations_are_the_classes():
    n = 4
    ident = Permutation.identity(n)
    gens = centralizer_generators(tuple_centralizer((ident,)))
    orbits = conjugation_orbits(oracles.all_permutations(n), gens)
    reps = oracles.conjugacy_class_representatives(n)
    assert [rep for rep, _ in orbits] == reps
    for rep, size in orbits:
        assert size == math.factorial(n) // oracles.centralizer_order(rep)
    # an orbit is closed under the group, not under the pool
    swap = Permutation.from_cycles("(1,2)", n)
    only = conjugation_orbits([swap], gens)
    assert only == [(Permutation.from_cycles("(3,4)", n), 6)]


def test_cycle_type_ordering_and_disjoint_product():
    t = CycleType((2, 3, 2))
    assert tuple(t) == (3, 2, 2)
    a = Permutation.from_cycles("(1,2)", 6)
    b = Permutation.from_cycles("(3,4,5)", 6)
    assert oracles.disjoint_product(a, b).cycle_type() == (3, 2)


def test_serialization_is_one_indexed():
    g = Permutation.from_cycles("(1,2)(3,4)", 4)
    assert g.to_json() == [2, 1, 4, 3]
    assert Permutation([2, 1, 4, 3]) == g


@st.composite
def _tuple_pairs(draw):
    """Two tuples of permutations of one degree; half the time the second
    is a conjugate of the first."""
    n = draw(st.integers(1, 6))
    perms = st.permutations(range(1, n + 1)).map(Permutation)
    aa = tuple(draw(st.lists(perms, min_size=1, max_size=3)))
    if draw(st.booleans()):
        g = draw(perms)
        return aa, tuple(a.conj(g) for a in aa)
    return aa, tuple(draw(perms) for _ in aa)


@settings(max_examples=300, deadline=None)
@given(_tuple_pairs())
def test_tuple_conjugacy_is_symmetric(pair):
    aa, bb = pair
    forward = tuple_conjugacy_witness(aa, bb)
    backward = tuple_conjugacy_witness(bb, aa)
    assert (forward is None) == (backward is None)
    if forward is not None:
        assert all(a.conj(forward) == b for a, b in zip(aa, bb))
        assert all(b.conj(backward) == a for a, b in zip(aa, bb))


def test_records_are_frozen_values_of_their_own_class():
    """Each record equals and hashes as a record of its class with equal
    fields, never as another class or the plain tuple of its fields, and
    refuses assignment and deletion; keyword and positional construction
    agree."""
    p = Permutation.from_cycles("(1,2)(3,4)", 4)
    e = Permutation.identity(4)
    s = standard_hom(4)
    cent = tuple_centralizer((p,))
    rebuilt = TupleCentralizer(
        copies=cent.copies,
        constituents=cent.constituents,
        order=cent.order,
        copy_of=cent.copy_of,
        orbit_of=cent.orbit_of,
    )
    pairs = [
        (
            RComponent(cycles=((1, 2), (3, 4)), support=frozenset(range(1, 5))),
            r_component(p, 2),
        ),
        (rebuilt, cent),
        (GeneratedGroup(4, (p, e)), GeneratedGroup(degree=4, generators=(p, e))),
        (BraidHom(4, 4, s.sigma), s),
        (
            CensusRecord(hom=s, orbit_size=1, alpha=s.alpha()),
            CensusRecord(s, 1, s.alpha()),
        ),
        (
            CommutatorHom(5, 4, e, e, e, (e, e)),
            CommutatorHom(k=5, n=4, u=e, v=e, w=e, c=(e, e)),
        ),
    ]
    for a, b in pairs:
        name = type(a).__name__
        assert a is not b and a == b and not a != b, name
        if name != "TupleCentralizer":  # its constituents are lists
            assert hash(a) == hash(b), name
        assert a != tuple(vars(a).values()), name
        assert repr(a).startswith(name + "("), name
        field = next(iter(vars(a)))
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b, name
    braid, commutator = BraidHom(5, 4, (e,) * 4), pairs[-1][0]
    assert braid != commutator and braid != (5, 4, (e,) * 4)
    assert BraidHom(4, 4, (e,) * 3) != s


def test_permutations_and_records_survive_pickle_and_deepcopy():
    """A permutation pickles as its images and is checked again on load, so
    every record that holds one round-trips too: equal, of its own class and
    still immutable."""
    s = standard_hom(5)
    values = [
        Permutation.from_cycles("(1,3)(2,5,4)", 5),
        s,
        CensusRecord(hom=s, orbit_size=1, alpha=s.alpha()),
        standard_commutator_hom(6),
        GeneratedGroup(5, s.sigma),
        tuple_centralizer(s.sigma[:2]),
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            name = type(value).__name__
            assert twin is not value and twin == value, name
            assert type(twin) is type(value), name
            with pytest.raises(AttributeError):
                twin.images = None
    rebuild, args = values[0].__reduce__()
    assert rebuild(*args) == values[0]
    with pytest.raises(ValueError, match="bijection"):
        rebuild((1, 1, 2, 3, 4))


def test_records_refuse_bad_images():
    a = Permutation.from_cycles("(1,2)", 4)
    b = Permutation.from_cycles("(3,4)", 4)
    e = Permutation.identity(4)
    with pytest.raises(ValueError, match="braid relations"):
        BraidHom(3, 4, (a, b))
    with pytest.raises(ValueError, match="need 2 generator images"):
        BraidHom(k=3, n=4, sigma=(a,))
    with pytest.raises(ValueError, match="degree mismatch"):
        CommutatorHom(5, 4, e, e, e, (e, Permutation.identity(3)))
    with pytest.raises(ValueError, match="defining relations"):
        CommutatorHom(5, 4, a, e, e, (e, e))
    with pytest.raises(ValueError, match="generator degree mismatch"):
        GeneratedGroup(4, (a, Permutation.identity(5)))
