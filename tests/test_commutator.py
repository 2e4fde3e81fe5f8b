"""Unit tests for homomorphisms of the commutator subgroup."""

import sys
import tracemalloc

import pytest

import oracles
from braidcensus.census import MAX_POINTS, MAX_STRANDS, census, chain_leaves
from braidcensus.commutator import (
    CommutatorHom,
    _relations,
    _relations_report,
    _u_relator_words,
    commutator_census,
    exceptional_commutator_hom_six,
    generator_words,
    restrict_braid_hom,
    standard_commutator_hom,
)
from braidcensus.homs import are_conjugate, standard_hom
from braidcensus.perm import Permutation, all_partitions, relator_solutions


def test_generator_words_have_zero_exponent_sum():
    for k in (5, 6, 7):
        words = generator_words(k)
        assert set(words) == {"u", "v", "w"} | {
            "c%d" % i for i in range(1, k - 2)
        }
        for w in words.values():
            assert oracles.exponent_sum(w) == 0


def test_restriction_of_the_standard_map():
    for k in (5, 6):
        restricted = restrict_braid_hom(standard_hom(k))
        assert restricted.images() == standard_commutator_hom(k).images()
    std = standard_commutator_hom(5)
    assert std.u == Permutation.from_cycles("(1,3,2)", 5)
    assert std.v == Permutation.from_cycles("(1,2,3)", 5)
    assert std.w == Permutation.from_cycles("(1,3)(2,4)", 5)
    assert std.c == (
        Permutation.from_cycles("(1,2)(3,4)", 5),
        Permutation.from_cycles("(1,2)(4,5)", 5),
    )


def test_invalid_images_are_rejected():
    std = standard_commutator_hom(5)
    with pytest.raises(ValueError):
        CommutatorHom(5, 5, std.v, std.u, std.w, std.c)


def test_a_chain_that_does_not_braid_is_rejected():
    """Only the chain's braid relation c1 c2 c1 = c2 c1 c2 fails here; the
    check reads it from ``words.braid_relations`` and names it by its words."""
    e = Permutation.identity(3)
    with pytest.raises(ValueError, match=r"chain relation \(1, 2, 1\) = \(2, 1, 2\)"):
        CommutatorHom(5, 3, e, e, e, (e, Permutation.from_cycles("(2,3)", 3)))


def test_the_relation_tables_stay_small_at_many_strands():
    """Only the 2k - 4 relations that involve u, v or w are stored; the
    chain's (k - 3)(k - 4)/2 braid relations are read one at a time, so a
    census at 150 strands allocates well under 1 MiB at its peak."""
    _relations.cache_clear()
    _u_relator_words.cache_clear()
    tracemalloc.start()
    try:
        commutator_census(150, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tameness_distinguishes_the_six_strand_classes():
    assert standard_commutator_hom(6).is_tame()
    exc = exceptional_commutator_hom_six()
    assert not exc.is_tame()
    assert not are_conjugate(standard_commutator_hom(6), exc)


def test_conjugation_and_serialization():
    std = standard_commutator_hom(5)
    g = Permutation.from_cycles("(1,5,2)", 5)
    moved = std.conjugate(g)
    assert are_conjugate(std, moved)
    assert CommutatorHom.from_json(std.to_json()).images() == std.images()


def test_census_rejects_unsupported_strand_counts():
    """The Gorin-Lin presentation holds for every k >= 5; past the census
    bounds on strands and points no run finishes."""
    for k in (4, MAX_STRANDS + 1):
        with pytest.raises(ValueError, match="k must be in 5..%d" % MAX_STRANDS):
            commutator_census(k, 3)
    with pytest.raises(ValueError, match="n must be <= %d" % MAX_POINTS):
        commutator_census(5, MAX_POINTS + 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            commutator_census(5, n)


def test_no_nontrivial_maps_into_fewer_points():
    # B'_k is perfect for k >= 5, so its image is a perfect subgroup of
    # S(4), which is solvable: every image is trivial
    records = [h for h in commutator_census(5, 4) if not h.is_trivial()]
    assert records == []


@pytest.mark.parametrize(
    "k,n",
    [(k, n) for k in (5, 6) for n in range(1, 8)]
    + [(k, n) for k in (7, 8, 9) for n in range(1, k + 3)],
)
def test_each_braid_class_restricts_to_one_commutator_class(census_cache, k, n):
    """Every class of census(k, n), restricted to the commutator subgroup,
    is conjugate to exactly one commutator_census(k, n) class, and every
    commutator class is such a restriction.  For k = 7, 8, 9 it checks the
    Gorin-Lin table past the two strand counts the census first took."""
    classes = commutator_census(k, n)
    hit = set()
    for rec in census_cache(k, n):
        restricted = restrict_braid_hom(rec.hom)
        matches = [i for i, h in enumerate(classes) if are_conjugate(restricted, h)]
        assert len(matches) == 1, rec.to_json()
        hit.update(matches)
    assert hit == set(range(len(classes)))


def _staged_scan(k, n):
    """Reference census, independent of the braid-group census: c1 at one
    representative per cycle type, c2..c_{k-3} over all of S(n), each
    braiding with the one before and commuting with the others, u over all
    of S(n) with v and w forced, one map kept per conjugacy class."""
    sym = oracles.all_permutations(n)
    homs = []
    for c1 in oracles.conjugacy_class_representatives(n):
        same_type = [x for x in sym if x.cycle_type() == c1.cycle_type()]
        chains = [(c1,)]
        for _ in range(k - 4):
            chains = [
                chain + (x,)
                for chain in chains
                for x in same_type
                if chain[-1] * x * chain[-1] == x * chain[-1] * x
                and all(x * c == c * x for c in chain[:-1])
            ]
        for chain in chains:
            c2 = chain[1]
            for u in sym:
                v = c2.inv() * u * c2
                if v * c2 != c2 * u.inv() * v:
                    continue
                try:
                    hom = CommutatorHom(k, n, u, v, u * c1 * u.inv(), chain)
                except ValueError:
                    continue
                homs.append(hom)
    return [cls[0] for cls in oracles.conjugacy_classes(homs)]


@pytest.mark.parametrize(
    "k,n", [(5, 4), (5, 5), (6, 5), (5, 6), (6, 6), (7, 4), (7, 5), (7, 6), (8, 5)]
)
def test_census_agrees_with_the_staged_scan(k, n):
    oracles.class_match(commutator_census(k, n), _staged_scan(k, n))


@pytest.mark.parametrize("k,n", [(5, 5), (6, 5), (5, 6)])
def test_u_search_finds_exactly_the_u_images_that_pass_the_relations(k, n):
    sym = oracles.all_permutations(n)
    for rec in census(k - 2, n):
        c = rec.hom.sigma
        expected = [
            u
            for u in sym
            if _relations_report(
                k, u, c[1].inv() * u * c[1], u * c[0] * u.inv(), c
            )[0]
        ]
        assert relator_solutions(n, _u_relator_words(len(c)), c) == expected


def test_an_invalid_u_image_from_the_search_is_an_error(monkeypatch):
    """Every u the relator search returns is checked against the defining
    relations; one that is not a solution stops the census."""
    module = sys.modules["braidcensus.commutator"]
    solutions = module.relator_solutions

    def with_a_stray_u(n, relators, images=()):
        found = solutions(n, relators, images)
        stray = next(u for u in oracles.all_permutations(n) if u not in found)
        return found + [stray]

    monkeypatch.setattr(module, "relator_solutions", with_a_stray_u)
    with pytest.raises(RuntimeError, match="invalid u-image"):
        commutator_census(5, 5)


def test_an_orbit_representative_that_is_no_u_image_is_an_error(monkeypatch):
    """C(chain) maps the u-images of a chain onto themselves, so the least
    member of each orbit is a u-image; a split that returns anything else
    stops the census."""
    module = sys.modules["braidcensus.commutator"]

    def with_a_stray_orbit(us, gens):
        stray = next(u for u in oracles.all_permutations(us[0].degree) if u not in us)
        return [(stray, 1)]

    monkeypatch.setattr(module, "conjugation_orbits", with_a_stray_orbit)
    with pytest.raises(RuntimeError, match="orbit leaves the u-images"):
        commutator_census(5, 5)


def _odd_chains(k, n):
    """The leaf chains for k-2 strands whose c_1 is an odd permutation."""
    return [
        chain
        for parts in all_partitions(n)
        if sum(p - 1 for p in parts) % 2
        for chain, _, _ in chain_leaves(k - 2, n, parts)
    ]


@pytest.mark.parametrize("k", [5, 6])
def test_chains_with_an_odd_c1_have_no_u_image(k):
    """The census walks only even c_1, because B'_k is perfect and its
    image lies in A_n: the chains it skips give no u-image, by the search
    for n <= 8 and by a scan of S(n) for n <= 5."""
    checked = 0
    for n in range(1, 9):
        for chain in _odd_chains(k, n):
            assert relator_solutions(n, _u_relator_words(len(chain)), chain) == []
            if n <= 5:
                for u in oracles.all_permutations(n):
                    v, w = chain[1].inv() * u * chain[1], u * chain[0] * u.inv()
                    assert not _relations_report(k, u, v, w, chain)[0]
            checked += 1
    assert checked > 0


def test_an_odd_u_image_is_an_error(monkeypatch):
    """A relation table that no longer presents a perfect group lets odd
    u-images through, and then the odd c_1 the census skips could count
    too; the first odd u-image stops the census."""
    module = sys.modules["braidcensus.commutator"]
    relations = module._relations

    def chain_relations_only(k):
        return tuple(r for r in relations(k) if all(abs(g) > 3 for g in r[1] + r[2]))

    monkeypatch.setattr(module, "_relations", chain_relations_only)
    monkeypatch.setattr(module, "_u_relator_words", lambda m: ())
    with pytest.raises(RuntimeError, match="B'_k is perfect"):
        commutator_census(5, 5)
