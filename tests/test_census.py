"""Unit tests for the enumeration engine."""

import itertools
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from braidcensus.census import (
    MAX_POINTS,
    MAX_STRANDS,
    CensusRecord,
    braid_partners,
    census,
    chain_leaves,
    select,
)
from braidcensus.commutator import commutator_census
from braidcensus.homs import BraidHom, from_sigma1_alpha, six_strand_ten_points
from braidcensus.perm import (
    Permutation,
    TupleCentralizer,
    all_partitions,
    canonical_of_cycle_type,
    centralizer_generators,
    conjugation_orbits,
    tuple_centralizer,
)


def _brute_force_classes(k, n):
    """Independent oracle: scan all (k-1)-tuples of permutations that satisfy
    the generator relations and split them into conjugacy classes."""
    sym = oracles.all_permutations(n)
    homs = []
    for images in itertools.product(sym, repeat=k - 1):
        ok = True
        for i in range(k - 1):
            for j in range(i + 2, k - 1):
                if images[i] * images[j] != images[j] * images[i]:
                    ok = False
        for i in range(k - 2):
            if (
                images[i] * images[i + 1] * images[i]
                != images[i + 1] * images[i] * images[i + 1]
            ):
                ok = False
        if ok:
            homs.append(BraidHom(k, n, images))
    return oracles.conjugacy_classes(homs)


@pytest.mark.parametrize("k,n", [(3, 3), (3, 4), (4, 4)])
def test_census_is_complete_at_tiny_scale(k, n):
    records = census(k, n)
    oracle = _brute_force_classes(k, n)
    oracles.class_match([rec.hom for rec in records], [reps[0] for reps in oracle])
    for rec in records:
        assert rec.orbit_size >= 1


def _full_cycle_scan(k, n):
    """Independent oracle: for each class-minimal first image, every
    full-cycle image in S(n) that rebuilds a map, split into orbits under
    the centralizer of the first image."""
    sym = oracles.all_permutations(n)
    out = []
    for s1 in oracles.conjugacy_class_representatives(n):
        valid = [
            alpha for alpha in sym if from_sigma1_alpha(k, n, s1, alpha) is not None
        ]
        for alpha, size in conjugation_orbits(
            valid, centralizer_generators(tuple_centralizer((s1,)))
        ):
            out.append((from_sigma1_alpha(k, n, s1, alpha).sigma, size))
    return out


@pytest.mark.parametrize(
    "k,n",
    [(k, n) for n in range(2, 7) for k in range(3, n + 2)] + [(3, 7), (4, 7)],
)
def test_chain_search_agrees_with_the_full_cycle_scan(k, n):
    records = census(k, n)
    assert [(r.hom.sigma, r.orbit_size) for r in records] == _full_cycle_scan(k, n)


@pytest.mark.parametrize("k,n", [(6, 9), (8, 8), (7, 10), (8, 10)])
def test_level_wise_census_matches_the_walking_census(census_cache, k, n):
    """One leaf per class, weighted, and the least alpha found by search
    give the records that walking every chain and every orbit gives."""
    records = census_cache(k, n)
    found = [(r.hom.sigma[0].images, r.alpha.images, r.orbit_size) for r in records]
    assert found == oracles.walking_census(k, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_leaf_chain_is_the_least_of_its_orbit_under_the_first_centralizer(n):
    """Each level keeps the least member of its orbit, so a leaf chain is
    the least of its conjugates by C(s1), tuples compared image by image;
    the commutator census prints its classes on that ground.  C(s1) is
    found here by scanning S(n), and the weight is the orbit size."""
    for parts in all_partitions(n):
        s1 = canonical_of_cycle_type(parts, n)
        cent = [g for g in oracles.all_permutations(n) if g * s1 == s1 * g]
        for k in range(3, 6):
            for chain, weight, _ in chain_leaves(k, n, parts):
                orbit = {tuple(c.conj(g) for c in chain) for g in cent}
                assert chain == min(orbit)
                assert weight == len(orbit)


def test_census_is_deterministic_across_worker_counts(fresh_tree):
    single = census(3, 5, workers=1)
    multi = census(3, 5, workers=2)
    assert [r.hom for r in single] == [r.hom for r in multi]
    assert [r.orbit_size for r in single] == [r.orbit_size for r in multi]
    again = census(3, 5, workers=1)
    assert [r.hom for r in single] == [r.hom for r in again]
    # Each pool worker keeps its own tree and builds its fertile roots, here
    # from an empty one.
    fresh_tree.clear()
    multi = census(6, 9, workers=2)
    assert multi == census(6, 9, workers=1)


def test_every_record_validates_and_reconstructs(census_cache):
    for rec in census_cache(4, 5):
        assert rec.hom.satisfies_relations()
        product = Permutation.identity(rec.hom.n)
        for g in rec.hom.sigma:
            product = product * g
        assert product == rec.hom.alpha() == rec.alpha


def test_cyclic_classes_are_keyed_by_cycle_type(census_cache):
    for k, n in [(3, 5), (4, 5), (5, 6)]:
        cyclic = select(census_cache(k, n), cyclic=True)
        types = [r.hom.sigma[0].cycle_type() for r in cyclic]
        assert len(set(types)) == len(types)
        assert len(types) == len(all_partitions(n))


def test_each_cycle_type_has_one_constant_class_of_orbit_size_one(census_cache):
    """The census does not search past s_2 = s_1; the constant chain it
    records there is a class of its own, fixed by the centralizer."""
    n = 6
    for k in range(3, 7):
        records = census_cache(k, n)
        for parts in all_partitions(n):
            s = canonical_of_cycle_type(parts, n)
            constant = [r for r in records if r.hom.sigma == (s,) * (k - 1)]
            assert [r.orbit_size for r in constant] == [1]


def test_transitive_non_cyclic_records_are_primitive_at_moderate_degree(
    census_cache,
):
    for k, n in [(5, 5), (5, 6), (5, 7), (6, 6), (6, 7), (6, 8), (6, 9), (7, 7), (7, 8)]:
        if not (4 < k and n < 2 * k):
            continue
        for rec in select(census_cache(k, n), transitive=True, cyclic=False):
            assert rec.hom.group().is_primitive(), rec.to_json()


def test_explicit_ten_point_construction_without_full_sweep():
    h = six_strand_ten_points()
    assert h.is_transitive()
    assert not h.is_cyclic()


def test_select_filters():
    records = census(3, 4)
    assert select(records, transitive=True, cyclic=True) == [
        r for r in records if r.transitive and r.cyclic
    ]
    assert len(select(records)) == len(records)


def test_record_serialization(census_cache):
    rec = census_cache(3, 4)[0]
    data = rec.to_json()
    assert data["orbit_size"] == rec.orbit_size
    assert BraidHom.from_json(data["hom"]) == rec.hom


def test_census_rejects_too_few_strands():
    with pytest.raises(ValueError):
        census(2, 4)


def test_census_rejects_more_strands_than_it_can_hold():
    for k in (MAX_STRANDS + 1, 10**20):
        with pytest.raises(ValueError, match="k must be <= %d" % MAX_STRANDS):
            census(k, 3)


def test_a_census_at_the_strand_bound_finishes_in_a_second():
    """On fewer points than strands, k >= 5, every class is cyclic, and a
    cyclic map is accepted without the walk of its (k - 1)(k - 2)/2 Artin
    relations."""
    start = time.perf_counter()
    records = census(MAX_STRANDS, 3)
    assert time.perf_counter() - start < 1.0
    assert len(records) == 3
    assert all(r.hom.is_cyclic() for r in records)


def test_census_rejects_more_points_than_can_finish():
    for n in (MAX_POINTS + 1, 80):
        with pytest.raises(ValueError, match="n must be <= %d" % MAX_POINTS):
            census(3, n)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_censuses_of_fewer_points_count_every_intransitive_map(census_cache, k):
    """The exponential formula: the maps of census(k, n), counted from
    orbit sizes, are what the transitive maps of the censuses of at most n
    points make, for n <= 10.  A search that loses whole centralizer orbits
    passes every runtime check of the census but not this count.  Budget:
    5 s per k (about 0.4 s when run alone)."""
    start = time.monotonic()
    counts = [oracles.map_counts(census_cache(k, n)) for n in range(1, 11)]
    h = [1] + [h for h, _ in counts]
    t = [0] + [t for _, t in counts]
    assert oracles.exponential_transform(t) == h
    assert time.monotonic() - start < 5.0


def test_three_strand_censuses_count_the_pairs_of_roots(census_cache):
    """|Hom(B_3, S(n))| from root counts per cycle type, which use no
    search, equals the map count of census(3, n) for n <= 11.  Budget: 5 s
    (about 0.6 s when run alone)."""
    start = time.monotonic()
    for n in range(1, 12):
        h, _ = oracles.map_counts(census_cache(3, n))
        assert h == oracles.three_strand_map_count(n), n
    assert time.monotonic() - start < 5.0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_census_record_json_round_trip(census_cache, data):
    """A record's JSON rebuilds its map through ``BraidHom.from_json``, and
    the rebuilt record writes the same JSON."""
    k, n = data.draw(st.sampled_from([(3, 4), (3, 5), (4, 5), (3, 6), (5, 6), (6, 6)]))
    record = data.draw(st.sampled_from(census_cache(k, n)))
    payload = json.loads(json.dumps(record.to_json()))
    hom = BraidHom.from_json(payload["hom"])
    assert hom == record.hom
    assert CensusRecord(hom, payload["orbit_size"], hom.alpha()).to_json() == payload


# The package attribute braidcensus.census is the function, so the module
# is taken from sys.modules.
CENSUS_MODULE = sys.modules["braidcensus.census"]


def test_partner_relators_are_the_artin_relations_of_the_next_generator():
    """The partner search reads its relators from ``words.braid_relations``:
    for a chain of i images, x = letter i + 1 braids with letter i and
    commutes with letters 1..i-1, as relator words."""
    for i in range(1, 7):
        x = i + 1
        by_hand = {(i, x, i, -x, -i, -x)} | {(x, c, -x, -c) for c in range(1, i)}
        relators = CENSUS_MODULE._partner_relators(i)
        assert len(relators) == i
        assert set(relators) == by_hand


def test_a_lost_chain_breaks_the_orbit_count(fresh_tree, monkeypatch):
    """Past sigma_2 the centralizer of the prefix maps the partners onto
    themselves, so a partner search that drops a partner leaves the
    centralizer orbits covering more partners than were found.  The node
    that fails the count is not remembered."""
    partners = CENSUS_MODULE.braid_partners
    searched = []

    def all_but_the_last(chain, symmetry=None):
        searched.append(chain)
        found = partners(chain, symmetry=symmetry)
        return found[:-1] if len(chain) > 1 else found

    monkeypatch.setattr(CENSUS_MODULE, "braid_partners", all_but_the_last)
    with pytest.raises(RuntimeError, match="centralizer orbits do not count"):
        census(4, 6)
    assert searched[-1] not in fresh_tree[6]


def test_a_wrong_centralizer_order_breaks_the_class_weight(fresh_tree, monkeypatch):
    """A leaf's weight counts the maps of its class by orbit walks; the
    centralizer order counts them again by constituents, and must agree."""
    exact = CENSUS_MODULE.tuple_centralizer

    def doubled(perms):
        cent = exact(perms)
        if len(perms) == 1:
            return cent
        return TupleCentralizer(
            copies=cent.copies,
            constituents=cent.constituents,
            order=2 * cent.order,
            copy_of=cent.copy_of,
            orbit_of=cent.orbit_of,
        )

    monkeypatch.setattr(CENSUS_MODULE, "tuple_centralizer", doubled)
    with pytest.raises(RuntimeError, match="weight and centralizer order"):
        census(3, 4)


def test_censuses_at_one_point_count_share_the_chain_tree(fresh_tree, monkeypatch):
    """A node's partners do not depend on k, so censuses at 8 points in any
    order search each chain at most once, build each cycle type's fertile
    root at most once, and a census repeated searches nothing.  The order
    builds full roots beside fertile ones and fertile roots beside full
    ones."""
    partners = CENSUS_MODULE.braid_partners
    fertile = CENSUS_MODULE._fertile_partners
    searched, rooted = [], []

    def spy(chain, symmetry=None):
        searched.append(chain)
        return partners(chain, symmetry=symmetry)

    def root_spy(s1, parts):
        rooted.append(parts)
        return fertile(s1, parts)

    monkeypatch.setattr(CENSUS_MODULE, "braid_partners", spy)
    monkeypatch.setattr(CENSUS_MODULE, "_fertile_partners", root_spy)
    done = set()
    for k in (4, 8, 6, 7, 8, 4):
        before = len(searched)
        census(k, 8)
        if k in done:
            assert len(searched) == before, k
        done.add(k)
    assert searched
    assert len(set(searched)) == len(searched)
    assert rooted
    assert len(set(rooted)) == len(rooted)


def test_census_6_9_makes_fewer_than_155_partner_searches(fresh_tree, monkeypatch):
    """From k = 5 on the root searches only the s_2 whose centralizer holds
    an element of s_1's cycle type, so census(6, 9) makes fewer than half
    of the 310 partner searches it makes when the root holds every
    partner and no chain is left out."""
    partners = CENSUS_MODULE.braid_partners
    searched = []

    def spy(chain, symmetry=None):
        searched.append(chain)
        return partners(chain, symmetry=symmetry)

    monkeypatch.setattr(CENSUS_MODULE, "braid_partners", spy)
    census(6, 9)
    assert 0 < len(searched) < 310 / 2


def test_a_census_at_another_point_count_drops_roots_with_both_orbit_sets(fresh_tree):
    """The tree holds no verdicts, only partner orbits, and the whole tree
    belongs to its point count: after census(6, 8) and census(4, 8) have
    left roots with both orbit sets, census(3, 9) keeps no chain on 8
    points and builds full roots only."""
    census(6, 8)
    census(4, 8)
    assert all(None not in entry for entry in _roots(fresh_tree[8]))
    census(3, 9)
    assert list(fresh_tree) == [9]
    assert all(chain[0].degree == 9 for chain in fresh_tree[9])
    assert all(fertile is None for _, fertile, _ in _roots(fresh_tree[9]))


@pytest.mark.parametrize(
    "ks",
    [
        (4, 6, 7, 8),
        (8, 7, 6, 4),
        (6, 8, 4, 7),
        (8, 4, 7, 6),
        (6, 7, 8, 4),
        (7, 4, 8, 6),
        (4, 6, 8, 7),
    ],
)
def test_a_shared_tree_gives_the_records_of_an_empty_one(fresh_tree, ks):
    """census(k, 8) after censuses of other k at 8 points, in either order,
    equals census(k, 8) run on an empty memo, and so does a run with two
    workers started from the shared tree."""
    shared = {k: census(k, 8) for k in ks}
    assert census(ks[0], 8, workers=2) == shared[ks[0]]
    for k in ks:
        fresh_tree.clear()
        assert shared[k] == census(k, 8)


def test_a_commutator_census_after_a_census_gives_the_records_of_an_empty_tree(
    fresh_tree,
):
    """The commutator census walks the same tree for k - 2 strands, so
    after census(4, 6) it reads nodes that census expanded."""
    census(4, 6)
    shared = commutator_census(6, 6)
    fresh_tree.clear()
    assert shared == commutator_census(6, 6)


def _roots(tree):
    return [entry for chain, entry in tree.items() if len(chain) == 1]


def test_a_full_root_is_kept_beside_a_fertile_one_for_fewer_strands(fresh_tree):
    """A full root no longer replaces a fertile one: census(6, 9) builds
    fertile roots only, census(3, 9) and census(4, 9) need every chain of
    two images, so they build full roots beside them, and a census(7, 9)
    after them reads the fertile ones.  Each census equals its run on an
    empty tree."""
    shared = {k: census(k, 9) for k in (6, 3, 4, 7)}
    roots = _roots(fresh_tree[9])
    assert all(fertile and full for _, fertile, full in roots)
    assert any(len(fertile) < len(full) for _, fertile, full in roots)
    for k in (6, 3, 4, 7):
        fresh_tree.clear()
        assert shared[k] == census(k, 9)


def test_a_commutator_census_after_a_fertile_root_gives_the_records_of_an_empty_tree(
    fresh_tree,
):
    """census(6, 6) leaves fertile roots only; commutator_census(6, 6) walks
    chains of B_4 for the even cycle types, which needs full roots beside
    theirs."""
    census(6, 6)
    assert all(full is None for _, _, full in _roots(fresh_tree[6]))
    shared = commutator_census(6, 6)
    assert any(fertile and full for _, fertile, full in _roots(fresh_tree[6]))
    fresh_tree.clear()
    assert shared == commutator_census(6, 6)


def _fertile_orbits_by_filter(parts, n):
    """The orbits of the full root, kept where C(s1, s2) holds an element of
    s1's cycle type (the reference class enumerator finds one), and the
    constant chain's."""
    s1 = canonical_of_cycle_type(parts, n)
    root = tuple_centralizer((s1,))
    orbits = conjugation_orbits(
        braid_partners((s1,), symmetry=root), centralizer_generators(root)
    )
    return [
        (s2, size)
        for s2, size in orbits
        if s2 == s1
        or oracles.centralizer_classes_of_type(tuple_centralizer((s1, s2)), parts)
    ]


@pytest.mark.parametrize(
    "n,types",
    [(n, None) for n in range(2, 12)]
    + [
        (
            12,
            [
                (2,) * 4 + (1,) * 4,
                (2,) * 3 + (1,) * 6,
                (3, 2, 2, 2, 1, 1, 1),
                (4, 2, 2, 2, 1, 1),
                (3, 3, 2, 2, 2),
                (4, 4, 2, 2),
                (2,) * 6,
            ],
        )
    ],
)
def test_the_fertile_root_holds_exactly_the_fertile_orbits(fresh_tree, n, types):
    """From k = 5 on, the root of a cycle type holds the orbits of the s2
    that braid with s1 and commute with an element of s1's cycle type in
    C(s1), found class by class; they must be the orbits of the full root
    whose centralizer holds such an element, and the constant one.  Every
    type for
    n <= 11, and at n = 12 seven types with three to six fertile orbits
    each: about 0.5 s in all."""
    for parts in types or all_partitions(n):
        next(chain_leaves(5, n, parts), None)
        s1 = canonical_of_cycle_type(parts, n)
        _, fertile, full = fresh_tree[n][s1,]
        assert full is None
        assert list(fertile) == _fertile_orbits_by_filter(parts, n), parts


def test_a_barren_partner_of_a_fertile_root_is_an_error(fresh_tree, monkeypatch):
    """Each partner x found for the chain (y, s1) of a fertile root must
    commute with y, which certifies that C(s1, x) holds an element of s1's
    cycle type; a search that returns one that does not is a fault in the
    root, not a chain to keep."""
    partners, fertile = CENSUS_MODULE.braid_partners, CENSUS_MODULE._fertile_partners
    rooting, injected = [], []

    def with_a_barren_one(chain, symmetry=None):
        found = partners(chain, symmetry=symmetry)
        if rooting and not injected:
            y, s1 = chain
            for x in partners((s1,)):
                if x * y != y * x:
                    injected.append(x)
                    return sorted(found + [x])
        return found

    def rooted(s1, parts):
        rooting.append(s1)
        try:
            return fertile(s1, parts)
        finally:
            rooting.pop()

    monkeypatch.setattr(CENSUS_MODULE, "braid_partners", with_a_barren_one)
    monkeypatch.setattr(CENSUS_MODULE, "_fertile_partners", rooted)
    with pytest.raises(RuntimeError, match="fertile root is barren"):
        census(6, 8)
    assert injected


def test_a_census_at_another_point_count_drops_the_old_tree(fresh_tree):
    """The memo holds one point count's tree: after census(4, 8) and then
    census(3, 9), no chain on 8 points is kept."""
    census(4, 8)
    census(3, 9)
    assert list(fresh_tree) == [9]
    assert fresh_tree[9]
    assert all(chain[0].degree == 9 for chain in fresh_tree[9])


def test_a_representative_that_does_not_rebuild_is_an_error(monkeypatch):
    monkeypatch.setattr(CENSUS_MODULE, "from_sigma1_alpha", lambda *args: None)
    with pytest.raises(RuntimeError, match="fails to rebuild"):
        census(3, 3)
