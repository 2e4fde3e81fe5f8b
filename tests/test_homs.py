"""Unit tests for braid-group homomorphisms and the named catalog."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from braidcensus.homs import (
    BraidHom,
    are_conjugate,
    cyclic_hom,
    doubled_standard_classes,
    exceptional_hom_six,
    exceptional_homs_four,
    five_strand_six_points,
    from_alpha_beta,
    from_sigma1_alpha,
    six_point_outer_map,
    six_strand_ten_points,
    standard_hom,
    strand_collapse_words,
    three_strand_catalog,
    transposition_pair_hom,
)
from braidcensus.perm import Permutation
from braidcensus.words import cable_hom


def test_invalid_generator_images_are_rejected():
    # adjacent braiding fails for two disjoint transpositions
    with pytest.raises(ValueError):
        BraidHom(
            3,
            4,
            (
                Permutation.from_cycles("(1,2)", 4),
                Permutation.from_cycles("(3,4)", 4),
            ),
        )
    # far commutation fails for overlapping 3-cycles
    with pytest.raises(ValueError):
        BraidHom(
            4,
            5,
            (
                Permutation.from_cycles("(1,2,3)", 5),
                Permutation.from_cycles("(1,2,3)", 5),
                Permutation.from_cycles("(3,4,5)", 5),
            ),
        )
    # wrong number of generator images
    with pytest.raises(ValueError):
        BraidHom(4, 3, (Permutation.from_cycles("(1,2)", 3),))


def test_standard_map_properties():
    for k in range(3, 8):
        h = standard_hom(k)
        assert not h.is_cyclic()
        assert h.is_transitive()
        assert h.alpha() == Permutation.from_cycles(
            [tuple(range(1, k + 1))], k
        )
        assert h((1, 2, 1)) == h((2, 1, 2))


def test_cyclic_maps():
    g = Permutation.from_cycles("(1,2,3)", 4)
    h = cyclic_hom(5, g)
    assert h.is_cyclic()
    assert not h.is_transitive()
    assert h.n == 4 and h.k == 5


def test_reconstruction_from_first_generator_and_full_cycle():
    for h in oracles.named_homs():
        rebuilt = from_sigma1_alpha(h.k, h.n, h.sigma[0], h.alpha())
        assert rebuilt == h
    # an incompatible seed pair yields nothing
    assert (
        from_sigma1_alpha(
            4,
            4,
            Permutation.from_cycles("(1,2)", 4),
            Permutation.from_cycles("(1,2)(3,4)", 4),
        )
        is None
    )


def test_alpha_beta_construction_matches():
    h = standard_hom(5)
    assert from_alpha_beta(5, 5, h.alpha(), h.beta()) == h


def test_conjugation_and_conjugacy_detection():
    rng = random.Random(9)
    for h in [standard_hom(5), five_strand_six_points()]:
        imgs = list(range(1, h.n + 1))
        rng.shuffle(imgs)
        g = Permutation(imgs)
        assert are_conjugate(h, h.conjugate(g))
    assert not are_conjugate(standard_hom(6), exceptional_hom_six())
    a, b, c = exceptional_homs_four()
    assert not are_conjugate(a, b)
    assert not are_conjugate(a, c)
    assert not are_conjugate(b, c)


def test_generator_images_share_one_cycle_type():
    for h in oracles.named_homs():
        types = {g.cycle_type() for g in h.sigma}
        assert len(types) == 1, h.to_json()


def test_full_cycle_orders_divide_as_expected():
    # for non-cyclic maps away from four strands, the full-cycle image has
    # order divisible by k and the successor image order divisible by k-1
    for h in oracles.named_homs():
        if h.k == 4 or h.is_cyclic():
            continue
        assert h.alpha().order() % h.k == 0, h.to_json()
        assert h.beta().order() % (h.k - 1) == 0, h.to_json()


def test_catalog_transitivity_flags():
    catalog = three_strand_catalog()
    intransitive = sorted(
        key for key, h in catalog.items() if not h.is_transitive()
    )
    # the fifth six-point entry generates a group fixing no point but
    # splitting the points into two orbits; every other entry is transitive
    assert intransitive == [(6, 5)]


def test_six_point_outer_automorphism():
    table = six_point_outer_map()
    assert len(table) == 720
    rng = random.Random(13)
    elems = list(table)
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert table[a * b] == table[a] * table[b]
    swap = Permutation.from_cycles("(1,2)", 6)
    assert table[swap].cycle_type() == (2, 2, 2)
    assert are_conjugate(oracles.apply_outer_six(standard_hom(6)), exceptional_hom_six())
    assert are_conjugate(oracles.apply_outer_six(exceptional_hom_six()), standard_hom(6))


def test_five_strand_map_restricts_the_exceptional_six_strand_map():
    nu = exceptional_hom_six()
    restricted = BraidHom(5, 6, nu.sigma[:4])
    assert are_conjugate(restricted, five_strand_six_points())


def test_strand_collapse_words_induce_a_three_strand_map():
    words = strand_collapse_words()
    collapsed = oracles.compose_word_map(standard_hom(3), words)
    assert collapsed.k == 4
    assert not collapsed.is_cyclic()
    assert collapsed.sigma[0] == collapsed.sigma[2]


def test_transposition_pair_map():
    h = transposition_pair_hom(5)
    assert not h.is_cyclic()
    assert not h.is_transitive()
    assert h.n == 7


def test_doubled_standard_classes_are_distinct_lifts():
    homs = doubled_standard_classes(5)
    assert len(homs) == 4
    for a, b in itertools.combinations(homs, 2):
        assert not are_conjugate(a, b)
    pairing = Permutation.from_cycles(
        [(2 * i - 1, 2 * i) for i in range(1, 6)], 10
    )
    for h in homs:
        for i, g in enumerate(h.sigma, start=1):
            # every image permutes the point pairing {2j-1, 2j} blockwise
            for j in range(1, 6):
                lo, hi = sorted((g(2 * j - 1), g(2 * j)))
                assert lo % 2 == 1 and hi == lo + 1
            # and the i-th image maps pair i onto pair i+1
            assert {g(2 * i - 1), g(2 * i)} == {2 * i + 1, 2 * i + 2}


def test_product_and_extension():
    h = oracles.product_hom(
        standard_hom(3), cyclic_hom(3, Permutation.from_cycles("(1,2)", 2))
    )
    assert h.n == 5
    assert not h.is_transitive()
    e = standard_hom(3).extend(5)
    assert e.n == 5
    assert e.sigma[0](5) == 5


def test_serialization_roundtrip():
    h = five_strand_six_points()
    assert BraidHom.from_json(h.to_json()) == h


def test_remote_degree_example_validates():
    h = six_strand_ten_points()
    assert h.is_transitive()
    assert not h.is_cyclic()
    assert h.group().order() == 720


@st.composite
def _braid_homs(draw):
    """A named map conjugated by any permutation, or a cyclic map."""
    if draw(st.booleans()):
        h = draw(st.sampled_from(oracles.named_homs()))
        g = draw(st.permutations(range(1, h.n + 1)))
        return h.conjugate(Permutation(g))
    n = draw(st.integers(1, 7))
    g = draw(st.permutations(range(1, n + 1)))
    return cyclic_hom(draw(st.integers(2, 6)), Permutation(g))


@settings(max_examples=200, deadline=None)
@given(_braid_homs())
def test_json_round_trip(h):
    back = BraidHom.from_json(json.loads(json.dumps(h.to_json())))
    assert back == h
    assert back.to_json() == h.to_json()


_PRODUCTS = [
    oracles.product_hom(a, b)
    for a in oracles.named_homs()
    for b in oracles.named_homs()
    if a.k == b.k > 2 and a.n + b.n <= 8
]


@st.composite
def _cablings(draw):
    """The standard map on k*m <= 9 strands precomposed with m-cabling."""
    k, m = draw(st.sampled_from([(3, 2), (3, 3), (4, 2)]))
    letters = [x for x in range(1 - m, m) if x]
    v = draw(st.lists(st.sampled_from(letters), max_size=3))
    return oracles.compose_word_map(standard_hom(k * m), cable_hom(k, m, v))


@settings(max_examples=100, deadline=None)
@given(
    h=st.one_of(
        _braid_homs().filter(lambda h: h.k > 2),
        st.sampled_from(_PRODUCTS),
        _cablings(),
    )
)
def test_derived_maps_land_in_exactly_one_census_class(census_cache, h):
    """A conjugate of a named or cyclic map, a disjoint product of two named
    maps, or a cabling is conjugate to exactly one census record."""
    records = census_cache(h.k, h.n)
    assert sum(are_conjugate(h, rec.hom) for rec in records) == 1, h.to_json()
