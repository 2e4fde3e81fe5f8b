"""Unit tests for braid words, the reduction oracle, and degree arithmetic."""

import inspect
import random

import pytest

import oracles
from braidcensus.homs import standard_hom
from braidcensus.perm import Permutation
from braidcensus.words import (
    alpha_word,
    band_beta_word,
    band_word,
    beta_word,
    braid_relations,
    cable_hom,
    commutator,
    conjugate,
    free_reduce,
    half_twist_band,
    handle_reduce,
    inverse,
    is_trivial,
    perm_image,
    power,
    progression_degrees,
    special_params,
    word,
    words_equal,
)


def test_free_reduction_and_word_algebra():
    assert free_reduce((1, -1, 2, 3, -3, -2)) == ()
    assert inverse((1, 2, -3)) == (3, -2, -1)
    assert power((1, 2), -2) == (-2, -1, -2, -1)
    assert conjugate((2,), (1,)) == (1, 2, -1)
    assert commutator((1,), (2,)) == (-1, -2, 1, 2)
    assert oracles.exponent_sum((1, 1, -2, 3)) == 2


def test_reduction_oracle_decides_the_braid_relations():
    # far commutation and adjacent braiding reduce to the empty word
    assert is_trivial((1, 3, -1, -3))
    assert is_trivial((1, 2, 1, -2, -1, -2))
    # adjacent generators do not commute
    assert not is_trivial((1, 2, -1, -2))
    assert not is_trivial((1,))
    assert words_equal((1, 2, 1), (2, 1, 2))


def test_braid_relations_list_each_artin_relation_once():
    for k in range(2, 9):
        rels = list(braid_relations(k))
        far = [(lhs, rhs) for lhs, rhs in rels if len(lhs) == 2]
        # The far commutations come first, written s_q s_p = s_p s_q.
        assert rels[: len(far)] == far
        assert all(lhs[0] > lhs[1] + 1 and rhs == lhs[::-1] for lhs, rhs in far)
        assert sorted(rhs for _, rhs in far) == [
            (i, j) for i in range(1, k) for j in range(i + 2, k)
        ]
        assert rels[len(far) :] == [
            ((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, k - 1)
        ]
        assert all(words_equal(lhs, rhs) for lhs, rhs in rels)


def test_each_braid_relation_has_two_positive_sides_of_one_length():
    """The premise of the cyclic shortcut of ``BraidHom.satisfies_relations``
    and of the constant-chain one of ``commutator._relations_report``: equal
    images send both sides of every relation to one power."""
    for k in range(2, 13):
        for lhs, rhs in braid_relations(k):
            assert len(lhs) == len(rhs)
            assert all(0 < g < k for g in lhs + rhs)


def test_reduction_oracle_agrees_with_the_symmetric_projection():
    rng = random.Random(17)
    k = 5
    letters = [i for i in range(1, k)] + [-i for i in range(1, k)]
    for _ in range(200):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 12)))
        assert is_trivial(w + inverse(w))
        if is_trivial(w):
            assert standard_hom(k)(w).is_identity()
    for _ in range(50):
        w = tuple(rng.choice(letters) for _ in range(8))
        assert oracles.exponent_sum(handle_reduce(w)) == oracles.exponent_sum(w)


def test_handle_reduction_stops_at_its_step_bound():
    braid_relation = (1, 2, 1, -2, -1, -2)  # one handle step to the empty word
    assert isinstance(
        inspect.signature(handle_reduce).parameters["max_steps"].default, int
    )
    assert handle_reduce(braid_relation) == ()
    assert handle_reduce(braid_relation, max_steps=1) == ()
    with pytest.raises(RuntimeError, match="exceeded 0 steps"):
        handle_reduce(braid_relation, max_steps=0)


def test_full_cycle_and_band_projections():
    for k in (3, 4, 5, 6):
        assert standard_hom(k)(alpha_word(k)) == Permutation.from_cycles(
            [tuple(range(1, k + 1))], k
        )
        assert standard_hom(k)(beta_word(k)) == Permutation.from_cycles(
            [(1,) + tuple(range(3, k + 1))], k
        )
    assert standard_hom(5)(band_word(2, 4)) == Permutation.from_cycles(
        [(2, 3, 4)], 5
    )
    assert band_beta_word(2, 4) == band_word(2, 4) + (2,)
    assert oracles.exponent_sum(half_twist_band(4)) == 6


def test_two_generator_relators_are_trivial():
    for k in range(3, 8):
        for name, lhs, rhs in oracles.two_generator_relators(k):
            assert words_equal(lhs, rhs), (k, name)


def test_degree_parameter_errors():
    with pytest.raises(ValueError):
        special_params(2, 10)
    with pytest.raises(ValueError):
        special_params(4, 12)


def test_degree_progressions_have_fixed_step():
    table = progression_degrees(5, 100)
    assert table[1][:3] == [5, 25, 45]
    assert table[2][:2] == [20, 40]
    assert table[3][:2] == [21, 41]
    assert table[4][:3] == [16, 36, 56]


def test_special_parameter_records_are_internally_consistent():
    for k in (3, 5, 6, 7):
        for n in range(2, 61):
            for rec in special_params(k, n):
                assert rec["n"] == n
                assert rec["l"] >= 1 or rec["case"] == 1
                assert rec["alpha_unit"] in ("a", "b")
                assert rec["beta_unit"] in ("a", "b")
                if rec["t_coprime_to"] is not None:
                    assert rec["t_coprime_to"] == k * (k - 1)


def test_cabling_words():
    # doubling a single strand pair: the doubled generator has exponent
    # sum 1 + m*m for m = 2
    assert oracles.exponent_sum(cable_hom(2, 2, (1,))[0]) == 5
    images = cable_hom(3, 2)
    assert len(images) == 2
    assert words_equal(
        images[0] + images[1] + images[0],
        images[1] + images[0] + images[1],
    )


def test_word_helper_validates_letters():
    for bad in ((0,), (1.5,), (True, 2), ("1",)):
        with pytest.raises(ValueError):
            word(bad)
    assert word((1, -2)) == (1, -2)


def _walk(w, images, n):
    """The image of w, point by point: each point passes through the
    letters from the right, an inverse letter by a lookup of its preimage."""
    out = []
    for x in range(1, n + 1):
        for letter in reversed(w):
            g = images[abs(letter) - 1].images
            x = g[x - 1] if letter > 0 else g.index(x) + 1
        out.append(x)
    return Permutation(out)


def test_perm_image_is_the_pointwise_walk():
    rng = random.Random(14)
    points = list(range(1, 7))
    for _ in range(300):
        images = [
            Permutation(rng.sample(points, 6)) for _ in range(rng.randint(1, 4))
        ]
        m = len(images)
        letters = [g for g in range(-m, m + 1) if g]
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        assert perm_image(w, images) == _walk(w, images, 6), (w, images)
    assert perm_image((), images) == Permutation.identity(6)
    for bad in ((0,), (1, m + 1), (-(m + 1), 1)):
        with pytest.raises(ValueError, match="names no generator"):
            perm_image(bad, images)
    with pytest.raises(ValueError, match="at least one generator image"):
        perm_image((), [])


def test_full_cycle_images_are_the_walk_on_alpha_and_beta():
    for h in oracles.named_homs():
        assert h.alpha() == _walk(alpha_word(h.k), h.sigma, h.n), h.to_json()
        assert h.beta() == _walk(beta_word(h.k), h.sigma, h.n), h.to_json()
