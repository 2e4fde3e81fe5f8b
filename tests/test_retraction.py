"""Unit tests for the cycle-label retraction."""

import pytest

from braidcensus.homs import (
    doubled_standard_classes,
    five_strand_six_points,
    standard_hom,
)
from braidcensus.perm import Permutation, r_component
from braidcensus.retraction import (
    block_map,
    block_projection,
    cycle_label_action,
    label_image,
    label_table_report,
    label_tables_clean,
    normalize,
    omega,
    omega_star,
    restriction_hom,
)


def test_normalize_puts_cycles_in_standard_position():
    hom = five_strand_six_points()
    normed, t = normalize(hom, 2)
    assert t == 3
    comp = r_component(normed.sigma[0], 2)
    assert sorted(tuple(sorted(c)) for c in comp.cycles) == [
        (1, 2),
        (3, 4),
        (5, 6),
    ]


def test_normalize_requires_cycles_of_the_requested_length():
    with pytest.raises(ValueError):
        normalize(standard_hom(5), 3)


def test_block_projection_and_splitting_are_inverse():
    s = Permutation.from_cycles("(1,3,2)", 4)
    lifted = block_map(s, 3, (0,) * 4)
    assert lifted.degree == 12
    assert block_projection(lifted, 3, 4) == s
    with pytest.raises(ValueError):
        block_projection(Permutation.from_cycles("(2,3)", 4), 2, 2)


def test_cycle_label_action_detects_mismatches():
    cycles = [
        Permutation.from_cycles("(1,2)", 4),
        Permutation.from_cycles("(3,4)", 4),
    ]
    swap = Permutation.from_cycles("(1,3)(2,4)", 4)
    assert cycle_label_action(swap, cycles) == Permutation.from_cycles(
        "(1,2)", 2
    )
    with pytest.raises(ValueError):
        cycle_label_action(Permutation.from_cycles("(1,3)", 4), cycles)


def test_label_image_needs_far_generators():
    hom, _ = normalize(five_strand_six_points(), 2)
    with pytest.raises(ValueError):
        label_image(hom, 2, 1, 2)
    assert label_image(hom, 2, 1, 3).degree == 3


def test_retraction_needs_at_least_four_strands():
    with pytest.raises(ValueError):
        omega(standard_hom(3), 2)


def test_end_retractions_agree_on_the_models():
    for k in (5, 6):
        for hom in doubled_standard_classes(k)[1:]:
            for r in sorted(set(hom.sigma[0].cycle_type())):
                normed, _ = normalize(hom, r)
                assert omega(normed, r).sigma == omega_star(normed, r).sigma


def test_restriction_projects_onto_the_retraction():
    hom = doubled_standard_classes(6)[2]
    normed, t = normalize(hom, 2)
    rest = restriction_hom(hom, 2)
    om = omega(normed, 2)
    assert rest.n == 2 * t
    for i in range(hom.k - 3):
        assert block_projection(rest.sigma[i], 2, t) == om.sigma[i]


def test_label_table_report_keys():
    report = label_table_report(five_strand_six_points(), 2)
    assert set(report) == {
        "ends_agree",
        "restriction_projects",
        "shift_to_last",
        "shift_to_first",
    }
    assert all(report.values())
    assert label_tables_clean(five_strand_six_points(), 2)
