import pytest

from harbourne.criteria import (
    MODE_ABSOLUTE,
    MODE_COMPLEX,
    apply_all,
    enumerate_line_profiles,
    hirzebruch_filter,
    multiplicity_sum_filter,
    parity_profile_filter,
    two_pencils_filter,
)
from harbourne.incidence import feasible_arrangement
from harbourne.tspace import TVector, enumerate_tvectors


def tv(d, counts):
    return TVector.from_mapping(d, counts)


class TestMultiplicitySum:
    def test_d5_triangular_violation(self):
        v = multiplicity_sum_filter(tv(5, {2: 1, 3: 3}))
        assert v.is_excluded and v.criterion == "multiplicity_sum"
        assert "r=3" in v.detail

    def test_d8_with_sixfold_point(self):
        v = multiplicity_sum_filter(tv(8, {2: 1, 3: 4, 6: 1}))
        assert v.is_excluded and "r=3" in v.detail

    def test_two_sixfold_points_on_nine_lines(self):
        v = multiplicity_sum_filter(tv(9, {3: 2, 6: 2}))
        assert v.is_excluded and "r=2" in v.detail

    def test_all_double_points_pass(self):
        assert not multiplicity_sum_filter(tv(4, {2: 6})).is_excluded


class TestTwoPencils:
    def test_d10_case_with_five_and_four(self):
        v = two_pencils_filter(tv(10, {2: 2, 3: 7, 4: 2, 5: 1}))
        assert v.is_excluded and v.criterion == "two_pencils"

    def test_dual_hesse_passes(self):
        assert not two_pencils_filter(tv(9, {3: 12})).is_excluded

    def test_d8_realizable_vector_passes(self):
        assert not two_pencils_filter(tv(8, {2: 4, 3: 6, 4: 1})).is_excluded

    def test_single_point_vacuous(self):
        assert not two_pencils_filter(tv(5, {5: 1})).is_excluded


class TestParityProfile:
    def test_d6_no_profile_exists(self):
        v = parity_profile_filter(tv(6, {3: 5}))
        assert v.is_excluded and v.criterion == "parity_profile"

    def test_d9_fourfold_point_unreachable(self):
        v = parity_profile_filter(tv(9, {3: 10, 4: 1}))
        assert v.is_excluded

    def test_fano_passes(self):
        assert not parity_profile_filter(tv(7, {3: 7})).is_excluded

    def test_profiles_respect_point_counts(self):
        # only one 4-fold point exists, so no line can cross two of them
        profiles = enumerate_line_profiles(tv(9, {3: 10, 4: 1}))
        assert all(p.count(4) <= 1 for p in profiles)

    def test_fano_profile_is_three_triples(self):
        profiles = enumerate_line_profiles(tv(7, {3: 7}))
        assert profiles == [(3, 3, 3)]


class TestHirzebruch:
    def test_fano_fails_over_complex(self):
        v = hirzebruch_filter(tv(7, {3: 7}))
        assert v.is_excluded and v.criterion == "hirzebruch"

    def test_dual_hesse_boundary_passes(self):
        assert not hirzebruch_filter(tv(9, {3: 12})).is_excluded

    def test_d10_f3_configuration_fails_over_complex(self):
        assert hirzebruch_filter(tv(10, {3: 9, 4: 3})).is_excluded

    def test_inapplicable_when_big_points_present(self):
        v = hirzebruch_filter(tv(5, {5: 1}))
        assert not v.is_excluded and "inapplicable" in v.detail
        v = hirzebruch_filter(tv(4, {2: 3, 3: 1}))
        assert not v.is_excluded and "inapplicable" in v.detail


class TestApplyAll:
    def test_modes_validated(self):
        with pytest.raises(ValueError):
            apply_all(tv(4, {2: 6}), "real")

    def test_d5_case_excluded_by_multiplicity(self):
        v = apply_all(tv(5, {2: 1, 3: 3}), MODE_ABSOLUTE)
        assert v.criterion == "multiplicity_sum"

    def test_dual_hesse_passes_absolute(self):
        assert not apply_all(tv(9, {3: 12}), MODE_ABSOLUTE).is_excluded

    def test_d10_complex_killed_by_hirzebruch(self):
        v = apply_all(tv(10, {2: 3, 3: 8, 4: 3}), MODE_COMPLEX)
        assert v.criterion == "hirzebruch"

    def test_hirzebruch_not_applied_in_absolute_mode(self):
        assert not apply_all(tv(7, {3: 7}), MODE_ABSOLUTE).is_excluded

    def test_verdict_serialization(self):
        v = apply_all(tv(5, {2: 1, 3: 3}), MODE_ABSOLUTE)
        data = v.to_json()
        assert data["status"] == "excluded"
        assert data["criterion"] == "multiplicity_sum"
        assert data["detail"]


def test_filters_are_necessary_conditions_for_feasibility():
    """A parity exclusion must always be confirmed by the exhaustive search."""
    for d in range(2, 9):
        for vector in enumerate_tvectors(d):
            if parity_profile_filter(vector).is_excluded:
                assert not feasible_arrangement(vector).feasible, vector


def test_filters_pure_and_deterministic():
    vector = tv(10, {2: 2, 3: 7, 4: 2, 5: 1})
    results = {apply_all(vector, MODE_ABSOLUTE).detail for _ in range(3)}
    assert len(results) == 1
