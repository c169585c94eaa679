import hashlib
import json
from collections import Counter

import pytest

from harbourne.criteria import (
    MODE_ABSOLUTE,
    MODE_COMPLEX,
    MODES,
    ExclusionVerdict,
    _hirzebruch,
    _line_profiles,
    _multiplicity_sum,
    _parity_profile,
    _point_pairs,
    _profile_mix,
    _shape,
    _two_pencils,
    apply_all,
)
from harbourne.incidence import SearchBudgetExceeded, feasible_arrangement
from harbourne.pipeline import classify_candidate
from harbourne.tspace import TVector, enumerate_tvectors


def tv(d, counts):
    return TVector.from_mapping(d, counts)


def shapes(vector):
    ks, counts = _line_profiles(vector)
    return [_shape(ks, vec) for vec in counts]


def multiplicity_sum(vector):
    return _multiplicity_sum(vector.d, vector.multiplicities())


def two_pencils(vector):
    return _two_pencils(vector.multiplicities())


def parity_profile(vector):
    ks, counts = _line_profiles(vector)
    return _parity_profile(vector, ks, counts, _profile_mix(vector, ks, counts))


def point_pairs(vector):
    """The point-pair row on T's first mix; None where no mix exists (a parity exclusion)."""
    ks, counts = _line_profiles(vector)
    first = _profile_mix(vector, ks, counts)
    return None if first is None else _point_pairs(vector, ks, counts, first)


class TestMultiplicitySum:
    def test_d5_triangular_violation(self):
        v = multiplicity_sum(tv(5, {2: 1, 3: 3}))
        assert v.is_excluded and v.criterion == "multiplicity_sum"
        assert "r=3" in v.detail

    def test_d8_with_sixfold_point(self):
        v = multiplicity_sum(tv(8, {2: 1, 3: 4, 6: 1}))
        assert v.is_excluded and "r=3" in v.detail

    def test_two_sixfold_points_on_nine_lines(self):
        v = multiplicity_sum(tv(9, {3: 2, 6: 2}))
        assert v.is_excluded and "r=2" in v.detail

    def test_all_double_points_pass(self):
        assert multiplicity_sum(tv(4, {2: 6})) is None


class TestTwoPencils:
    def test_d10_case_with_five_and_four(self):
        v = two_pencils(tv(10, {2: 2, 3: 7, 4: 2, 5: 1}))
        assert v.is_excluded and v.criterion == "two_pencils"

    def test_dual_hesse_passes(self):
        assert two_pencils(tv(9, {3: 12})) is None

    def test_d8_realizable_vector_passes(self):
        assert two_pencils(tv(8, {2: 4, 3: 6, 4: 1})) is None

    def test_single_point_vacuous(self):
        assert two_pencils(tv(5, {5: 1})) is None


class TestParityProfile:
    def test_d6_no_profile_exists(self):
        v = parity_profile(tv(6, {3: 5}))
        assert v.is_excluded and v.criterion == "parity_profile"

    def test_d9_fourfold_point_unreachable(self):
        v = parity_profile(tv(9, {3: 10, 4: 1}))
        assert v.is_excluded

    def test_fano_passes(self):
        assert parity_profile(tv(7, {3: 7})) is None

    def test_profiles_respect_point_counts(self):
        # only one 4-fold point exists, so no line can cross two of them
        profiles = shapes(tv(9, {3: 10, 4: 1}))
        assert profiles and all(p.count("4") <= 1 for p in profiles)

    def test_fano_profile_is_three_triples(self):
        assert shapes(tv(7, {3: 7})) == ["{3,3,3}"]


class TestHirzebruch:
    def test_fano_fails_over_complex(self):
        v = _hirzebruch(tv(7, {3: 7}))
        assert v.is_excluded and v.criterion == "hirzebruch"

    def test_dual_hesse_boundary_passes(self):
        assert _hirzebruch(tv(9, {3: 12})) is None

    def test_d10_f3_configuration_fails_over_complex(self):
        assert _hirzebruch(tv(10, {3: 9, 4: 3})).is_excluded

    def test_inapplicable_when_big_points_present(self):
        assert _hirzebruch(tv(5, {5: 1})) is None
        assert _hirzebruch(tv(4, {2: 3, 3: 1})) is None

    @pytest.mark.parametrize("counts", [{7: 1}, {2: 6, 6: 1}, {2: 2, 3: 3, 5: 1}])
    def test_inapplicable_with_a_point_on_d_d_minus_1_or_d_minus_2_lines(self, counts):
        # for {2: 2, 3: 3, 5: 1}, t2 + (3/4) t3 = 17/4 < 8 = d + (5-4) t5, but the
        # published form needs t5 = 0 at d = 7
        assert _hirzebruch(tv(7, counts)) is None

    def test_inapplicable_below_six_lines(self):
        # t2 + (3/4) t3 = 13/4 < 5 = d, but the published form needs d >= 6
        assert _hirzebruch(tv(5, {2: 1, 3: 3})) is None

    @pytest.mark.parametrize(
        "d, counts",
        [(7, {3: 7}), (10, {3: 9, 4: 3}), (10, {2: 3, 3: 6, 4: 4}), (10, {2: 3, 3: 8, 4: 3})],
    )
    def test_entries_resting_on_this_filter_alone(self, d, counts):
        vector = tv(d, counts)
        assert apply_all(vector, MODE_COMPLEX).criterion == "hirzebruch"
        assert not apply_all(vector, MODE_ABSOLUTE).is_excluded


class TestPointPairs:
    def test_d10_three_lines_of_three_fourfold_points(self):
        v = point_pairs(tv(10, {3: 7, 4: 4}))
        assert v.is_excluded and v.criterion == "point_pairs"
        assert "3 x {4,4,4} need 9 pairs of 4-fold points" in v.detail
        assert "only C(4,2) = 6 exist" in v.detail

    def test_detail_names_a_mixed_budget(self):
        v = point_pairs(tv(7, {2: 3, 3: 4, 4: 1}))
        assert v.is_excluded
        assert "4 x {4,3,2} need 4 pairs of a 2-fold and a 4-fold point" in v.detail
        assert "only 3*1 = 3 exist" in v.detail

    def test_detail_sums_every_spending_profile(self):
        v = point_pairs(tv(9, {2: 3, 3: 5, 4: 3}))
        assert v.is_excluded
        assert "3 x {4,4,3} (6) + 6 x {4,3,3,2} (12) need 18 pairs of a 3-fold and a 4-fold point" in v.detail
        assert "only 5*3 = 15 exist" in v.detail

    def test_realizable_vectors_pass(self):
        for vector in (tv(7, {3: 7}), tv(9, {3: 12}), tv(10, {3: 9, 4: 3}), tv(10, {2: 3, 3: 10, 4: 2})):
            assert point_pairs(vector) is None, vector

    def test_overdrawn_first_mix_is_not_enough(self):
        # the first mix puts {3,3,2} on four lines, which needs 4 of the
        # C(3,2) = 3 pairs of triple points; the filter must search on
        vector = tv(6, {2: 6, 3: 3})
        assert shapes(vector) == ["{3,3,2}", "{3,2,2,2}", "{2,2,2,2,2}"]
        ks, counts = _line_profiles(vector)
        assert _profile_mix(vector, ks, counts) == (4, 1, 1)
        assert point_pairs(vector) is None
        assert feasible_arrangement(vector).feasible

    def test_low_d_exclusions_are_proven_infeasible(self):
        # every point_pairs exclusion at d <= 8, each confirmed by the exhaustive search
        nodes_to_exhaust = {tv(7, {2: 3, 3: 4, 4: 1}): 82, tv(8, {2: 6, 3: 4, 5: 1}): 316}
        assert [v for v in POINT_PAIRS_EXCLUDED[MODE_ABSOLUTE] if v.d <= 8] == list(nodes_to_exhaust)
        for vector, nodes in nodes_to_exhaust.items():
            out = feasible_arrangement(vector)
            assert not out.feasible
            assert out.nodes_explored == nodes

    def test_high_d_exclusions_never_yield_a_witness(self):
        # cross-check at d = 9, 10: a short search may run out, but never finds a partition
        excluded = [v for v in POINT_PAIRS_EXCLUDED[MODE_ABSOLUTE] if v.d >= 9]
        assert len(excluded) == 24
        for vector in excluded:
            try:
                assert not feasible_arrangement(vector, node_budget=2_000).feasible, vector
            except SearchBudgetExceeded:
                pass

    @pytest.mark.parametrize("mode", [MODE_ABSOLUTE, MODE_COMPLEX])
    def test_exclusion_set_up_to_ten_lines(self, mode):
        found = [
            vector
            for d in range(2, 11)
            for vector in enumerate_tvectors(d)
            if apply_all(vector, mode).criterion == "point_pairs"
        ]
        assert found == POINT_PAIRS_EXCLUDED[mode]


def _decoded(*encoded):
    return [TVector.decode(len(e.split(",")) + 1, e) for e in encoded]


# in enumeration order; in complex mode the Hirzebruch bound takes the rest
POINT_PAIRS_EXCLUDED = {
    MODE_ABSOLUTE: _decoded(
        "3,4,1,0,0,0",
        "6,4,0,1,0,0,0",
        "2,8,0,1,0,0,0,0",
        "3,5,3,0,0,0,0,0",
        "3,9,1,0,0,0,0,0",
        "5,7,0,1,0,0,0,0",
        "6,5,0,0,1,0,0,0",
        "8,4,1,1,0,0,0,0",
        "9,4,0,0,1,0,0,0",
        "0,7,4,0,0,0,0,0,0",
        "3,2,6,0,0,0,0,0,0",
        "3,4,5,0,0,0,0,0,0",
        "3,9,0,0,1,0,0,0,0",
        "6,1,6,0,0,0,0,0,0",
        "5,6,2,1,0,0,0,0,0",
        "6,3,5,0,0,0,0,0,0",
        "5,8,1,1,0,0,0,0,0",
        "6,8,0,0,1,0,0,0,0",
        "9,0,6,0,0,0,0,0,0",
        "8,5,2,1,0,0,0,0,0",
        "9,2,5,0,0,0,0,0,0",
        "9,7,0,0,1,0,0,0,0",
        "12,1,5,0,0,0,0,0,0",
        "9,5,0,0,0,1,0,0,0",
        "12,4,1,0,1,0,0,0,0",
        "12,4,0,0,0,1,0,0,0",
    ),
    MODE_COMPLEX: _decoded(
        "6,4,0,1,0,0,0",
        "3,9,1,0,0,0,0,0",
        "5,7,0,1,0,0,0,0",
        "8,4,1,1,0,0,0,0",
        "9,4,0,0,1,0,0,0",
        "5,8,1,1,0,0,0,0,0",
        "6,8,0,0,1,0,0,0,0",
        "8,5,2,1,0,0,0,0,0",
        "9,2,5,0,0,0,0,0,0",
        "9,7,0,0,1,0,0,0,0",
        "12,1,5,0,0,0,0,0,0",
        "12,4,1,0,1,0,0,0,0",
        "12,4,0,0,0,1,0,0,0",
    ),
}


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

    def test_point_pairs_run_last(self):
        # both filters exclude (0,7,4) at d = 10; the earlier one names it
        vector = tv(10, {3: 7, 4: 4})
        assert apply_all(vector, MODE_COMPLEX).criterion == "hirzebruch"
        assert apply_all(vector, MODE_ABSOLUTE).criterion == "point_pairs"

    def test_every_verdict_up_to_ten_lines_is_pinned(self):
        verdicts = [
            [mode, d, vector.encode(), apply_all(vector, mode).to_json()]
            for mode in MODES
            for d in range(2, 11)
            for vector in enumerate_tvectors(d)
        ]
        criteria = Counter((mode, verdict["criterion"]) for mode, _, _, verdict in verdicts)
        assert criteria == {
            (MODE_ABSOLUTE, None): 228,
            (MODE_ABSOLUTE, "multiplicity_sum"): 271,
            (MODE_ABSOLUTE, "two_pencils"): 30,
            (MODE_ABSOLUTE, "parity_profile"): 8,
            (MODE_ABSOLUTE, "point_pairs"): 26,
            (MODE_COMPLEX, None): 222,
            (MODE_COMPLEX, "multiplicity_sum"): 271,
            (MODE_COMPLEX, "two_pencils"): 30,
            (MODE_COMPLEX, "parity_profile"): 8,
            (MODE_COMPLEX, "hirzebruch"): 19,
            (MODE_COMPLEX, "point_pairs"): 13,
        }
        hirzebruch = [(d, t) for mode, d, t, verdict in verdicts if verdict["criterion"] == "hirzebruch"]
        # the guard t_d = t_{d-1} = t_{d-2} = 0 holds for every Hirzebruch exclusion
        assert all(TVector.decode(d, t).counts[-3:] == (0, 0, 0) for d, t in hirzebruch)
        digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
        assert digest == "9cc54c96b75130d5709363babc94cd32c07f37ec0e424a4495d1e5b0c992d6a5"

    @pytest.mark.parametrize("mode", MODES)
    def test_same_verdict_as_the_filters_one_by_one(self, mode):
        # apply_all reads the counts once and shares the profiles; here each row starts afresh
        rows = [multiplicity_sum, two_pencils, parity_profile]
        if mode == MODE_COMPLEX:
            rows.append(_hirzebruch)
        rows.append(point_pairs)
        with pytest.warns(UserWarning, match="d=11 exceeds the supported range"):
            vectors = [vector for d in range(2, 12) for vector in enumerate_tvectors(d)]
        assert len(vectors) == 563 + 619
        for vector in vectors:
            exclusions = (row(vector) for row in rows)
            expected = next((v for v in exclusions if v is not None), ExclusionVerdict(None, "all filters passed"))
            assert apply_all(vector, mode) == expected, vector

    @pytest.mark.parametrize("mode", MODES)
    def test_non_solution_raises_the_pair_count_error(self, mode):
        vector = TVector(5, (9, 0, 0, 0))  # 9 pairs of 10
        message = r"^T-vector violates the pair-count identity: sum t_k\*C\(k,2\) - C\(d,2\) = -1$"
        with pytest.raises(ValueError, match=message):
            apply_all(vector, mode)
        with pytest.raises(ValueError, match=message):
            classify_candidate(vector, mode)

    def test_verdict_serialization(self):
        v = apply_all(tv(5, {2: 1, 3: 3}), MODE_ABSOLUTE)
        data = v.to_json()
        assert data["status"] == "excluded"
        assert data["criterion"] == "multiplicity_sum"
        assert data["detail"]


def test_standalone_profile_filters_up_to_ten_lines_are_pinned():
    """Each profile row called alone on every T, with its exclusion or null."""
    exclusions = [
        [d, vector.encode(), *(v and v.to_json() for v in (parity_profile(vector), point_pairs(vector)))]
        for d in range(2, 11)
        for vector in enumerate_tvectors(d)
    ]
    assert len(exclusions) == 563
    assert sum(e[2] is not None for e in exclusions) == 151
    assert sum(e[3] is not None for e in exclusions) == 184
    digest = hashlib.sha256(json.dumps(exclusions).encode()).hexdigest()
    assert digest == "0e42e72906439bfeaa1b9f217d81b14c404aeb696f0912be4e38a4fdc734f62d"


def test_filters_are_necessary_conditions_for_feasibility():
    """A parity exclusion must always be confirmed by the exhaustive search."""
    for d in range(2, 9):
        for vector in enumerate_tvectors(d):
            if parity_profile(vector) is not None:
                assert not feasible_arrangement(vector).feasible, vector


def test_absolute_exclusion_is_an_exhausted_search_up_to_ten_lines():
    """Filter survival is combinatorial feasibility at d <= 10, a second proof of each exclusion.

    The same sweep pins the incidence search: its node totals and a digest
    of every verdict, node count and witness.
    """
    counted = Counter()
    nodes = Counter()
    record = []
    for d in range(2, 11):
        for vector in enumerate_tvectors(d):
            excluded = apply_all(vector, MODE_ABSOLUTE).is_excluded
            outcome = feasible_arrangement(vector)
            assert excluded is not outcome.feasible, vector
            counted[excluded] += 1
            nodes[d] += outcome.nodes_explored
            witness = outcome.witness.to_json() if outcome.feasible else None
            record.append([vector.encode(), outcome.feasible, outcome.nodes_explored, witness])
    assert counted == {True: 335, False: 228}
    assert sum(feasible for _, feasible, _, _ in record) == 228
    assert sum(nodes[d] for d in range(2, 10)) == 33_874
    assert nodes[10] == 493_180
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "0ac801bd092923fea95d9fe8f67ebd3d7a5275a228bc906542f8ad2c8985ea14"


def test_filters_pure_and_deterministic():
    vector = tv(10, {2: 2, 3: 7, 4: 2, 5: 1})
    results = {apply_all(vector, MODE_ABSOLUTE).detail for _ in range(3)}
    assert len(results) == 1
