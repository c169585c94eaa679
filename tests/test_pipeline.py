import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from harbourne import criteria, pipeline, tspace
from harbourne.criteria import MODE_ABSOLUTE, MODE_COMPLEX, MODES
from harbourne.pipeline import (
    ST_EXCLUDED,
    ST_INCONCLUSIVE,
    ST_INFEASIBLE,
    ST_REALIZED,
    DEFAULT_FIELDS,
    builtin_certificates,
    classify_candidate,
    compute_table,
)
from harbourne.tspace import TVector
from harbourne.geometry import CertificateError, realize_over_prime_field, verify_certificate
from harbourne.incidence import feasible_arrangement, validate_partition


@pytest.fixture(scope="module")
def db():
    return builtin_certificates()


def tv(d, counts):
    return TVector.from_mapping(d, counts)


class TestBuiltinDatabase:
    def test_all_entries_verified(self, db):
        for label in db.labels():
            cert = db.get(label)
            assert verify_certificate(cert).tvector == cert.claimed_tvector

    def test_minimum_contents(self, db):
        labels = db.labels()
        for d in range(2, 11):
            assert f"pencil-{d}" in labels
            assert f"general-position-{d}" in labels
        for label in (
            "quadrilateral-6",
            "quadrilateral-7",
            "d8-t4-config",
            "fano-f2",
            "pg23-minus-pencil4",
            "pg23-minus-pencil3",
            "dual-hesse-eisenstein",
            "dual-hesse-plus-line",
        ):
            assert label in labels

    def test_label_order(self, db):
        # find() returns the first match, so this order picks the table witnesses
        assert db.labels() == [
            *(f"pencil-{d}" for d in range(2, 11)),
            *(f"general-position-{d}" for d in range(2, 11)),
            "five-one-triple",
            "five-two-triples",
            "quadrilateral-6",
            "quadrilateral-7",
            "d8-t4-config",
            "fano-f2",
            "pg23-minus-pencil4",
            "pg23-minus-pencil3",
            "dual-hesse-eisenstein",
            "dual-hesse-plus-line",
            "dual-hesse-minus-line",
        ]

    def test_general_position_six(self, db):
        assert verify_certificate(db.get("general-position-6")).value == Fraction(-8, 5)

    def test_quadrilateral_six(self, db):
        report = verify_certificate(db.get("quadrilateral-6"))
        assert report.value == Fraction(-12, 7)
        assert report.tvector == tv(6, {2: 3, 3: 4})

    def test_quadrilateral_seven(self, db):
        report = verify_certificate(db.get("quadrilateral-7"))
        assert report.value == Fraction(-17, 9)
        assert report.tvector == tv(7, {2: 3, 3: 6})

    def test_d8_t4_config(self, db):
        report = verify_certificate(db.get("d8-t4-config"))
        assert report.value == -2
        assert report.tvector == tv(8, {2: 4, 3: 6, 4: 1})

    def test_dual_hesse_plus_line(self, db):
        report = verify_certificate(db.get("dual-hesse-plus-line"))
        assert report.value == Fraction(-34, 15)
        assert report.tvector == tv(10, {2: 3, 3: 10, 4: 2})

    def test_pencil_values_zero(self, db):
        for d in range(2, 11):
            assert verify_certificate(db.get(f"pencil-{d}")).value == 0


class TestCertificateSkipsSearch:
    """A certified T is realized without a filter or a search; these pin that the skip loses nothing."""

    @pytest.mark.parametrize("label", builtin_certificates().labels())
    def test_certified_tvector_is_feasible_and_unfiltered(self, db, label):
        cert = db.get(label)
        tvector = cert.claimed_tvector
        outcome = feasible_arrangement(tvector)
        assert outcome.feasible and validate_partition(outcome.witness, tvector)
        assert not criteria.apply_all(tvector, MODE_ABSOLUTE).is_excluded
        complex_verdict = criteria.apply_all(tvector, MODE_COMPLEX)
        if cert.field.kind in pipeline.CHAR0_KINDS:
            assert not complex_verdict.is_excluded

    @pytest.mark.parametrize("mode", MODES)
    def test_tables_run_no_search(self, db, monkeypatch, mode):
        def no_search(*args):
            raise AssertionError("the default tables must run no search")

        monkeypatch.setattr(pipeline, "feasible_arrangement", no_search)
        monkeypatch.setattr(pipeline, "realize_over_prime_field", no_search)
        assert len(compute_table(10, mode, DEFAULT_FIELDS, db)) == 9

    @pytest.mark.parametrize("mode, filtered", [(MODE_ABSOLUTE, 76), (MODE_COMPLEX, 116)])
    def test_tables_filter_only_the_uncertified(self, db, monkeypatch, mode, filtered):
        # 88 and 128 audit entries, 12 of them realized by a certificate in each mode
        filter_all = criteria.apply_all
        calls = []

        def counted(vector, mode):
            calls.append(vector)
            return filter_all(vector, mode)

        monkeypatch.setattr(pipeline.criteria, "apply_all", counted)
        audit = [st for row in compute_table(10, mode, DEFAULT_FIELDS, db) for st in row.audit]
        realized = [st.tvector for st in audit if st.status == ST_REALIZED]
        assert len(realized) == 12
        assert len(calls) == len(audit) - len(realized) == filtered
        assert not set(calls) & set(realized)


class TestClassify:
    def test_fano_absolute_realized(self, db):
        st = classify_candidate(tv(7, {3: 7}), MODE_ABSOLUTE, (2, 3), db)
        assert st.status == ST_REALIZED
        assert st.certificate.label == "fano-f2"

    def test_fano_complex_excluded_by_hirzebruch(self, db):
        st = classify_candidate(tv(7, {3: 7}), MODE_COMPLEX, (2, 3), db)
        assert st.status == ST_EXCLUDED
        assert st.criterion == "hirzebruch"

    def test_two_pencils_exclusion(self, db):
        st = classify_candidate(tv(10, {2: 2, 3: 7, 4: 2, 5: 1}), MODE_ABSOLUTE, (2, 3), db)
        assert st.status == ST_EXCLUDED
        assert st.criterion == "two_pencils"

    def test_infeasible_case(self, db):
        # the exhaustive proof of this vector lives in test_incidence
        st = classify_candidate(tv(10, {3: 7, 4: 4}), MODE_ABSOLUTE, (2, 3), db)
        assert st.status == ST_EXCLUDED
        assert st.criterion == "point_pairs"

    def test_filter_survivor_proven_infeasible(self, db, monkeypatch):
        # no filter survivor at d <= 9 is infeasible within a short search,
        # so let two triple points on four lines through to the search
        passed = criteria.ExclusionVerdict(None, "all filters passed")
        monkeypatch.setattr(pipeline.criteria, "apply_all", lambda vector, mode: passed)
        st = classify_candidate(tv(4, {3: 2}), MODE_ABSOLUTE, (2, 3), db)
        assert st.status == ST_INFEASIBLE
        assert st.detail.endswith("(exhaustive, 0 nodes)")

    def test_search_realization_when_db_misses(self, db):
        # no database entry has this T-vector; the F_2 search must find it
        st = classify_candidate(tv(5, {2: 4, 3: 2}), MODE_ABSOLUTE, (2,), _empty_db(), None)
        assert st.status == ST_REALIZED
        assert st.certificate.label == "search-f2-d5"

    def test_search_result_must_match_requested_tvector(self, monkeypatch):
        # a search returning some other configuration must not be certified
        other = tv(5, {2: 4, 4: 1})  # a pencil of four lines plus one line

        def wrong_search(requested, p, node_budget=None):
            return realize_over_prime_field(other, 3, node_budget)

        monkeypatch.setattr(pipeline, "realize_over_prime_field", wrong_search)
        with pytest.raises(CertificateError):
            classify_candidate(tv(5, {2: 4, 3: 2}), MODE_ABSOLUTE, (2,), _empty_db(), None)

    def test_complex_mode_never_uses_finite_fields(self, db):
        # realizable over F_3 but not over C; complex mode may not claim it
        st = classify_candidate(tv(10, {3: 9, 4: 3}), MODE_COMPLEX, (2, 3), db)
        assert st.status == ST_EXCLUDED  # hirzebruch kills it first

    @pytest.mark.parametrize("vector", [tv(2, {2: 1}), tv(10, {3: 7, 4: 4})], ids=["certified", "uncertified"])
    def test_unknown_mode_raises_the_filters_error(self, vector):
        # the lookup comes first, but a certified T must not make "real" a mode
        with pytest.raises(ValueError) as expected:
            criteria.apply_all(vector, "real")
        assert str(expected.value) == "mode must be one of ('absolute', 'complex'), got 'real'"
        with pytest.raises(ValueError) as raised:
            classify_candidate(vector, "real")
        assert str(raised.value) == str(expected.value)

    def test_realized_roundtrip(self, db):
        st = classify_candidate(tv(9, {3: 12}), MODE_ABSOLUTE, (2, 3), db)
        assert st.status == ST_REALIZED
        report = verify_certificate(st.certificate)
        assert report.tvector == tv(9, {3: 12})
        assert report.value == st.q

    def test_every_candidate_up_to_ten_lines_is_pinned(self, db):
        """The whole path of every T at d <= 10, filter survivors through both searches.

        The default tables certify or exclude every entry they reach, so
        only this sweep runs ``feasible_arrangement`` and
        ``realize_over_prime_field`` from ``classify_candidate``.
        """
        statuses = Counter()
        record = []
        for mode in MODES:
            for d in range(2, 11):
                for vector in tspace.enumerate_tvectors(d):
                    st = classify_candidate(vector, mode, (2, 3), db, 20_000)
                    statuses[mode, st.status] += 1
                    cert = st.certificate
                    found = cert.to_json() if cert is not None and cert.label.startswith("search-") else None
                    record.append([mode, d, st.to_json(), found])
        assert statuses == {
            (MODE_ABSOLUTE, ST_EXCLUDED): 335,
            (MODE_ABSOLUTE, ST_REALIZED): 39,
            (MODE_ABSOLUTE, ST_INCONCLUSIVE): 189,
            (MODE_COMPLEX, ST_EXCLUDED): 341,
            (MODE_COMPLEX, ST_REALIZED): 25,
            (MODE_COMPLEX, ST_INCONCLUSIVE): 197,
        }
        assert sum(found is not None for *_, found in record) == 12
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        assert digest == "78ef0ff1d35e0051f41e46f0984fc1ed3c5e9ddc527334c8219168309097043e"


def _empty_db():
    from harbourne.pipeline import CertificateDatabase

    return CertificateDatabase([])


def without_d2_certificates():
    """Every builtin certificate except the two of d = 2, ``pencil-2`` and ``general-position-2``."""
    from harbourne.pipeline import CertificateDatabase

    full = builtin_certificates()
    return CertificateDatabase(
        [full.get(label) for label in full.labels() if full.get(label).claimed_tvector.d != 2]
    )


class TestTables:
    def test_table_to_five(self, db):
        rows = compute_table(5, MODE_ABSOLUTE, (2, 3), db)
        assert [row.value for row in rows] == [0, -1, Fraction(-4, 3), Fraction(-3, 2)]

    def test_table_to_three(self, db):
        for mode in (MODE_ABSOLUTE, MODE_COMPLEX):
            rows = compute_table(3, mode, (2, 3), db)
            assert [row.value for row in rows] == [0, -1]

    def test_mode_monotonicity_small(self, db):
        abs_rows = compute_table(7, MODE_ABSOLUTE, (2, 3), db)
        cpx_rows = compute_table(7, MODE_COMPLEX, (2, 3), db)
        for a, c in zip(abs_rows, cpx_rows):
            assert c.value >= a.value

    def test_audit_complete_below_value(self, db):
        rows = compute_table(7, MODE_ABSOLUTE, (2, 3), db)
        for row in rows:
            assert row.integrity_ok
            for st in row.audit:
                assert st.q <= row.value
                if st.q < row.value:
                    assert st.status in (ST_EXCLUDED, ST_INFEASIBLE)

    def test_realized_entries_reference_verified_certificates(self, db):
        rows = compute_table(6, MODE_ABSOLUTE, (2, 3), db)
        for row in rows:
            for st in row.audit:
                if st.status == ST_REALIZED:
                    report = verify_certificate(st.certificate)
                    assert report.tvector == st.tvector

    def test_audit_deterministic(self, db):
        def dump():
            rows = compute_table(6, MODE_ABSOLUTE, (2, 3), db)
            return json.dumps([row.to_json() for row in rows])

        assert dump() == dump()

    def test_each_quotient_is_computed_once_until_the_value_is_set(self, db, monkeypatch):
        # classify_candidate's quotient is the only one until a row has its value;
        # from then on compute_table computes one per candidate to test for the break.
        # Both are called through the module globals, where they can be wrapped.
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("quotient_fraction", "classify_candidate"):
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        for mode in MODES:
            compute_table(10, mode, DEFAULT_FIELDS, db)
        assert calls == {"classify_candidate": 216, "quotient_fraction": 238}

    def test_both_tables_build_each_tspace_once(self, db, monkeypatch):
        # a fresh cache over the counted builder, looked up through the module global
        build = tspace._sorted_tspace.__wrapped__
        builds = Counter()

        def counted(d):
            builds[d] += 1
            return build(d)

        monkeypatch.setattr(tspace, "_sorted_tspace", cache(counted))
        for mode in MODES:
            compute_table(10, mode, DEFAULT_FIELDS, db)
        assert builds == {d: 1 for d in range(2, 11)}

    def test_unknown_mode_raises_the_filters_error(self, db):
        with pytest.raises(ValueError, match=r"^mode must be one of \('absolute', 'complex'\), got 'real'$"):
            compute_table(2, "real", DEFAULT_FIELDS, db)

    def test_max_d_validated(self, db):
        with pytest.raises(ValueError):
            compute_table(11, MODE_ABSOLUTE, (2, 3), db)
        with pytest.raises(ValueError):
            compute_table(1, MODE_ABSOLUTE, (2, 3), db)

    def test_starved_budget_raises_integrity_error(self):
        # a certified T runs no search, so only an uncertified d = 2 meets the budget
        from harbourne.pipeline import TableIntegrityError

        with pytest.raises(TableIntegrityError):
            compute_table(2, MODE_ABSOLUTE, (2, 3), without_d2_certificates(), node_budget=0)

    def test_missing_complex_witnesses_flag_the_row(self):
        # with only the pencil available over characteristic 0, everything
        # below q = 0 ends inconclusive and the row must say so
        from harbourne.pipeline import CertificateDatabase

        full = builtin_certificates()
        sparse = CertificateDatabase([full.get(f"pencil-{d}") for d in range(2, 6)])
        rows = compute_table(5, MODE_COMPLEX, (2, 3), sparse)
        d5 = rows[-1]
        assert d5.value == 0
        assert not d5.integrity_ok
