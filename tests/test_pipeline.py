import json
from fractions import Fraction

import pytest

from harbourne.criteria import MODE_ABSOLUTE, MODE_COMPLEX
from harbourne.pipeline import (
    ST_EXCLUDED,
    ST_INFEASIBLE,
    ST_REALIZED,
    builtin_certificates,
    classify_candidate,
    compute_table,
)
from harbourne.tspace import TVector
from harbourne.geometry import verify_certificate


@pytest.fixture(scope="module")
def db():
    return builtin_certificates()


def tv(d, counts):
    return TVector.from_mapping(d, counts)


class TestBuiltinDatabase:
    def test_all_entries_verified(self, db):
        for label in db.labels():
            report = verify_certificate(db.get(label))
            assert report.tvector == db.reports[label].tvector

    def test_minimum_contents(self, db):
        for d in range(2, 11):
            assert f"pencil-{d}" in db
            assert f"general-position-{d}" in db
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
            assert label in db

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
        ]

    def test_general_position_six(self, db):
        assert db.reports["general-position-6"].value == Fraction(-8, 5)

    def test_quadrilateral_six(self, db):
        report = db.reports["quadrilateral-6"]
        assert report.value == Fraction(-12, 7)
        assert report.tvector == tv(6, {2: 3, 3: 4})

    def test_quadrilateral_seven(self, db):
        report = db.reports["quadrilateral-7"]
        assert report.value == Fraction(-17, 9)
        assert report.tvector == tv(7, {2: 3, 3: 6})

    def test_d8_t4_config(self, db):
        report = db.reports["d8-t4-config"]
        assert report.value == -2
        assert report.tvector == tv(8, {2: 4, 3: 6, 4: 1})

    def test_dual_hesse_plus_line(self, db):
        report = db.reports["dual-hesse-plus-line"]
        assert report.value == Fraction(-34, 15)
        assert report.tvector == tv(10, {2: 3, 3: 10, 4: 2})

    def test_pencil_values_zero(self, db):
        for d in range(2, 11):
            assert db.reports[f"pencil-{d}"].value == 0


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
        st = classify_candidate(tv(10, {3: 7, 4: 4}), MODE_ABSOLUTE, (2, 3), db)
        assert st.status == ST_INFEASIBLE

    def test_search_realization_when_db_misses(self, db):
        # no database entry has this T-vector; the F_2 search must find it
        st = classify_candidate(tv(5, {2: 4, 3: 2}), MODE_ABSOLUTE, (2,), _empty_db(), None)
        assert st.status == ST_REALIZED
        assert st.certificate.label == "search-f2-d5"

    def test_complex_mode_never_uses_finite_fields(self, db):
        # realizable over F_3 but not over C; complex mode may not claim it
        st = classify_candidate(tv(10, {3: 9, 4: 3}), MODE_COMPLEX, (2, 3), db)
        assert st.status == ST_EXCLUDED  # hirzebruch kills it first

    def test_realized_roundtrip(self, db):
        st = classify_candidate(tv(9, {3: 12}), MODE_ABSOLUTE, (2, 3), db)
        assert st.status == ST_REALIZED
        report = verify_certificate(st.certificate)
        assert report.tvector == tv(9, {3: 12})
        assert report.value == st.q


def _empty_db():
    from harbourne.pipeline import CertificateDatabase

    return CertificateDatabase([])


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

    def test_max_d_validated(self, db):
        with pytest.raises(ValueError):
            compute_table(11, MODE_ABSOLUTE, (2, 3), db)
        with pytest.raises(ValueError):
            compute_table(1, MODE_ABSOLUTE, (2, 3), db)

    def test_starved_budget_raises_integrity_error(self, db):
        from harbourne.pipeline import TableIntegrityError

        with pytest.raises(TableIntegrityError):
            compute_table(2, MODE_ABSOLUTE, (2, 3), db, node_budget=0)

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
