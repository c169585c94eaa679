import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harbourne.exactnum import (
    EisensteinRational,
    FieldDescriptor,
    PrimeFieldElement,
    UnsupportedFieldError,
)
from harbourne.geometry import (
    Certificate,
    CertificateError,
    InvalidConfigurationError,
    LineConfiguration,
    ProjTriple,
    certificate_from_configuration,
    cross_product,
    harbourne_value,
    incident,
    plane_lines,
    realize_over_prime_field,
    tvector_of_configuration,
    verify_certificate,
)
from harbourne.tspace import TVector

RAT = FieldDescriptor.rational()
EIS = FieldDescriptor.eisenstein()


def rational_config(raw_lines):
    return LineConfiguration(RAT, [ProjTriple.make(RAT, v) for v in raw_lines])


def dual_hesse_config():
    one, w, w2 = (1, 0), (0, 1), (-1, -1)
    lines = []
    for power in (one, w, w2):
        neg = (-power[0], -power[1])
        lines.append(((1, 0), neg, (0, 0)))
        lines.append(((0, 0), (1, 0), neg))
        lines.append(((1, 0), (0, 0), neg))
    return LineConfiguration(EIS, [ProjTriple.make(EIS, v) for v in lines])


class TestPlaneLines:
    def test_counts(self):
        assert len(plane_lines(2)) == 7
        assert len(plane_lines(3)) == 13
        assert len(plane_lines(5)) == 31

    def test_unsupported_prime(self):
        with pytest.raises(UnsupportedFieldError):
            plane_lines(4)

    def test_lines_are_normalized_and_distinct(self):
        lines = plane_lines(3)
        assert len(set(lines)) == 13
        for line in lines:
            lead = next(c for c in line.coords if c.residue != 0)
            assert lead.residue == 1

    def test_deterministic_order(self):
        assert [l.to_json() for l in plane_lines(3)] == [l.to_json() for l in plane_lines(3)]


class TestNormalization:
    def test_rational_coprime_integers(self):
        t = ProjTriple.make(RAT, (Fraction(1, 2), Fraction(-1, 3), 0))
        assert t.coords == (Fraction(3), Fraction(-2), Fraction(0))

    def test_rational_positive_leading(self):
        t = ProjTriple.make(RAT, (0, -1, 1))
        assert t.coords == (Fraction(0), Fraction(1), Fraction(-1))

    def test_prime_leading_one(self):
        f3 = FieldDescriptor.prime(3)
        t = ProjTriple.make(f3, (0, 2, 1))
        assert t.coords == (PrimeFieldElement(0, 3), PrimeFieldElement(1, 3), PrimeFieldElement(2, 3))

    def test_eisenstein_leading_one(self):
        w = EisensteinRational(0, 1)
        t = ProjTriple.make(EIS, (w, w, (0, 0)))
        assert t.coords[0] == EisensteinRational(1, 0)
        assert t.coords[1] == EisensteinRational(1, 0)

    def test_zero_triple_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ProjTriple.make(RAT, (0, 0, 0))

    @given(st.fractions(max_denominator=20), st.fractions(max_denominator=20),
           st.fractions(max_denominator=20), st.fractions(max_denominator=20))
    def test_scaling_invariance(self, a, b, c, scale):
        if (a, b, c) == (0, 0, 0) or scale == 0:
            return
        assert ProjTriple.make(RAT, (a, b, c)) == ProjTriple.make(
            RAT, (a * scale, b * scale, c * scale)
        )


class TestConfigurations:
    def test_fano_tvector(self):
        f2 = FieldDescriptor.prime(2)
        config = LineConfiguration(f2, list(plane_lines(2)))
        assert tvector_of_configuration(config) == TVector.from_mapping(7, {3: 7})

    def test_four_general_rational_lines(self):
        config = rational_config([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert tvector_of_configuration(config) == TVector.from_mapping(4, {2: 6})

    def test_dual_hesse_has_twelve_triple_points(self):
        config = dual_hesse_config()
        assert tvector_of_configuration(config) == TVector.from_mapping(9, {3: 12})
        assert harbourne_value(config) == Fraction(-9, 4)

    def test_fano_harbourne_value(self):
        f2 = FieldDescriptor.prime(2)
        assert harbourne_value(LineConfiguration(f2, list(plane_lines(2)))) == -2

    def test_general_position_value(self):
        config = rational_config([(1, t, t * t) for t in range(10)])
        assert harbourne_value(config) == Fraction(-2) + Fraction(2, 9)

    def test_pencil_value_zero(self):
        config = rational_config([(1, i, 0) for i in range(5)])
        assert harbourne_value(config) == 0

    def test_duplicate_lines_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            rational_config([(1, 0, 0), (2, 0, 0), (0, 1, 0)])

    def test_pair_count_conservation(self):
        config = dual_hesse_config()
        total = sum(comb(m, 2) for m in config.singular_points().values())
        assert total == comb(config.d, 2)

    def test_per_line_parity(self):
        config = dual_hesse_config()
        for line in config.lines:
            on_line = [m for pt, m in config.singular_points().items() if incident(line, pt)]
            assert sum(m - 1 for m in on_line) == config.d - 1


class TestCrossProduct:
    def test_intersection_is_incident_to_both(self):
        a = ProjTriple.make(RAT, (1, 2, 3))
        b = ProjTriple.make(RAT, (4, 5, 6))
        pt = cross_product(a, b)
        assert incident(a, pt) and incident(b, pt)

    def test_proportional_triples_give_none(self):
        a = ProjTriple.make(RAT, (1, 2, 3))
        assert cross_product(a, a) is None


class TestRealization:
    def test_fano_found_in_f2(self):
        out = realize_over_prime_field(TVector.from_mapping(7, {3: 7}), 2)
        assert out.found
        assert out.exhausted
        assert out.configuration.d == 7
        assert tvector_of_configuration(out.configuration) == TVector.from_mapping(7, {3: 7})

    def test_fano_absent_from_f3(self):
        out = realize_over_prime_field(TVector.from_mapping(7, {3: 7}), 3)
        assert not out.found and out.exhausted

    def test_dual_hesse_found_in_f3(self):
        out = realize_over_prime_field(TVector.from_mapping(9, {3: 12}), 3)
        assert out.found

    def test_d10_found_in_f3(self):
        out = realize_over_prime_field(TVector.from_mapping(10, {3: 9, 4: 3}), 3)
        assert out.found

    def test_budget_gives_inconclusive(self):
        out = realize_over_prime_field(TVector.from_mapping(9, {3: 12}), 3, node_budget=2)
        assert not out.found and not out.exhausted

    def test_too_many_lines_rejected(self):
        with pytest.raises(ValueError):
            realize_over_prime_field(TVector.from_mapping(8, {2: 4, 3: 8}), 2)

    def test_roundtrip_through_certificate(self):
        vector = TVector.from_mapping(10, {3: 9, 4: 3})
        out = realize_over_prime_field(vector, 3)
        cert = certificate_from_configuration("roundtrip", out.configuration)
        assert verify_certificate(cert).tvector == vector


class TestCertificates:
    def test_json_roundtrip_is_byte_stable(self):
        config = dual_hesse_config()
        cert = certificate_from_configuration("dual-hesse", config)
        dumped = json.dumps(cert.to_json())
        reloaded = Certificate.from_json(json.loads(dumped))
        assert json.dumps(reloaded.to_json()) == dumped

    def test_schema_field_order(self):
        cert = certificate_from_configuration("t", rational_config([(1, 0, 0), (0, 1, 0)]))
        assert list(cert.to_json()) == ["label", "field", "lines", "claimed_tvector"]

    def test_claimed_mismatch_fails_loudly(self):
        cert = Certificate(
            "bogus",
            RAT,
            tuple(ProjTriple.make(RAT, v).coords for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            TVector.from_mapping(3, {3: 1}),
        )
        with pytest.raises(CertificateError):
            verify_certificate(cert)

    def test_duplicate_line_fails(self):
        cert = Certificate(
            "dup",
            RAT,
            (
                (Fraction(1), Fraction(0), Fraction(0)),
                (Fraction(2), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1), Fraction(0)),
            ),
        )
        with pytest.raises(CertificateError):
            verify_certificate(cert)

    def test_malformed_scalar_reports_path(self):
        data = {
            "label": "bad",
            "field": {"kind": "prime", "p": 3},
            "lines": [[0, 1, 2], [1, 0, 9]],
        }
        with pytest.raises(CertificateError, match=r"lines\[1\]\[2\]"):
            Certificate.from_json(data)
