import hashlib
import importlib
import json
import pkgutil
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harbourne
from harbourne.exactnum import (
    SUPPORTED_PRIMES,
    FieldDescriptor,
    scalar_from_json,
)
from harbourne.geometry import (
    Certificate,
    CertificateError,
    RealizationOutcome,
    _plane_incidence,
    _plane_residues,
    realize_over_prime_field,
    verify_certificate,
)
from harbourne.tspace import TVector, enumerate_tvectors
import normal_forms
from normal_forms import (
    InvalidConfigurationError,
    LineConfiguration,
    ProjTriple,
    certificate_from_configuration,
    configuration_from_certificate,
    cross_product,
    field_mul,
    harbourne_value,
    incident,
    plane_lines,
    tvector_of_configuration,
)

RAT = FieldDescriptor.rational()
EIS = FieldDescriptor.eisenstein()

# the normal-form oracle's names, none of which the product may define or import
NORMAL_FORM_NAMES = (
    "ProjTriple",
    "_normalize",
    "dot",
    "incident",
    "cross_product",
    "LineConfiguration",
    "tvector_of_configuration",
    "harbourne_value",
    "plane_lines",
    "certificate_from_configuration",
    "configuration_from_certificate",
    "field_add",
    "field_sub",
    "field_mul",
    "field_inverse",
    "is_zero",
)


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
        with pytest.raises(ValueError, match="prime field modulus must be one of"):
            plane_lines(4)

    def test_lines_are_normalized_and_distinct(self):
        lines = plane_lines(3)
        assert len(set(lines)) == 13
        for line in lines:
            assert next(c for c in line.coords if c != 0) == 1

    def test_deterministic_order(self):
        assert [l.to_json() for l in plane_lines(3)] == [l.to_json() for l in plane_lines(3)]

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_residues_are_the_normalized_lines(self, p):
        assert _plane_residues(p) == tuple(line.coords for line in plane_lines(p))

    def test_residues_of_unsupported_prime(self):
        with pytest.raises(ValueError, match="prime field modulus must be one of"):
            _plane_residues(4)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_incidence_table_matches_exact_incidence(self, p):
        points = plane_lines(p)
        table = _plane_incidence(p)
        assert len(table) == len(points)
        for line, row in zip(points, table):
            assert list(row) == [j for j, pt in enumerate(points) if incident(line, pt)]


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
        assert t.coords == (0, 1, 2)

    def test_eisenstein_leading_one(self):
        w = (0, 1)
        t = ProjTriple.make(EIS, (w, w, (0, 0)))
        assert t.coords[0] == (1, 0)
        assert t.coords[1] == (1, 0)

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
        assert out.nodes == 7
        assert len(out.lines) == 7
        assert set(out.lines) <= set(_plane_residues(2))
        config = configuration_from_certificate(
            Certificate("fano", FieldDescriptor.prime(2), out.lines)
        )
        assert tvector_of_configuration(config) == TVector.from_mapping(7, {3: 7})

    def test_identical_searches_give_equal_outcomes(self):
        fano = TVector.from_mapping(7, {3: 7})
        first, second = realize_over_prime_field(fano, 2), realize_over_prime_field(fano, 2)
        assert first == second
        assert hash(first) == hash(second)

    def test_fano_absent_from_f3(self):
        out = realize_over_prime_field(TVector.from_mapping(7, {3: 7}), 3)
        assert not out.found and out.exhausted
        assert out.nodes == 0

    @pytest.mark.parametrize("p, nodes", [(5, 2_866), (7, 16_453)])
    def test_fano_absent_from_larger_odd_planes(self, p, nodes):
        out = realize_over_prime_field(TVector.from_mapping(7, {3: 7}), p)
        assert not out.found and out.exhausted
        assert out.nodes == nodes

    def test_dual_hesse_found_in_f3(self):
        out = realize_over_prime_field(TVector.from_mapping(9, {3: 12}), 3)
        assert out.found
        assert out.nodes == 13

    def test_d10_found_in_f3(self):
        out = realize_over_prime_field(TVector.from_mapping(10, {3: 9, 4: 3}), 3)
        assert out.found
        assert out.nodes == 10

    def test_budget_gives_inconclusive(self):
        out = realize_over_prime_field(TVector.from_mapping(9, {3: 12}), 3, node_budget=2)
        assert not out.found and not out.exhausted
        assert out.nodes == 3

    def test_negative_budget_is_refused_before_searching(self):
        with pytest.raises(ValueError, match="node budget must be non-negative, got -3"):
            realize_over_prime_field(TVector.from_mapping(7, {3: 7}), 2, node_budget=-3)

    def test_pair_count_violation_is_refused_before_searching(self):
        with pytest.raises(ValueError, match="violates the pair-count identity"):
            realize_over_prime_field(TVector(4, (1, 1, 0)), 3)

    def test_too_many_lines_rejected(self):
        with pytest.raises(ValueError, match="cannot pick 8 distinct lines in PG"):
            realize_over_prime_field(TVector.from_mapping(8, {2: 4, 3: 8}), 2)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "t",
        [
            (9, 4, 0, 0, 0, 0),
            (12, 1, 1, 0, 0, 0),
            (8, 1, 0, 1, 0, 0),
            (12, 3, 0, 0, 0, 0),
            (15, 2, 0, 0, 0, 0),
            (15, 0, 1, 0, 0, 0),
            (18, 1, 0, 0, 0, 0),
            (6, 0, 0, 0, 1, 0),
        ],
    )
    def test_point_counts_decide_without_a_node(self, t, p):
        """Seven such lines would need fewer than 0 simple points, or more points than PG(2, p) has."""
        out = realize_over_prime_field(TVector(7, t), p)
        assert out == RealizationOutcome(None, True, 0)

    @pytest.mark.parametrize("t, nodes", [((9, 2, 1, 0, 0, 0), 252), ((11, 0, 0, 1, 0, 0), 113)])
    def test_point_counts_leave_these_to_the_search(self, t, nodes):
        out = realize_over_prime_field(TVector(7, t), 3)
        assert not out.found and out.exhausted
        assert out.nodes == nodes

    def test_zero_budget_decides_what_the_point_counts_decide(self):
        out = realize_over_prime_field(TVector.from_mapping(7, {3: 7}), 3, node_budget=0)
        assert not out.found and out.exhausted
        assert out.nodes == 0

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_whole_plane_is_found_within_a_few_dozen_frames(self, p):
        """All p^2 + p + 1 lines, each through p + 1 points of multiplicity p + 1.

        Every line fits, so the search takes one node per line; its depth
        is the plane's line count, 183 for p = 13, yet it needs only a few
        frames of Python's stack.
        """
        d = p * p + p + 1
        vector = TVector.from_mapping(d, {p + 1: d})
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            out = realize_over_prime_field(vector, p)
        finally:
            sys.setrecursionlimit(limit)
        assert out.found and out.exhausted
        assert out.nodes == d
        cert = Certificate("whole-plane", FieldDescriptor.prime(p), out.lines, vector)
        assert verify_certificate(cert).tvector == vector

    def test_roundtrip_through_certificate(self):
        vector = TVector.from_mapping(10, {3: 9, 4: 3})
        out = realize_over_prime_field(vector, 3)
        cert = Certificate("roundtrip", FieldDescriptor.prime(3), out.lines, vector)
        assert verify_certificate(cert).tvector == vector


UNRESTRICTED_SWEEP = tuple((p, d) for p, max_d in ((2, 7), (3, 8), (5, 7)) for d in range(2, max_d + 1))
TWO_LEVEL_SWEEP = ((3, 9), (3, 10))


@lru_cache(maxsize=None)
def _realization_sweep(planes):
    """Realize every T-vector of each (p, d) in ``planes`` with no budget.

    Returns the record of every [p, d, T, lines, exhausted] and the total
    node count.
    """
    record = []
    nodes = 0
    for p, d in planes:
        for vector in enumerate_tvectors(d):
            out = realize_over_prime_field(vector, p)
            assert out.exhausted, (p, vector)
            lines = out.lines and [list(line) for line in out.lines]
            record.append([p, d, vector.encode(), lines, out.exhausted])
            nodes += out.nodes
    return record, nodes


def _sweep_summary(planes):
    """The sweep's record digest, number of calls, configurations found and total node count."""
    record, nodes = _realization_sweep(planes)
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    found = sum(lines is not None for _, _, _, lines, _ in record)
    return digest, len(record), found, nodes


def test_frame_keeps_the_unrestricted_search_outcomes():
    """The PGL(3, p) frame returns the same lines and verdicts as the plain subset search.

    The digest of every (p, d, T, lines, exhausted) was computed with the
    unrestricted search, which takes 9,506,516 nodes for these 249 calls.
    """
    assert _sweep_summary(UNRESTRICTED_SWEEP) == (
        "cca87f257731242c3b79bb19570be00c21d21c6467e3a56929980a12236004d4", 249, 60, 93_352
    )


def test_frame_keeps_the_two_level_frame_outcomes_over_f3_at_nine_and_ten_lines():
    """The third frame level returns the same lines and verdicts as the first two alone.

    The digest was computed with the two-level frame, which takes 96,326
    nodes for these 436 calls.
    """
    assert _sweep_summary(TWO_LEVEL_SWEEP) == (
        "e9574958ce2401ca2bd785674e1b8358fc5603b6ce88dbf0b083a9bc95e0bf70", 436, 5, 1_228
    )


@pytest.mark.parametrize("planes", [UNRESTRICTED_SWEEP, TWO_LEVEL_SWEEP])
def test_found_configurations_cover_the_counted_points(planes):
    """d lines with T cover s + d(p + 1) - sum k t_k points, counted on the incidence table."""
    record, _ = _realization_sweep(planes)
    found = [(p, d, code, lines) for p, d, code, lines, _ in record if lines is not None]
    assert found
    for p, d, code, lines in found:
        vector = TVector.decode(d, code)
        index = {line: i for i, line in enumerate(_plane_residues(p))}
        rows = _plane_incidence(p)
        covered = set().union(*(rows[index[tuple(line)]] for line in lines))
        assert len(covered) == vector.s + d * (p + 1) - sum(k * vector.t(k) for k in range(2, d + 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frame_third_line_is_the_first_of_its_stabilizer_orbit(p):
    """Depth 2 tries line 2, through the meet of lines 0 and 1, or line p + 1, off it."""
    index = {line: i for i, line in enumerate(_plane_residues(p))}
    through_meet = realize_over_prime_field(TVector(4, (3, 1, 0)), p)
    assert [index[line] for line in through_meet.lines][:3] == [0, 1, 2]
    general_position = realize_over_prime_field(TVector(4, (6, 0, 0)), p)
    assert [index[line] for line in general_position.lines][:3] == [0, 1, p + 1]


@pytest.mark.parametrize(
    "t, nodes",
    [((3, 4, 1, 0, 0, 0), 114_118), ((6, 1, 2, 0, 0, 0), 185_437), ((5, 2, 0, 1, 0, 0), 122_612)],
)
def test_seven_lines_over_f7_are_decided_within_budget(t, nodes):
    """The two-level frame runs out of a 300k budget on each of these."""
    out = realize_over_prime_field(TVector(7, t), 7, node_budget=300_000)
    assert not out.found and out.exhausted
    assert out.nodes == nodes


class TestCertificates:
    def test_json_roundtrip_is_byte_stable(self):
        config = dual_hesse_config()
        claimed = TVector.from_mapping(9, {3: 12})
        cert = certificate_from_configuration("dual-hesse", config, claimed)
        dumped = json.dumps(cert.to_json())
        reloaded = Certificate.from_json(json.loads(dumped))
        assert json.dumps(reloaded.to_json()) == dumped

    @pytest.mark.parametrize("claim", [True, False], ids=["claimed", "unclaimed"])
    def test_from_json_parses_each_coordinate_once(self, monkeypatch, claim):
        data = harbourne.builtin_certificates().get("quadrilateral-7").to_json()
        if not claim:
            del data["claimed_tvector"]
        calls = []

        def counted(value, field):
            calls.append(value)
            return scalar_from_json(value, field)

        monkeypatch.setattr("harbourne.geometry.scalar_from_json", counted)
        cert = Certificate.from_json(data)
        assert len(calls) == 21  # 7 lines of 3 coordinates
        assert (cert.claimed_tvector is not None) is claim
        assert cert.to_json() == data

    def test_schema_field_order(self):
        config = rational_config([(1, 0, 0), (0, 1, 0)])
        cert = certificate_from_configuration("t", config, TVector.from_mapping(2, {2: 1}))
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

    @pytest.mark.parametrize(
        "field, lines, message",
        [
            (RAT, 5, r"^lines: expected an array of lines, got 5$"),
            (RAT, [(1, 0, 0), 7], r"^lines\[1\]: expected an array of coordinates, got 7$"),
            (RAT, [(1, 0, 0), (0, True, 0)], r"^lines\[1\]\[1\]: .*got True$"),
            (RAT, [(1, 0, 0), (0, 1, "1/0")], r"^lines\[1\]\[2\]: .*zero denominator: '1/0'$"),
            (FieldDescriptor.prime(3), [(0, 1, 2), (1, 0, -1)], r"^lines\[1\]\[2\]: .*got -1$"),
            # a residue of a larger prime is not one of F_3
            (FieldDescriptor.prime(3), [(4, 0, 0)], r"^lines\[0\]\[0\]: .*in \[0, 3\), got 4$"),
            (EIS, [((1, 0), 1, (0, 0))], r"^lines\[0\]\[1\]: .*two-element array"),
        ],
        ids=["lines-int", "line-int", "bool", "zero-denominator", "residue-range", "foreign-residue",
             "eisenstein-int"],
    )
    def test_constructor_parses_every_coordinate(self, field, lines, message):
        with pytest.raises(CertificateError, match=message):
            Certificate("bad", field, lines)


def normal_form_outcome(cert):
    """The normal-form path (normalized points grouped in a dict), as an oracle."""
    try:
        config = configuration_from_certificate(cert)
    except CertificateError as exc:
        return str(exc)
    return tvector_of_configuration(config), harbourne_value(config), config.d, config.s


def determinant_outcome(cert):
    try:
        report = verify_certificate(cert)
    except CertificateError as exc:
        return str(exc)
    return report.tvector, report.value, report.tvector.d, report.tvector.s


F5 = FieldDescriptor.prime(5)
FIELDS = [RAT, EIS, *(FieldDescriptor.prime(p) for p in SUPPORTED_PRIMES)]
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def nonzero_scalars(field):
    if field.kind == "prime":
        values = st.integers(1, field.p - 1)
    elif field == EIS:
        values = st.tuples(SMALL_FRACTIONS, SMALL_FRACTIONS).filter(lambda ab: ab != (0, 0))
    else:
        values = SMALL_FRACTIONS.filter(bool)
    return values.map(lambda v: scalar_from_json(v, field))


@lru_cache(maxsize=None)
def small_lines(field):
    """Distinct lines with entries 0 and units (+-1, and +-w, +-w^2 over Q(w)): many concurrent."""
    if field == EIS:
        units = [(1, 0), (0, 1), (-1, -1)]
        digits = [(0, 0), *units, *((-a, -b) for a, b in units)]
    else:
        digits = [0, 1, field.p - 1 if field.kind == "prime" else -1]
    triples = (tuple(scalar_from_json(v, field) for v in raw) for raw in product(digits, repeat=3))
    nonzero = (t for t in triples if not all(normal_forms.is_zero(field, c) for c in t))
    normal = {ProjTriple.make(field, t): t for t in nonzero}
    return list(normal.values())


@st.composite
def configurations(draw, field):
    """2..8 distinct lines over ``field``, each a nonzero multiple of a line of ``small_lines``."""
    pool = small_lines(field)
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8, unique=True))
    scales = draw(st.lists(nonzero_scalars(field), min_size=len(picks), max_size=len(picks)))
    return [tuple(field_mul(field, c, x) for x in line) for c, line in zip(scales, picks)]


class TestDeterminantVerifier:
    """``verify_certificate`` reads T off determinants; the normal-form path must agree."""

    def test_builtins_agree_with_normal_forms(self):
        from harbourne.pipeline import builtin_certificates

        db = builtin_certificates()
        assert len(db.labels()) == 29
        for label in db.labels():
            cert = db.get(label)
            assert determinant_outcome(cert) == normal_form_outcome(cert), label

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_configurations_agree_with_normal_forms(self, field, data):
        cert = Certificate("random", field, tuple(data.draw(configurations(field))))
        assert determinant_outcome(cert) == normal_form_outcome(cert)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_a_multiple_of_a_line_is_a_duplicate(self, field, data):
        lines = data.draw(configurations(field))
        line = data.draw(st.sampled_from(lines))
        c = data.draw(nonzero_scalars(field))
        cert = Certificate("dup", field, (*lines, tuple(field_mul(field, c, x) for x in line)))
        assert determinant_outcome(cert) == normal_form_outcome(cert)
        assert determinant_outcome(cert).endswith("duplicate line in configuration")

    def test_uses_no_normal_forms(self):
        from harbourne.pipeline import builtin_certificates

        assert all(hasattr(normal_forms, name) for name in NORMAL_FORM_NAMES)
        package = Path(harbourne.__file__).parent
        for info in pkgutil.iter_modules([str(package)]):
            module = importlib.import_module(f"harbourne.{info.name}")
            assert not [name for name in NORMAL_FORM_NAMES if hasattr(module, name)], info.name
            assert "normal_forms" not in (package / f"{info.name}.py").read_text(encoding="utf-8")

        # the oracle is importable in the child, so a stray import would show in sys.modules
        child = (
            "import sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "import harbourne, harbourne.cli\n"
            "harbourne.builtin_certificates()\n"
            "print('normal_forms' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", child, str(package.parent), str(Path(__file__).parent)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "False"

        db = builtin_certificates()
        for label in db.labels():
            cert = db.get(label)
            assert verify_certificate(cert).tvector == cert.claimed_tvector

    @pytest.mark.parametrize(
        "field, lines, message",
        [
            # a line and w times it: w * w = w^2 = -1 - w
            (EIS, [((1, 0), (0, 1), (0, 0)), ((0, 1), (-1, -1), (0, 0)), ((0, 0), (0, 0), (1, 0))],
             "duplicate line"),
            # a line and 2 times it over F_5
            (F5, [(1, 2, 3), (2, 4, 1), (0, 0, 1)], "duplicate line"),
            (RAT, [(1, 0, 0)], "at least 2 lines"),
            (RAT, [(1, 0), (0, 1, 0), (0, 0, 1)], "expected 3 coordinates, got 2"),
            (RAT, [(1, 0, 0), (0, 0, 0), (0, 0, 1)], "all-zero coordinate triple"),
        ],
        ids=["eisenstein-proportional", "f5-proportional", "one-line", "two-coordinates", "zero"],
    )
    def test_rejections_keep_type_and_message(self, field, lines, message):
        cert = Certificate("bad", field, tuple(lines))
        with pytest.raises(CertificateError, match=message):
            verify_certificate(cert)
        assert determinant_outcome(cert) == normal_form_outcome(cert)
