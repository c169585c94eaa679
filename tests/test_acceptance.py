"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.  All comparisons are exact; there are no
tolerances anywhere.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from harbourne.criteria import (
    MODE_ABSOLUTE,
    MODE_COMPLEX,
    MODES,
    _line_profiles,
    _multiplicity_sum,
    _parity_profile,
    _point_pairs,
    _profile_mix,
    _two_pencils,
    admitted_kinds,
    apply_all,
)
from harbourne.geometry import (
    Certificate,
    FieldDescriptor,
    realize_over_prime_field,
    verify_certificate,
)
from harbourne.incidence import feasible_arrangement
from harbourne.pipeline import (
    ST_EXCLUDED,
    ST_INCONCLUSIVE,
    ST_INFEASIBLE,
    ST_REALIZED,
    builtin_certificates,
    classify_candidate,
    compute_table,
)
from harbourne.tspace import TVector, enumerate_tvectors, quotient_fraction
from normal_forms import configuration_from_certificate, incident, tvector_of_configuration

DB = builtin_certificates()

ABSOLUTE_GOLDEN = {
    2: Fraction(0),
    3: Fraction(-1),
    4: Fraction(-4, 3),
    5: Fraction(-3, 2),
    6: Fraction(-12, 7),
    7: Fraction(-2),
    8: Fraction(-2),
    9: Fraction(-9, 4),
    10: Fraction(-29, 12),
}
COMPLEX_GOLDEN = {**ABSOLUTE_GOLDEN, 7: Fraction(-17, 9), 10: Fraction(-34, 15)}

EXCLUSION_REPLAY = [
    (4, "0,2,0"),
    (5, "1,3,0,0"),
    (6, "0,5,0,0,0"),
    (6, "0,3,1,0,0"),
    (7, "0,1,3,0,0,0"),
    (7, "0,3,2,0,0,0"),
    (7, "0,5,1,0,0,0"),
    (8, "1,5,2,0,0,0,0"),
    (8, "1,9,0,0,0,0,0"),
    (8, "1,4,0,0,1,0,0"),
    (8, "3,5,0,1,0,0,0"),
    (8, "4,4,2,0,0,0,0"),
    (8, "0,6,0,1,0,0,0"),
    (9, "0,6,3,0,0,0,0,0"),
    (9, "0,8,2,0,0,0,0,0"),
    (9, "0,10,1,0,0,0,0,0"),
    (9, "0,7,0,0,1,0,0,0"),
    (10, "0,1,7,0,0,0,0,0,0"),
    (10, "0,3,6,0,0,0,0,0,0"),
    (10, "0,5,5,0,0,0,0,0,0"),
    (10, "0,7,4,0,0,0,0,0,0"),
    (10, "0,8,1,0,1,0,0,0,0"),
    (10, "3,0,7,0,0,0,0,0,0"),
    (10, "2,7,2,1,0,0,0,0,0"),
]


def _collect_verified_configurations():
    """Every built-in certificate plus every search hit from both tables."""
    configs = []
    for label in DB.labels():
        configs.append((label, configuration_from_certificate(DB.get(label))))
    for mode in (MODE_ABSOLUTE, MODE_COMPLEX):
        for row in compute_table(10, mode, (2, 3), DB):
            for status in row.audit:
                if status.status == ST_REALIZED and status.certificate.label not in DB.labels():
                    configs.append(
                        (status.certificate.label, configuration_from_certificate(status.certificate))
                    )
    return configs


def test_criterion_1_golden_absolute_table():
    start = time.time()
    rows = compute_table(10, MODE_ABSOLUTE, (2, 3), DB)
    elapsed = time.time() - start
    values = {row.d: row.value for row in rows}
    assert values == ABSOLUTE_GOLDEN
    assert all(row.integrity_ok for row in rows)
    assert not [
        (row.d, st.tvector.encode()) for row in rows for st in row.audit if st.status == ST_INCONCLUSIVE
    ]
    assert elapsed < 300
    print(f"\nPASS criterion 1: absolute table d=2..10 exact ({elapsed:.1f}s)")


def test_criterion_2_golden_complex_table():
    start = time.time()
    rows = compute_table(10, MODE_COMPLEX, (2, 3), DB)
    elapsed = time.time() - start
    values = {row.d: row.value for row in rows}
    assert values == COMPLEX_GOLDEN
    assert all(row.integrity_ok for row in rows)
    assert not [
        (row.d, st.tvector.encode()) for row in rows for st in row.audit if st.status == ST_INCONCLUSIVE
    ]
    assert elapsed < 300
    print(f"PASS criterion 2: complex table d=2..10 exact ({elapsed:.1f}s)")


def test_criterion_3_exclusion_replay():
    for d, encoded in EXCLUSION_REPLAY:
        tv = TVector.decode(d, encoded)
        status = classify_candidate(tv, MODE_ABSOLUTE, (2, 3), DB)
        assert status.status in (ST_EXCLUDED, ST_INFEASIBLE), (d, encoded, status.status)
        if status.status == ST_INFEASIBLE:
            assert "exhaustive" in status.detail
    print(f"PASS criterion 3: {len(EXCLUSION_REPLAY)} excluded candidates replayed, none inconclusive")


def test_criterion_4_realization_positives():
    fano = realize_over_prime_field(TVector.from_mapping(7, {3: 7}), 2)
    assert fano.found
    hesse_f3 = realize_over_prime_field(TVector.from_mapping(9, {3: 12}), 3)
    assert hesse_f3.found
    ten_f3 = realize_over_prime_field(TVector.from_mapping(10, {3: 9, 4: 3}), 3)
    assert ten_f3.found

    hesse = verify_certificate(DB.get("dual-hesse-eisenstein"))
    assert hesse.tvector == TVector.from_mapping(9, {3: 12})
    assert hesse.value == Fraction(-9, 4)
    plus = verify_certificate(DB.get("dual-hesse-plus-line"))
    assert plus.tvector == TVector.from_mapping(10, {2: 3, 3: 10, 4: 2})
    assert plus.value == Fraction(-34, 15)
    print("PASS criterion 4: realizations found in F_2/F_3 and Q(w) certificates verified")


def test_criterion_5_negative_search_evidence():
    start = time.time()
    outcome = realize_over_prime_field(TVector.from_mapping(7, {3: 7}), 3)
    elapsed = time.time() - start
    assert not outcome.found
    assert outcome.exhausted
    assert elapsed < 1.0
    print(f"PASS criterion 5: Fano T-vector exhausted over F_3 ({elapsed*1000:.0f}ms)")


def test_criterion_6_property_suites():
    configs = _collect_verified_configurations()
    assert len(configs) >= 28
    complex_checked = 0
    for label, config in configs:
        d = config.d
        points = config.singular_points()
        tv = tvector_of_configuration(config)

        # pair-count conservation
        assert sum(comb(m, 2) for m in points.values()) == comb(d, 2), label

        # per-line parity
        for line in config.lines:
            on_line = [m for pt, m in points.items() if incident(line, pt)]
            assert sum(m - 1 for m in on_line) == d - 1, label

        # abstract filters are necessary conditions, so realizations pass them
        ks, counts = _line_profiles(tv)
        first = _profile_mix(tv, ks, counts)
        mults = [k for k in range(d, 1, -1) for _ in range(tv.t(k))]  # descending
        assert _multiplicity_sum(d, mults) is None, label
        assert _two_pencils(mults) is None, label
        assert _parity_profile(tv, ks, counts, first) is None, label
        assert _point_pairs(tv, ks, counts, first) is None, label

        # a mode's filters hold over every field it admits (Hirzebruch only over C)
        modes = [mode for mode in MODES if config.field.kind in admitted_kinds(mode)]
        assert MODE_ABSOLUTE in modes, label
        for mode in modes:
            assert not apply_all(tv, mode).is_excluded, (label, mode)
        complex_checked += MODE_COMPLEX in modes
    assert complex_checked >= 26  # the Q and Q(w) configurations

    # realize -> verify round trip reproduces the requested T exactly
    for d, counts, p in [
        (7, {3: 7}, 2),
        (9, {3: 12}, 3),
        (10, {3: 9, 4: 3}, 3),
        (5, {2: 4, 3: 2}, 2),
    ]:
        requested = TVector.from_mapping(d, counts)
        outcome = realize_over_prime_field(requested, p)
        cert = Certificate("roundtrip", FieldDescriptor.prime(p), outcome.lines, requested)
        assert verify_certificate(cert).tvector == requested
    print(f"PASS criterion 6: invariants hold on {len(configs)} verified configurations")


def _brute_force_cover_histograms(d):
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    hists = set()
    covered = set()
    sizes = []

    def search():
        rest = [p for p in pairs if p not in covered]
        if not rest:
            h = [0] * (d + 1)
            for s in sizes:
                h[s] += 1
            hists.add(tuple(h[2:]))
            return
        i, j = rest[0]
        others = [x for x in range(d) if x not in (i, j)]
        for r in range(len(others) + 1):
            for extra in combinations(others, r):
                clique = (i, j) + extra
                cpairs = [
                    (min(a, b), max(a, b))
                    for ai, a in enumerate(clique)
                    for b in clique[ai + 1 :]
                ]
                if any(p in covered for p in cpairs):
                    continue
                covered.update(cpairs)
                sizes.append(len(clique))
                search()
                sizes.pop()
                covered.difference_update(cpairs)

    search()
    return hists


def _f3_minimum_brute_force(d):
    """Exhaustive minimum over all d-subsets of the 13 lines of PG(2,3).

    Written against raw modular integers so it shares nothing with the
    geometry module.
    """
    lines = sorted(
        [(0, 0, 1)] + [(0, 1, c) for c in range(3)] + [(1, b, c) for b in range(3) for c in range(3)]
    )

    def normalize(v):
        lead = next(x for x in v if x % 3)
        inv = 1 if lead % 3 == 1 else 2
        return tuple((x * inv) % 3 for x in v)

    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    best = None
    for subset in combinations(lines, d):
        incidences = {}
        for a, b in combinations(subset, 2):
            pt = normalize(cross(a, b))
            incidences.setdefault(pt, set()).update((a, b))
        mults = [len(v) for v in incidences.values()]
        value = Fraction(d * d - sum(m * m for m in mults), len(mults))
        if best is None or value < best:
            best = value
    return best


def test_criterion_7_oracle_equivalence():
    checked = 0
    for d in range(2, 7):
        achievable = _brute_force_cover_histograms(d)
        for tv in enumerate_tvectors(d):
            expected = tv.counts in achievable
            assert feasible_arrangement(tv).feasible is expected, tv
            # no filter excludes a clique-partition histogram (Hirzebruch, not a
            # combinatorial bound, first does so at d = 7 with Fano)
            if expected:
                assert not apply_all(tv, MODE_ABSOLUTE).is_excluded, tv
                assert not apply_all(tv, MODE_COMPLEX).is_excluded, tv
            checked += 1

    abs_rows = {row.d: row.value for row in compute_table(6, MODE_ABSOLUTE, (2, 3), DB)}
    for d in range(2, 7):
        assert _f3_minimum_brute_force(d) == abs_rows[d], d
    print(f"PASS criterion 7: {checked} feasibility answers and F_3 minima match brute force")


def test_criterion_8_formula_checks():
    for d in range(3, 11):
        report = verify_certificate(DB.get(f"general-position-{d}"))
        assert report.value == Fraction(-2) + Fraction(2, d - 1), d
    for d in range(2, 11):
        assert verify_certificate(DB.get(f"pencil-{d}")).value == 0, d
    print("PASS criterion 8: general-position and pencil values match the closed forms")
