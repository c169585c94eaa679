import itertools
import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import comb
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harbourne import tspace
from harbourne.tspace import (
    TVector,
    enumerate_tvectors,
    quotient_fraction,
    render_decimal,
    render_mixed,
    require_solution,
)


@cache
def brute_force_solutions(d):
    """Naive nested-loop solution set: independent of the enumerator."""
    pairs = comb(d, 2)
    weights = [comb(k, 2) for k in range(2, d + 1)]
    ranges = [range(pairs // w + 1) for w in weights]
    return frozenset(
        combo for combo in itertools.product(*ranges) if sum(map(mul, weights, combo)) == pairs
    )


def test_d3_solutions():
    assert {tv.counts for tv in enumerate_tvectors(3)} == {(3, 0), (0, 1)}


def test_d4_has_exactly_four_solutions():
    vs = enumerate_tvectors(4)
    assert {tv.counts for tv in vs} == {(6, 0, 0), (3, 1, 0), (0, 2, 0), (0, 0, 1)}


def test_d10_ceiling_includes_key_rows():
    below = {tv.encode() for tv in enumerate_tvectors(10, Fraction(-34, 15))}
    assert "0,9,3,0,0,0,0,0,0" in below
    assert "0,1,7,0,0,0,0,0,0" in below


def test_d2_single_solution():
    vs = enumerate_tvectors(2)
    assert len(vs) == 1
    assert quotient_fraction(vs[0]) == 0


@pytest.mark.parametrize(
    "d,counts,expected",
    [
        (4, {2: 6}, Fraction(-4, 3)),
        (2, {2: 1}, Fraction(0)),
        (7, {3: 7}, Fraction(-2)),
        (10, {3: 9, 4: 3}, Fraction(-29, 12)),
    ],
)
def test_quotient_values(d, counts, expected):
    assert quotient_fraction(TVector.from_mapping(d, counts)) == expected


@pytest.mark.parametrize(
    "d,counts,expected",
    [
        (5, (4, 2, 0, 0), True),
        (5, (5, 2, 0, 0), False),
        (10, (3, 10, 2, 0, 0, 0, 0, 0, 0), True),
    ],
)
def test_identity_check(d, counts, expected):
    tv = TVector(d, counts)
    if expected:
        require_solution(tv)
    else:
        with pytest.raises(ValueError, match="pair-count identity"):
            require_solution(tv)


def test_invalid_degree():
    with pytest.raises(ValueError, match="need at least 2 lines"):
        enumerate_tvectors(1)
    with pytest.raises(ValueError, match="need at least 2 lines"):
        TVector(1, ())


def test_soft_cap_warns():
    for _ in range(2):  # the second call is served from the cache and warns as well
        with pytest.warns(UserWarning, match="d=11 exceeds"):
            enumerate_tvectors(11)


def test_every_enumerated_vector_satisfies_identity():
    for d in range(2, 11):
        for tv in enumerate_tvectors(d):
            require_solution(tv)


def test_all_double_points_quotient_formula():
    for d in range(2, 11):
        tv = TVector.from_mapping(d, {2: comb(d, 2)})
        assert quotient_fraction(tv) == Fraction(-2) + Fraction(2, d - 1)


def test_pencil_quotient_is_zero():
    for d in range(2, 11):
        assert quotient_fraction(TVector.from_mapping(d, {d: 1})) == 0


@pytest.mark.parametrize("d", range(2, 11))
def test_enumeration_count_matches_brute_force(d):
    assert len(enumerate_tvectors(d)) == len(brute_force_solutions(d))


def reference_order(d, q_ceiling=None):
    """T-space sorted by Fraction keys: q ascending, then (t_d, ..., t_2) descending.

    For d <= 10 the set comes from the brute-force loop, not from the enumerator.
    """
    if d <= 10:
        vs = [TVector(d, counts) for counts in brute_force_solutions(d)]
    else:
        vs = enumerate_tvectors(d)
    if q_ceiling is not None:
        vs = [tv for tv in vs if quotient_fraction(tv) <= q_ceiling]
    return sorted(vs, key=lambda tv: (quotient_fraction(tv), tuple(-c for c in reversed(tv.counts))))


def test_sorted_by_quotient_then_reverse_lex():
    for d in range(2, 11):
        assert enumerate_tvectors(d) == reference_order(d)


@pytest.mark.parametrize("d", (11, 12))
def test_sorted_beyond_the_supported_range(d):
    with pytest.warns(UserWarning):
        assert enumerate_tvectors(d) == reference_order(d)


@pytest.mark.parametrize(
    "ceiling", (Fraction(-34, 15), Fraction(-29, 12), Fraction(-2), Fraction(0))
)
def test_ceiling_keeps_the_boundary(ceiling):
    below = enumerate_tvectors(10, ceiling)
    assert below == reference_order(10, ceiling)
    assert any(quotient_fraction(tv) == ceiling for tv in below)


@pytest.mark.parametrize("d", range(2, 11))
def test_each_call_returns_a_new_list(d):
    first = enumerate_tvectors(d)
    second = enumerate_tvectors(d)
    assert first == second
    assert first is not second
    first.reverse()
    first.append(None)
    second.clear()
    assert enumerate_tvectors(d) == reference_order(d)


@pytest.mark.parametrize("d", range(2, 11))
def test_every_ceiling_keeps_the_solutions_up_to_it(d):
    full = enumerate_tvectors(d)
    quotients = sorted({quotient_fraction(tv) for tv in full})
    for q in quotients:
        assert enumerate_tvectors(d, q) == [tv for tv in full if quotient_fraction(tv) <= q]
    assert enumerate_tvectors(d, quotients[0] - Fraction(1, 10**6)) == []
    assert enumerate_tvectors(d, quotients[-1] + Fraction(1, 10**6)) == full


def test_importing_and_loading_the_database_builds_no_tspace():
    child = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import harbourne\n"
        "harbourne.builtin_certificates()\n"
        "print(harbourne.tspace._sorted_tspace.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", child, str(Path(tspace.__file__).parents[1])],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "0"


def test_enumeration_deterministic():
    first = [tv.encode() for tv in enumerate_tvectors(9)]
    second = [tv.encode() for tv in enumerate_tvectors(9)]
    assert first == second


def test_encode_decode_roundtrip():
    tv = TVector.from_mapping(10, {3: 9, 4: 3})
    assert tv.encode() == "0,9,3,0,0,0,0,0,0"
    assert TVector.decode(10, tv.encode()) == tv


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        TVector.decode(4, "1,2")
    with pytest.raises(ValueError):
        TVector.decode(4, "a,b,c")
    with pytest.raises(ValueError):
        TVector(4, (1, -1, 0))


@pytest.mark.parametrize(
    "d, counts, message",
    [
        (3, (0.5, 1), "multiplicity counts must be ints, got 0.5 in (0.5, 1)"),
        (3, (3, 0.0), "multiplicity counts must be ints, got 0.0 in (3, 0.0)"),
        (2, ("1",), "multiplicity counts must be ints, got '1' in ('1',)"),
        (2, (True,), "multiplicity counts must be ints, got True in (True,)"),
        (2.0, (1,), "d must be an int, got 2.0"),
        (True, (), "d must be an int, got True"),
        ("2", (1,), "d must be an int, got '2'"),
    ],
)
def test_non_int_input_is_refused_not_converted(d, counts, message):
    # int(0.5) is 0: converting made d=3:(0.5,1) the pencil d=3:(0,1), realized by pencil-3
    with pytest.raises(ValueError) as raised:
        TVector(d, counts)
    assert str(raised.value) == message


@given(st.integers(2, 10))
def test_multiplicities_consistent(d):
    for tv in enumerate_tvectors(d)[:5]:
        mults = tv.multiplicities()
        assert mults == sorted(mults, reverse=True)
        assert len(mults) == tv.s
        for k in range(2, d + 1):
            assert mults.count(k) == tv.t(k)


@pytest.mark.parametrize(
    "value,decimal,mixed",
    [
        (Fraction(-29, 12), "-2.416667", "-2 5/12"),
        (Fraction(-4, 3), "-1.333333", "-1 1/3"),
        (Fraction(-3, 2), "-1.500000", "-1 1/2"),
        (Fraction(0), "0.000000", "0"),
        (Fraction(-2), "-2.000000", "-2"),
        (Fraction(-34, 15), "-2.266667", "-2 4/15"),
        (Fraction(5, 6), "0.833333", "5/6"),
        (Fraction(-1, 2), "-0.500000", "-1/2"),
    ],
)
def test_rendering(value, decimal, mixed):
    assert render_decimal(value) == decimal
    assert render_mixed(value) == mixed


def test_quotient_value_renderings_derived_from_value():
    q = quotient_fraction(TVector.from_mapping(10, {3: 9, 4: 3}))
    assert q == Fraction(-29, 12)
    assert (render_decimal(q), render_mixed(q)) == ("-2.416667", "-2 5/12")
