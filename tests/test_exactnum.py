import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harbourne import exactnum, pipeline
from harbourne.exactnum import (
    EISENSTEIN,
    PRIME,
    RATIONAL,
    SUPPORTED_PRIMES,
    FieldDescriptor,
    UnsupportedFieldError,
    scalar_from_json,
    scalar_to_json,
)
from normal_forms import field_add, field_inverse, field_mul, field_sub, is_zero

Q, QW = FieldDescriptor.rational(), FieldDescriptor.eisenstein()
rationals = st.fractions(max_denominator=50)
eisensteins = st.tuples(rationals, rationals)
# one field of each kind, named by its kind
KIND_FIELDS = [Q, FieldDescriptor.prime(5), QW]
KIND_IDS = [field.kind for field in KIND_FIELDS]


def scalars(field):
    """Plain values of ``field``: what ``scalar_from_json`` returns."""
    if field.kind == PRIME:
        return st.integers(0, field.p - 1)
    return eisensteins if field.kind == EISENSTEIN else rationals


def ring_ints(field):
    """Ring integers of ``field`` as a cleared line holds them; Z/p values are unreduced."""
    ints = st.integers(-60, 60)
    return st.tuples(ints, ints) if field.kind == EISENSTEIN else ints


def test_rational_addition():
    assert field_add(Q, Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_multiplication():
    assert field_mul(FieldDescriptor.prime(3), 2, 2) == 1


def test_omega_squared_reduces():
    assert field_mul(QW, (0, 1), (0, 1)) == (-1, -1)


def test_rational_inverse():
    assert field_inverse(Q, Fraction(5, 3)) == Fraction(3, 5)


def test_prime_field_inverse():
    assert field_inverse(FieldDescriptor.prime(3), 2) == 2


def test_eisenstein_inverse_via_multiplication_oracle():
    x = (Fraction(1), Fraction(1))  # norm 1 - 1 + 1 = 1
    inv = field_inverse(QW, x)
    assert field_mul(QW, x, inv) == (1, 0)


def test_one_scalar_parser_and_no_mixed_field_error():
    assert not hasattr(exactnum, "as_scalar")
    assert not hasattr(exactnum, "FieldMismatchError")


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        field_inverse(Q, Fraction(0))
    with pytest.raises(ZeroDivisionError):
        field_inverse(FieldDescriptor.prime(5), 0)
    with pytest.raises(ZeroDivisionError):
        field_inverse(QW, (Fraction(0), Fraction(0)))


def test_unsupported_prime_rejected():
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor.prime(4)
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor.prime(17)
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor.prime(9)
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor.prime(3.0)


@given(rationals)
def test_rational_inverse_roundtrip(x):
    if x != 0:
        assert field_mul(Q, x, field_inverse(Q, x)) == Fraction(1)


@given(st.sampled_from(SUPPORTED_PRIMES), st.data())
def test_prime_inverse_roundtrip(p, data):
    fp = FieldDescriptor.prime(p)
    x = data.draw(st.integers(0, p - 1))
    if not is_zero(fp, x):
        assert field_mul(fp, x, field_inverse(fp, x)) == 1


@given(eisensteins)
def test_eisenstein_inverse_roundtrip(x):
    if not is_zero(QW, x):
        assert field_mul(QW, x, field_inverse(QW, x)) == (1, 0)


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_rational_agrees_with_integers(a, b):
    assert field_add(Q, Fraction(a), Fraction(b)) == a + b
    assert field_mul(Q, Fraction(a), Fraction(b)) == a * b
    assert field_sub(Q, Fraction(a), Fraction(b)) == a - b
    assert field_sub(Q, Fraction(0), Fraction(a)) == -a


@given(st.sampled_from(SUPPORTED_PRIMES), st.integers(-200, 200), st.integers(-200, 200))
def test_prime_field_agrees_with_modular_integers(p, a, b):
    fp = FieldDescriptor.prime(p)
    x, y = a % p, b % p
    assert field_add(fp, x, y) == (a + b) % p
    assert field_mul(fp, x, y) == (a * b) % p
    assert field_sub(fp, x, y) == (a - b) % p
    assert field_sub(fp, 0, x) == (-a) % p


@given(eisensteins, eisensteins, eisensteins)
def test_eisenstein_mul_commutative_associative(x, y, z):
    assert field_mul(QW, x, y) == field_mul(QW, y, x)
    assert field_mul(QW, field_mul(QW, x, y), z) == field_mul(QW, x, field_mul(QW, y, z))


@pytest.mark.parametrize(
    "scalar,field,encoded",
    [
        (Fraction(-29, 12), Q, "-29/12"),
        (Fraction(3), Q, "3"),
        (2, FieldDescriptor.prime(3), 2),
        ((Fraction(1, 2), Fraction(-1)), QW, ["1/2", "-1"]),
    ],
    # the field is an input, not part of the case's name
    ids=["scalar0--29/12", "scalar1-3", "scalar2-2", "scalar3-encoded3"],
)
def test_scalar_serialization_roundtrip(scalar, field, encoded):
    assert scalar_to_json(scalar, field) == encoded
    assert scalar_from_json(encoded, field) == scalar
    assert scalar_from_json(scalar, field) == scalar  # a plain value parses as itself


def test_residue_range_invariant():
    # an F_p coordinate is a plain int in [0, p): the parser keeps exactly those
    for p in SUPPORTED_PRIMES:
        fp = FieldDescriptor.prime(p)
        assert [scalar_from_json(r, fp) for r in range(p)] == list(range(p))
        for outside in (-1, p, p + 1, 2 * p):
            with pytest.raises(ValueError, match=rf"in \[0, {p}\), got {outside}$"):
                scalar_from_json(outside, fp)


@pytest.mark.parametrize("field", KIND_FIELDS, ids=KIND_IDS)
@given(data=st.data())
def test_wire_scalar_roundtrip(field, data):
    x = data.draw(scalars(field))
    wire = json.loads(json.dumps(scalar_to_json(x, field)))
    parsed = scalar_from_json(wire, field)
    assert parsed == x
    assert type(parsed) is type(x)
    if field.kind == EISENSTEIN:
        assert all(type(part) is Fraction for part in parsed)


@pytest.mark.parametrize("field", KIND_FIELDS, ids=KIND_IDS)
@given(data=st.data())
def test_kind_ring_agrees_with_oracle(field, data):
    times, plus, minus, ring_is_zero = exactnum._KINDS[field.kind].ring(field.p)
    x, y = data.draw(ring_ints(field)), data.draw(ring_ints(field))
    reduce = (lambda v: v % field.p) if field.kind == PRIME else (lambda v: v)
    assert reduce(times(x, y)) == field_mul(field, x, y)
    assert reduce(plus(x, y)) == field_add(field, x, y)
    assert reduce(minus(x, y)) == field_sub(field, x, y)
    assert ring_is_zero(x) == is_zero(field, x)
    assert ring_is_zero(minus(x, x))


@pytest.mark.parametrize("field", KIND_FIELDS, ids=KIND_IDS)
@given(data=st.data())
def test_cleared_line_is_a_nonzero_multiple(field, data):
    nonzero = st.tuples(*[scalars(field)] * 3).filter(lambda t: not all(is_zero(field, c) for c in t))
    line = data.draw(nonzero)
    cleared = exactnum._KINDS[field.kind].clear(line)
    assert len(cleared) == 3
    parts = [x for c in cleared for x in c] if field.kind == EISENSTEIN else list(cleared)
    assert all(type(x) is int for x in parts)
    assert not all(is_zero(field, c) for c in cleared)
    # proportional triples: every 2x2 minor of (line, cleared) vanishes
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minor = field_sub(field, field_mul(field, line[i], cleared[j]), field_mul(field, line[j], cleared[i]))
        assert is_zero(field, minor)


def test_kind_characteristics():
    assert pipeline.ALL_KINDS == (RATIONAL, PRIME, EISENSTEIN)
    assert pipeline.CHAR0_KINDS == (RATIONAL, EISENSTEIN)


def test_scalar_parse_rejects_garbage():
    q, f3, qw = Q, FieldDescriptor.prime(3), QW
    cases = [
        ([1], qw),
        (5, f3),
        ([], q),
        # booleans are ints to Python, never coordinates
        (True, q),
        (False, f3),
        ([True, 0], qw),
        # residues are not reduced: -1 over F_3 is out of range
        (-1, f3),
        # rational strings are "n" or "n/d", as str(Fraction) writes them
        ("0.5", q),
        ("1e3", q),
        (" 1/2", q),
        ("+1", q),
        ("1/0", q),
        (["0", "1/0"], qw),
        # a Q(w) entry is a pair of rationals: not a bare rational, a triple or a float part
        (1, qw),
        ("1/2", qw),
        ([1, 2, 3], qw),
        ([0.5, 0], qw),
        # values of another field, and floats
        (Fraction(1), f3),
        (Fraction(1), qw),
        ((Fraction(1), Fraction(0)), q),
        (1.0, q),
    ]
    for data, field in cases:
        with pytest.raises(ValueError):
            scalar_from_json(data, field)


def test_descriptor_json_roundtrip():
    for desc in (Q, FieldDescriptor.prime(3), QW):
        assert FieldDescriptor.from_json(desc.to_json()) == desc


def test_identities():
    for desc, zero, one in (
        (Q, 0, 1),
        (FieldDescriptor.prime(7), 0, 1),
        (QW, [0, 0], [1, 0]),
    ):
        assert is_zero(desc, scalar_from_json(zero, desc))
        one = scalar_from_json(one, desc)
        assert field_mul(desc, one, one) == one
