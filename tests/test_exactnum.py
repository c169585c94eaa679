from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harbourne import exactnum
from harbourne.exactnum import (
    SUPPORTED_PRIMES,
    EisensteinRational,
    FieldDescriptor,
    PrimeFieldElement,
    UnsupportedFieldError,
    scalar_from_json,
    scalar_to_json,
)
from normal_forms import field_add, field_inverse, field_mul, field_sub, is_zero

rationals = st.fractions(max_denominator=50)
eisensteins = st.builds(EisensteinRational, rationals, rationals)


def prime_elements(p):
    return st.builds(PrimeFieldElement, st.integers(min_value=0, max_value=p - 1), st.just(p))


def test_rational_addition():
    assert field_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_multiplication():
    two = PrimeFieldElement(2, 3)
    assert field_mul(two, two) == PrimeFieldElement(1, 3)


def test_omega_squared_reduces():
    w = EisensteinRational(0, 1)
    assert field_mul(w, w) == EisensteinRational(-1, -1)


def test_rational_inverse():
    assert field_inverse(Fraction(5, 3)) == Fraction(3, 5)


def test_prime_field_inverse():
    assert field_inverse(PrimeFieldElement(2, 3)) == PrimeFieldElement(2, 3)


def test_eisenstein_inverse_via_multiplication_oracle():
    x = EisensteinRational(1, 1)  # norm 1 - 1 + 1 = 1
    inv = field_inverse(x)
    assert field_mul(x, inv) == EisensteinRational(1, 0)


ARITHMETIC_DUNDERS = (
    "__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__",
    "__radd__", "__rsub__", "__rmul__", "__rtruediv__", "__rpow__",
)


def test_one_scalar_parser_and_no_mixed_field_error():
    assert not hasattr(exactnum, "as_scalar")
    assert not hasattr(exactnum, "FieldMismatchError")


@pytest.mark.parametrize("holder", [PrimeFieldElement, EisensteinRational], ids=lambda c: c.__name__)
def test_holders_define_no_arithmetic(holder):
    assert [name for name in ARITHMETIC_DUNDERS if hasattr(holder, name)] == []
    with pytest.raises(TypeError):
        holder(1, 3) + holder(1, 3)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        field_inverse(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        field_inverse(PrimeFieldElement(0, 5))
    with pytest.raises(ZeroDivisionError):
        field_inverse(EisensteinRational(0, 0))


def test_unsupported_prime_rejected():
    with pytest.raises(UnsupportedFieldError):
        PrimeFieldElement(1, 4)
    with pytest.raises(UnsupportedFieldError):
        PrimeFieldElement(1, 17)
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor.prime(9)
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor.prime(3.0)
    with pytest.raises(UnsupportedFieldError):
        PrimeFieldElement(1, 3.0)


@given(rationals)
def test_rational_inverse_roundtrip(x):
    if x != 0:
        assert field_mul(x, field_inverse(x)) == Fraction(1)


@given(st.sampled_from(SUPPORTED_PRIMES), st.data())
def test_prime_inverse_roundtrip(p, data):
    x = data.draw(prime_elements(p))
    if not is_zero(x):
        assert field_mul(x, field_inverse(x)) == PrimeFieldElement(1, p)


@given(eisensteins)
def test_eisenstein_inverse_roundtrip(x):
    if not is_zero(x):
        assert field_mul(x, field_inverse(x)) == EisensteinRational(1, 0)


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_rational_agrees_with_integers(a, b):
    assert field_add(Fraction(a), Fraction(b)) == a + b
    assert field_mul(Fraction(a), Fraction(b)) == a * b
    assert field_sub(Fraction(a), Fraction(b)) == a - b
    assert field_sub(Fraction(0), Fraction(a)) == -a


@given(st.sampled_from(SUPPORTED_PRIMES), st.integers(-200, 200), st.integers(-200, 200))
def test_prime_field_agrees_with_modular_integers(p, a, b):
    x, y = PrimeFieldElement(a, p), PrimeFieldElement(b, p)
    assert field_add(x, y).residue == (a + b) % p
    assert field_mul(x, y).residue == (a * b) % p
    assert field_sub(x, y).residue == (a - b) % p
    assert field_sub(PrimeFieldElement(0, p), x).residue == (-a) % p


@given(eisensteins, eisensteins, eisensteins)
def test_eisenstein_mul_commutative_associative(x, y, z):
    assert field_mul(x, y) == field_mul(y, x)
    assert field_mul(field_mul(x, y), z) == field_mul(x, field_mul(y, z))


def test_residue_range_invariant():
    assert PrimeFieldElement(7, 3).residue == 1
    assert PrimeFieldElement(-1, 5).residue == 4


@pytest.mark.parametrize(
    "scalar,field,encoded",
    [
        (Fraction(-29, 12), FieldDescriptor.rational(), "-29/12"),
        (Fraction(3), FieldDescriptor.rational(), "3"),
        (PrimeFieldElement(2, 3), FieldDescriptor.prime(3), 2),
        (EisensteinRational(Fraction(1, 2), Fraction(-1)), FieldDescriptor.eisenstein(), ["1/2", "-1"]),
    ],
    # the field is an input, not part of the case's name
    ids=["scalar0--29/12", "scalar1-3", "scalar2-2", "scalar3-encoded3"],
)
def test_scalar_serialization_roundtrip(scalar, field, encoded):
    assert scalar_to_json(scalar) == encoded
    assert scalar_from_json(encoded, field) == scalar
    assert scalar_from_json(scalar, field) == scalar  # a scalar of the field passes through


def test_scalar_parse_rejects_garbage():
    q, f3, qw = FieldDescriptor.rational(), FieldDescriptor.prime(3), FieldDescriptor.eisenstein()
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
        # a Q(w) entry is a pair of rationals: not a bare rational, a triple or a float part
        (1, qw),
        ("1/2", qw),
        ([1, 2, 3], qw),
        ([0.5, 0], qw),
        # scalars of another field, and floats
        (PrimeFieldElement(1, 5), f3),
        (PrimeFieldElement(1, 3), q),
        (Fraction(1), f3),
        (Fraction(1), qw),
        (EisensteinRational(1, 0), q),
        (1.0, q),
    ]
    for data, field in cases:
        with pytest.raises(ValueError):
            scalar_from_json(data, field)


def test_descriptor_json_roundtrip():
    for desc in (FieldDescriptor.rational(), FieldDescriptor.prime(3), FieldDescriptor.eisenstein()):
        assert FieldDescriptor.from_json(desc.to_json()) == desc


def test_identities():
    for desc, zero, one in (
        (FieldDescriptor.rational(), 0, 1),
        (FieldDescriptor.prime(7), 0, 1),
        (FieldDescriptor.eisenstein(), [0, 0], [1, 0]),
    ):
        assert is_zero(scalar_from_json(zero, desc))
        one = scalar_from_json(one, desc)
        assert field_mul(one, one) == one
