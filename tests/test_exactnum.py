from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harbourne.exactnum import (
    SUPPORTED_PRIMES,
    EisensteinRational,
    FieldDescriptor,
    FieldMismatchError,
    PrimeFieldElement,
    UnsupportedFieldError,
    as_scalar,
    scalar_from_json,
    scalar_to_json,
)
from normal_forms import field_inverse, is_zero

rationals = st.fractions(max_denominator=50)
eisensteins = st.builds(EisensteinRational, rationals, rationals)


def prime_elements(p):
    return st.builds(PrimeFieldElement, st.integers(min_value=0, max_value=p - 1), st.just(p))


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_prime_field_multiplication():
    two = PrimeFieldElement(2, 3)
    assert two * two == PrimeFieldElement(1, 3)


def test_omega_squared_reduces():
    w = EisensteinRational(0, 1)
    assert w * w == EisensteinRational(-1, -1)


def test_rational_inverse():
    assert field_inverse(Fraction(5, 3)) == Fraction(3, 5)


def test_prime_field_inverse():
    assert field_inverse(PrimeFieldElement(2, 3)) == PrimeFieldElement(2, 3)


def test_eisenstein_inverse_via_multiplication_oracle():
    x = EisensteinRational(1, 1)  # norm 1 - 1 + 1 = 1
    inv = field_inverse(x)
    assert x * inv == EisensteinRational(1, 0)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        PrimeFieldElement(1, 3) + Fraction(1)
    with pytest.raises(FieldMismatchError):
        PrimeFieldElement(1, 3) * PrimeFieldElement(1, 5)
    with pytest.raises(FieldMismatchError):
        EisensteinRational(1, 0) + Fraction(1)
    # a foreign scalar on the left falls back to the reflected operator
    with pytest.raises(FieldMismatchError):
        Fraction(1) + PrimeFieldElement(1, 3)
    with pytest.raises(FieldMismatchError):
        1 - PrimeFieldElement(1, 3)
    with pytest.raises(FieldMismatchError):
        Fraction(1) * PrimeFieldElement(1, 3)
    with pytest.raises(FieldMismatchError):
        Fraction(1) + EisensteinRational(1, 0)
    with pytest.raises(FieldMismatchError):
        Fraction(1) - EisensteinRational(1, 0)
    with pytest.raises(FieldMismatchError):
        2 * EisensteinRational(1, 0)


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


@given(rationals)
def test_rational_inverse_roundtrip(x):
    if x != 0:
        assert x * field_inverse(x) == Fraction(1)


@given(st.sampled_from(SUPPORTED_PRIMES), st.data())
def test_prime_inverse_roundtrip(p, data):
    x = data.draw(prime_elements(p))
    if not is_zero(x):
        assert x * field_inverse(x) == PrimeFieldElement(1, p)


@given(eisensteins)
def test_eisenstein_inverse_roundtrip(x):
    if not is_zero(x):
        assert x * field_inverse(x) == EisensteinRational(1, 0)


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_rational_agrees_with_integers(a, b):
    assert Fraction(a) + Fraction(b) == a + b
    assert Fraction(a) * Fraction(b) == a * b
    assert -Fraction(a) == -a


@given(st.sampled_from(SUPPORTED_PRIMES), st.integers(-200, 200), st.integers(-200, 200))
def test_prime_field_agrees_with_modular_integers(p, a, b):
    x, y = PrimeFieldElement(a, p), PrimeFieldElement(b, p)
    assert (x + y).residue == (a + b) % p
    assert (x * y).residue == (a * b) % p
    assert (x - y).residue == (a - b) % p
    assert (-x).residue == (-a) % p


@given(eisensteins, eisensteins, eisensteins)
def test_eisenstein_mul_commutative_associative(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


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


def test_scalar_parse_rejects_garbage():
    with pytest.raises(ValueError):
        scalar_from_json([1], FieldDescriptor.eisenstein())
    with pytest.raises(ValueError):
        scalar_from_json(5, FieldDescriptor.prime(3))
    with pytest.raises(ValueError):
        scalar_from_json([], FieldDescriptor.rational())


def test_descriptor_json_roundtrip():
    for desc in (FieldDescriptor.rational(), FieldDescriptor.prime(3), FieldDescriptor.eisenstein()):
        assert FieldDescriptor.from_json(desc.to_json()) == desc


def test_identities():
    for desc in (FieldDescriptor.rational(), FieldDescriptor.prime(7), FieldDescriptor.eisenstein()):
        assert is_zero(as_scalar(0, desc))
        one = as_scalar(1, desc)
        assert one * one == one
