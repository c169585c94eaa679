"""Exact scalars at the certificate boundary.

A certificate's coordinates lie in Q (``fractions.Fraction``), in F_p for
p in {2, 3, 5, 7, 11, 13} (``PrimeFieldElement``) or in Q(w), a + b*w
with w^2 = -1 - w (``EisensteinRational``).  The two classes only hold
values: they compare and hash, and define no arithmetic; the
verifier computes on cleared integers over Z, Z[w] and Z/p instead.

``scalar_from_json`` is the one parser, and ``Certificate`` runs it on
every coordinate, so field membership is checked there and nowhere else.
It accepts an int or an "n/d" string over Q, an int in [0, p) over F_p,
a two-element array of those rationals over Q(w), and scalars already of
the field; anything else (booleans, floats, "0.5") is a ValueError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._value import Value

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
_RATIONAL_WIRE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # str(Fraction): "n" or "n/d"

RATIONAL = "rational"
PRIME = "prime"
EISENSTEIN = "eisenstein"


class UnsupportedFieldError(ValueError):
    """Raised for field descriptors outside the supported set."""


class FieldDescriptor(Value):
    """Names one of the supported coordinate fields."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind not in (RATIONAL, PRIME, EISENSTEIN):
            raise UnsupportedFieldError(f"unknown field kind {kind!r}")
        if kind == PRIME:
            if not isinstance(p, int) or p not in SUPPORTED_PRIMES:
                raise UnsupportedFieldError(
                    f"prime field modulus must be one of {SUPPORTED_PRIMES}, got {p!r}"
                )
        elif p is not None:
            raise UnsupportedFieldError(f"field kind {kind!r} takes no modulus")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    @classmethod
    def rational(cls) -> "FieldDescriptor":
        return cls(RATIONAL)

    @classmethod
    def prime(cls, p: int) -> "FieldDescriptor":
        return cls(PRIME, p)

    @classmethod
    def eisenstein(cls) -> "FieldDescriptor":
        return cls(EISENSTEIN)

    def to_json(self) -> dict:
        if self.kind == PRIME:
            return {"kind": PRIME, "p": self.p}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, data: dict) -> "FieldDescriptor":
        if not isinstance(data, dict):
            raise UnsupportedFieldError(f"field must be an object, got {data!r}")
        return cls(data.get("kind"), data.get("p"))

    def __str__(self) -> str:
        if self.kind == PRIME:
            return f"F_{self.p}"
        return "Q" if self.kind == RATIONAL else "Q(w)"


class PrimeFieldElement(Value):
    """Residue in [0, p) for a supported prime p."""

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int) -> None:
        FieldDescriptor.prime(p)  # raises UnsupportedFieldError for an unsupported p
        object.__setattr__(self, "residue", residue % p)
        object.__setattr__(self, "p", p)


class EisensteinRational(Value):
    """a + b*w with w a primitive cube root of unity, over the rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))


ExactScalar = Fraction | PrimeFieldElement | EisensteinRational


def scalar_to_json(x: ExactScalar):
    """Wire encoding: rationals "n/d" (or "n"), residues as ints, a + b*w as ["a", "b"]."""
    if isinstance(x, PrimeFieldElement):
        return x.residue
    if isinstance(x, EisensteinRational):
        return [str(x.a), str(x.b)]
    return str(x)


def _rational(data) -> Fraction:
    wire = isinstance(data, str) and _RATIONAL_WIRE.fullmatch(data)
    if wire or isinstance(data, (int, Fraction)) and not isinstance(data, bool):
        return Fraction(data)
    raise ValueError(f"rational scalar must be an int or an \"n/d\" string, got {data!r}")


def scalar_from_json(data, field: FieldDescriptor) -> ExactScalar:
    """One coordinate as a scalar of ``field``; ZeroDivisionError for an "n/0" string."""
    if field.kind == RATIONAL:
        return _rational(data)
    if field.kind == PRIME:
        if isinstance(data, PrimeFieldElement) and data.p == field.p:
            return data
        if isinstance(data, int) and not isinstance(data, bool) and 0 <= data < field.p:
            return PrimeFieldElement(data, field.p)
        raise ValueError(f"prime field scalar must be an int in [0, {field.p}), got {data!r}")
    if isinstance(data, EisensteinRational):
        return data
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"Eisenstein scalar must be a two-element array, got {data!r}")
    return EisensteinRational(_rational(data[0]), _rational(data[1]))
