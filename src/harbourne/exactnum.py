"""Field kinds and their scalars, at the certificate boundary.

A certificate's coordinates lie in Q, in F_p for p in {2, 3, 5, 7, 11,
13} or in Q(w), a + b*w with w^2 = -1 - w.  They are plain values: a
``Fraction`` over Q, a residue ``int`` in [0, p) over F_p and a pair
``(a, b)`` of ``Fraction`` over Q(w).  Everything the program knows of a
kind lives in its one record in ``_KINDS``: how to parse a wire scalar,
how to emit one, how to clear a line to ring integers (Z, Z/p or Z[w])
and that ring's ``(times, plus, minus, is_zero)``.

``scalar_from_json`` is the one parser, and ``Certificate`` runs it on
every coordinate, so field membership is checked there and nowhere else.
It accepts an int or an "n/d" string over Q, an int in [0, p) over F_p
and a two-element array of those rationals over Q(w); the plain values
above parse as themselves, and anything else (booleans, floats, "0.5",
"1/0") is a ValueError.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import add, mul, sub

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
        if not isinstance(kind, str) or kind not in _KINDS:
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


def _rational(data, p=None) -> Fraction:
    wire = isinstance(data, str) and _RATIONAL_WIRE.fullmatch(data)
    if wire or isinstance(data, (int, Fraction)) and not isinstance(data, bool):
        try:
            return Fraction(data)
        except ZeroDivisionError:  # only an "n/0" string gets here
            raise ValueError(f"rational scalar has a zero denominator: {data!r}") from None
    raise ValueError(f"rational scalar must be an int or an \"n/d\" string, got {data!r}")


def _residue(data, p: int) -> int:
    if isinstance(data, int) and not isinstance(data, bool) and 0 <= data < p:
        return data
    raise ValueError(f"prime field scalar must be an int in [0, {p}), got {data!r}")


def _eisenstein(data, p=None) -> tuple[Fraction, Fraction]:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"Eisenstein scalar must be a two-element array, got {data!r}")
    return _rational(data[0]), _rational(data[1])


def _cleared_rational(line) -> tuple[int, ...]:
    # scaling a line by a nonzero constant leaves the line unchanged
    scale = lcm(*(c.denominator for c in line))
    return tuple(c.numerator * (scale // c.denominator) for c in line)


def _cleared_eisenstein(line) -> tuple[tuple[int, int], ...]:
    ints = _cleared_rational([x for c in line for x in c])
    return tuple(zip(ints[::2], ints[1::2]))


def _eisenstein_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    # (a1 + b1 w)(a2 + b2 w) = (a1 a2 - b1 b2) + (a1 b2 + a2 b1 - b1 b2) w, as w^2 = -1 - w
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)


def _eisenstein_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] + y[0], x[1] + y[1])


def _eisenstein_sub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] - y[0], x[1] - y[1])


# One record per field kind; p is the field's modulus, None outside F_p.  parse(data, p)
# reads a wire scalar into its plain value and emit(value) writes it back; clear(line)
# scales a parsed line to ring integers and ring(p) is (times, plus, minus, is_zero) on them.
_Kind = namedtuple("_Kind", "parse emit clear ring")
_KINDS = {
    RATIONAL: _Kind(_rational, str, _cleared_rational, lambda p: (mul, add, sub, (0).__eq__)),
    PRIME: _Kind(_residue, int, tuple, lambda p: (mul, add, sub, lambda x: x % p == 0)),
    EISENSTEIN: _Kind(
        _eisenstein,
        lambda x: [str(x[0]), str(x[1])],
        _cleared_eisenstein,
        lambda p: (_eisenstein_mul, _eisenstein_add, _eisenstein_sub, (0, 0).__eq__),
    ),
}


def scalar_to_json(x, field: FieldDescriptor):
    """Wire encoding: rationals "n/d" (or "n"), residues as ints, a + b*w as ["a", "b"]."""
    return _KINDS[field.kind].emit(x)


def scalar_from_json(data, field: FieldDescriptor):
    """One coordinate of ``field`` as its plain value."""
    return _KINDS[field.kind].parse(data, field.p)
