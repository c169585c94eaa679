"""Exact arithmetic over the coordinate fields used by the search.

Three scalar families cover everything the engine needs:

* arbitrary-precision rationals (``fractions.Fraction``),
* the prime fields F_p for p in {2, 3, 5, 7, 11, 13},
* the Eisenstein rationals Q(w), written a + b*w with w^2 = -1 - w.

Every scalar is immutable and hashable, so values can be shared freely
(e.g. as dict keys when grouping intersection points).  All arithmetic
is exact; there are no tolerances anywhere downstream.

Field membership is established once, at the boundary: ``as_scalar``
coerces program data and ``scalar_from_json`` parses wire data into the
scalar type of a ``FieldDescriptor``.  Past that point the code uses
``+``, ``-`` and ``*`` directly.  Mixing two fields still fails: the
F_p and Q(w) types raise ``FieldMismatchError`` from their own
``_check``, and a ``Fraction`` on the left raises ``TypeError``, since
neither type defines reflected operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

RATIONAL = "rational"
PRIME = "prime"
EISENSTEIN = "eisenstein"


class FieldMismatchError(ValueError):
    """Raised when two scalars from different fields are combined."""


class UnsupportedFieldError(ValueError):
    """Raised for field descriptors outside the supported set."""


@dataclass(frozen=True)
class FieldDescriptor:
    """Names one of the supported coordinate fields."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (RATIONAL, PRIME, EISENSTEIN):
            raise UnsupportedFieldError(f"unknown field kind {self.kind!r}")
        if self.kind == PRIME:
            if self.p not in SUPPORTED_PRIMES:
                raise UnsupportedFieldError(
                    f"prime field modulus must be one of {SUPPORTED_PRIMES}, got {self.p!r}"
                )
        elif self.p is not None:
            raise UnsupportedFieldError(f"field kind {self.kind!r} takes no modulus")

    @classmethod
    def rational(cls) -> "FieldDescriptor":
        return cls(RATIONAL)

    @classmethod
    def prime(cls, p: int) -> "FieldDescriptor":
        return cls(PRIME, p)

    @classmethod
    def eisenstein(cls) -> "FieldDescriptor":
        return cls(EISENSTEIN)

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == PRIME else 0

    def to_json(self) -> dict:
        if self.kind == PRIME:
            return {"kind": PRIME, "p": self.p}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, data: dict) -> "FieldDescriptor":
        kind = data.get("kind")
        if kind == PRIME:
            return cls.prime(data["p"])
        if kind in (RATIONAL, EISENSTEIN):
            return cls(kind)
        raise UnsupportedFieldError(f"unknown field kind {kind!r}")

    def __str__(self) -> str:
        if self.kind == PRIME:
            return f"F_{self.p}"
        return "Q" if self.kind == RATIONAL else "Q(w)"


@dataclass(frozen=True)
class PrimeFieldElement:
    """Residue in [0, p) for a supported prime p."""

    residue: int
    p: int

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise UnsupportedFieldError(
                f"prime field modulus must be one of {SUPPORTED_PRIMES}, got {self.p!r}"
            )
        object.__setattr__(self, "residue", self.residue % self.p)

    def _check(self, other: "PrimeFieldElement") -> None:
        if not isinstance(other, PrimeFieldElement) or other.p != self.p:
            raise FieldMismatchError(f"cannot combine F_{self.p} with {other!r}")

    def __add__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement(self.residue + other.residue, self.p)

    def __sub__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement(self.residue - other.residue, self.p)

    def __mul__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement(self.residue * other.residue, self.p)

    def __neg__(self) -> "PrimeFieldElement":
        return PrimeFieldElement(-self.residue, self.p)

    def inverse(self) -> "PrimeFieldElement":
        if self.residue == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return PrimeFieldElement(pow(self.residue, self.p - 2, self.p), self.p)

    def is_zero(self) -> bool:
        return self.residue == 0

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.p})"


@dataclass(frozen=True)
class EisensteinRational:
    """a + b*w with w a primitive cube root of unity, over the rationals.

    Multiplication reduces w^2 to -1 - w.  The norm a^2 - a*b + b^2 is a
    positive definite form over Q, so every nonzero element is invertible.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def _check(self, other: "EisensteinRational") -> None:
        if not isinstance(other, EisensteinRational):
            raise FieldMismatchError(f"cannot combine Q(w) with {other!r}")

    def __add__(self, other: "EisensteinRational") -> "EisensteinRational":
        self._check(other)
        return EisensteinRational(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinRational") -> "EisensteinRational":
        self._check(other)
        return EisensteinRational(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "EisensteinRational") -> "EisensteinRational":
        self._check(other)
        # (a1 + b1 w)(a2 + b2 w) = a1 a2 + (a1 b2 + a2 b1) w + b1 b2 w^2
        #                        = (a1 a2 - b1 b2) + (a1 b2 + a2 b1 - b1 b2) w
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return EisensteinRational(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)

    def __neg__(self) -> "EisensteinRational":
        return EisensteinRational(-self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "EisensteinRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("0 has no inverse in Q(w)")
        # conjugate of a + b w is (a - b) - b w, and x * conj(x) = norm(x)
        return EisensteinRational((self.a - self.b) / n, -self.b / n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a} + {self.b}w"


ExactScalar = Fraction | PrimeFieldElement | EisensteinRational


def field_inverse(x: ExactScalar) -> ExactScalar:
    if isinstance(x, Fraction):
        if x == 0:
            raise ZeroDivisionError("0 has no inverse in Q")
        return 1 / x
    return x.inverse()


def is_zero(x: ExactScalar) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    return x.is_zero()


def as_scalar(value, field: FieldDescriptor) -> ExactScalar:
    """Coerce ints, fraction strings, or (a, b) pairs into a field scalar."""
    if field.kind == RATIONAL:
        if isinstance(value, (int, str, Fraction)):
            return Fraction(value)
    elif field.kind == PRIME:
        if isinstance(value, PrimeFieldElement):
            if value.p != field.p:
                raise FieldMismatchError(f"residue mod {value.p} used in F_{field.p}")
            return value
        if isinstance(value, int):
            return PrimeFieldElement(value, field.p)
    else:
        if isinstance(value, EisensteinRational):
            return value
        if isinstance(value, (int, str, Fraction)):
            return EisensteinRational(Fraction(value), Fraction(0))
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return EisensteinRational(Fraction(value[0]), Fraction(value[1]))
    raise UnsupportedFieldError(f"cannot coerce {value!r} into {field}")


def scalar_to_json(x: ExactScalar):
    """Wire encoding: rationals "n/d" (or "n"), residues as ints, a + b*w as ["a", "b"]."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, PrimeFieldElement):
        return x.residue
    if isinstance(x, EisensteinRational):
        return [str(x.a), str(x.b)]
    raise UnsupportedFieldError(f"not an exact scalar: {x!r}")


def scalar_from_json(data, field: FieldDescriptor) -> ExactScalar:
    if field.kind == RATIONAL:
        if not isinstance(data, (str, int)):
            raise ValueError(f"rational scalar must be a string, got {data!r}")
        return Fraction(data)
    if field.kind == PRIME:
        if not isinstance(data, int) or not 0 <= data < field.p:
            raise ValueError(f"prime field scalar must be an int in [0, {field.p}), got {data!r}")
        return PrimeFieldElement(data, field.p)
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"Eisenstein scalar must be a two-element array, got {data!r}")
    return EisensteinRational(Fraction(data[0]), Fraction(data[1]))
