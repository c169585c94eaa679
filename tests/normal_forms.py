"""Normal-form projective geometry: the tests' independent multiplicity oracle.

``harbourne.geometry.verify_certificate`` reads a configuration's
T-vector off exact determinants over cleared integers.  This module
computes the same numbers by a second algorithm: every line is put in a
normal form, the pairwise intersection points are normalized too, and
points are grouped in a dict keyed by their coordinates.  The oracle owns
its arithmetic: ``harbourne.exactnum``'s scalars are plain values (a
``Fraction`` over Q, a residue ``int`` over F_p, a ``(Fraction,
Fraction)`` pair over Q(w)), so the field operations the normal forms
need (``field_add``, ``field_sub``, ``field_mul``, ``field_inverse`` and
``is_zero``, each given the field) are written here, and the package's
rings are not imported.  The two paths share nothing beyond the field
descriptor and the one scalar parser, so agreement between them is
evidence for both.  Nothing in ``harbourne`` imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from harbourne._value import Value
from harbourne.exactnum import (
    EISENSTEIN,
    PRIME,
    RATIONAL,
    FieldDescriptor,
    scalar_from_json,
    scalar_to_json,
)
from harbourne.geometry import (
    Certificate,
    CertificateError,
    InvalidConfigurationError,
    _plane_residues,
)
from harbourne.tspace import TVector


def is_zero(field: FieldDescriptor, x) -> bool:
    if field.kind == EISENSTEIN:
        return x[0] == 0 and x[1] == 0
    if field.kind == PRIME:
        return x % field.p == 0
    return x == 0


def field_add(field: FieldDescriptor, x, y):
    if field.kind == PRIME:
        return (x + y) % field.p
    if field.kind == EISENSTEIN:
        return (x[0] + y[0], x[1] + y[1])
    return x + y


def field_sub(field: FieldDescriptor, x, y):
    if field.kind == PRIME:
        return (x - y) % field.p
    if field.kind == EISENSTEIN:
        return (x[0] - y[0], x[1] - y[1])
    return x - y


def field_mul(field: FieldDescriptor, x, y):
    if field.kind == PRIME:
        return x * y % field.p
    if field.kind == EISENSTEIN:
        # (a1 + b1 w)(a2 + b2 w) = (a1 a2 - b1 b2) + (a1 b2 + a2 b1 - b1 b2) w, as w^2 = -1 - w
        (a1, b1), (a2, b2) = x, y
        return (a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)
    return x * y


def field_inverse(field: FieldDescriptor, x):
    if is_zero(field, x):
        raise ZeroDivisionError(f"0 has no inverse: {x!r}")
    if field.kind == RATIONAL:
        return 1 / x
    if field.kind == PRIME:
        return pow(x, field.p - 2, field.p)
    # conjugate of a + b w is (a - b) - b w, and x * conj(x) is the norm
    # a^2 - a b + b^2, which is positive definite over Q
    a, b = x
    n = Fraction(a * a - a * b + b * b)
    return ((a - b) / n, -b / n)


class ProjTriple(Value):
    """Normalized homogeneous coordinates (a : b : c) over one field.

    Normal forms: over finite fields and Q(w) the first nonzero
    coordinate is 1; over Q the coordinates are coprime integers with a
    positive leading entry.  Normalized equality is projective equality.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: FieldDescriptor, coords: tuple) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def make(cls, field: FieldDescriptor, raw) -> "ProjTriple":
        if len(raw) != 3:
            raise InvalidConfigurationError(f"expected 3 coordinates, got {len(raw)}")
        coords = tuple(scalar_from_json(v, field) for v in raw)
        if all(is_zero(field, c) for c in coords):
            raise InvalidConfigurationError("all-zero coordinate triple")
        return cls(field, _normalize(field, coords))

    def to_json(self) -> list:
        return [scalar_to_json(c, self.field) for c in self.coords]


def _normalize(field: FieldDescriptor, coords) -> tuple:
    if field.kind == RATIONAL:
        denom_lcm = 1
        for c in coords:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in coords]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = [-v for v in ints]
        return tuple(Fraction(v) for v in ints)
    lead = next(c for c in coords if not is_zero(field, c))
    inv = field_inverse(field, lead)
    return tuple(field_mul(field, c, inv) for c in coords)


def dot(u: ProjTriple, v: ProjTriple):
    f = u.field
    a, b, c = (field_mul(f, x, y) for x, y in zip(u.coords, v.coords))
    return field_add(f, field_add(f, a, b), c)


def incident(line: ProjTriple, point: ProjTriple) -> bool:
    return is_zero(line.field, dot(line, point))


def cross_product(u: ProjTriple, v: ProjTriple) -> ProjTriple | None:
    """Intersection point of two lines (dually: line through two points).

    Returns None when the triples are proportional, i.e. the same
    projective element.
    """
    f = u.field
    (u1, u2, u3), (v1, v2, v3) = u.coords, v.coords
    w = (
        field_sub(f, field_mul(f, u2, v3), field_mul(f, u3, v2)),
        field_sub(f, field_mul(f, u3, v1), field_mul(f, u1, v3)),
        field_sub(f, field_mul(f, u1, v2), field_mul(f, u2, v1)),
    )
    if all(is_zero(f, c) for c in w):
        return None
    return ProjTriple(u.field, _normalize(u.field, w))


class LineConfiguration:
    """A set of distinct projective lines with derived singular points."""

    def __init__(self, field: FieldDescriptor, lines) -> None:
        lines = tuple(lines)
        if len(lines) < 2:
            raise InvalidConfigurationError("a configuration needs at least 2 lines")
        if any(l.field != field for l in lines):
            raise InvalidConfigurationError("all lines must live over the configuration field")
        if len(set(lines)) != len(lines):
            raise InvalidConfigurationError("duplicate line in configuration")
        self.field = field
        self.lines = lines
        self._points: dict[ProjTriple, int] | None = None

    @property
    def d(self) -> int:
        return len(self.lines)

    def singular_points(self) -> dict[ProjTriple, int]:
        """Map intersection point -> multiplicity (number of lines through it)."""
        if self._points is None:
            incidences: dict[ProjTriple, set[int]] = {}
            for i in range(self.d):
                for j in range(i + 1, self.d):
                    pt = cross_product(self.lines[i], self.lines[j])
                    if pt is None:  # distinct normalized lines always meet
                        raise InvalidConfigurationError("degenerate pair of lines")
                    incidences.setdefault(pt, set()).update((i, j))
            self._points = {pt: len(ls) for pt, ls in incidences.items()}
        return self._points

    @property
    def s(self) -> int:
        return len(self.singular_points())


def tvector_of_configuration(config: LineConfiguration) -> TVector:
    """Multiplicity histogram of the configuration as a T-vector."""
    counts: dict[int, int] = {}
    for mult in config.singular_points().values():
        counts[mult] = counts.get(mult, 0) + 1
    return TVector.from_mapping(config.d, counts)


def harbourne_value(config: LineConfiguration) -> Fraction:
    """(d^2 - sum of squared multiplicities) / number of singular points."""
    points = config.singular_points()
    total = sum(m * m for m in points.values())
    return Fraction(config.d * config.d - total, len(points))


@lru_cache(maxsize=None)
def plane_lines(p: int) -> tuple[ProjTriple, ...]:
    """All p^2 + p + 1 normalized lines of PG(2, p), lexicographically ordered."""
    field = FieldDescriptor.prime(p)
    triples = tuple(ProjTriple.make(field, r) for r in _plane_residues(p))
    assert len(set(triples)) == p * p + p + 1
    return triples


def certificate_from_configuration(
    label: str, config: LineConfiguration, claimed: TVector
) -> Certificate:
    """Certificate for ``config`` claiming ``claimed``; ``verify_certificate`` checks the claim."""
    return Certificate(label, config.field, tuple(line.coords for line in config.lines), claimed)


def configuration_from_certificate(cert: Certificate) -> LineConfiguration:
    try:
        lines = [ProjTriple.make(cert.field, raw) for raw in cert.lines]
        return LineConfiguration(cert.field, lines)
    except InvalidConfigurationError as exc:
        raise CertificateError(f"certificate {cert.label!r}: {exc}") from None
