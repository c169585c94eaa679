"""Concrete projective geometry over the supported exact fields.

Lines and points are both homogeneous triples (duality makes them
interchangeable); a point lies on a line iff the dot product vanishes
in the field.  Everything is exact: intersection points are grouped by
normalized coordinates, never by epsilon clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exactnum import (
    RATIONAL,
    SUPPORTED_PRIMES,
    ExactScalar,
    FieldDescriptor,
    UnsupportedFieldError,
    as_scalar,
    field_inverse,
    is_zero,
    scalar_from_json,
    scalar_to_json,
)
from .incidence import DEFAULT_NODE_BUDGET, SearchBudgetExceeded
from .tspace import TVector


class InvalidConfigurationError(ValueError):
    """Raised for duplicate lines or malformed coordinate data."""


class CertificateError(ValueError):
    """Raised when a certificate fails to parse or verify."""


@dataclass(frozen=True)
class ProjTriple:
    """Normalized homogeneous coordinates (a : b : c) over one field.

    Normal forms: over finite fields and Q(w) the first nonzero
    coordinate is 1; over Q the coordinates are coprime integers with a
    positive leading entry.  Normalized equality is projective equality.
    """

    field: FieldDescriptor
    coords: tuple[ExactScalar, ExactScalar, ExactScalar]

    @classmethod
    def make(cls, field: FieldDescriptor, raw) -> "ProjTriple":
        if len(raw) != 3:
            raise InvalidConfigurationError(f"expected 3 coordinates, got {len(raw)}")
        coords = tuple(as_scalar(v, field) for v in raw)
        if all(is_zero(c) for c in coords):
            raise InvalidConfigurationError("all-zero coordinate triple")
        return cls(field, _normalize(field, coords))

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self.coords]

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


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
    lead = next(c for c in coords if not is_zero(c))
    inv = field_inverse(lead)
    return tuple(c * inv for c in coords)


def dot(u: ProjTriple, v: ProjTriple) -> ExactScalar:
    (u1, u2, u3), (v1, v2, v3) = u.coords, v.coords
    return u1 * v1 + u2 * v2 + u3 * v3


def incident(line: ProjTriple, point: ProjTriple) -> bool:
    return is_zero(dot(line, point))


def cross_product(u: ProjTriple, v: ProjTriple) -> ProjTriple | None:
    """Intersection point of two lines (dually: line through two points).

    Returns None when the triples are proportional, i.e. the same
    projective element.
    """
    (u1, u2, u3), (v1, v2, v3) = u.coords, v.coords
    w = (u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)
    if all(is_zero(c) for c in w):
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
    if p not in SUPPORTED_PRIMES:
        raise UnsupportedFieldError(f"unsupported prime {p}; choose from {SUPPORTED_PRIMES}")
    field = FieldDescriptor.prime(p)
    triples: list[ProjTriple] = []
    triples.append(ProjTriple.make(field, (0, 0, 1)))
    for c in range(p):
        triples.append(ProjTriple.make(field, (0, 1, c)))
    for b in range(p):
        for c in range(p):
            triples.append(ProjTriple.make(field, (1, b, c)))
    triples.sort(key=lambda t: tuple(c.residue for c in t.coords))
    assert len(set(triples)) == p * p + p + 1
    # duality sanity: every point of the plane lies on exactly p + 1 lines
    for point in triples:  # points and lines coincide as normalized triples
        on = sum(1 for line in triples if incident(line, point))
        assert on == p + 1, f"point {point} lies on {on} lines, expected {p + 1}"
    return tuple(triples)


@dataclass(frozen=True)
class RealizationOutcome:
    configuration: LineConfiguration | None
    exhausted: bool
    nodes: int

    @property
    def found(self) -> bool:
        return self.configuration is not None


def realize_over_prime_field(
    tv: TVector, p: int, node_budget: int | None = None
) -> RealizationOutcome:
    """Exhaustively search PG(2, p) for a d-line configuration with T-vector T.

    Candidate subsets are explored in lexicographic order of line indices
    with pruning whenever the partial multiplicity histogram exceeds T.
    As in :class:`~harbourne.incidence.SearchOutcome`, ``exhausted=True``
    means the search finished, with a configuration or after the whole
    tree; ``exhausted=False`` means the node budget ran out and the search
    proves nothing.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    lines = plane_lines(p)
    d = tv.d
    if d > len(lines):
        raise ValueError(f"cannot pick {d} distinct lines in PG(2,{p}) ({len(lines)} lines)")

    # suffix_quota[k] = number of points of multiplicity >= k that T allows
    suffix_quota = [0] * (d + 2)
    for k in range(d, 1, -1):
        suffix_quota[k] = suffix_quota[k + 1] + tv.t(k)

    target = tuple(tv.counts)
    chosen: list[int] = []
    mult: dict[ProjTriple, int] = {}
    hist = [0] * (d + 1)  # hist[m] = number of points with current multiplicity m
    nodes = 0

    def histogram_ok() -> bool:
        ge = 0
        for k in range(d, 1, -1):
            ge += hist[k]
            if ge > suffix_quota[k]:
                return False
        return True

    def add_line(idx: int) -> list[tuple[ProjTriple, int]]:
        new_line = lines[idx]
        meets: dict[ProjTriple, int] = {}
        for prev in chosen:
            pt = cross_product(lines[prev], new_line)
            meets[pt] = meets.get(pt, 0) + 1
        changes = []
        for pt, existing in meets.items():
            old = mult.get(pt, 0)
            changes.append((pt, old))
            if old:
                hist[old] -= 1
            mult[pt] = existing + 1
            hist[existing + 1] += 1
        chosen.append(idx)
        return changes

    def undo(changes: list[tuple[ProjTriple, int]]) -> None:
        chosen.pop()
        for pt, old in changes:
            hist[mult[pt]] -= 1
            if old:
                mult[pt] = old
                hist[old] += 1
            else:
                del mult[pt]

    def search(start: int) -> LineConfiguration | None:
        nonlocal nodes
        if len(chosen) == d:
            if tuple(hist[2 : d + 1]) == target:
                return LineConfiguration(FieldDescriptor.prime(p), [lines[i] for i in chosen])
            return None
        for idx in range(start, len(lines) - (d - len(chosen)) + 1):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            changes = add_line(idx)
            if histogram_ok():
                result = search(idx + 1)
                if result is not None:
                    return result
            undo(changes)
        return None

    try:
        config = search(0)
    except SearchBudgetExceeded:
        return RealizationOutcome(None, False, nodes)
    return RealizationOutcome(config, True, nodes)


@dataclass(frozen=True)
class Certificate:
    """Serializable realization evidence: a field plus explicit line coordinates."""

    label: str
    field: FieldDescriptor
    lines: tuple[tuple[ExactScalar, ExactScalar, ExactScalar], ...]
    claimed_tvector: TVector | None = None

    def __post_init__(self) -> None:
        coerced = tuple(tuple(as_scalar(v, self.field) for v in line) for line in self.lines)
        object.__setattr__(self, "lines", coerced)

    @property
    def d(self) -> int:
        return len(self.lines)

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "field": self.field.to_json(),
            "lines": [[scalar_to_json(c) for c in line] for line in self.lines],
        }
        if self.claimed_tvector is not None:
            out["claimed_tvector"] = self.claimed_tvector.encode()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        try:
            label = data["label"]
            field = FieldDescriptor.from_json(data["field"])
            raw_lines = data["lines"]
        except (KeyError, TypeError) as exc:
            raise CertificateError(f"malformed certificate: missing {exc}") from None
        lines = []
        for i, raw in enumerate(raw_lines):
            if len(raw) != 3:
                raise CertificateError(f"lines[{i}] must have 3 coordinates")
            triple = []
            for j, value in enumerate(raw):
                try:
                    triple.append(scalar_from_json(value, field))
                except (ValueError, ZeroDivisionError) as exc:
                    raise CertificateError(f"lines[{i}][{j}]: {exc}") from None
            lines.append(tuple(triple))
        claimed = None
        if data.get("claimed_tvector") is not None:
            try:
                claimed = TVector.decode(len(lines), data["claimed_tvector"])
            except ValueError as exc:
                raise CertificateError(f"claimed_tvector: {exc}") from None
        return cls(label, field, tuple(lines), claimed)


def certificate_from_configuration(label: str, config: LineConfiguration) -> Certificate:
    return Certificate(
        label,
        config.field,
        tuple(line.coords for line in config.lines),
        tvector_of_configuration(config),
    )


@dataclass(frozen=True)
class VerificationReport:
    tvector: TVector
    value: Fraction
    d: int
    s: int


def configuration_from_certificate(cert: Certificate) -> LineConfiguration:
    try:
        lines = [ProjTriple.make(cert.field, raw) for raw in cert.lines]
        return LineConfiguration(cert.field, lines)
    except InvalidConfigurationError as exc:
        raise CertificateError(f"certificate {cert.label!r}: {exc}") from None


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Recompute the T-vector and Harbourne value; fail loudly on any mismatch."""
    config = configuration_from_certificate(cert)
    tv = tvector_of_configuration(config)
    if cert.claimed_tvector is not None and cert.claimed_tvector != tv:
        raise CertificateError(
            f"certificate {cert.label!r} claims T=({cert.claimed_tvector.encode()}) "
            f"but verification computed T=({tv.encode()})"
        )
    return VerificationReport(tv, harbourne_value(config), config.d, config.s)
