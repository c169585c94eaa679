"""Concrete projective geometry over the supported exact fields.

Lines and points are both homogeneous triples (duality makes them
interchangeable); a point lies on a line iff the dot product vanishes
in the field.  Everything is exact, with no epsilon clustering anywhere.
Certificates are verified by determinants over Z, Z[w] or Z/p: each
line's denominators are cleared once, two lines are distinct iff their
cross product is nonzero, and line k passes through the meet of lines i
and j iff det(l_i, l_j, l_k) = 0, so the multiplicities need no normal
forms.  The clearing and the ring come from the field kind's record in
``exactnum``, so nothing here branches on the kind.

The F_p realization search runs on the integer incidence table of
PG(2, p) and returns the residue triples of the lines it chose; callers
wrap them in a :class:`Certificate` and verify it.  It rejects isomorphs
with a PGL(3, p) frame (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998)): depth 0 tries only line 0 (z = 0), depth 1
only line 1 (y = 0), and depth 2 only line 2 (y + z = 0), the first of
the p - 1 other lines through their meet (1:0:0), and line p + 1 (x = 0),
the first of the p^2 lines off it.

Soundness, with the same witness: d lines with T cover exactly
s + d(p + 1) - sum k t_k points, since their d(p + 1) incidences are
k at each k-fold point and one at each simple point.  The number of
points on at least m chosen lines only grows as lines are added, so the
check against T's counts (the covered count for m = 1) prunes only
subtrees that hold no configuration.  So the unrestricted search returns
the lexicographically first index set C with T, and the restricted tree,
a subtree visited in the same order, returns C if it holds C.  A
collineation keeps T, and PGL(3, p) is transitive on ordered pairs of
lines, so C starts 0, 1.  The stabilizer of lines 0 and 1 fixes their
meet and is transitive on the other lines through it, by z -> lambda z,
and on the lines off it, by the shears x -> x + beta y + gamma z.  If C
has a line through the meet besides lines 0 and 1, mapping it to line 2
gives a configuration starting 0, 1, 2, so C's third index is 2.
Otherwise no index of C lies in 2..p; a shear fixes every line through
the meet, so one mapping C's third line to line p + 1 gives one starting
0, 1, p + 1, and that index is p + 1.  An exhausted tree thus proves
that no configuration exists, and a hit is the unrestricted search's.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._value import Value
from .exactnum import (
    _KINDS,
    FieldDescriptor,
    UnsupportedFieldError,
    scalar_from_json,
    scalar_to_json,
)
# DEFAULT_NODE_BUDGET stays bound here: the benchmark records geometry.DEFAULT_NODE_BUDGET
from .incidence import DEFAULT_NODE_BUDGET, resolve_node_budget
from .tspace import TVector, quotient_fraction, require_solution


class InvalidConfigurationError(ValueError):
    """Raised for duplicate lines or malformed coordinate data."""


class CertificateError(ValueError):
    """Raised when a certificate fails to parse or verify."""


@lru_cache(maxsize=None)
def _plane_residues(p: int) -> tuple[tuple[int, int, int], ...]:
    """Residues of the normalized lines of PG(2, p), lexicographically ordered."""
    FieldDescriptor.prime(p)  # an unsupported p raises UnsupportedFieldError
    return ((0, 0, 1), *((0, 1, c) for c in range(p)), *((1, b, c) for b in range(p) for c in range(p)))


@lru_cache(maxsize=None)
def _plane_incidence(p: int) -> tuple[tuple[int, ...], ...]:
    """Row i: indices of the p + 1 points on line ``_plane_residues(p)[i]``.

    Points and lines share normal forms, so point j is ``_plane_residues(p)[j]``;
    the dot product is symmetric, so each point also lies on p + 1 lines.
    """
    residues = _plane_residues(p)
    rows = tuple(
        tuple(j for j, (x, y, z) in enumerate(residues) if (a * x + b * y + c * z) % p == 0)
        for a, b, c in residues
    )
    assert all(len(row) == p + 1 for row in rows), f"PG(2,{p}) incidence is not p + 1 per line"
    return rows


class RealizationOutcome(Value):
    """``lines``: the residue triples of the lines found, or None."""

    __slots__ = ("lines", "exhausted", "nodes")

    def __init__(
        self, lines: tuple[tuple[int, int, int], ...] | None, exhausted: bool, nodes: int
    ) -> None:
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "exhausted", exhausted)
        object.__setattr__(self, "nodes", nodes)

    @property
    def found(self) -> bool:
        return self.lines is not None


def realize_over_prime_field(
    tv: TVector, p: int, node_budget: int | None = None
) -> RealizationOutcome:
    """Exhaustively search PG(2, p) for a d-line configuration with T-vector T.

    Candidate subsets are explored in lexicographic order of line indices.
    d lines with T cover exactly s + d(p + 1) - sum k t_k points: each line
    has p + 1 points and a k-fold point lies on k of them, so
    d(p + 1) - sum k t_k points are simple.  If that simple count is
    negative or the covered count exceeds p^2 + p + 1, no configuration
    exists and the search returns exhausted after 0 nodes.  Otherwise T
    allows t_m + ... + t_d points on at least m >= 2 chosen lines and the
    covered count on at least 1; a line is pruned when more points then lie
    on at least m chosen lines than T allows, for some m >= 1.  These
    counts only grow as lines are added, and adding one moves only its
    p + 1 points up by one, so the check is O(p) per node.  Depths 0, 1
    and 2 try only the PGL(3, p) frame: line 0, line 1, then line 2 or
    line p + 1, since the lexicographically first configuration starts
    0, 1, 2 if it has a third line through the meet of lines 0 and 1, and
    0, 1, p + 1 if not (module docstring, after McKay 1998).  So the
    lines found are those of the unrestricted search.  T must solve the
    pair-count identity.
    It runs on the integer incidence table of PG(2, p), and a hit is
    returned as the chosen triples of :func:`_plane_residues` in index
    order; callers build a :class:`Certificate` from them and verify it.
    ``exhausted=True`` means the search finished, with a configuration or
    after the whole tree; ``exhausted=False`` means the node budget ran out
    and the search proves nothing.
    """
    budget = resolve_node_budget(node_budget)
    require_solution(tv)
    lines = _plane_residues(p)
    d = tv.d
    counts = tv.counts
    if d > len(lines):
        raise ValueError(f"cannot pick {d} distinct lines in PG(2,{p}) ({len(lines)} lines)")
    # d lines of p + 1 points cover d(p + 1) incidences; a k-fold point takes k of them
    simple = d * (p + 1) - sum(map(mul, range(2, d + 1), counts))
    covered = sum(counts) + simple  # points on >= 1 chosen line in any configuration with T
    if simple < 0 or covered > len(lines):
        return RealizationOutcome(None, True, 0)
    rows = _plane_incidence(p)

    # room[m] = points on >= m chosen lines that T still allows: covered for m = 1,
    # t_m + ... + t_d for m >= 2; it only falls as lines are added
    room = [0, covered] + [0] * d
    for m in range(d, 1, -1):
        room[m] = room[m + 1] + counts[m - 2]

    chosen: list[int] = []
    on = [0] * len(lines)  # on[pt] = number of chosen lines through point pt
    nodes = 0
    idx = 0  # the next line to try at the current depth
    spare = len(lines) - d
    while True:
        depth = len(chosen)
        last = spare + depth  # leave room for the lines still to choose
        if depth <= 2:  # the PGL(3, p) frame: depth 0 tries only line 0, depth 1 only line 1,
            if depth == 2:  # and depth 2 the first line of each orbit of their stabilizer
                idx = 2 if idx <= 2 else p + 1 if idx <= p + 1 else last + 1
            elif idx > depth:
                idx = last + 1
        if idx <= last:  # past last, no line is left to try at this depth
            nodes += 1
            if nodes > budget:
                return RealizationOutcome(None, False, nodes)
            fits = True  # each point of the line moves from m - 1 to m chosen lines
            for pt in rows[idx]:
                m = on[pt] + 1
                on[pt] = m
                room[m] -= 1
                if room[m] < 0:
                    fits = False
            chosen.append(idx)
            if fits:
                if depth + 1 == d:
                    # room[m] >= 0 and sum (m - 1) room[m] (m >= 2) = C(d, 2) - C(d, 2) = 0: T is met exactly
                    return RealizationOutcome(tuple(lines[i] for i in chosen), True, nodes)
                idx += 1
                continue
        elif not chosen:
            return RealizationOutcome(None, True, nodes)
        idx = chosen.pop()  # a line that does not fit, or one whose subtree is done
        for pt in rows[idx]:
            m = on[pt]
            room[m] += 1
            on[pt] = m - 1
        idx += 1


class Certificate(Value):
    """Serializable realization evidence: a field and its plain values from ``scalar_from_json``."""

    __slots__ = ("label", "field", "lines", "claimed_tvector")

    def __init__(
        self,
        label: str,
        field: FieldDescriptor,
        lines: tuple[tuple, ...],
        claimed_tvector: TVector | None = None,
    ) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lines", _parse_lines(field, lines))
        object.__setattr__(self, "claimed_tvector", claimed_tvector)

    @property
    def d(self) -> int:
        return len(self.lines)

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "field": self.field.to_json(),
            "lines": [[scalar_to_json(c, self.field) for c in line] for line in self.lines],
        }
        if self.claimed_tvector is not None:
            out["claimed_tvector"] = self.claimed_tvector.encode()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise CertificateError(f"certificate must be an object, got {data!r}")
        try:
            label, raw_field, raw_lines = data["label"], data["field"], data["lines"]
        except KeyError as exc:
            raise CertificateError(f"malformed certificate: missing {exc}") from None
        if not isinstance(label, str):
            raise CertificateError(f"label: expected a string, got {label!r}")
        try:
            field = FieldDescriptor.from_json(raw_field)
        except UnsupportedFieldError as exc:
            raise CertificateError(f"field: {exc}") from None
        cert = cls(label, field, raw_lines)
        raw_claim = data.get("claimed_tvector")
        if raw_claim is None:
            return cert
        if not isinstance(raw_claim, str):
            raise CertificateError(f"claimed_tvector: expected a string, got {raw_claim!r}")
        try:
            claimed = TVector.decode(cert.d, raw_claim)
        except ValueError as exc:
            raise CertificateError(f"claimed_tvector: {exc}") from None
        # no one holds cert yet: set its claim rather than parse every coordinate again
        object.__setattr__(cert, "claimed_tvector", claimed)
        return cert


def _parse_lines(field: FieldDescriptor, lines) -> tuple:
    """Each coordinate through ``scalar_from_json``; line lengths are left to the verifier."""
    if not isinstance(lines, (list, tuple)):
        raise CertificateError(f"lines: expected an array of lines, got {lines!r}")
    parsed = []
    for i, line in enumerate(lines):
        if not isinstance(line, (list, tuple)):
            raise CertificateError(f"lines[{i}]: expected an array of coordinates, got {line!r}")
        triple = []
        for j, value in enumerate(line):
            try:
                triple.append(scalar_from_json(value, field))
            except ValueError as exc:
                raise CertificateError(f"lines[{i}][{j}]: {exc}") from None
        parsed.append(tuple(triple))
    return tuple(parsed)


class VerificationReport(Value):
    __slots__ = ("tvector", "value")

    def __init__(self, tvector: TVector, value: Fraction) -> None:
        object.__setattr__(self, "tvector", tvector)
        object.__setattr__(self, "value", value)


def _point_multiplicities(ring, lines: list[tuple]) -> list[int]:
    """Multiplicity of each singular point of the cleared ``lines``, by determinants.

    ``ring`` is ``(times, plus, minus, is_zero)`` of the lines' ring.  Z,
    Z[w] and Z/p are integral domains, so two lines are distinct iff their
    cross product is nonzero, and line k passes through the meet of lines
    i and j iff dot(cross(l_i, l_j), l_k) = 0.  Pairs are visited in
    lexicographic order; a point is counted at the first pair of lines
    through it, so only later lines need a test.
    """
    times, plus, minus, is_zero = ring
    d = len(lines)
    met = [0] * d  # met[i]: bitmask of the lines already known to meet line i at a counted point
    mults: list[int] = []
    for i in range(d):
        u1, u2, u3 = lines[i]
        for j in range(i + 1, d):
            v1, v2, v3 = lines[j]
            c1 = minus(times(u2, v3), times(u3, v2))
            c2 = minus(times(u3, v1), times(u1, v3))
            c3 = minus(times(u1, v2), times(u2, v1))
            if is_zero(c1) and is_zero(c2) and is_zero(c3):
                raise InvalidConfigurationError("duplicate line in configuration")
            if met[i] >> j & 1:
                continue
            through = [i, j]
            for k in range(j + 1, d):
                w1, w2, w3 = lines[k]
                if is_zero(plus(plus(times(c1, w1), times(c2, w2)), times(c3, w3))):
                    through.append(k)
            mask = sum(1 << k for k in through)
            for k in through:
                met[k] |= mask
            mults.append(len(through))
    return mults


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Recompute the T-vector and Harbourne value; fail loudly on any mismatch.

    The multiplicities come from exact determinants over Z, Z[w] or Z/p
    (see :func:`_point_multiplicities`), with no normalized points.
    """
    kind = _KINDS[cert.field.kind]
    ring = kind.ring(cert.field.p)
    is_zero = ring[3]
    try:
        lines = []
        for line in cert.lines:
            if len(line) != 3:
                raise InvalidConfigurationError(f"expected 3 coordinates, got {len(line)}")
            cleared = kind.clear(line)
            if all(map(is_zero, cleared)):
                raise InvalidConfigurationError("all-zero coordinate triple")
            lines.append(cleared)
        if len(lines) < 2:
            raise InvalidConfigurationError("a configuration needs at least 2 lines")
        mults = _point_multiplicities(ring, lines)
    except InvalidConfigurationError as exc:
        raise CertificateError(f"certificate {cert.label!r}: {exc}") from None
    tv = TVector.from_mapping(len(lines), Counter(mults))
    if cert.claimed_tvector is not None and cert.claimed_tvector != tv:
        raise CertificateError(
            f"certificate {cert.label!r} claims T=({cert.claimed_tvector.encode()}) "
            f"but verification computed T=({tv.encode()})"
        )
    return VerificationReport(tv, quotient_fraction(tv))
