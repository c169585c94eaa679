"""Full pipeline: enumerate candidates, filter, decide, realize, tabulate.

For each number of lines d the pipeline walks the candidate T-vectors in
ascending quotient order and classifies every one until the minimum
realizable quotient is pinned down:

  excluded(criterion)          a counting filter rules it out,
  combinatorially_infeasible   the exhaustive clique-partition search
                               proves no abstract arrangement exists,
  realized(certificate)        explicit coordinates verify it,
  inconclusive                 feasible but unrealized, or budget ran out.

A candidate meets the stages in this order, and the first that decides it
ends its walk: the certificate database, the counting filters, the
exhaustive incidence search, and, where the mode admits prime fields, the
realization search over each prime field.  Each filter is a necessary
condition for realizability over every field the mode admits (a mode is
its admitted field kinds, ``criteria.admitted_kinds``: complex mode admits
only Q and Q(w) certificates, and runs the Hirzebruch bound, which holds
over C), so a certified T passes them all; and a verified certificate
already proves what the incidence search would.  So a certified T runs no
filter and no search, and in the default tables every realized candidate
is a lookup.

A table row is trustworthy only if nothing below its value is
inconclusive; that integrity condition is checked and reported.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from . import criteria
from ._value import Value
from .exactnum import PRIME, FieldDescriptor
from .geometry import (
    Certificate,
    _plane_residues,
    realize_over_prime_field,
    verify_certificate,
)
from .incidence import SearchBudgetExceeded, feasible_arrangement
from .tspace import MAX_D, TVector, enumerate_tvectors, quotient_fraction

DEFAULT_FIELDS = (2, 3)

ST_EXCLUDED = "excluded"
ST_INFEASIBLE = "combinatorially_infeasible"
ST_REALIZED = "realized"
ST_INCONCLUSIVE = "inconclusive"

ALL_KINDS = criteria.admitted_kinds(criteria.MODE_ABSOLUTE)
CHAR0_KINDS = criteria.admitted_kinds(criteria.MODE_COMPLEX)


class TableIntegrityError(RuntimeError):
    """No realizable candidate could be pinned down for some d."""


class CandidateStatus(Value):
    __slots__ = ("tvector", "q", "status", "criterion", "detail", "certificate")

    def __init__(
        self,
        tvector: TVector,
        q: Fraction,
        status: str,
        criterion: str | None = None,
        detail: str = "",
        certificate: Certificate | None = None,
    ) -> None:
        object.__setattr__(self, "tvector", tvector)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "certificate", certificate)

    def to_json(self) -> dict:
        out = {
            "tvector": self.tvector.encode(),
            "q": str(self.q),
            "status": self.status,
            "criterion": self.criterion,
            "detail": self.detail,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.label
            out["field"] = self.certificate.field.to_json()
        return out


class TableRow(Value):
    __slots__ = ("d", "mode", "value", "witness", "audit", "integrity_ok")

    def to_json(self, with_audit: bool = True) -> dict:
        out = {
            "d": self.d,
            "mode": self.mode,
            "value": str(self.value),
            "witness": self.witness,
            "integrity_ok": self.integrity_ok,
        }
        if with_audit:
            out["audit"] = [st.to_json() for st in self.audit]
        return out


class CertificateDatabase:
    """Ordered label -> certificate map, fully verified at load time."""

    def __init__(self, certificates: list[Certificate]):
        self.certificates: dict[str, Certificate] = {}
        # keyed by T's counts, which fix d and hash faster than the TVector
        self._by_counts: dict[tuple[int, ...], list[Certificate]] = {}  # each list in DB order
        for cert in certificates:
            if cert.label in self.certificates:
                raise ValueError(f"duplicate certificate label {cert.label!r}")
            report = verify_certificate(cert)
            self.certificates[cert.label] = cert
            self._by_counts.setdefault(report.tvector.counts, []).append(cert)

    def get(self, label: str) -> Certificate:
        return self.certificates[label]

    def labels(self) -> list[str]:
        return list(self.certificates)

    def find(self, tv: TVector, kinds: tuple[str, ...]) -> Certificate | None:
        """First certificate, in DB order, of T whose field kind is admissible."""
        for cert in self._by_counts.get(tv.counts, ()):
            if cert.field.kind in kinds:
                return cert
        return None


_Q = FieldDescriptor.rational()
_QW = FieldDescriptor.eisenstein()
_PG23 = _plane_residues(3)
_PG23_PENCIL = [line for line in _PG23 if line[2] == 0]  # the 4 lines through (0 : 0 : 1)
# the 9 lines x = w^i y, y = w^i z, x = w^i z, with a + b*w written (a, b)
_DUAL_HESSE = [
    line
    for a, b in ((1, 0), (0, 1), (-1, -1))
    for line in (((1, 0), (-a, -b), (0, 0)), ((0, 0), (1, 0), (-a, -b)), ((1, 0), (0, 0), (-a, -b)))
]

# (label, field, raw lines, {k: t_k}).  Order matters: CertificateDatabase.find
# returns the first match, and the tables name that match as their witness.
_BUILTIN = [
    # d distinct lines a*x + b*y = 0 through the point (0 : 0 : 1)
    *((f"pencil-{d}", _Q, [(1, i, 0) for i in range(d)], {d: 1}) for d in range(2, 11)),
    # tangent lines of a conic: (1 : t : t^2) are never three concurrent
    *(
        (f"general-position-{d}", _Q, [(1, t, t * t) for t in range(d)], {2: comb(d, 2)})
        for d in range(2, 11)
    ),
    # five lines: three through one point plus two generic lines
    ("five-one-triple", _Q, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1), (1, 1, 1)], {2: 7, 3: 1}),
    # five lines: two triple points sharing a line
    ("five-two-triples", _Q, [(0, 0, 1), (0, 1, 0), (0, 1, -1), (1, 0, 0), (1, 0, -1)], {2: 4, 3: 2}),
    # six connecting lines of four general points
    (
        "quadrilateral-6",
        _Q,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (1, 0, -1), (1, -1, 0)],
        {2: 3, 3: 4},
    ),
    # the same plus the line x + y - z = 0 through two diagonal points
    (
        "quadrilateral-7",
        _Q,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (1, 0, -1), (1, -1, 0), (1, 1, -1)],
        {2: 3, 3: 6},
    ),
    # eight lines: a complete quadrilateral, two of its diagonals, and the
    # joins of the remaining opposite-vertex pair to the diagonal point
    (
        "d8-t4-config",
        _Q,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1), (2, 1, 1), (0, 1, -1)],
        {2: 4, 3: 6, 4: 1},
    ),
    ("fano-f2", FieldDescriptor.prime(2), _plane_residues(2), {3: 7}),
    (
        "pg23-minus-pencil4",
        FieldDescriptor.prime(3),
        [line for line in _PG23 if line not in _PG23_PENCIL],
        {3: 12},
    ),
    # keeping the pencil line (0 : 1 : 0)
    (
        "pg23-minus-pencil3",
        FieldDescriptor.prime(3),
        [line for line in _PG23 if line == (0, 1, 0) or line not in _PG23_PENCIL],
        {3: 9, 4: 3},
    ),
    ("dual-hesse-eisenstein", _QW, _DUAL_HESSE, {3: 12}),
    # adding the line y = 0 through the triple points (0:0:1) and (1:0:0)
    ("dual-hesse-plus-line", _QW, [*_DUAL_HESSE, ((0, 0), (1, 0), (0, 0))], {2: 3, 3: 10, 4: 2}),
    # dropping the line x = y turns its four triple points into double points
    ("dual-hesse-minus-line", _QW, _DUAL_HESSE[1:], {2: 4, 3: 8}),
]


@cache
def builtin_certificates() -> CertificateDatabase:
    """The verified certificate database backing the tables, built once per process.

    The entries are data in the wire forms, ints and (a, b) pairs, which
    ``Certificate`` parses into plain values of their fields.  Each is
    verified on load; a failing entry aborts startup.
    """
    return CertificateDatabase(
        [
            Certificate(label, field, lines, TVector.from_mapping(len(lines), counts))
            for label, field, lines, counts in _BUILTIN
        ]
    )


def classify_candidate(
    tv: TVector,
    mode: str,
    fields: tuple[int, ...] = DEFAULT_FIELDS,
    db: CertificateDatabase | None = None,
    node_budget: int | None = None,
) -> CandidateStatus:
    """Full disposition of one candidate T-vector in the given mode.

    Stages, in order: ``db.find`` over the field kinds the mode admits;
    ``criteria.apply_all``; ``feasible_arrangement`` under ``node_budget``;
    then, where the mode admits prime fields, ``realize_over_prime_field``
    for each prime in ``fields`` whose plane has at least d lines.  An
    unknown mode raises ``criteria.admitted_kinds``' ``ValueError`` before
    any lookup.
    """
    kinds = criteria.admitted_kinds(mode)
    if db is None:
        db = builtin_certificates()
    q = quotient_fraction(tv)

    # every filter is a necessary condition for realizability over each field
    # the mode admits, so a verified certificate's T passes them all; and its
    # intersection points are a clique partition of K_d with this T, so it
    # proves feasibility and no search is needed either
    cert = db.find(tv, kinds)
    if cert is not None:
        return CandidateStatus(tv, q, ST_REALIZED, None, "database certificate", cert)

    verdict = criteria.apply_all(tv, mode)
    if verdict.is_excluded:
        return CandidateStatus(tv, q, ST_EXCLUDED, verdict.criterion, verdict.detail)

    try:
        outcome = feasible_arrangement(tv, node_budget)
    except SearchBudgetExceeded as exc:
        return CandidateStatus(tv, q, ST_INCONCLUSIVE, None, f"incidence search: {exc}")
    if not outcome.feasible:
        return CandidateStatus(
            tv,
            q,
            ST_INFEASIBLE,
            None,
            f"no clique partition of K_{tv.d} matches T "
            f"(exhaustive, {outcome.nodes_explored} nodes)",
        )

    if PRIME in kinds:
        budget_hit = False
        for p in fields:
            if tv.d > p * p + p + 1:
                continue
            result = realize_over_prime_field(tv, p, node_budget)
            if result.found:
                found = Certificate(
                    f"search-f{p}-d{tv.d}", FieldDescriptor.prime(p), result.lines, tv
                )
                verify_certificate(found)
                return CandidateStatus(
                    tv, q, ST_REALIZED, None, f"found by exhaustive search in PG(2,{p})", found
                )
            if not result.exhausted:
                budget_hit = True
        if budget_hit:
            return CandidateStatus(
                tv, q, ST_INCONCLUSIVE, None, "realization search exceeded its node budget"
            )
        return CandidateStatus(
            tv,
            q,
            ST_INCONCLUSIVE,
            None,
            f"combinatorially feasible but unrealized over F_p for p in {tuple(fields)} "
            "and absent from the certificate database",
        )
    return CandidateStatus(
        tv,
        q,
        ST_INCONCLUSIVE,
        None,
        "combinatorially feasible but no characteristic-0 certificate is available",
    )


def compute_table(
    max_d: int,
    mode: str,
    fields: tuple[int, ...] = DEFAULT_FIELDS,
    db: CertificateDatabase | None = None,
    node_budget: int | None = None,
) -> list[TableRow]:
    """Minimum realizable quotient per d, with a complete audit trail.

    For each d the walk classifies candidates in ascending-q order until
    a realized candidate is found and every strictly smaller quotient is
    ruled out; all candidates with q <= value enter the audit.
    """
    if not 2 <= max_d <= MAX_D:
        raise ValueError(f"max_d must lie in [2, {MAX_D}], got {max_d}")
    if db is None:
        db = builtin_certificates()
    rows: list[TableRow] = []
    for d in range(2, max_d + 1):
        audit: list[CandidateStatus] = []
        value: Fraction | None = None
        witness = ""
        for tv in enumerate_tvectors(d):
            # until a value is set every candidate is classified, and the status carries q
            if value is not None and quotient_fraction(tv) > value:
                break
            status = classify_candidate(tv, mode, fields, db, node_budget)
            audit.append(status)
            if status.status == ST_REALIZED and value is None:
                value = status.q
                witness = status.certificate.label
        if value is None:
            raise TableIntegrityError(
                f"no realizable candidate could be pinned down for d={d} "
                "(budget too small or database incomplete)"
            )
        integrity = all(
            st.status in (ST_EXCLUDED, ST_INFEASIBLE) for st in audit if st.q < value
        )
        rows.append(TableRow(d, mode, value, witness, tuple(audit), integrity))
    return rows
