"""Correctness gate: checks every pass's results against facts that any
correct version of the program must reproduce.

* both tables equal the published golden rows, each with ``integrity_ok``;
* every ``realized`` entry's certificate re-verifies with
  ``verify_certificate``, matches the entry's T and lies over a field the
  mode admits;
* no T with a verified certificate is ever ``combinatorially_infeasible``
  (incidence is field-independent), nor ``excluded`` in a mode whose
  fields admit that certificate;
* no ``realized`` quotient lies below its golden row value.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction

from harbourne import criteria, pipeline
from harbourne.geometry import CertificateError, verify_certificate

F = Fraction
GOLDEN = {
    criteria.MODE_ABSOLUTE: {
        2: F(0), 3: F(-1), 4: F(-4, 3), 5: F(-3, 2), 6: F(-12, 7),
        7: F(-2), 8: F(-2), 9: F(-9, 4), 10: F(-29, 12),
    },
    criteria.MODE_COMPLEX: {
        2: F(0), 3: F(-1), 4: F(-4, 3), 5: F(-3, 2), 6: F(-12, 7),
        7: F(-17, 9), 8: F(-2), 9: F(-9, 4), 10: F(-34, 15),
    },
}  # fmt: skip


def admitted_kinds(mode: str) -> tuple[str, ...]:
    return pipeline.ALL_KINDS if mode == criteria.MODE_ABSOLUTE else pipeline.CHAR0_KINDS


def certified_tvectors(db) -> dict:
    """T -> field kinds of the database certificates, each re-verified here."""
    certified: dict = {}
    for label in db.labels():
        cert = db.get(label)
        report = verify_certificate(cert)
        certified.setdefault(report.tvector, set()).add(cert.field.kind)
    return certified


def check_entries(entries, mode: str, certified: dict, golden: dict = GOLDEN) -> list[str]:
    """Check classified candidates of one mode; returns failure messages."""
    failures: list[str] = []
    kinds = admitted_kinds(mode)
    certified = {tv: set(found) for tv, found in certified.items()}
    for st in entries:
        if st.status != pipeline.ST_REALIZED:
            continue
        where = f"{mode} d={st.tvector.d} T=({st.tvector.encode()})"
        cert = st.certificate
        if cert is None:
            failures.append(f"{where}: realized without a certificate")
            continue
        try:
            report = verify_certificate(cert)
        except CertificateError as exc:
            failures.append(f"{where}: certificate {cert.label!r} fails to verify: {exc}")
            continue
        if report.tvector != st.tvector:
            failures.append(f"{where}: certificate {cert.label!r} realizes T=({report.tvector.encode()})")
            continue
        if cert.field.kind not in kinds:
            failures.append(f"{where}: certificate {cert.label!r} is over a field {mode} mode excludes")
        floor = golden[mode].get(st.tvector.d)
        if floor is not None and st.q < floor:
            failures.append(f"{where}: realized q={st.q} lies below the golden value {floor}")
        certified.setdefault(st.tvector, set()).add(cert.field.kind)
    for st in entries:
        found = certified.get(st.tvector, ())
        where = f"{mode} d={st.tvector.d} T=({st.tvector.encode()})"
        if st.status == pipeline.ST_INFEASIBLE and found:
            failures.append(f"{where}: has a verified certificate but was declared infeasible")
        if st.status == pipeline.ST_EXCLUDED and any(k in kinds for k in found):
            failures.append(f"{where}: has a verified certificate but was excluded by {st.criterion}")
    return failures


def check_table(rows, mode: str, max_d: int, certified: dict, golden: dict = GOLDEN) -> list[str]:
    """Check one computed table against the golden rows and its audit trail."""
    failures: list[str] = []
    if [row.d for row in rows] != list(range(2, max_d + 1)):
        failures.append(f"{mode}: rows for d={[row.d for row in rows]}, expected 2..{max_d}")
    for row in rows:
        want = golden[mode].get(row.d)
        if row.value != want:
            failures.append(f"{mode} d={row.d}: value {row.value}, golden {want}")
        if not row.integrity_ok:
            failures.append(f"{mode} d={row.d}: integrity_ok is false")
        failures += check_entries(row.audit, mode, certified, golden)
    return failures
