"""Command-line interface.

Subcommands: enumerate, filter, feasible, realize, verify, table.
Exit codes are a stable contract: 0 success/feasible, 1 proven negative,
2 usage error, 3 inconclusive (the search ran out of the node budget
that ``--budget`` sets), 4 table-integrity failure.

Usage errors have one path: the helpers and commands raise
:class:`UsageError`, often translating the ValueError of the library
rule they break, and ``main`` prints ``error: ...`` and returns 2.
``scripts/reproduce_tables.py`` checks its table arguments with the same
:func:`table_fields`.

A reader that closes stdout early, as ``harbourne enumerate -d 10 | head``
does, ends the command with exit 0 and no traceback: it chose to read no
more, and the lines it did read are correct.  Exit 1 stays reserved for
proven negatives.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import criteria, incidence, pipeline
from .exactnum import SUPPORTED_PRIMES, FieldDescriptor
from .geometry import Certificate, CertificateError, realize_over_prime_field, verify_certificate
from .tspace import (
    MAX_D,
    TVector,
    enumerate_tvectors,
    quotient_fraction,
    render_decimal,
    render_mixed,
    require_solution,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTEGRITY = 4


class UsageError(Exception):
    """A malformed command line; ``main`` reports it and exits 2."""


def _node_budget(args) -> int | None:
    """``--budget``, or None for the search's default; a negative one is a usage error."""
    if args.budget is not None and args.budget < 0:
        raise UsageError(f"--budget must be non-negative, got {args.budget}")
    return args.budget


_MIXED = re.compile(r"\s*(-?)(\d+)\s+(\d+/\d+)\s*")


def _parse_bound(text: str) -> Fraction:
    """``--below``: a fraction, or the mixed form ``[-]W N/D`` that :func:`render_mixed` prints."""
    mixed = _MIXED.fullmatch(text)
    try:
        if mixed:
            sign, whole, part = mixed.groups()
            magnitude = int(whole) + Fraction(part)
            return -magnitude if sign else magnitude
        if not re.search(r"\d\s+\d", text):  # digits apart are no number: "1 2 3" is not 123
            return Fraction(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"malformed bound {text!r}")


def _parse_tvector(args) -> TVector:
    """``-d`` and ``-t`` as a solution of the pair-count identity."""
    try:
        tv = TVector.decode(args.d, args.t)
        require_solution(tv)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return tv


def table_fields(max_d: int, fields: str) -> tuple[int, ...]:
    """Check a table run's ``--max-d`` and parse its ``--fields`` into supported primes."""
    if not 2 <= max_d <= MAX_D:
        raise UsageError(f"max-d must lie in [2, {MAX_D}], got {max_d}")
    try:
        primes = tuple(int(f) for f in fields.split(",") if f.strip())
    except ValueError:
        raise UsageError(f"malformed field list {fields!r}") from None
    if not primes:
        raise UsageError(f"empty field list {fields!r}")
    repeated = sorted({p for p in primes if primes.count(p) > 1})
    if repeated:
        raise UsageError(f"repeated field(s) {repeated} in {fields!r}")
    unsupported = [p for p in primes if p not in SUPPORTED_PRIMES]
    if unsupported:
        raise UsageError(f"unsupported field(s) {unsupported}; choose from {SUPPORTED_PRIMES}")
    return primes


def _emit_json(payload: dict, out: str | None = None) -> None:
    text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a missing directory, a directory, or not writable
            raise UsageError(f"cannot write {out}: {exc.strerror}") from None
    else:
        print(text)


def cmd_enumerate(args) -> int:
    if not 2 <= args.d <= MAX_D:
        raise UsageError(f"d must lie in [2, {MAX_D}], got {args.d}")
    ceiling = None if args.below is None else _parse_bound(args.below)
    entries = []
    for tv in enumerate_tvectors(args.d, ceiling):
        q = quotient_fraction(tv)
        entries.append(
            {"t": tv.encode(), "q": str(q), "decimal": render_decimal(q), "mixed": render_mixed(q)}
        )
    if args.format == "json":
        _emit_json({"d": args.d, "tvectors": entries})
    elif args.format == "csv":
        print("t,q,decimal")
        for e in entries:
            print(f"\"{e['t']}\",{e['q']},{e['decimal']}")
    else:
        width = max([len(e["t"]) for e in entries] + [8])
        for e in entries:
            print(f"{e['t']:<{width}}  q = {e['q']} ({e['decimal']})")
    return EXIT_OK


def cmd_filter(args) -> int:
    tv = _parse_tvector(args)
    verdict = criteria.apply_all(tv, args.mode)
    print(json.dumps(verdict.to_json(), indent=2))
    return EXIT_NEGATIVE if verdict.is_excluded else EXIT_OK


def cmd_feasible(args) -> int:
    tv = _parse_tvector(args)
    budget = _node_budget(args)
    try:
        outcome = incidence.feasible_arrangement(tv, budget)
    except incidence.SearchBudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if not outcome.feasible:
        print(
            f"infeasible: exhausted search ({outcome.nodes_explored} nodes)",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    _emit_json(outcome.witness.to_json(), args.out)
    return EXIT_OK


def _parse_field(text: str) -> int:
    """``f3`` or ``3`` as the modulus 3; ``FieldDescriptor`` owns which moduli are supported."""
    digits = text.strip().lower()
    digits = digits[1:] if digits.startswith("f") else digits
    try:
        if digits.isdecimal():
            return int(digits)
    except ValueError:  # more digits than int() converts
        pass
    raise UsageError(f"malformed field {text!r}; expected e.g. f2, f3")


def cmd_realize(args) -> int:
    tv = _parse_tvector(args)
    p = _parse_field(args.field)
    budget = _node_budget(args)
    try:
        outcome = realize_over_prime_field(tv, p, budget)
    except ValueError as exc:  # an unsupported prime, or more lines than PG(2, p) has
        raise UsageError(str(exc)) from None
    if not outcome.found:
        if outcome.exhausted:
            print(
                f"not found: exhausted search over PG(2,{p}) ({outcome.nodes} nodes)",
                file=sys.stderr,
            )
            return EXIT_NEGATIVE
        print(f"inconclusive: node budget exceeded ({outcome.nodes} nodes)", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    cert = Certificate(f"search-f{p}-d{tv.d}", FieldDescriptor.prime(p), outcome.lines, tv)
    verify_certificate(cert)
    _emit_json(cert.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:  # missing, a directory, or not readable
        raise UsageError(f"cannot read {args.path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        print(f"error: cannot parse the certificate: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    try:
        cert = Certificate.from_json(data)
        report = verify_certificate(cert)
    except CertificateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(f"label:    {cert.label}")
    print(f"field:    {cert.field}")
    print(f"d:        {report.tvector.d}")
    print(f"s:        {report.tvector.s}")
    print(f"T-vector: {report.tvector.encode()}")
    print(f"H:        {report.value} ({render_decimal(report.value)})")
    return EXIT_OK


def _print_table_text(rows, with_audit: bool) -> None:
    header = ["d"] + [str(row.d) for row in rows]
    values = ["H"] + [f"{row.value} ({render_decimal(row.value)})" for row in rows]
    widths = [max(len(h), len(v)) for h, v in zip(header, values)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join(v.ljust(w) for v, w in zip(values, widths)))
    print()
    for row in rows:
        flag = "" if row.integrity_ok else "  [INTEGRITY FAILURE]"
        print(f"d={row.d}: minimum {row.value} realized by {row.witness}{flag}")
        if with_audit:
            for st in row.audit:
                extra = st.criterion or (st.certificate.label if st.certificate else "")
                print(f"    {st.tvector.encode():<24} q={str(st.q):<8} {st.status:<28} {extra}")
                if st.detail:
                    print(f"        {st.detail}")


def cmd_table(args) -> int:
    fields = table_fields(args.max_d, args.fields)
    budget = _node_budget(args)
    try:
        rows = pipeline.compute_table(args.max_d, args.mode, fields, node_budget=budget)
    except pipeline.TableIntegrityError as exc:
        print(f"table integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    if args.format == "json":
        _emit_json({"mode": args.mode, "rows": [row.to_json(with_audit=args.audit) for row in rows]})
    elif args.format == "csv":
        print("d,value,decimal,witness,integrity_ok")
        for row in rows:
            print(f"{row.d},{row.value},{render_decimal(row.value)},{row.witness},{row.integrity_ok}")
    else:
        _print_table_text(rows, args.audit)
    bad = [row for row in rows if not row.integrity_ok]
    if bad:
        for row in bad:
            culprits = [st for st in row.audit if st.q < row.value and st.status == pipeline.ST_INCONCLUSIVE]
            for st in culprits:
                print(
                    f"table integrity error: d={row.d} candidate {st.tvector.encode()} "
                    f"(q={st.q}) is inconclusive below the minimum",
                    file=sys.stderr,
                )
        return EXIT_INTEGRITY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harbourne",
        description="Exact computation of linear Harbourne constants for up to ten lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list solution T-vectors with their quotients")
    p_enum.add_argument("-d", type=int, required=True, help=f"number of lines (2..{MAX_D})")
    p_enum.add_argument(
        "--below", help='only quotients <= this bound (e.g. --below=-34/15 or --below="-2 4/15")'
    )
    p_enum.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_enum.set_defaults(func=cmd_enumerate)

    p_filter = sub.add_parser("filter", help="run the exclusion filters on one T-vector")
    p_filter.add_argument("-d", type=int, required=True)
    p_filter.add_argument("-t", required=True, help='T-vector "t2,t3,...,td"')
    p_filter.add_argument("--mode", choices=criteria.MODES, default=criteria.MODE_ABSOLUTE)
    p_filter.set_defaults(func=cmd_filter)

    p_feas = sub.add_parser("feasible", help="decide abstract realizability by exhaustive search")
    p_feas.add_argument("-d", type=int, required=True)
    p_feas.add_argument("-t", required=True, help='T-vector "t2,t3,...,td"')
    p_feas.add_argument("--budget", type=int, help="node budget (default 10^9)")
    p_feas.add_argument("--out", help="write the witness JSON here instead of stdout")
    p_feas.set_defaults(func=cmd_feasible)

    p_real = sub.add_parser("realize", help="search a finite projective plane for a realization")
    p_real.add_argument("-d", type=int, required=True)
    p_real.add_argument("-t", required=True, help='T-vector "t2,t3,...,td"')
    p_real.add_argument("--field", required=True, help="prime field, e.g. f2 or f3")
    p_real.add_argument("--budget", type=int, help="node budget (default 10^9)")
    p_real.add_argument("--out", help="write the certificate JSON here instead of stdout")
    p_real.set_defaults(func=cmd_realize)

    p_verify = sub.add_parser("verify", help="verify a certificate file")
    p_verify.add_argument("path", help="certificate JSON file")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="reproduce the Harbourne constant table")
    p_table.add_argument("--max-d", type=int, default=MAX_D, dest="max_d")
    p_table.add_argument("--mode", choices=criteria.MODES, default=criteria.MODE_ABSOLUTE)
    p_table.add_argument(
        "--fields",
        default=",".join(map(str, pipeline.DEFAULT_FIELDS)),
        help="primes searched in absolute mode",
    )
    p_table.add_argument("--audit", action="store_true", help="print per-candidate dispositions")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--budget", type=int, help="node budget (default 10^9)")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows up here, not at exit
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the rest of the output has no reader; drop it so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
