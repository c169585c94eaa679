"""Command-line interface.

Subcommands: enumerate, filter, feasible, realize, verify, table.
Exit codes are a stable contract: 0 success/feasible, 1 proven negative,
2 usage error, 3 inconclusive (budget), 4 table-integrity failure.
The environment variable HARB_NODE_BUDGET overrides the search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import criteria, incidence, pipeline
from .geometry import (
    Certificate,
    CertificateError,
    UnsupportedFieldError,
    certificate_from_configuration,
    realize_over_prime_field,
    verify_certificate,
)
from .tspace import (
    InvalidDegreeError,
    TVector,
    combinatorial_quotient,
    enumerate_tvectors,
    identity_imbalance,
    render_decimal,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTEGRITY = 4


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _node_budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("HARB_NODE_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            print(f"warning: ignoring malformed HARB_NODE_BUDGET={env!r}", file=sys.stderr)
    return None


def _parse_tvector(args) -> TVector | None:
    try:
        tv = TVector.decode(args.d, args.t)
    except (ValueError, InvalidDegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    imbalance = identity_imbalance(tv)
    if imbalance != 0:
        print(
            f"error: T-vector violates the pair-count identity: "
            f"sum t_k*C(k,2) - C(d,2) = {imbalance:+d}",
            file=sys.stderr,
        )
        return None
    return tv


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text.replace(" ", ""))


def cmd_enumerate(args) -> int:
    if args.d < 2 or args.d > 10:
        return _usage(f"d must lie in [2, 10], got {args.d}")
    ceiling = None
    if args.below is not None:
        try:
            ceiling = _parse_fraction(args.below)
        except (ValueError, ZeroDivisionError):
            return _usage(f"malformed bound {args.below!r}")
    vectors = enumerate_tvectors(args.d, ceiling)
    entries = []
    for tv in vectors:
        q = combinatorial_quotient(tv)
        entries.append({"t": tv.encode(), "q": str(q.value), "decimal": q.decimal, "mixed": q.mixed})
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "d": args.d, "tvectors": entries}, indent=2))
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
    if tv is None:
        return EXIT_USAGE
    verdict = criteria.apply_all(tv, args.mode)
    print(json.dumps(verdict.to_json(), indent=2))
    return EXIT_NEGATIVE if verdict.is_excluded else EXIT_OK


def cmd_feasible(args) -> int:
    tv = _parse_tvector(args)
    if tv is None:
        return EXIT_USAGE
    try:
        outcome = incidence.feasible_arrangement(tv, _node_budget(args))
    except incidence.SearchBudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if not outcome.feasible:
        print(
            f"infeasible: exhausted search ({outcome.nodes_explored} nodes)",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    payload = {"schema_version": SCHEMA_VERSION, **outcome.witness.to_json()}
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _parse_field(text: str) -> int | None:
    text = text.strip().lower()
    if text.startswith("f") and text[1:].isdigit():
        return int(text[1:])
    if text.isdigit():
        return int(text)
    return None


def cmd_realize(args) -> int:
    tv = _parse_tvector(args)
    if tv is None:
        return EXIT_USAGE
    p = _parse_field(args.field)
    if p is None:
        return _usage(f"malformed field {args.field!r}; expected e.g. f2, f3")
    try:
        outcome = realize_over_prime_field(tv, p, _node_budget(args))
    except UnsupportedFieldError as exc:
        return _usage(str(exc))
    except ValueError as exc:
        return _usage(str(exc))
    if not outcome.found:
        if outcome.exhausted:
            print(
                f"not found: exhausted search over PG(2,{p}) ({outcome.nodes} nodes)",
                file=sys.stderr,
            )
            return EXIT_NEGATIVE
        print(f"inconclusive: node budget exceeded ({outcome.nodes} nodes)", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    cert = certificate_from_configuration(f"search-f{p}-d{tv.d}", outcome.configuration)
    verify_certificate(cert)
    payload = {"schema_version": SCHEMA_VERSION, **cert.to_json()}
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return _usage(f"no such file: {args.path}")
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}", file=sys.stderr)
        return EXIT_NEGATIVE
    try:
        cert = Certificate.from_json(data)
        report = verify_certificate(cert)
    except CertificateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(f"label:    {cert.label}")
    print(f"field:    {cert.field}")
    print(f"d:        {report.d}")
    print(f"s:        {report.s}")
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
    if not 2 <= args.max_d <= 10:
        return _usage(f"max-d must lie in [2, 10], got {args.max_d}")
    try:
        fields = tuple(int(f) for f in args.fields.split(",") if f.strip())
    except ValueError:
        return _usage(f"malformed field list {args.fields!r}")
    try:
        rows = pipeline.compute_table(args.max_d, args.mode, fields, node_budget=_node_budget(args))
    except pipeline.TableIntegrityError as exc:
        print(f"table integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": args.mode,
            "rows": [row.to_json(with_audit=args.audit) for row in rows],
        }
        print(json.dumps(payload, indent=2))
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
    p_enum.add_argument("-d", type=int, required=True, help="number of lines (2..10)")
    p_enum.add_argument("--below", help="only quotients <= this bound (e.g. --below=-34/15)")
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
    p_table.add_argument("--max-d", type=int, default=10, dest="max_d")
    p_table.add_argument("--mode", choices=criteria.MODES, default=criteria.MODE_ABSOLUTE)
    p_table.add_argument("--fields", default="2,3", help="primes searched in absolute mode")
    p_table.add_argument("--audit", action="store_true", help="print per-candidate dispositions")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--budget", type=int, help="node budget (default 10^9)")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
