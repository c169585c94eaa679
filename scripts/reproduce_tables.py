#!/usr/bin/env python3
"""Reproduce both Harbourne-constant tables and dump the full audit trail.

Writes one JSON file per mode next to --out (default ./results) and prints
the side-by-side summary.  Exits nonzero if any table row fails its
integrity check.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harbourne.cli import EXIT_INTEGRITY, SCHEMA_VERSION, UsageError, table_fields
from harbourne.criteria import MODE_ABSOLUTE, MODE_COMPLEX
from harbourne.pipeline import DEFAULT_FIELDS, builtin_certificates, compute_table
from harbourne.tspace import MAX_D, render_decimal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=MAX_D)
    parser.add_argument("--fields", default=",".join(map(str, DEFAULT_FIELDS)))
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    try:
        fields = table_fields(args.max_d, args.fields)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2, as `harbourne table` does
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    db = builtin_certificates()

    tables = {}
    for mode in (MODE_ABSOLUTE, MODE_COMPLEX):
        start = time.time()
        rows = compute_table(args.max_d, mode, fields, db)
        elapsed = time.time() - start
        tables[mode] = rows
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": mode,
            "fields": list(fields),
            "elapsed_seconds": round(elapsed, 3),
            "rows": [row.to_json() for row in rows],
        }
        path = out_dir / f"table-{mode}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"{mode}: {len(rows)} rows in {elapsed:.1f}s -> {path}")

    print()
    print(f"{'d':>3} {'absolute':>20} {'complex':>20}")
    ok = True
    for abs_row, cpx_row in zip(tables[MODE_ABSOLUTE], tables[MODE_COMPLEX]):
        ok &= abs_row.integrity_ok and cpx_row.integrity_ok
        print(
            f"{abs_row.d:>3} {str(abs_row.value):>9} {render_decimal(abs_row.value):>10} "
            f"{str(cpx_row.value):>9} {render_decimal(cpx_row.value):>10}"
        )
    if not ok:
        print("integrity failure in at least one row", file=sys.stderr)
        return EXIT_INTEGRITY
    return 0


if __name__ == "__main__":
    sys.exit(main())
