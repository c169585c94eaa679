#!/usr/bin/env python3
"""Print one JSON line per T-vector with d <= --max-d: what each stage says and what it cost.

Each line holds the T-vector, the counting-filter criterion that excludes
it in each mode (null if it survives), the incidence search's verdict
with its nodes and seconds, and the PG(2, p) realization outcome for
p = 2, 3 (null where the plane has fewer than d lines).  Every search
runs to the end.  Only the "seconds" values change from run to run, so
two versions of the engine can be compared by diffing their output with
those removed.  The realization search's tree shrank with each level of
its PGL(3, p) frame (two levels, then three) and again with its
covered-point count, which decides some T before the first node, so
older versions report larger realization "nodes" and the same "found"
and "exhausted":

    python3 scripts/census.py > census.jsonl
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harbourne.criteria import MODES, apply_all
from harbourne.geometry import realize_over_prime_field
from harbourne.incidence import feasible_arrangement
from harbourne.pipeline import DEFAULT_FIELDS
from harbourne.tspace import MAX_D, enumerate_tvectors


def incidence_record(tv):
    start = time.perf_counter()
    outcome = feasible_arrangement(tv)
    seconds = round(time.perf_counter() - start, 6)
    return {"feasible": outcome.feasible, "nodes": outcome.nodes_explored, "seconds": seconds}


def realization_record(tv, p):
    if tv.d > p * p + p + 1:  # more lines than PG(2, p) has
        return None
    outcome = realize_over_prime_field(tv, p)
    return {"found": outcome.found, "exhausted": outcome.exhausted, "nodes": outcome.nodes}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--max-d", type=int, default=MAX_D)
    args = parser.parse_args()
    if not 2 <= args.max_d <= MAX_D:
        parser.error(f"max-d must lie in [2, {MAX_D}], got {args.max_d}")

    for d in range(2, args.max_d + 1):
        for tv in enumerate_tvectors(d):
            record = {
                "d": d,
                "t": tv.encode(),
                "criterion": {mode: apply_all(tv, mode).criterion for mode in MODES},
                "incidence": incidence_record(tv),
                "realization": {f"f{p}": realization_record(tv, p) for p in DEFAULT_FIELDS},
            }
            print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
