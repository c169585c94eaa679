"""The benchmark's workloads: what one pass runs and how it is checked.

Each workload uses the search layers differently, so a change that speeds
one kind of search and slows another shows up as a regression:

* ``tables`` is the product, ``compute_table(10, mode)`` for both modes
  exactly as ``harbourne table`` calls it.  One long exhaustive
  infeasibility proof in the incidence search dominates it.
* ``audit-complex`` classifies every T-vector of d = 9, 10 in complex mode
  with a fixed node budget: many short incidence searches, mostly positive,
  a few budget hits, and no realization search at all.
* ``audit-absolute`` classifies every T-vector of d = 7 in absolute mode
  (fields 2, 3): ten exhaustive realization searches over F_3 dominate,
  with little incidence.  Adding d = 8 would make one pass too long to
  repeat within a run.

The seed only shuffles the order in which audit candidates are classified
(and, in ``run``, the order of replays); every pass uses a fresh shuffle,
and the results must not depend on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from harbourne import criteria, pipeline
from harbourne.tspace import enumerate_tvectors

import gate


@dataclass
class TableWorkload:
    name: str
    why: str
    max_d: int = 10
    modes: tuple[str, ...] = (criteria.MODE_ABSOLUTE, criteria.MODE_COMPLEX)

    def settings(self) -> dict:
        return {"max_d": self.max_d, "modes": list(self.modes), "fields": list(pipeline.DEFAULT_FIELDS),
                "node_budget": None, "db": None}  # fmt: skip

    def prepare(self, seed: int, db) -> None:
        """Nothing to generate: the tables take no input but max_d."""

    def run_pass(self) -> dict:
        # the module attribute, so a traced run sees the wrapped function
        return {mode: pipeline.compute_table(self.max_d, mode) for mode in self.modes}

    def check(self, result: dict, certified: dict, golden: dict) -> list[str]:
        failures: list[str] = []
        for mode, rows in result.items():
            failures += gate.check_table(rows, mode, self.max_d, certified, golden)
        return failures

    def signature(self, result: dict) -> str:
        return json.dumps({mode: [row.to_json() for row in rows] for mode, rows in result.items()})


@dataclass
class AuditWorkload:
    name: str
    why: str
    mode: str
    degrees: tuple[int, ...]
    node_budget: int
    fields: tuple[int, ...] = pipeline.DEFAULT_FIELDS

    def settings(self) -> dict:
        return {"mode": self.mode, "degrees": list(self.degrees), "fields": list(self.fields),
                "node_budget": self.node_budget, "db": "shared, built in set-up"}  # fmt: skip

    def prepare(self, seed: int, db) -> None:
        self._candidates = [tv for d in self.degrees for tv in enumerate_tvectors(d)]
        self._rng = random.Random(seed)
        self._db = db

    def run_pass(self) -> list:
        order = list(self._candidates)
        self._rng.shuffle(order)
        classify = pipeline.classify_candidate
        return [classify(tv, self.mode, self.fields, self._db, self.node_budget) for tv in order]

    def check(self, result: list, certified: dict, golden: dict) -> list[str]:
        failures = gate.check_entries(result, self.mode, certified, golden)
        if len(result) != len(self._candidates):
            failures.append(f"classified {len(result)} of {len(self._candidates)} candidates")
        return failures

    def signature(self, result: list) -> str:
        return json.dumps(sorted((st.tvector.d, st.tvector.counts, st.to_json()) for st in result))


WORKLOADS = {
    w.name: w
    for w in (
        TableWorkload(
            "tables",
            "both d<=10 tables as `harbourne table` computes them; one exhaustive incidence proof dominates",
        ),
        AuditWorkload(
            "audit-complex",
            "classify all 436 T-vectors of d=9,10 in complex mode, 10k-node budget: many short incidence searches, no realization",
            criteria.MODE_COMPLEX,
            (9, 10),
            10_000,
        ),
        AuditWorkload(
            "audit-absolute",
            "classify all 32 T-vectors of d=7 in absolute mode, fields 2,3, 20k-node budget: exhaustive F_3 realization searches dominate",
            criteria.MODE_ABSOLUTE,
            (7,),
            20_000,
        ),
    )
}

# the same three shapes at d <= 6, for the smoke test
TINY = {
    "tables": TableWorkload("tables", "tiny", max_d=6),
    "audit-complex": AuditWorkload("audit-complex", "tiny", criteria.MODE_COMPLEX, (5, 6), 2_000),
    "audit-absolute": AuditWorkload("audit-absolute", "tiny", criteria.MODE_ABSOLUTE, (5, 6), 2_000),
}
