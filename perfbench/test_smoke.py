"""Smoke test of the benchmark on tiny inputs (d <= 6), a few seconds in all.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import gate
import run
from workloads import TINY

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_db():
    from harbourne import pipeline

    return pipeline.builtin_certificates()


def _names(kind: str) -> set[str]:
    return {metric["name"] for metric in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(TINY) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    record = run.measure(TINY[name], seed=7, seconds=0.01, trace=trace, setup_repeats=1)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    metrics = record["metrics"]
    assert set(metrics) == _names("per_layer" if trace else "end_to_end")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    for metric, entry in metrics.items():
        assert entry["unit"] == declared[metric]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in metrics.values())


def test_seeds_change_order_not_results():
    workload = TINY["audit-complex"]
    signatures = set()
    for seed in (1, 2):
        workload.prepare(seed, run_db())
        signatures.add(workload.signature(workload.run_pass()))
    assert len(signatures) == 1


def test_gate_rejects_wrong_golden_table_value():
    golden = {mode: dict(rows) for mode, rows in gate.GOLDEN.items()}
    golden["absolute"][5] = Fraction(-2)
    record = run.measure(TINY["tables"], seed=1, seconds=0.01, trace=False, golden=golden, setup_repeats=1)
    assert not record["correct"]
    assert any("absolute d=5: value -3/2, golden -2" in f for f in record["failures"])


def test_gate_rejects_realized_value_below_golden():
    golden = {mode: dict(rows) for mode, rows in gate.GOLDEN.items()}
    golden["complex"][6] = Fraction(0)
    record = run.measure(TINY["audit-complex"], seed=1, seconds=0.01, trace=False, golden=golden, setup_repeats=1)
    assert not record["correct"]
    assert any("below the golden value 0" in f for f in record["failures"])


def test_replay_that_disagrees_with_the_first_call_fails():
    import tracing
    from harbourne import pipeline

    db = run_db()
    tv = db.get("quadrilateral-6").claimed_tvector
    with tracing.Instrument(spans=False) as inst:
        pipeline.classify_candidate(tv, "absolute", pipeline.DEFAULT_FIELDS, db)
        (request,) = inst.classify_s
        assert inst.replay(request) is None
        args, kwargs, expected = inst._calls[request]
        inst._calls[request] = (args, kwargs, {**expected, "status": pipeline.ST_INFEASIBLE})
        assert "replay of" in inst.replay(request)


def test_gate_rejects_certified_tvector_declared_infeasible():
    from harbourne import pipeline

    db = run_db()
    certified = gate.certified_tvectors(db)
    tv = db.get("quadrilateral-6").claimed_tvector
    wrong = pipeline.CandidateStatus(tv, Fraction(0), pipeline.ST_INFEASIBLE)
    failures = gate.check_entries([wrong], "absolute", certified)
    assert any("declared infeasible" in f for f in failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert "correct" not in done.stdout
