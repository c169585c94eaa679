import json
import subprocess
import sys
from pathlib import Path

from harbourne.criteria import MODES, apply_all
from harbourne.tspace import enumerate_tvectors

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census.py"


def census(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120
    )


def test_one_line_per_tvector_up_to_six_lines():
    result = census("--max-d", "6")
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    vectors = [tv for d in range(2, 7) for tv in enumerate_tvectors(d)]
    assert [(r["d"], r["t"]) for r in records] == [(tv.d, tv.encode()) for tv in vectors]
    for record, tv in zip(records, vectors):
        assert record["criterion"] == {mode: apply_all(tv, mode).criterion for mode in MODES}
        search = record["incidence"]
        assert search["nodes"] >= 0 and search["seconds"] >= 0
        # at d <= 10 the absolute filters exclude exactly the infeasible T
        assert search["feasible"] is (record["criterion"]["absolute"] is None)
        assert set(record["realization"]) == {"f2", "f3"}
        for outcome in record["realization"].values():
            assert outcome["exhausted"]
            assert not outcome["found"] or search["feasible"]


def test_realization_is_null_only_where_the_plane_has_too_few_lines():
    result = census("--max-d", "8")
    assert result.returncode == 0, result.stderr
    for record in map(json.loads, result.stdout.splitlines()):
        outcomes = record["realization"]
        # PG(2, 2) has 7 lines and PG(2, 3) has 13
        assert (outcomes["f2"] is None) is (record["d"] > 7)
        assert outcomes["f3"] is not None and outcomes["f3"]["exhausted"]


def test_bad_max_d_is_a_usage_error():
    result = census("--max-d", "11")
    assert result.returncode == 2
    assert "max-d must lie in [2, 10], got 11" in result.stderr
    assert result.stdout == ""
