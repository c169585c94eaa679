import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"


def reproduce(tmp_path, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "out"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--fields", "4"), "unsupported field(s) [4]"),
        (("--fields", "2,x"), "malformed field list"),
        (("--max-d", "11"), "max-d must lie in [2, 10], got 11"),
        (("--max-d", "1"), "max-d must lie in [2, 10], got 1"),
        (("--fields", ""), "empty field list ''"),
        (("--fields", ","), "empty field list ','"),
        (("--fields", "3,3"), "repeated field(s) [3] in '3,3'"),
    ],
)
def test_usage_errors_exit_two_and_write_nothing(tmp_path, argv, message):
    result = reproduce(tmp_path, *argv)
    assert result.returncode == 2
    assert message in result.stderr
    assert not (tmp_path / "out").exists()


def test_small_run_writes_both_tables(tmp_path):
    result = reproduce(tmp_path, "--max-d", "5", "--fields", "2,5")
    assert result.returncode == 0, result.stderr
    for mode in ("absolute", "complex"):
        payload = json.loads((tmp_path / "out" / f"table-{mode}.json").read_text())
        assert payload["fields"] == [2, 5]
        assert [row["value"] for row in payload["rows"]] == ["0", "-1", "-4/3", "-3/2"]
        assert all(row["integrity_ok"] for row in payload["rows"])
