import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from harbourne import pipeline
from harbourne.cli import main
from harbourne.incidence import CliquePartition, validate_partition
from harbourne.tspace import TVector

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    """Every usage error leaves stdout empty and prints one `error:` line, from `main`."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("enumerate", "-d", "1"), "d must lie in [2, 10], got 1"),
            (("enumerate", "-d", "10", "--below=x"), "malformed bound 'x'"),
            (("enumerate", "-d", "10", "--below=1 2 3"), "malformed bound '1 2 3'"),
            (
                ("filter", "-d", "6", "-t", "1,5,0,0,0"),
                "T-vector violates the pair-count identity: sum t_k*C(k,2) - C(d,2) = +1",
            ),
            (
                ("feasible", "-d", "3", "-t", "3,x"),
                "malformed T-vector '3,x': invalid literal for int() with base 10: 'x'",
            ),
            (("feasible", "-d", "3", "-t", "3,0", "--budget", "-1"), "--budget must be non-negative, got -1"),
            (("realize", "-d", "3", "-t", "3,0", "--field", "x"), "malformed field 'x'; expected e.g. f2, f3"),
            (
                ("realize", "-d", "3", "-t", "3,0", "--field", "f" + "9" * 5000),
                f"malformed field 'f{'9' * 5000}'; expected e.g. f2, f3",
            ),
            (
                ("realize", "-d", "3", "-t", "3,0", "--field", "f4"),
                "prime field modulus must be one of (2, 3, 5, 7, 11, 13), got 4",
            ),
            (
                ("realize", "-d", "8", "-t", "4,8,0,0,0,0,0", "--field", "f2"),
                "cannot pick 8 distinct lines in PG(2,2) (7 lines)",
            ),
            (("table", "--max-d", "11"), "max-d must lie in [2, 10], got 11"),
            (("table", "--fields", "2,x"), "malformed field list '2,x'"),
            (("table", "--fields", "4,9,2"), "unsupported field(s) [4, 9]; choose from (2, 3, 5, 7, 11, 13)"),
            (("table", "--fields", ""), "empty field list ''"),
            (("table", "--fields", ","), "empty field list ','"),
            (("table", "--fields", "3,2,3"), "repeated field(s) [3] in '3,2,3'"),
        ],
        ids=["degree", "bound", "bound-digits-apart", "identity", "tvector", "budget", "field",
             "field-too-long", "field-f4", "too-many-lines", "max-d", "field-list", "unsupported-fields",
             "empty-fields", "comma-fields", "repeated-fields"],
    )
    def test_one_error_line_and_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestEnumerate:
    def test_four_lines_four_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_two_lines_single_row(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert "q = 0" in lines[0]

    def test_below_bound(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "10", "--below=-34/15")
        assert code == 0
        assert "0,9,3,0,0,0,0,0,0" in out

    @pytest.mark.parametrize("d", (9, 10))
    @pytest.mark.parametrize("fmt", ("table", "csv", "json"))
    def test_below_reads_the_mixed_form_it_prints(self, capsys, d, fmt):
        # the json "mixed" field of -9/4 is "-2 1/4"; both degrees have rows at q = -9/4
        mixed = run(capsys, "enumerate", "-d", str(d), "--format", fmt, "--below=-2 1/4")
        assert mixed == run(capsys, "enumerate", "-d", str(d), "--format", fmt, "--below=-9/4")
        assert mixed[0] == 0 and "9/4" in mixed[1]

    def test_bad_degree_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "-d", "1")
        assert code == 2
        assert "error" in err

    def test_json_format_versioned(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "3", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["schema_version"] == 1
        assert len(data["tvectors"]) == 2


class TestFilter:
    def test_passing_vector(self, capsys):
        code, out, _ = run(capsys, "filter", "-d", "9", "-t", "0,12,0,0,0,0,0,0")
        assert code == 0
        assert json.loads(out)["status"] == "passed"

    def test_excluded_vector(self, capsys):
        code, out, _ = run(capsys, "filter", "-d", "5", "-t", "1,3,0,0")
        assert code == 1
        assert json.loads(out)["criterion"] == "multiplicity_sum"

    def test_complex_mode(self, capsys):
        code, out, _ = run(capsys, "filter", "-d", "7", "-t", "0,7,0,0,0,0", "--mode", "complex")
        assert code == 1
        assert json.loads(out)["criterion"] == "hirzebruch"


class TestFeasible:
    def test_infeasible_exit_one(self, capsys):
        code, _, err = run(capsys, "feasible", "-d", "6", "-t", "0,5,0,0,0")
        assert code == 1
        assert "infeasible" in err

    def test_fano_feasible_with_witness(self, capsys):
        code, out, _ = run(capsys, "feasible", "-d", "7", "-t", "0,7,0,0,0,0")
        assert code == 0
        witness = json.loads(out)
        assert witness["d"] == 7
        assert len(witness["points"]) == 7

    def test_d10_case_infeasible(self, capsys):
        code, _, _ = run(capsys, "feasible", "-d", "10", "-t", "0,1,7,0,0,0,0,0,0")
        assert code == 1

    def test_identity_violation_reports_imbalance(self, capsys):
        code, _, err = run(capsys, "feasible", "-d", "6", "-t", "1,5,0,0,0")
        assert code == 2
        assert "pair-count identity" in err

    def test_budget_inconclusive_exit_three(self, capsys):
        code, _, err = run(capsys, "feasible", "-d", "9", "-t", "0,12,0,0,0,0,0,0", "--budget", "2")
        assert code == 3
        assert "inconclusive" in err

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "feasible", "-d", "9", "-t", "0,12,0,0,0,0,0,0", "--budget", "-1")
        assert code == 2
        assert out == "" and "--budget must be non-negative" in err

    def test_search_deeper_than_the_python_stack_finds_witness(self, capsys):
        # 45 lines in general position: the search tree is one level per pair, 990 deep
        counts = ",".join(["990"] + ["0"] * 43)
        code, out, err = run(capsys, "feasible", "-d", "45", "-t", counts)
        assert (code, err) == (0, "")
        witness = json.loads(out)
        partition = CliquePartition(witness["d"], tuple(map(tuple, witness["points"])))
        assert validate_partition(partition, TVector.decode(45, counts))

    def test_witness_file_output(self, capsys, tmp_path):
        out_file = tmp_path / "witness.json"
        code, _, _ = run(capsys, "feasible", "-d", "3", "-t", "0,1", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["points"] == [[0, 1, 2]]

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "witness.json"
        code, out, err = run(capsys, "feasible", "-d", "3", "-t", "0,1", "--out", str(out_file))
        assert (code, out, err) == (2, "", f"error: cannot write {out_file}: No such file or directory\n")


class TestRealize:
    def test_fano_over_f2(self, capsys, tmp_path):
        out_file = tmp_path / "fano.json"
        code, _, _ = run(
            capsys, "realize", "-d", "7", "-t", "0,7,0,0,0,0", "--field", "f2", "--out", str(out_file)
        )
        assert code == 0
        cert = json.loads(out_file.read_text())
        assert cert["field"] == {"kind": "prime", "p": 2}
        assert len(cert["lines"]) == 7

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "fano.json"
        code, out, err = run(
            capsys, "realize", "-d", "7", "-t", "0,7,0,0,0,0", "--field", "f2", "--out", str(out_file)
        )
        assert (code, out, err) == (2, "", f"error: cannot write {out_file}: No such file or directory\n")

    def test_budget_inconclusive_exit_three(self, capsys):
        code, out, err = run(
            capsys, "realize", "-d", "9", "-t", "0,12,0,0,0,0,0,0", "--field", "f3", "--budget", "2"
        )
        assert (code, out, err) == (3, "", "inconclusive: node budget exceeded (3 nodes)\n")

    def test_fano_over_f3_exhausted(self, capsys):
        code, _, err = run(capsys, "realize", "-d", "7", "-t", "0,7,0,0,0,0", "--field", "f3")
        assert code == 1
        assert "exhausted" in err

    def test_d9_over_f3(self, capsys):
        """The whole certificate, key order and layout included: the first 9 lines found in PG(2,3)."""
        code, out, _ = run(capsys, "realize", "-d", "9", "-t", "0,12,0,0,0,0,0,0", "--field", "f3")
        assert code == 0
        expected = {
            "schema_version": 1,
            "label": "search-f3-d9",
            "field": {"kind": "prime", "p": 3},
            "lines": [
                [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1],
                [1, 1, 0], [1, 1, 2], [1, 2, 1], [1, 2, 2],
            ],
            "claimed_tvector": "0,12,0,0,0,0,0,0",
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "realize", "-d", "7", "-t", "0,7,0,0,0,0", "--field", "f2", "--budget", "-1"
        )
        assert code == 2
        assert out == "" and "--budget must be non-negative" in err

    def test_too_many_lines_usage_error(self, capsys):
        code, _, _ = run(capsys, "realize", "-d", "8", "-t", "4,8,0,0,0,0,0", "--field", "f2")
        assert code == 2

    def test_unsupported_field(self, capsys):
        code, _, _ = run(capsys, "realize", "-d", "3", "-t", "3,0", "--field", "f4")
        assert code == 2


class TestVerify:
    def test_realize_then_verify(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        run(capsys, "realize", "-d", "9", "-t", "0,12,0,0,0,0,0,0", "--field", "f3",
            "--out", str(out_file))
        code, out, _ = run(capsys, "verify", str(out_file))
        assert code == 0
        assert "T-vector: 0,12,0,0,0,0,0,0" in out
        assert "-9/4" in out

    def test_builtin_export_verifies(self, capsys, tmp_path):
        from harbourne.pipeline import builtin_certificates

        cert = builtin_certificates().get("dual-hesse-plus-line")
        path = tmp_path / "dhpl.json"
        path.write_text(json.dumps(cert.to_json()))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "-34/15" in out

    def test_builtin_wire_forms_and_verify_output_are_pinned(self, capsys, tmp_path):
        """Every builtin's JSON, in DB order, and its `verify` stdout after a file round trip."""
        db = pipeline.builtin_certificates()
        digest = hashlib.sha256()
        for label in db.labels():
            wire = json.dumps(db.get(label).to_json())
            path = tmp_path / "cert.json"
            path.write_text(wire)
            code, out, err = run(capsys, "verify", str(path))
            assert (code, err) == (0, ""), label
            digest.update(f"{wire}\n{out}".encode())
        assert len(db.labels()) == 29
        pin = "5c9f6966a86d9b76fe309fb72bf0f5bca78924cafba5499df6136bb35207b7c2"
        assert digest.hexdigest() == pin

    def test_corrupted_certificate_fails(self, capsys, tmp_path):
        from harbourne.pipeline import builtin_certificates

        data = builtin_certificates().get("fano-f2").to_json()
        data["lines"][1] = data["lines"][0]  # duplicate line
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "failed" in err

    def test_claimed_mismatch_fails(self, capsys, tmp_path):
        from harbourne.pipeline import builtin_certificates

        data = builtin_certificates().get("fano-f2").to_json()
        data["claimed_tvector"] = "21,0,0,0,0,0"
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 1

    def test_missing_file_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/cert.json")
        assert code == 2

    def test_directory_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path))
        assert code == 2
        assert out == "" and err.startswith(f"error: cannot read {tmp_path}")

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe\x00", b"[" * 100_000 + b"]" * 100_000], ids=["binary", "deep"]
    )
    def test_unparsable_file_fails(self, capsys, tmp_path, content):
        path = tmp_path / "cert.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == "" and err.startswith("error: cannot parse the certificate: ")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"lines": 5}, "lines: expected an array of lines, got 5"),
            ({"lines": [[1, 0, 0], 7]}, "lines[1]: expected an array of coordinates, got 7"),
            ({"lines": [[True, 0, 0], [0, 1, 0]]}, "lines[0][0]: rational scalar must be"),
            ({"claimed_tvector": 5}, "claimed_tvector: expected a string, got 5"),
            ({"label": 7}, "label: expected a string, got 7"),
            ({"field": {"kind": "prime", "p": 4}}, "field: prime field modulus must be one of"),
            ({"field": "rational"}, "field: field must be an object, got 'rational'"),
        ],
        ids=["lines-int", "line-int", "bool-coordinate", "claimed-int", "label-int",
             "unsupported-prime", "field-string"],
    )
    def test_malformed_certificate_fails_without_traceback(self, capsys, tmp_path, change, message):
        data = {"label": "bad", "field": {"kind": "rational"}, "lines": [[1, 0, 0], [0, 1, 0]]}
        data.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == "" and err.startswith(f"verification failed: {message}")

    @pytest.mark.parametrize(
        "content, shown", [("[1, 2]", "[1, 2]"), ('"x"', "'x'"), ("null", "None")],
        ids=["array", "string", "null"],
    )
    def test_non_object_certificate_fails(self, capsys, tmp_path, content, shown):
        path = tmp_path / "cert.json"
        path.write_text(content)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert err == f"verification failed: certificate must be an object, got {shown}\n"

    def test_pg23_minus_pencil3(self, capsys, tmp_path):
        from harbourne.pipeline import builtin_certificates

        cert = builtin_certificates().get("pg23-minus-pencil3")
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(cert.to_json()))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "T-vector: 0,9,3,0,0,0,0,0,0" in out
        assert "-29/12" in out


class TestTable:
    def test_table_to_five(self, capsys):
        code, out, _ = run(capsys, "table", "--max-d", "5")
        assert code == 0
        for value in ("0", "-1", "-4/3", "-3/2"):
            assert value in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--max-d", "4", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["schema_version"] == 1
        assert [r["value"] for r in data["rows"]] == ["0", "-1", "-4/3"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "--max-d", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "d,value,decimal,witness,integrity_ok"

    def test_audit_flag(self, capsys):
        code, out, _ = run(capsys, "table", "--max-d", "4", "--audit")
        assert code == 0
        assert "6,0,0" in out

    def test_max_d_validated(self, capsys):
        code, _, _ = run(capsys, "table", "--max-d", "11")
        assert code == 2

    def test_unsupported_field_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--fields", "4", "--max-d", "10")
        assert code == 2
        assert "unsupported" in err

    def test_starved_budget_is_integrity_error(self, capsys, monkeypatch):
        # a certified T runs no search, so only an uncertified d = 2 meets the budget
        from test_pipeline import without_d2_certificates

        monkeypatch.setattr(pipeline, "builtin_certificates", without_d2_certificates)
        code, _, err = run(capsys, "table", "--max-d", "2", "--budget", "0")
        assert code == 4
        assert "integrity" in err

    def test_rows_failing_their_integrity_check_are_flagged(self, capsys, monkeypatch):
        # with only the pencils certified over characteristic 0, every T below q = 0 is
        # inconclusive: the table still prints, flags the rows and names each culprit
        full = pipeline.builtin_certificates()
        pencils = pipeline.CertificateDatabase([full.get(f"pencil-{d}") for d in range(2, 6)])
        monkeypatch.setattr(pipeline, "builtin_certificates", lambda: pencils)
        code, out, err = run(capsys, "table", "--max-d", "5", "--mode", "complex")
        assert code == 4
        assert out == (
            "d  2             3             4             5           \n"
            "H  0 (0.000000)  0 (0.000000)  0 (0.000000)  0 (0.000000)\n"
            "\n"
            "d=2: minimum 0 realized by pencil-2\n"
            "d=3: minimum 0 realized by pencil-3  [INTEGRITY FAILURE]\n"
            "d=4: minimum 0 realized by pencil-4  [INTEGRITY FAILURE]\n"
            "d=5: minimum 0 realized by pencil-5  [INTEGRITY FAILURE]\n"
        )
        culprits = [
            (3, "3,0", "-1"),
            (4, "6,0,0", "-4/3"),
            (4, "3,1,0", "-5/4"),
            (5, "4,2,0,0", "-3/2"),
            (5, "7,1,0,0", "-3/2"),
            (5, "10,0,0,0", "-3/2"),
            (5, "4,0,1,0", "-7/5"),
        ]
        assert err == "".join(
            f"table integrity error: d={d} candidate {t} (q={q}) is inconclusive below the minimum\n"
            for d, t, q in culprits
        )

    @pytest.mark.parametrize("mode", ["absolute", "complex"])
    def test_zero_budget_changes_no_byte(self, capsys, mode):
        # every entry is decided by a filter or a certificate, so no search meets the budget
        argv = ("table", "--max-d", "10", "--mode", mode, "--audit", "--format", "json")
        assert run(capsys, *argv, "--budget", "0") == run(capsys, *argv)

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "table", "--max-d", "2", "--budget", "-1")
        assert code == 2
        assert out == "" and "--budget must be non-negative" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "--max-d", "6", "--audit", "--format", "json")
        _, second, _ = run(capsys, "table", "--max-d", "6", "--audit", "--format", "json")
        assert first == second

    @pytest.mark.parametrize(
        "mode, fmt, digest",
        [
            ("absolute", "json", "b968b3b9219483b78c3204ce4e6acdb348fc26e824711a382e2af5c9e27e7c13"),
            ("complex", "json", "91ded3e8e7355f6b26b830d7eaa5df062c2429be0db46698439eb0c6f729c18e"),
            ("absolute", "text", "74179c9fb5a4a7c83cdc294b0335723970032a95aeeba42338c26cc28a1ece83"),
            ("complex", "text", "876f6169b1c1cac81fca5972520c3ceb0b98bdca1ed5850cdc524462c3655121"),
        ],
    )
    def test_full_audit_bytes_are_pinned(self, capsys, mode, fmt, digest):
        code, out, err = run(
            capsys, "table", "--max-d", "10", "--mode", mode, "--audit", "--format", fmt
        )
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestClosedStdout:
    """A reader that stops after one line is no proven negative (exit 1) and no crash."""

    @pytest.mark.parametrize(
        "argv", [("enumerate", "-d", "10"), ("table", "--max-d", "10", "--audit")], ids=["enumerate", "table"]
    )
    def test_reader_closes_after_one_line(self, argv):
        read_end, write_end = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            # one page of pipe: the command cannot have written all of its output before the close
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        child = subprocess.Popen(
            [sys.executable, "-m", "harbourne.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            text=True,
        )
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            assert reader.readline()
        _, err = child.communicate(timeout=60)
        assert child.returncode != 1
        assert "Traceback" not in err
