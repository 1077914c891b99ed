"""Command line interface: text, CSV, and JSON outputs plus exit codes."""

import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:
    jsonschema = None

from specdom import enumerate_threshold
from specdom.cli import main

C8 = "GhCGKC"
K6_PLUS_2 = "G~~w??"
SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"

SPLIT_EDGES = "6 8\n1 2\n1 3\n2 3\n1 4\n1 5\n2 4\n2 5\n3 6\n"


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(argv, stdin_text=None):
        if stdin_text is not None:
            stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode("utf-8")))
            monkeypatch.setattr(sys, "stdin", stdin)
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    return _run


def check_schema(payload):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)


class TestAnalyze:
    def test_cycle8_text_report(self, run):
        rc, out, _ = run(["analyze", "-"], stdin_text=C8 + "\n")
        assert rc == 0
        assert "id: GhCGKC" in out
        assert "energy: 9.65685424949" in out
        assert "brouwer: holds (worst k=3, margin 3.17157287525)" in out
        assert "[near-equality at k=7,8]" in out
        assert "energy witness: 8: 4 3 1 | LE 16 >= 9.65685424949" in out

    def test_edge_list_input(self, run, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(SPLIT_EDGES)
        rc, out, _ = run(["analyze", str(path)])
        assert rc == 0
        assert "n=6 m=8" in out

    def test_edgeless_report(self, run):
        rc, out, _ = run(["analyze", "-"], stdin_text="5 0\n")
        assert rc == 0
        assert "energy: 0" in out
        assert "gmb: holds" in out and "brouwer: holds" in out

    def test_csv_rows(self, run):
        rc, out, _ = run(["analyze", "-", "--csv"], stdin_text=C8 + "\n")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("id,n,m,energy,gmb_holds")
        fields = lines[1].split(",")
        assert fields[0] == C8
        assert fields[1:4] == ["8", "8", "9.65685424949"]

    def test_json_matches_schema(self, run):
        rc, out, _ = run(["analyze", "-", "--json"],
                         stdin_text=f"{C8}\n{K6_PLUS_2}\n")
        assert rc == 0
        payload = json.loads(out)
        check_schema(payload)
        assert len(payload) == 2
        rep = payload[0]
        assert rep["id"] == C8
        assert rep["energy"] == 9.65685424949
        assert rep["checks"]["brouwer"]["worst_k"] == 3
        assert abs(payload[1]["checks"]["brouwer"]["min_margin"]) < 1e-9

    def test_bad_record_is_an_error(self, run):
        rc, out, err = run(["analyze", "-"], stdin_text="##bad##\n")
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("text, line", [("Bw\n##bad##\nDhc\n", 2),
                                            ("Bw\n\n##bad##\nDhc\n", 3)])
    def test_bad_record_names_its_line(self, run, text, line):
        # lines are counted as search counts them, blank ones included
        rc, out, err = run(["analyze", "-"], stdin_text=text)
        assert (rc, out) == (2, "")
        assert f"error: line {line}: byte 0: character '#'" in err

    def test_missing_file(self, run):
        rc, _, err = run(["analyze", "/nonexistent/path.g6"])
        assert rc == 2
        assert "error:" in err


class TestBuild:
    def test_brouwer_extremal_case2(self, run):
        rc, out, _ = run(["build", "brouwer-extremal", "8", "15", "4"])
        assert rc == 0
        assert "threshold: 8: 6 4 3 2" in out
        assert "conjugate: 7 6 6 6 4 1 0 0" in out
        assert "case: 2 (h=6, r=1, bound=25)" in out

    def test_brouwer_extremal_infeasible(self, run):
        rc, _, err = run(["build", "brouwer-extremal", "8", "99", "4"])
        assert rc == 2
        assert "outside 0..28" in err

    def test_cycle_dominator(self, run):
        rc, out, _ = run(["build", "cycle-dominator", "8"])
        assert rc == 0
        assert "threshold: 8: 4 3 1" in out
        assert "spectrum: 5 5 4 2 0 0 0 0" in out

    def test_cycle_dominator_small_n(self, run):
        rc, _, err = run(["build", "cycle-dominator", "7"])
        assert rc == 2
        assert "error:" in err

    def test_split_dominator(self, run, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(SPLIT_EDGES)
        rc, out, _ = run(["build", "split-dominator", str(path), "2"])
        assert rc == 0
        assert "threshold: 6: 5 3" in out

    def test_split_dominator_rejects_non_split(self, run, tmp_path):
        path = tmp_path / "c4.edges"
        path.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
        rc, _, err = run(["build", "split-dominator", str(path), "1"])
        assert rc == 2
        assert "error:" in err

    def test_split_dominator_bad_record_names_its_line(self, run, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n##bad##\n")
        rc, out, err = run(["build", "split-dominator", str(path), "1"])
        assert (rc, out) == (2, "")
        assert "error: line 2: byte 0: " in err

    def test_union_merge(self, run, tmp_path):
        path = tmp_path / "parts.txt"
        path.write_text("3: 2 1\n4: 3\n")
        rc, out, _ = run(["build", "union-merge", str(path)])
        assert rc == 0
        assert "threshold: 7: 5 1" in out

    def test_union_merge_bad_columns_name_the_line(self, run, tmp_path):
        # blank lines count, as in search and analyze
        path = tmp_path / "parts.txt"
        path.write_text("3: 2 1\n\n4: 4\n")
        rc, out, err = run(["build", "union-merge", str(path)])
        assert (rc, out) == (2, "")
        assert err == "error: line 3: column count c_1=4 exceeds n - 1 = 3\n"

    def test_union_merge_bad_token_names_the_line(self, run, tmp_path):
        path = tmp_path / "parts.txt"
        path.write_text("3: 2 1\n4: x\n")
        rc, out, err = run(["build", "union-merge", str(path)])
        assert (rc, out) == (2, "")
        assert err == ("error: line 2: bad column count in threshold "
                       "record '4: x'\n")

    def test_pineapple(self, run):
        rc, out, _ = run(["build", "pineapple", "8", "6"])
        assert rc == 0
        assert "threshold: 8: 7 4 3 2 1" in out

    def test_clique_isolated(self, run):
        rc, out, _ = run(["build", "clique-isolated", "9"])
        assert rc == 0
        assert "threshold: 9: 6 5 4 3 2 1" in out
        assert "spectrum: 7 7 7 7 7 7 0 0 0" in out

    def test_build_json_matches_schema(self, run):
        rc, out, _ = run(["build", "brouwer-extremal", "8", "15", "4", "--json"])
        assert rc == 0
        payload = json.loads(out)
        check_schema(payload)
        assert payload["graph6"]
        assert payload["case"] == {"case": 2, "h": 6, "r": 1, "bound": 25}

    def test_build_json_without_case(self, run):
        rc, out, _ = run(["build", "cycle-dominator", "8", "--json"])
        assert rc == 0
        payload = json.loads(out)
        check_schema(payload)
        assert payload["case"] is None
        assert payload["cols"] == [4, 3, 1]


class TestSearch:
    def test_clean_stream(self, run):
        rc, out, err = run(["search", "-"], stdin_text=f"Bw\n{C8}\n")
        assert rc == 0
        assert "records: 2" in out
        assert "violations: 0" in out
        assert "1 worker" in err

    def test_near_equality_reported(self, run):
        rc, out, _ = run(["search", "-"], stdin_text=K6_PLUS_2 + "\n")
        assert rc == 0
        assert f"NEAR {K6_PLUS_2} check=brouwer k=5" in out

    def test_violation_exit_code(self, run):
        rc, out, _ = run(["search", "-", "--tolerance", "-4"],
                         stdin_text=C8 + "\n")
        assert rc == 1
        assert "VIOLATION GhCGKC check=brouwer k=3" in out

    def test_error_exit_code(self, run):
        rc, out, _ = run(["search", "-"], stdin_text="##bad##\n")
        assert rc == 2
        assert "ERROR line 1:" in out

    def test_gen_all(self, run):
        rc, out, _ = run(["search", "--gen-all", "3"])
        assert rc == 0
        assert "records: 8" in out

    def test_gen_all_excludes_input(self, run):
        rc, _, err = run(["search", C8, "--gen-all", "3"])
        assert rc == 2
        assert "not both" in err

    def test_check_flag_forms_agree(self, run):
        rc1, out1, _ = run(["search", "--gen-all", "4",
                            "--check", "gmb", "--check", "brouwer"])
        rc2, out2, _ = run(["search", "--gen-all", "4",
                            "--check", "gmb,brouwer"])
        assert (rc1, out1) == (rc2, out2)
        assert "checks: gmb,brouwer" in out1

    def test_unknown_check(self, run):
        rc, _, err = run(["search", "--gen-all", "3", "--check", "spectral"])
        assert rc == 2
        assert "unknown check" in err

    def test_jobs_do_not_change_stdout(self, run):
        rc1, out1, _ = run(["search", "--gen-all", "5", "--jobs", "1"])
        rc2, out2, _ = run(["search", "--gen-all", "5", "--jobs", "4"])
        assert (rc1, out1) == (rc2, out2)

    def test_json_matches_schema(self, run):
        rc, out, _ = run(["search", "-", "--json"],
                         stdin_text=K6_PLUS_2 + "\n")
        assert rc == 0
        payload = json.loads(out)
        check_schema(payload)
        assert payload["records"] == 1
        assert payload["near_equality"][0]["k"] == 5

    @pytest.mark.parametrize("bad", [b"B\xc3\xa9", b"B\xff"])
    def test_non_ascii_file_matches_stdin(self, tmp_path, bad):
        # a bad byte is an error of its own line, read from a file or stdin
        data = b"Bw\n" + bad + b"\nDhc\n"
        path = tmp_path / "bad.g6"
        path.write_bytes(data)
        cmd = [sys.executable, "-m", "specdom.cli", "search"]
        from_file = subprocess.run(cmd + [str(path)], capture_output=True)
        from_stdin = subprocess.run(cmd + ["-"], input=data, capture_output=True)
        assert from_file.returncode == from_stdin.returncode == 2
        assert from_file.stdout == from_stdin.stdout
        out = from_file.stdout.decode("utf-8")
        assert "records: 2\n" in out
        assert "ERROR line 2: byte 1: " in out
        cmd = [sys.executable, "-m", "specdom.cli", "analyze"]
        from_file = subprocess.run(cmd + [str(path)], capture_output=True)
        from_stdin = subprocess.run(cmd + ["-"], input=data, capture_output=True)
        assert from_file.returncode == from_stdin.returncode == 2
        assert from_file.stderr == from_stdin.stderr
        assert from_file.stderr.startswith(b"error: line 2: byte 1: ")

    def test_progress_on_stderr(self, run):
        rc, out, err = run(["search", "--gen-all", "4", "--progress"])
        assert rc == 0
        assert "progress:" in err
        assert "progress:" not in out


class TestEnumerate:
    def test_fixed_m(self, run):
        rc, out, _ = run(["enumerate-threshold", "4", "3"])
        assert rc == 0
        assert out == "4: 3\n4: 2 1\ncount: 2\n"

    def test_all_m(self, run):
        rc, out, _ = run(["enumerate-threshold", "4"])
        assert rc == 0
        assert "count: 8" in out

    def test_out_of_range(self, run):
        rc, _, err = run(["enumerate-threshold", "25"])
        assert rc == 2
        assert "1 <= n <= 20" in err

    def test_json_matches_schema(self, run):
        rc, out, _ = run(["enumerate-threshold", "4", "3", "--json"])
        assert rc == 0
        payload = json.loads(out)
        check_schema(payload)
        assert payload["count"] == 2
        assert payload["records"] == [[3], [2, 1]]

    # sha256 of stdout, recorded from the per-record writer that the
    # block writer replaced
    @pytest.mark.parametrize("argv, digest", [
        (["14"],
         "07df6d8611200f8b3346e44067b5ae8c1ead77677c5244680ea363a47922ddc1"),
        (["14", "--json"],
         "89077a47b5b92c0e5a8196f78db9e4b5f074c7c1d180982aab11baebf204958f"),
        (["9", "20", "--json"],
         "53ad896488d02cc7cbeb2a1fb4b85092f5dd6a63991b22c1b38bdc007df29c62"),
    ])
    def test_golden_digest(self, run, argv, digest):
        rc, out, _ = run(["enumerate-threshold", *argv])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if argv == ["14"]:
            assert out.count("\n") == 8193

    def test_streamed_json_equals_dumps(self, run):
        for n in range(1, 10):
            for m in (None, *range(n * (n - 1) // 2 + 1)):
                argv = ["enumerate-threshold", str(n), "--json"]
                if m is not None:
                    argv.insert(2, str(m))
                records = [list(t.cols) for t in enumerate_threshold(n, m)]
                payload = {"n": n, "m": m, "count": len(records),
                           "records": records}
                rc, out, _ = run(argv)
                assert rc == 0
                assert out == json.dumps(payload, indent=2) + "\n", (n, m)

    @pytest.mark.parametrize("m", ["7", "-1"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_bad_m_writes_nothing(self, run, m, fmt):
        rc, out, err = run(["enumerate-threshold", "4", m, *fmt])
        assert rc == 2
        assert out == ""
        assert f"edge count m={m} outside 0..6" in err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specdom.cli", "enumerate-threshold", "4", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "4: 3\n4: 2 1\ncount: 2\n"

    def test_module_invocation_n20_digest(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specdom.cli", "enumerate-threshold", "20"],
            capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout.count(b"\n") == 524_289
        assert hashlib.sha256(proc.stdout).hexdigest() == \
            "50a9af6ce8295e305f1742e62cb236e5f90eda1105ae2552039f90a78fbd3d59"

    def test_console_script(self):
        exe = shutil.which("specdom")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "build", "cycle-dominator", "8"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "threshold: 8: 4 3 1" in proc.stdout
