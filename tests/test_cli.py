"""Command line interface: text, CSV, and JSON outputs plus exit codes."""

import hashlib
import io
import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:
    jsonschema = None

from specdom import enumerate_threshold, scan_graph6_lines, std_constructive
from specdom.builders import brouwer_extremal
from specdom import scan
from specdom.cli import main
from specdom.graphs import (DEFAULT_TOL, Graph, complete as complete_graph, cycle,
                            encode_graph6, format_edge_list, from_edge_list, parse_edge_list)
from specdom.scan import MAX_JOBS
from specdom.jsonlayout import _jfloat

C8 = "GhCGKC"
K6_PLUS_2 = "G~~w??"
SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"

# the size header alone says n = 513; the body is all zeros
G6_513 = encode_graph6(Graph(513, 0))

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

    def test_streamed_json_equals_dumps_of_the_reports(self, run):
        # each record of a batch, read off its stack, against the library's
        # report on the graph alone, laid out by json.dumps
        rng = random.Random(1601)
        graphs = [Graph(1, 0), Graph(5, 0), Graph(2, 1), cycle(8), complete_graph(6)]
        graphs += [Graph(n, rng.getrandbits(n * (n - 1) // 2))
                   for n in rng.choices(range(2, 14), k=40)]
        graphs.append(graphs[-1])
        text = "".join(encode_graph6(g) + "\n" for g in graphs)
        rc, out, _ = run(["analyze", "-", "--json"], stdin_text=text)
        assert rc == 0
        expected = []
        for g in graphs:
            r = std_constructive(g)
            checks = {c.check: {"holds": c.holds, "worst_k": c.worst_k,
                                "min_margin": float(f"{c.min_margin:.12g}")}
                      for c in (r.gmb, r.brouwer, r.std)}
            expected.append({
                "id": encode_graph6(g), "n": r.n, "m": r.m,
                "spectrum": [float(f"{v:.12g}") for v in r.spectrum],
                "energy": float(f"{r.energy:.12g}"), "checks": checks,
                "witnesses": [{"k": w.k, "cols": list(w.cols), "prefix_sum": w.prefix_sum}
                              for w in r.witnesses]})
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_json_float_text_is_repr_of_the_rounded_float(self):
        # the writers skip repr(float(...)) where the 12-digit text is
        # already the float's shortest text
        rng = random.Random(1212)
        xs = [0.0, -0.0, 4.0, -2.5, 1e-4, 9.99999999999e-5, 1e12, 999999999999.5,
              1e15, 1e16, 123456789012345.0, 2.0 ** 60, 5e-324]
        for _ in range(20000):
            xs.append(rng.choice((-1, 1)) * 10 ** rng.uniform(-30, 30) * rng.random())
            xs.append(round(rng.uniform(-50, 50), rng.randint(0, 14)))
        for x in xs:
            assert _jfloat(x) == json.dumps(float(f"{x:.12g}")), x

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

    @pytest.mark.parametrize("text, message", [
        ("3 3\n1 2\n1 2\n1 2\n", "line 3: duplicate edge (1, 2)"),
        ("3 2\n1 2\n2 1\n", "line 3: duplicate edge (2, 1)"),
    ])
    def test_duplicate_edge_is_an_error(self, run, tmp_path, text, message):
        path = tmp_path / "dup.edges"
        path.write_text(text)
        rc, out, err = run(["analyze", str(path)])
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("258047 0\n", "line 1: n=258047 exceeds the 512-node limit"),
        ("\n513 0\n", "line 2: n=513 exceeds the 512-node limit"),
        (G6_513 + "\n", "line 1: byte 0: n=513 exceeds the 512-node limit"),
        (f"Bw\n\n{G6_513}\n",
         "line 3: byte 0: n=513 exceeds the 512-node limit"),
    ])
    def test_node_limit_refuses_before_decoding(self, run, tmp_path, text,
                                                message):
        path = tmp_path / "big.in"
        path.write_text(text)
        started = time.perf_counter()
        rc, out, err = run(["analyze", str(path)])
        assert time.perf_counter() - started < 1.0
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_node_limit_admits_its_own_size(self, run):
        rc, out, _ = run(["analyze", "-"],
                         stdin_text=encode_graph6(cycle(512)) + "\n")
        assert rc == 0
        assert "n=512 m=512" in out

    @pytest.mark.parametrize("text, message", [
        ("-1 0\n", "line 1: node count must be positive, got -1"),
        ("\u00b2 0\n", "line 1: header must be two integers, got '\u00b2 0'"),
        ("0 0\n", "line 1: node count must be positive, got 0"),
    ])
    def test_bad_edge_list_header(self, run, tmp_path, text, message):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        rc, out, err = run(["analyze", str(path)])
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_missing_file(self, run):
        rc, _, err = run(["analyze", "/nonexistent/path.g6"])
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--csv"],
        ["search", "--check", "gmb,brouwer,std"], ["search", "--json"],
    ], ids=["analyze", "analyze-csv", "search", "search-json"])
    def test_non_finite_tolerance_is_refused(self, run, argv, tol):
        # refused before the input is read, so --csv writes no header
        rc, out, err = run([*argv, "-", f"--tolerance={tol}"], stdin_text="Bw\nC~\nDhc\n")
        assert (rc, out) == (2, "")
        assert err == f"error: --tolerance must be a finite number, got {tol}\n"

    @pytest.mark.parametrize("text", [
        SPLIT_EDGES,
        # a 100-node record has a multi-byte size header, so it takes the
        # one-record decoder rather than the batch one
        format_edge_list(Graph(100, random.Random(100).getrandbits(100 * 99 // 2))),
    ], ids=["split", "n100"])
    def test_edge_list_reads_as_its_graph6_line(self, run, tmp_path, text):
        edges = tmp_path / "g.edges"
        edges.write_text(text)
        g6 = tmp_path / "g.g6"
        g6.write_text(encode_graph6(parse_edge_list(text)) + "\n")
        for argv in (["analyze"], ["analyze", "--csv"], ["analyze", "--json"]):
            rc, out, _ = run([*argv, str(edges)])
            assert rc == 0 and out
            assert run([*argv, str(g6)]) == (rc, out, ""), argv
        built = run(["build", "split-dominator", str(edges), "2"])
        assert run(["build", "split-dominator", str(g6), "2"]) == built


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

    def test_split_dominator_shares_node_limit(self, run, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("258047 0\n")
        rc, out, err = run(["build", "split-dominator", str(path), "1"])
        assert (rc, out) == (2, "")
        assert err == "error: line 1: n=258047 exceeds the 512-node limit\n"

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

    def test_node_limit_is_a_record_error(self, run, tmp_path):
        path = tmp_path / "big.g6"
        path.write_text(f"Bw\n\n{G6_513}\n{C8}\n")
        started = time.perf_counter()
        rc, out, _ = run(["search", str(path)])
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        assert "records: 2\n" in out
        assert out.endswith(
            "ERROR line 3: byte 0: n=513 exceeds the 512-node limit\n")

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

    @pytest.mark.parametrize("source", [["-"], ["--gen-all", "7"]],
                             ids=["stream", "gen-all"])
    def test_jobs_above_the_bound_is_a_usage_error(self, run, monkeypatch, source):
        # refused before a worker starts or a byte of stdin is read
        class Unread(io.RawIOBase):
            def readable(self):
                return True

            def readinto(self, buffer):
                raise AssertionError("input was read")

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(scan, "Pool", no_pool)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BufferedReader(Unread())))
        rc, out, err = run(["search", *source, "--jobs", str(MAX_JOBS + 1)])
        assert (rc, out) == (2, "")
        assert err == f"error: worker count must be between 1 and {MAX_JOBS}\n"

    def test_jobs_do_not_change_stdout(self, run):
        rc1, out1, _ = run(["search", "--gen-all", "5", "--jobs", "1"])
        rc2, out2, _ = run(["search", "--gen-all", "5", "--jobs", "4"])
        assert (rc1, out1) == (rc2, out2)

    @pytest.mark.parametrize("text, tol", [
        ("", "1e-7"),
        (f"Bw\n{C8}\n##bad##\n{K6_PLUS_2}\n\n\u00e9\n", "-0.5"),
    ], ids=["empty", "every-list"])
    def test_json_streams_like_dumps(self, run, text, tol):
        rc, out, _ = run(["search", "-", "--json", "--check", "gmb,brouwer",
                          "--tolerance", tol], stdin_text=text)
        s = scan_graph6_lines(text.splitlines(), checks=("gmb", "brouwer"),
                              tol=float(tol))
        assert rc == s.exit_code

        def event(e):
            return {"id": e.record, "check": e.check, "k": e.k,
                    "margin": float(f"{e.margin:.12g}")}
        payload = {"records": s.records, "checks": list(s.checks),
                   "violations": [event(v) for v in s.violations],
                   "near_equality_count": s.near_count,
                   "near_equality": [event(e) for e in s.near],
                   "errors": [{"line": e.line, "message": e.message} for e in s.errors]}
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_json_matches_schema(self, run):
        rc, out, _ = run(["search", "-", "--json"],
                         stdin_text=K6_PLUS_2 + "\n")
        assert rc == 0
        payload = json.loads(out)
        check_schema(payload)
        assert payload["records"] == 1
        assert payload["near_equality"][0]["k"] == 5

    @pytest.mark.parametrize("bad", [b"B\xc3\xa9", b"B\xff"])
    def test_non_ascii_file_matches_stdin(self, run_python, tmp_path, bad):
        # a bad byte is an error of its own line, read from a file or stdin
        data = b"Bw\n" + bad + b"\nDhc\n"
        path = tmp_path / "bad.g6"
        path.write_bytes(data)
        cmd = ["-m", "specdom.cli", "search"]
        from_file = run_python(cmd + [str(path)])
        from_stdin = run_python(cmd + ["-"], input=data)
        assert from_file.returncode == from_stdin.returncode == 2
        assert from_file.stdout == from_stdin.stdout
        out = from_file.stdout.decode("utf-8")
        assert "records: 2\n" in out
        assert "ERROR line 2: byte 1: " in out
        cmd = ["-m", "specdom.cli", "analyze"]
        from_file = run_python(cmd + [str(path)])
        from_stdin = run_python(cmd + ["-"], input=data)
        assert from_file.returncode == from_stdin.returncode == 2
        assert from_file.stderr == from_stdin.stderr
        assert from_file.stderr.startswith(b"error: line 2: byte 1: ")

    def test_progress_on_stderr(self, run, tmp_path):
        rc, out, err = run(["search", "--gen-all", "4", "--progress"])
        assert rc == 0
        assert "progress: 1/1 chunks\n" in err
        assert "progress:" not in out
        # a stream's chunk count is not known ahead
        path = tmp_path / "stream.g6"
        path.write_text(f"Bw\n\n{C8}\n")
        rc, out, err = run(["search", str(path), "--progress"])
        assert rc == 0
        assert "progress: 1 chunks, 2 records\n" in err
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


def mixed_corpus() -> str:
    """Seeded graph6 lines, n 10..30: per n a random graph and a relabelled
    extremal threshold graph.  Every record has near-equality events (gmb
    and std meet 2m at k = n); the threshold graphs meet gmb at every k."""
    rng = random.Random(2016)
    lines = []
    for n in range(10, 31):
        lines.append(encode_graph6(Graph(n, rng.getrandbits(n * (n - 1) // 2))))
        t = brouwer_extremal(n, rng.randint(1, n * (n - 1) // 2), rng.randint(1, n))
        perm = rng.sample(range(1, n + 1), n)
        g = from_edge_list(n, [(perm[u - 1], perm[v - 1]) for u, v in t.realize().edges()])
        lines.append(encode_graph6(g))
    return "\n".join(lines) + "\n"


class TestMixedCorpus:
    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "mixed.g6"
        path.write_text(mixed_corpus())
        return str(path)

    # at -1 every record is flagged, so both read the confirmed spectra
    @pytest.mark.parametrize("tol", ["1e-7", "-1"])
    def test_search_agrees_with_analyze(self, run, corpus, tol):
        # both commands read one margin table off the same Laplacian bytes
        rc_search, out, _ = run(["search", corpus, "--check", "gmb,brouwer,std",
                                 "--tolerance", tol])
        rc, js, _ = run(["analyze", corpus, "--json", "--tolerance", tol])
        assert rc == 0
        reports = {r["id"]: r["checks"] for r in json.loads(js)}
        events = [ln.split() for ln in out.splitlines()
                  if ln.startswith(("NEAR ", "VIOLATION "))]
        assert len(events) >= 2 * len(reports) == 2 * 42
        violated = set()
        for kind, record, check, k, margin in events:
            check = check.removeprefix("check=")
            rep = reports[record][check]
            assert (kind, k, margin) == ("NEAR" if rep["holds"] else "VIOLATION",
                                         f"k={rep['worst_k']}",
                                         f"margin={rep['min_margin']:.12g}"), (record, check)
            if kind == "VIOLATION":
                violated.add((record, check))
        assert violated == {(record, check) for record, checks in reports.items()
                            for check, rep in checks.items() if not rep["holds"]}
        assert rc_search == (1 if violated else 0)

    # sha256 of stdout: the margins print to 12 digits, so these pins also
    # hold the rounding of every solve (eigvalsh follows the sign of a zero)
    @pytest.mark.parametrize("flags, digest", [
        ([], "213a44932a87b28554d7ae85d6d981fc94c1ef206f0038f269ac33e07ef16656"),
        (["--csv"], "edc96ab757aed606c570f5d3528237312b7bf98a9fb9f7346502db0c62965d3a"),
        (["--json"], "2984b72e417e08af9cad1582bf6f7243a13ee3278a120040ae50f218020158d4"),
    ], ids=["text", "csv", "json"])
    def test_analyze_digest(self, run, corpus, flags, digest):
        rc, out, _ = run(["analyze", corpus, *flags])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # --tolerance -1 flags every record, so each goes through the Jacobi
    # confirmer; recorded when every record was confirmed on its own
    @pytest.mark.parametrize("flags, digest", [
        ([], "287969a16713ddffadda94ab465944d32e84d075147d5d99b4475812e8b7bfcb"),
        (["--csv"], "43a7001ae818d2da475e19a480263293e496b746cc0c4810a26ad054cfaa5446"),
        (["--json"], "c80790986e725a6d388c3d12b4bd4732e1317a67e1d2a7598d6c81114a80c3ed"),
    ], ids=["text", "csv", "json"])
    def test_confirmed_analyze_digest(self, run, corpus, flags, digest):
        rc, out, _ = run(["analyze", corpus, "--tolerance", "-1", *flags])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEntryPoints:
    def test_module_invocation(self, run_python):
        proc = run_python(["-m", "specdom.cli", "enumerate-threshold", "4", "3"],
                          text=True)
        assert proc.returncode == 0
        assert proc.stdout == "4: 3\n4: 2 1\ncount: 2\n"

    def test_module_invocation_n20_digest(self, run_python):
        proc = run_python(["-m", "specdom.cli", "enumerate-threshold", "20"])
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

    @pytest.mark.parametrize("command", ["analyze", "search"])
    def test_tolerance_help_states_the_default(self, capsys, command):
        # the command line states the default without importing graphs
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        stated = re.search(r"--tolerance TOLERANCE inequality tolerance \(default ([^)]+)\)",
                           text)
        assert stated and float(stated.group(1)) == DEFAULT_TOL
