"""Streaming `search`: line splitting, stdout pins, the chunk window, memory."""

import functools
import hashlib
import importlib.util
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from specdom import scan
from specdom.cli import main
from specdom.graphs import Graph, encode_graph6
from specdom.scan import CHUNK, scan_graph6_lines

ROOT = Path(__file__).resolve().parent.parent
CHECKS = "gmb,brouwer,std"


def load_corpus_module():
    """perfbench/corpus.py, the benchmark's seeded input generator, as is."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def stream_text(seed):
    """The benchmark's search-stream corpus for ``seed``, as text."""
    return load_corpus_module().search_stream(seed).text


def random_records(count, seed):
    """Seeded random graph6 records on 4 to 12 nodes, as bytes."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(4, 12)
        out.append(encode_graph6(Graph(n, rng.getrandbits(n * (n - 1) // 2))).encode())
    return out


def edge_case_bytes():
    """A search input that exercises every way str.splitlines breaks a line.

    Besides "\\n" it has CRLF, a lone CR, \\v, \\f, \\x1c..\\x1e, U+0085 and
    U+2028/9 in UTF-8, a byte that is not UTF-8, blank lines, a 513-node
    record, valid records on both sides of the 4,096-record chunk boundary
    (also with blanks and breaks near it) and no final newline.
    """
    recs = random_records(CHUNK + 300, 4096)
    head = [
        b"Bw\r\n",
        b"GhCGKC\rDhc\n",
        b"C~\vA_\fBw\x1cDhc\x1dC~\x1eBw\n",
        "Bw\u2028C~\u2029Dhc\u0085A_\n".encode(),
        b"B\xff\n",
        b"\n",
        b"   \n",
        encode_graph6(Graph(513, 0)).encode() + b"\n",
        b"G~~w??\r\n",
        b"Dhd\n",
    ]
    body = [r + b"\n" for r in recs]
    # breaks and blanks around line 4096, where a chunk of lines ends
    body[CHUNK - len(head) - 3] = b"\n"
    body[CHUNK - len(head) - 1] = recs[0] + b"\r" + recs[1] + b"\n"
    body[CHUNK - len(head) + 1] = b"\r\n"
    body[CHUNK - len(head) + 2] = b"##bad##\n"
    tail = [b"\n", b"\x1c\n", recs[2] + b"\r\n", recs[3]]
    return b"".join(head + body + tail)


def run_search(argv, stdin_bytes=None):
    """Run the CLI in this process; returns (exit code, stdout bytes)."""
    saved = sys.stdin, sys.stdout
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    try:
        if stdin_bytes is not None:
            sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes))
        sys.stdout = out
        rc = main(argv)
        out.flush()
    finally:
        sys.stdin, sys.stdout = saved
    return rc, out.buffer.getvalue()


def digest(data):
    return hashlib.sha256(data).hexdigest()


class TestStreamPins:
    # sha256 of stdout and the exit code, recorded from the scanner that
    # read the whole input and split it with str.splitlines (38a84ac)
    EDGE = ("b1cda912f30e42ff2e8f963f9cadd6f57c8ae35ae8cd9ea314c24a17fb3b5883", 2)
    STREAMS = {
        1: ("9b4e6ca668b7e60c805afe87e1dc09c200f9cec0c4185fb6c795d95e3ca81c7a", 0),
        2: ("fd83658a5100bef056d7a8aa87dc4fed2c8c67d2c17406c4e86ad72c6b71054e", 0),
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_edge_case_input(self, tmp_path, source, jobs):
        data = edge_case_bytes()
        argv = ["search", "--check", CHECKS, "--jobs", str(jobs)]
        if source == "file":
            path = tmp_path / "edge.g6"
            path.write_bytes(data)
            rc, out = run_search(argv + [str(path)])
        else:
            rc, out = run_search(argv + ["-"], stdin_bytes=data)
        assert (digest(out), rc) == self.EDGE

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_search_stream_corpus(self, tmp_path, seed, jobs):
        path = tmp_path / "stream.g6"
        path.write_text(stream_text(seed), encoding="ascii")
        rc, out = run_search(["search", str(path), "--check", CHECKS,
                              "--jobs", str(jobs)])
        assert (digest(out), rc) == self.STREAMS[seed]


def test_open_mode_does_not_change_the_scan(tmp_path):
    # a text-mode file yields lines ending at "\n" (and CR), which may hold
    # other breaks; they split as a binary file's and the CLI's lines do
    path = tmp_path / "edge.g6"
    path.write_bytes(edge_case_bytes())
    with open(path, "rb") as fh:
        binary = scan_graph6_lines(fh)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = scan_graph6_lines(fh)
    rc, out = run_search(["search", str(path)])
    assert (text.stdout_text(), text.exit_code) == (binary.stdout_text(), binary.exit_code)
    assert (binary.stdout_text().encode(), binary.exit_code) == (out, rc)


class TestWindow:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pulls_at_most_the_window(self, monkeypatch, jobs):
        records = [r.decode() for r in random_records(8 * CHUNK, 8)]
        pulled = 0

        def lines():
            nonlocal pulled
            for record in records:
                pulled += 1
                yield record

        # a progress line is written once a chunk's result is assembled
        seen = []

        class Stderr(io.StringIO):
            def write(self, text):
                seen.append(pulled)
                return super().write(text)

        monkeypatch.setattr(sys, "stderr", Stderr())
        s = scan_graph6_lines(lines(), jobs=jobs, progress=True)
        assert s.records == 8 * CHUNK
        assert seen[0] <= (2 * jobs + 1) * CHUNK

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(scan, "Pool", no_pool)
        s = scan_graph6_lines([r.decode() for r in random_records(CHUNK, 1)], jobs=2)
        assert s.records == CHUNK
        assert scan.scan_all_graphs(5, jobs=2).records == 1024

    def test_str_lines_with_newlines(self):
        # lines as a text file yields them keep their line numbers
        lines = ["Bw\n", "\n", "##bad##\n", "C~"]
        s = scan_graph6_lines(lines)
        assert s.records == 2
        assert [(e.line, e.message[:6]) for e in s.errors] == [(3, "byte 0")]
        assert s.stdout_text() == scan_graph6_lines(
            [line.strip() for line in lines]).stdout_text()


    def test_bytes_items_without_newlines(self):
        # every item gets a final line break, bytes as str
        lines = ["Bw", "C~", "", "##bad##", "Dhc\r", "A_"]
        as_str = scan_graph6_lines(lines)
        as_bytes = scan_graph6_lines([line.encode() for line in lines])
        rc, out = run_search(["search", "-"], stdin_bytes="\n".join(lines).encode())
        assert as_str.records == 4
        assert [e.line for e in as_str.errors] == [4]
        assert (as_bytes.stdout_text(), as_bytes.exit_code) == (as_str.stdout_text(), 2)
        assert (out, rc) == (as_str.stdout_text().encode(), 2)


# A CRLF line, a line holding byte 0x80, blank lines, two bad records and
# no final newline; the near events of the triangle, K4 and C5 give stdout
# more than counts.
BUDGET_INPUT = b"Bw\nC~\r\nDhc\nB\x80w\n\nC~\n##bad##\nGhCGKC\r\n\nDhc"


# BUDGET_INPUT's lines, ended by lone CRs but for two CRLFs, and a final CR
LONE_CR_INPUT = b"Bw\rC~\r\nDhc\rB\x80w\r\rC~\r##bad##\rGhCGKC\r\n\rDhc\r"


def as_str_lines(data):
    """The same input as str lines, as a text-mode file yields them."""
    return data.decode("utf-8", "surrogateescape").splitlines(keepends=True)


def scan_facts(summary):
    return summary.stdout_text(), [e.line for e in summary.errors], summary.exit_code


class TestByteBudget:
    # the byte offset where the first chunk's budget ends, and where that
    # chunk is cut: after the last newline before the budget
    @pytest.mark.parametrize("budget, cut", [
        (BUDGET_INPUT.index(b"\r\n") + 1, BUDGET_INPUT.index(b"C~\r")),
        (BUDGET_INPUT.index(b"\x80") + 3, BUDGET_INPUT.index(b"\x80") + 3),
        (BUDGET_INPUT.index(b"\n\n") + 1, BUDGET_INPUT.index(b"\n\n") + 1),
        (BUDGET_INPUT.index(b"\n\n") + 2, BUDGET_INPUT.index(b"\n\n") + 2),
        (len(BUDGET_INPUT) - 2, BUDGET_INPUT.rindex(b"\n") + 1),
    ], ids=["inside-crlf", "after-0x80-line", "before-blank", "after-blank",
            "in-final-line"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cut_at_the_budget(self, monkeypatch, tmp_path, budget, cut, jobs):
        monkeypatch.setattr(scan, "CHUNK_BYTES", budget)
        chunks = [data for _, data in scan._stream_chunks(io.BytesIO(BUDGET_INPUT))]
        assert chunks[0] == BUDGET_INPUT[:cut] and b"".join(chunks) == BUDGET_INPUT
        want = scan_facts(scan_graph6_lines(as_str_lines(BUDGET_INPUT), checks=CHECKS.split(",")))
        assert want[1] == [4, 7]
        got = scan_graph6_lines(io.BytesIO(BUDGET_INPUT), checks=CHECKS.split(","), jobs=jobs)
        assert scan_facts(got) == want
        path = tmp_path / "budget.g6"
        path.write_bytes(BUDGET_INPUT)
        rc, out = run_search(["search", str(path), "--check", CHECKS, "--jobs", str(jobs)])
        assert (out.decode(), rc) == (want[0], want[2])

    @pytest.mark.parametrize("lines", [2, CHUNK])
    def test_every_budget(self, monkeypatch, lines):
        # a budget below a line's length makes that line a chunk of its own
        want = scan_facts(scan_graph6_lines(as_str_lines(BUDGET_INPUT), checks=CHECKS.split(",")))
        monkeypatch.setattr(scan, "CHUNK", lines)
        for budget in range(1, len(BUDGET_INPUT) + 2):
            monkeypatch.setattr(scan, "CHUNK_BYTES", budget)
            chunks = [data for _, data in scan._stream_chunks(io.BytesIO(BUDGET_INPUT))]
            assert b"".join(chunks) == BUDGET_INPUT
            assert all(c.endswith(b"\n") and c.count(b"\n") <= lines for c in chunks[:-1])
            assert all(len(c) <= budget or c.count(b"\n") <= 1 for c in chunks)
            got = scan_graph6_lines(io.BytesIO(BUDGET_INPUT), checks=CHECKS.split(","))
            assert scan_facts(got) == want, budget


    @pytest.mark.parametrize("lines", [2, CHUNK])
    def test_lone_cr_ends_a_chunk(self, monkeypatch, lines):
        want = scan_facts(scan_graph6_lines(as_str_lines(LONE_CR_INPUT), checks=CHECKS.split(",")))
        assert want[1] == [4, 7]
        monkeypatch.setattr(scan, "CHUNK", lines)
        for budget in range(1, len(LONE_CR_INPUT) + 2):
            monkeypatch.setattr(scan, "CHUNK_BYTES", budget)
            chunks = [data for _, data in scan._stream_chunks(io.BytesIO(LONE_CR_INPUT))]
            assert b"".join(chunks) == LONE_CR_INPUT
            for chunk, after in zip(chunks, chunks[1:]):
                # a chunk ends on a line end, and never inside a CR LF
                assert chunk.endswith((b"\n", b"\r")) and not after.startswith(b"\n")
            assert all(len(c.splitlines()) <= lines for c in chunks)
            assert all(len(c) <= budget or len(c.splitlines()) <= 1 for c in chunks)
            got = scan_graph6_lines(io.BytesIO(LONE_CR_INPUT), checks=CHECKS.split(","))
            assert scan_facts(got) == want, budget

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lone_cr_input_at_any_jobs(self, monkeypatch, tmp_path, jobs):
        want = scan_facts(scan_graph6_lines(as_str_lines(LONE_CR_INPUT), checks=CHECKS.split(",")))
        monkeypatch.setattr(scan, "CHUNK_BYTES", 12)
        assert len(list(scan._stream_chunks(io.BytesIO(LONE_CR_INPUT)))) > 2
        got = scan_graph6_lines(io.BytesIO(LONE_CR_INPUT), checks=CHECKS.split(","), jobs=jobs)
        assert scan_facts(got) == want
        path = tmp_path / "lone-cr.g6"
        path.write_bytes(LONE_CR_INPUT)
        rc, out = run_search(["search", str(path), "--check", CHECKS, "--jobs", str(jobs)])
        assert (out.decode(), rc) == (want[0], want[2])


# Spawns the program from this small process and prints its max-RSS in KiB:
# on Linux a program's max-RSS starts at that of the process that spawned
# it, which would be the test runner's without this step.
SPAWN = """import os, sys
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=out)
print(os.wait4(pid, 0)[2].ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
def test_peak_rss_does_not_grow_with_input(run_python, tmp_path):
    peaks = []
    for chunks in (2, 16):
        path = tmp_path / f"{chunks}.g6"
        path.write_bytes(b"\n".join(random_records(chunks * CHUNK, 2016)) + b"\n")
        proc = run_python(["-S", "-c", SPAWN, sys.executable, "-m", "specdom.cli",
                           "search", str(path), "--check", CHECKS, "--jobs", "1"],
                          text=True, check=True)
        peaks.append(int(proc.stdout) / 1024)
    assert peaks[1] - peaks[0] < 4.0, peaks


# As SPAWN, with the program's stdout written to the file argv[1].
SPAWN_TO = """import os, sys
out = [(os.POSIX_SPAWN_OPEN, 1, sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ, file_actions=out)
print(os.wait4(pid, 0)[2].ru_maxrss)
"""


def spawn_cli(run_python, out_path, *argv):
    """(peak RSS in MB, stdout sha256) of the CLI run in a fresh process."""
    proc = run_python(["-S", "-c", SPAWN_TO, str(out_path), sys.executable, "-m",
                       "specdom.cli", *argv], text=True, check=True)
    return int(proc.stdout) / 1024, digest(out_path.read_bytes())


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
def test_solve_stacks_are_capped(run_python, tmp_path):
    # one chunk of 4,096 records on 60 nodes; uncapped, its Laplacian stack
    # alone is 118 MB and the run peaked at 217 MB
    rng = random.Random(60)
    path = tmp_path / "n60.g6"
    path.write_text("".join(encode_graph6(Graph(60, rng.getrandbits(60 * 59 // 2))) + "\n"
                            for _ in range(CHUNK)))
    peak, sha = spawn_cli(run_python, tmp_path / "out", "search", str(path),
                          "--check", CHECKS, "--jobs", "1")
    assert peak < 100.0
    # recorded from the uncapped scan
    assert sha == "a9542465f2f99d367422e4bc017a1ec4b14abd02a3d6baaff3d58c11f02b0fb9"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
def test_search_json_streams_its_lists(run_python, tmp_path):
    # 196,608 errors: --json once peaked at three times the text output
    path = tmp_path / "bad.g6"
    path.write_bytes(b"##bad##\n" * 48 * CHUNK)
    text_peak, text_sha = spawn_cli(run_python, tmp_path / "text", "search", str(path))
    json_peak, json_sha = spawn_cli(run_python, tmp_path / "json", "search", str(path),
                                    "--json")
    assert json_peak < 1.1 * text_peak, (json_peak, text_peak)
    # recorded from the writers that built the whole output first
    assert text_sha == "078b36e7608cc82e6738e95cf43bd7027e9e3d1a213db361acc1bbc0ff714358"
    assert json_sha == "d86ae450652becb7f1256ec4c30e68f6d4ae6467fddd57beaedf614f3d7a4266"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
def test_analyze_peak_rss_does_not_grow_with_input(run_python, tmp_path):
    peaks = []
    for chunks in (1, 6):
        path = tmp_path / f"{chunks}.g6"
        path.write_bytes(b"\n".join(random_records(chunks * CHUNK, 1606)) + b"\n")
        peaks.append(spawn_cli(run_python, tmp_path / "out", "analyze", str(path),
                               "--json")[0])
    assert peaks[1] - peaks[0] < 4.0, peaks


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
@pytest.mark.parametrize("line, chunks, options, pins", [
    # 196,608 errors once peaked at 78.6 MB, against 33.8 MB for 8,192
    (b"##bad##", 48, [],
     {"text": "078b36e7608cc82e6738e95cf43bd7027e9e3d1a213db361acc1bbc0ff714358",
      "json": "d86ae450652becb7f1256ec4c30e68f6d4ae6467fddd57beaedf614f3d7a4266"}),
    # 49,152 violations once peaked at 43.3 MB, against 34.6 MB for 8,192
    (b"A_", 12, ["--check", "gmb", "--tolerance", "-0.5"],
     {"text": "826fa531241e199cfd56a8ef02d5218c7c40d2b015f063ef4453d6993467cbbc"}),
], ids=["errors", "violations"])
def test_listed_events_do_not_grow_memory(run_python, tmp_path, line, chunks, options,
                                          pins):
    small, large = tmp_path / "small.g6", tmp_path / "large.g6"
    small.write_bytes((line + b"\n") * 2 * CHUNK)
    large.write_bytes((line + b"\n") * chunks * CHUNK)
    for fmt, pin in pins.items():
        argv = options + (["--json"] if fmt == "json" else [])
        base = spawn_cli(run_python, tmp_path / "out", "search", str(small), *argv)[0]
        peak, sha = spawn_cli(run_python, tmp_path / "out", "search", str(large), *argv)
        assert peak < 1.1 * base, (fmt, peak, base)
        # recorded from the scan that kept one object per listed event
        assert sha == pin


def n400_records(count):
    """Seeded random graph6 records on 400 nodes, 13.3 KB a line, as bytes."""
    rng = random.Random(400)
    return [encode_graph6(Graph(400, rng.getrandbits(400 * 399 // 2))).encode()
            for _ in range(count)]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
def test_large_graph_peak_does_not_grow_with_records(run_python, tmp_path):
    # chunks of 4,096 lines once held every record's bit rows: 16 records
    # peaked at 46 MB and 128 at 62 MB
    records = n400_records(128)
    peaks = []
    for count in (16, 128):
        path = tmp_path / f"{count}.g6"
        path.write_bytes(b"".join(r + b"\n" for r in records[:count]))
        peaks.append(spawn_cli(run_python, tmp_path / "out", "search", str(path),
                               "--check", CHECKS, "--jobs", "1")[0])
    assert peaks[1] - peaks[0] < 4.0, peaks


@pytest.mark.parametrize("command", [["analyze"], ["search", "--check", CHECKS]],
                         ids=["analyze", "search"])
def test_large_graph_output_does_not_depend_on_blas_threads(tmp_path, command):
    # the seventh record printed margin 1.45519152284e-11 at k = 399 for gmb
    # and std under two BLAS threads, and margin 0 under one
    path = tmp_path / "n400.g6"
    path.write_bytes(n400_records(7)[-1] + b"\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, "-m", "specdom.cli", command[0], str(path), *command[1:]]
    unset = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    pinned = subprocess.run(argv, env={**env, "OPENBLAS_NUM_THREADS": "1"},
                            capture_output=True, check=True).stdout
    assert pinned == unset
