"""Tests of the benchmark itself: corpus, oracle, tracer, contract.

    python3 -m pytest perfbench/test_perfbench.py -q

The oracle tests run the real CLI on tiny inputs, check that its output
passes, then corrupt that output and check that the oracle rejects it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "specdom.cli", *args], env=ENV,
                          capture_output=True, text=True, timeout=120)


def write(tmp_path: Path, data: corpus.Corpus) -> str:
    path = tmp_path / "in.g6"
    path.write_text(data.text)
    return str(path)


# corpus ---------------------------------------------------------------------

def test_corpus_depends_on_seed_only():
    a, b, c = corpus.analyze_corpus(5), corpus.analyze_corpus(5), corpus.analyze_corpus(6)
    assert a.text == b.text
    assert a.text != c.text
    assert a.stats()["n_histogram"] == c.stats()["n_histogram"]
    assert a.stats()["kinds"] == {"cycle": 4, "random": 72, "threshold": 8}


def test_stream_mix():
    stats = corpus.search_stream(3, records=2000).stats()
    hist = {int(n): k for n, k in stats["n_histogram"].items()}
    assert sum(hist.values()) == 2000
    assert sum(k for n, k in hist.items() if n > 10) == 20
    assert set(hist) == set(range(6, 25))
    assert abs(stats["threshold_share"] - 0.10) < 0.01
    assert 0.05 <= stats["density_range"][0] <= stats["density_range"][1] <= 0.95


def test_graph6_agrees_with_program_decoder():
    from specdom.graphs import decode_graph6

    data = corpus.search_stream(4, records=300)
    for adj, line in zip(data.adjacency, data.lines()):
        g = decode_graph6(line)
        edges = {(i - 1, j - 1) for i, j in g.edges()}
        assert edges == {(i, j) for i, j in zip(*np.nonzero(np.triu(adj)))}


# oracle: search -------------------------------------------------------------

@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    data = corpus.search_stream(7, records=400)
    path = write(tmp_path_factory.mktemp("stream"), data)
    proc = cli("search", path, "--check", "gmb,brouwer,std", "--jobs", "1")
    expected = oracle.search_reference(data.adjacency, data.lines())
    return proc, data, expected


def test_search_output_passes(stream_run):
    proc, data, expected = stream_run
    assert expected == set()
    verdict = oracle.check_search(proc.stdout, proc.returncode, 400, expected)
    assert verdict.ok, verdict.reasons
    assert verdict.facts["near_events"] > 0


def test_search_rejects_false_violation(stream_run):
    proc, data, expected = stream_run
    rid = data.lines()[3]
    bad = proc.stdout.replace(
        "violations: 0\n", f"violations: 1\nVIOLATION {rid} check=brouwer k=2 margin=-1\n")
    verdict = oracle.check_search(bad, 1, 400, expected)
    assert verdict.failed == 400   # unexpected exit code fails every record
    verdict = oracle.check_search(bad, 0, 400, expected)
    assert not verdict.ok


def test_search_rejects_wrong_count_and_errors(stream_run):
    proc, _, expected = stream_run
    assert not oracle.check_search(proc.stdout.replace("records: 400", "records: 399"),
                                   0, 400, expected).ok
    bad = proc.stdout.replace("errors: 0", "errors: 1\nERROR line 5: broken")
    assert oracle.check_search(bad, 0, 400, expected).failed == 1


def test_search_reference_finds_violations():
    # A multigraph (edge weight 3) breaks every bound; the reference must
    # report it, so it is not a constant "no violations".
    adj = np.ones((1, 4, 4), dtype=np.uint8) * 3
    adj[0, np.arange(4), np.arange(4)] = 0
    assert oracle.search_reference(list(adj), ["x"]) == {("x", c) for c in oracle.CHECKS}


# oracle: analyze ------------------------------------------------------------

@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory):
    data = corpus.analyze_corpus(9)
    keep = [i for i, a in enumerate(data.adjacency) if a.shape[0] <= 12][:3]
    small = corpus.Corpus([data.adjacency[i] for i in keep], [data.kinds[i] for i in keep],
                          [data.densities[i] for i in keep],
                          "".join(data.lines()[i] + "\n" for i in keep))
    proc = cli("analyze", write(tmp_path_factory.mktemp("analyze"), small), "--json")
    return proc, small


def test_analyze_output_passes(analyze_run):
    proc, data = analyze_run
    verdict = oracle.check_analyze(proc.stdout, proc.returncode, data.lines(), data.adjacency)
    assert verdict.ok, verdict.reasons


@pytest.mark.parametrize("corrupt", ["spectrum", "witness", "verdict", "id", "drop"])
def test_analyze_rejects_corruption(analyze_run, corrupt):
    proc, data = analyze_run
    reports = json.loads(proc.stdout)
    if corrupt == "spectrum":
        reports[1]["spectrum"][2] += 1e-6
    elif corrupt == "witness":
        reports[0]["witnesses"][1]["prefix_sum"] += 1
    elif corrupt == "verdict":
        reports[2]["checks"]["brouwer"]["holds"] = False
    elif corrupt == "id":
        reports[0]["id"] = reports[1]["id"]
    else:
        reports.pop()
    verdict = oracle.check_analyze(json.dumps(reports), 0, data.lines(), data.adjacency)
    assert not verdict.ok
    assert verdict.failed >= 1


# oracle: enumerate-threshold ------------------------------------------------

@pytest.fixture(scope="module")
def enumerate_run():
    return cli("enumerate-threshold", "8")


def test_enumerate_output_passes(enumerate_run):
    verdict = oracle.check_enumerate(enumerate_run.stdout, enumerate_run.returncode, 8)
    assert verdict.ok, verdict.reasons
    assert verdict.facts["lines"] == 128


@pytest.mark.parametrize("corrupt", ["drop", "repeat", "order", "range", "count"])
def test_enumerate_rejects_corruption(enumerate_run, corrupt):
    lines = enumerate_run.stdout.splitlines()
    if corrupt == "drop":
        del lines[10]
    elif corrupt == "repeat":
        lines[10] = lines[11]
    elif corrupt == "order":
        lines[10] = "8: 2 3"
    elif corrupt == "range":
        lines[10] = "8: 8 1"
    else:
        lines[-1] = "count: 127"
    verdict = oracle.check_enumerate("\n".join(lines) + "\n", 0, 8)
    assert not verdict.ok


# tracer ---------------------------------------------------------------------

def test_traced_run_counts_solves(tmp_path):
    path = tmp_path / "two.g6"
    path.write_text(corpus.graph6(corpus.cycle_graph(np.random.default_rng(0), 8)) + "\n"
                    + corpus.graph6(corpus.random_graph(np.random.default_rng(1), 9, 0.5))
                    + "\n")
    spans = tmp_path / "spans.npz"
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "0",
                           "--", "analyze", str(path), "--json"],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cli("analyze", str(path), "--json").stdout
    totals = tracer.span_totals(str(spans))
    assert totals["absent"] == []
    layers = tracer.layer_metrics(totals)
    assert layers["spectra.solves_per_report"] == 3.0
    assert layers["graphs.decode_calls"] == 2
    assert layers["spectra.batch_matrices"] == 0
    root = totals["spans"][tracer.ROOT_SPAN]
    assert root["calls"] == 1
    assert 0.0 < layers["cli.self_s"] <= root["total_s"]


def test_tracer_reports_absent_names():
    t = tracer.Tracer(0)
    t.install((("specdom.graphs", "no_such_function"), ("specdom_missing", "x"),
               ("specdom.builders", "ThresholdGraph.no_such_method")))
    assert t.absent == ["specdom.graphs.no_such_function", "specdom_missing.x",
                        "specdom.builders.ThresholdGraph.no_such_method"]


def test_generator_spans_time_each_item():
    t = tracer.Tracer(0)
    gen = t.wrap(lambda: (yield from range(3)), "g")
    assert not t.name   # wrapping records nothing
    assert list(gen()) == [0, 1, 2]
    assert t.counts == {"g.items": 3}
    assert len(t.name) == 4   # three items plus the final StopIteration
    assert not t.stack


# runner ---------------------------------------------------------------------

def test_peak_rss_is_the_programs_own(tmp_path):
    # A child's max-RSS starts at its spawner's peak; the launcher keeps
    # the benchmark's own memory out of the program's figure.
    ballast = np.ones(200 * 1024 * 1024 // 8)
    runner = run.Runner(tmp_path, deadline=run.time.perf_counter() + 60)
    call, out = runner.run(["-c", "print('hi')"], "probe")
    assert ballast.sum() > 0
    assert call.exit_code == 0 and out.read_text() == "hi\n"
    assert 1.0 < call.peak_rss_mb < 100.0
    assert 0.0 < call.wall_s < 60.0


# contract -------------------------------------------------------------------

def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def _bench(cwd: Path, workload: str = "exhaustive-6") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, timeout=170,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


def test_fails_on_corrupted_program_output(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    scan = tmp_path / "src" / "specdom" / "scan.py"
    text = scan.read_text()
    assert 'f"records: {self.records}"' in text
    scan.write_text(text.replace('f"records: {self.records}"', 'f"records: {self.records + 1}"'))
    proc = _bench(tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "records line" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
