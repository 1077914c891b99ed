"""Benchmark of the specdom command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Each workload runs the ``specdom`` CLI as a
subprocess on inputs made from ``--seed`` (see ``corpus.py``), and every
output is checked against the independent oracle in ``oracle.py``.

With ``--trace 0`` the CLI is run repeatedly for about ``--seconds``
seconds and the end-to-end metrics are medians over those runs:

    wall_s        wall time of one CLI process, start to exit
    records_per_s records completed / wall_s
    peak_rss_mb   largest max-RSS in the CLI's process tree (os.wait4 in
                  launch.py)
    setup_s       time to start Python, import specdom.cli and exit

With ``--trace 1`` each repetition runs the CLI untraced at ``--jobs 1``
and ``--jobs 2`` and once under ``tracer.py`` at ``--jobs 1``, checks that
the three outputs are byte-identical, and reports the per-layer metrics.

A human-readable table goes to stderr; details (environment, corpus
statistics, samples, oracle findings) go to ``perfbench/out/``; the last
line of stdout is one JSON object with keys correct, attempted, failed
and metrics.  Exit code 0 when every output passed the oracle, 1 when one
did not, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import corpus
import oracle
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
LAUNCH = BENCH_DIR / "launch.py"

CHECKS = "gmb,brouwer,std"
ENUMERATE_N = 20
GEN_ALL_N = 6
SETUP_PROBES = 7
MIN_CALLS = 3
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "records_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The program could not be run at all."""


@dataclass
class Prepared:
    """One workload instance: how to call the CLI and how to judge it."""

    argv: Callable[[int], list[str]]     # CLI arguments at a worker count
    records: int
    check: Callable[[str, int], oracle.Verdict]
    corpus_stats: dict | None = None


def _write_input(work: Path, name: str, data: corpus.Corpus) -> str:
    path = work / name
    path.write_text(data.text, encoding="ascii")
    return str(path)


def prepare_search_stream(seed: int, work: Path) -> Prepared:
    data = corpus.search_stream(seed)
    path = _write_input(work, "stream.g6", data)
    expected = oracle.search_reference(data.adjacency, data.lines())
    records = len(data.adjacency)
    return Prepared(
        argv=lambda jobs: ["search", path, "--check", CHECKS, "--jobs", str(jobs)],
        records=records,
        check=lambda out, code: oracle.check_search(out, code, records, expected),
        corpus_stats=data.stats(),
    )


def prepare_exhaustive(seed: int, work: Path) -> Prepared:
    expected = oracle.search_reference(oracle.all_labelled(GEN_ALL_N), None)
    records = 1 << (GEN_ALL_N * (GEN_ALL_N - 1) // 2)
    return Prepared(
        argv=lambda jobs: ["search", "--gen-all", str(GEN_ALL_N), "--check", CHECKS,
                           "--jobs", str(jobs)],
        records=records,
        check=lambda out, code: oracle.check_search(out, code, records, expected),
    )


def prepare_analyze(seed: int, work: Path) -> Prepared:
    data = corpus.analyze_corpus(seed)
    path = _write_input(work, "corpus.g6", data)
    ids = data.lines()
    return Prepared(
        argv=lambda jobs: ["analyze", path, "--json"],
        records=len(ids),
        check=lambda out, code: oracle.check_analyze(out, code, ids, data.adjacency),
        corpus_stats=data.stats(),
    )


def prepare_enumerate(seed: int, work: Path) -> Prepared:
    return Prepared(
        argv=lambda jobs: ["enumerate-threshold", str(ENUMERATE_N)],
        records=1 << (ENUMERATE_N - 1),
        check=lambda out, code: oracle.check_enumerate(out, code, ENUMERATE_N),
    )


# exhaustive-6 and enumerate-20 read no input, so the seed changes nothing.
WORKLOADS = {
    "search-stream": prepare_search_stream,
    "exhaustive-6": prepare_exhaustive,
    "analyze-corpus": prepare_analyze,
    "enumerate-20": prepare_enumerate,
}


# processes ------------------------------------------------------------------

@dataclass
class Call:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    stdout_sha256: str


class Runner:
    """Runs Python programs through ``launch.py``, each launcher in its own
    session so that one still running at the deadline is killed together
    with the program and its workers."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")

    def run(self, argv: list[str], tag: str) -> tuple[Call, Path]:
        """Run python with argv; stdout goes to a file, returned with the call."""
        out_path = self.work / f"{tag}.stdout"
        err_path = self.work / f"{tag}.stderr"
        launcher = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCH), str(out_path), str(err_path),
             sys.executable, *argv],
            env=self.env, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            report, _ = launcher.communicate(
                timeout=max(self.deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
            raise BenchError(f"program still running at the {DEADLINE_S:.0f} s deadline")
        if launcher.returncode != 0:
            raise BenchError(f"launcher failed with exit code {launcher.returncode}")
        facts = json.loads(report)
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        return Call(facts["wall_s"], facts["exit_code"], facts["peak_rss_mb"],
                    digest), out_path

    def cli(self, args: list[str], tag: str) -> tuple[Call, Path]:
        return self.run(["-m", "specdom.cli", *args], tag)


# environment ----------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=20, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                                capture_output=True, timeout=20, check=True).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"sha": None, "dirty": None, "note": str(exc)}
    return {"sha": sha, "dirty": bool(status.strip())}


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_inherited": {v: os.environ.get(v) for v in BLAS_VARS},
        "git": _git(),
        "seed": seed,
    }


# measurement ----------------------------------------------------------------

class Judge:
    """Checks every output: the first in full, later ones by digest.

    Every output of one run must be byte-identical to the first one that
    passed, whatever the worker count and whether it was traced.
    """

    def __init__(self, prepared: Prepared):
        self.prepared = prepared
        self.good_digest: str | None = None
        self.attempted = 0
        self.good_code: int | None = None
        self.failed = 0
        self.reasons: list[str] = []
        self.facts: dict = {}

    def __call__(self, call: Call, out_path: Path) -> None:
        records = self.prepared.records
        self.attempted += records
        if self.good_digest is not None and call.stdout_sha256 == self.good_digest \
                and call.exit_code == self.good_code:
            return
        text = out_path.read_text(encoding="utf-8", errors="replace")
        verdict = self.prepared.check(text, call.exit_code)
        if verdict.ok and self.good_digest is None:
            self.good_digest, self.good_code = call.stdout_sha256, call.exit_code
            self.facts = dict(verdict.facts, stdout_sha256=call.stdout_sha256)
        elif verdict.ok:
            verdict.fail(records, "output passed the oracle but differs from "
                                  "an earlier run of the same input")
        self.failed += verdict.failed
        self.reasons += verdict.reasons[: max(0, 20 - len(self.reasons))]


def _median(values) -> float:
    return float(statistics.median(values))


def check_import(runner: Runner) -> None:
    """Untimed run that checks specdom.cli comes from this checkout."""
    call, path = runner.run(["-c", "import specdom.cli as c; print(c.__file__)"],
                            "where")
    where = path.read_text().strip()
    if call.exit_code != 0 or Path(where).resolve().parent.parent != SRC:
        raise BenchError(f"specdom.cli does not import from {SRC} (got {where!r})")


def setup_probe(runner: Runner) -> float:
    """One `python -c "import specdom.cli"` process, start to exit."""
    return runner.run(["-c", "import specdom.cli"], "setup")[0].wall_s


def _keep_going(started: float, seconds: float, done: list[float], minimum: int) -> bool:
    """Another repetition fits in the window, or too few have run."""
    if len(done) < minimum:
        return True
    return time.perf_counter() - started + _median(done) <= seconds


def run_end_to_end(prepared: Prepared, runner: Runner, judge: Judge,
                   seconds: float) -> tuple[dict, dict]:
    """CLI calls until the window is spent, each after one set-up probe, so
    both samples spread over the same stretch of time."""
    started = time.perf_counter()
    setup: list[float] = []
    calls: list[Call] = []
    rounds: list[float] = []
    while _keep_going(started, seconds, rounds, MIN_CALLS):
        began = time.perf_counter()
        setup.append(setup_probe(runner))
        call, path = runner.cli(prepared.argv(2), "call")
        judge(call, path)
        calls.append(call)
        rounds.append(time.perf_counter() - began)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(runner))
    wall = _median(c.wall_s for c in calls)
    metrics = {
        "wall_s": wall,
        "records_per_s": prepared.records / wall,
        "peak_rss_mb": _median(c.peak_rss_mb for c in calls),
        "setup_s": _median(setup),
    }
    samples = {"setup_s": setup, "calls": [c.__dict__ for c in calls]}
    return metrics, samples


def run_traced(prepared: Prepared, runner: Runner, judge: Judge,
               seconds: float, stem: str) -> tuple[dict, dict]:
    """Repetitions of: untraced --jobs 1, untraced --jobs 2 (when the
    workload takes --jobs), traced --jobs 1; at least one repetition."""
    started = time.perf_counter()
    reps: list[dict] = []
    rounds: list[float] = []
    worker_counts = (1, 2) if prepared.argv(1) != prepared.argv(2) else (1,)
    while _keep_going(started, seconds, rounds, 1):
        began = time.perf_counter()
        walls = {}
        for jobs in worker_counts:
            call, path = runner.cli(prepared.argv(jobs), f"jobs{jobs}")
            judge(call, path)
            walls[f"jobs{jobs}"] = call.wall_s
        spans = OUT / f"{stem}-spans-{len(reps)}.npz"
        call, path = runner.run([str(BENCH_DIR / "tracer.py"), str(spans), str(len(reps)),
                                 "--", *prepared.argv(1)], "traced")
        judge(call, path)
        walls["traced"] = call.wall_s
        if not spans.is_file():
            raise BenchError(f"traced run wrote no spans (exit code {call.exit_code})")
        totals = tracer.span_totals(str(spans))
        reps.append({"walls": walls, "layers": tracer.layer_metrics(totals),
                     "absent": totals["absent"]})
        rounds.append(time.perf_counter() - began)
    metrics = {name: _median(r["layers"][name] for r in reps)
               for name in reps[0]["layers"]}
    wall = {label: _median(r["walls"][label] for r in reps) for label in reps[0]["walls"]}
    metrics["scan.jobs_efficiency"] = (wall["jobs1"] / (2.0 * wall["jobs2"])
                                       if "jobs2" in wall else 0.0)
    metrics["trace.overhead_frac"] = wall["traced"] / wall["jobs1"] - 1.0
    metrics["scan.near_events"] = judge.facts.get("near_events") or 0
    return metrics, {"reps": reps, "absent": reps[0]["absent"]}


# main -----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "specdom" / "cli.py").is_file():
        print(f"error: no specdom sources under {SRC}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(work, deadline)
        check_import(runner)
        judge = Judge(prepared)
        if args.trace:
            metrics, samples = run_traced(prepared, runner, judge, args.seconds, stem)
            units = tracer.LAYER_UNITS
        else:
            metrics, samples = run_end_to_end(prepared, runner, judge, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = judge.failed == 0 and not judge.reasons
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "corpus": prepared.corpus_stats,
        "records_per_call": prepared.records,
        "oracle": {"correct": correct, "attempted": judge.attempted,
                   "failed": judge.failed,
                   "error_rate": judge.failed / judge.attempted,
                   "reasons": judge.reasons, "facts": judge.facts},
        "metrics": metrics,
        "samples": samples,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1, default=float))
    print(f"{args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"  {'error_rate':28s} {judge.failed / judge.attempted:14.6g} ratio",
          file=sys.stderr)
    for reason in judge.reasons:
        print(f"  oracle: {reason}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
