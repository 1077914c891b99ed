"""Traced in-process run of the specdom CLI, for per-layer numbers.

Run as a script, it wraps the functions in ``WRAPS`` under the names their
calling modules use, calls ``specdom.cli.main`` with the given arguments
in this process, and writes every span (name, start, end, parent, run id)
and counter to an ``.npz`` file when the run ends:

    python3 perfbench/tracer.py SPANS.npz RUN_ID -- search FILE --jobs 1

A wrapped name that the program no longer has is listed as absent in the
file; the run goes on without it.  ``layer_metrics`` turns a spans file
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs; an attribute "Cls.meth" wraps a method.
WRAPS = (
    ("specdom.cli", "main"),
    ("specdom.cli", "scan_graph6_lines"),
    ("specdom.cli", "scan_all_graphs"),
    ("specdom.cli", "std_constructive"),
    ("specdom.cli", "_enumerate"),
    ("specdom.cli", "decode_graph6"),
    ("specdom.cli", "encode_graph6"),
    ("specdom.scan", "decode_graph6"),
    ("specdom.scan", "encode_graph6"),
    ("specdom.scan", "jacobi_eigenvalues_batch"),
    ("specdom.scan", "eigenvalues"),
    ("specdom.spectra", "eigenvalues"),
    ("specdom.spectra", "conjugate_counts"),
    ("specdom.dominance", "eigenvalues"),
    ("specdom.dominance", "encode_graph6"),
    ("specdom.dominance", "brouwer_extremal"),
    ("specdom.builders", "conjugate_counts"),
    ("specdom.builders", "ThresholdGraph.serialize"),
    ("specdom.partitions", "conjugate_counts"),
)

ROOT_SPAN = "specdom.cli.main"
SCAN_SPANS = ("specdom.cli.scan_graph6_lines", "specdom.cli.scan_all_graphs")
BATCH_SOLVE = "specdom.scan.jacobi_eigenvalues_batch"
DECODES = ("specdom.cli.decode_graph6", "specdom.scan.decode_graph6")
ENCODES = ("specdom.cli.encode_graph6", "specdom.scan.encode_graph6",
           "specdom.dominance.encode_graph6")
SCALAR_SOLVES = ("specdom.scan.eigenvalues", "specdom.spectra.eigenvalues",
                 "specdom.dominance.eigenvalues")
CONJUGATES = ("specdom.spectra.conjugate_counts", "specdom.builders.conjugate_counts",
              "specdom.partitions.conjugate_counts")
REPORT = "specdom.cli.std_constructive"
ENUMERATE = "specdom.cli._enumerate"
SERIALIZE = "specdom.builders.ThresholdGraph.serialize"
EXTREMAL = "specdom.dominance.brouwer_extremal"

# Per-layer metrics: name -> unit.  Metrics whose spans never ran read 0.
LAYER_UNITS = {
    "graphs.decode_s": "s", "graphs.decode_calls": "count",
    "graphs.encode_s": "s", "graphs.encode_calls": "count",
    "spectra.batch_solve_s": "s", "spectra.batch_matrices": "count",
    "scan.kernel_calls": "count", "scan.batch_mean": "matrices",
    "scan.self_s": "s", "scan.confirms": "count", "scan.near_events": "count",
    "scan.jobs_efficiency": "ratio",
    "spectra.scalar_solve_s": "s", "spectra.scalar_solves": "count",
    "spectra.solves_per_report": "ratio",
    "dominance.report_self_s": "s", "dominance.report_ms_p50": "ms",
    "dominance.report_ms_p90": "ms",
    "builders.extremal_calls": "count", "partitions.conjugate_calls": "count",
    "dominance.enumerate_s": "s", "dominance.threshold_graphs": "count",
    "builders.serialize_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans in flat arrays; the open spans form a stack (one thread)."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.count(name + ".items", 1)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the batch size is the length of the stacked-matrix argument
            if name == BATCH_SOLVE and args:
                self.count(name + ".matrices", len(args[0]))
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def install(self, wraps=WRAPS):
        """Wrap every listed name; names the program lacks go to ``absent``."""
        for module_name, attr in wraps:
            full = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(full)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(full)
                continue
            setattr(owner, leaf, self.wrap(fn, full))

    def save(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.full(len(self.name), self.run_id, dtype=np.int32),
            meta=np.array(json.dumps({"names": self.names, "counts": self.counts,
                                      "absent": self.absent})),
        )


def span_totals(path: str) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, durations."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        dur = data["end"] - data["start"]
        parent = data["parent"]
        names = data["name"]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    self_time = dur - child
    out = {}
    for nid, name in enumerate(meta["names"]):
        pick = names == nid
        out[name] = {
            "calls": int(pick.sum()),
            "total_s": float(dur[pick].sum()),
            "self_s": float(self_time[pick].sum()),
            "durations": dur[pick],
        }
    return {"spans": out, "counts": meta["counts"], "absent": meta["absent"]}


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (without the untraced ratios)."""
    spans, counts = totals["spans"], totals["counts"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}

    def get(name):
        return spans.get(name, empty)

    def total(names, key):
        return sum(get(n)[key] for n in names)

    kernel_calls = get(BATCH_SOLVE)["calls"]
    matrices = counts.get(BATCH_SOLVE + ".matrices", 0)
    reports = get(REPORT)
    scalar_solves = total(SCALAR_SOLVES, "calls")
    report_ms = reports["durations"] * 1e3
    return {
        "graphs.decode_s": total(DECODES, "total_s"),
        "graphs.decode_calls": total(DECODES, "calls"),
        "graphs.encode_s": total(ENCODES, "total_s"),
        "graphs.encode_calls": total(ENCODES, "calls"),
        "spectra.batch_solve_s": get(BATCH_SOLVE)["total_s"],
        "spectra.batch_matrices": matrices,
        "scan.kernel_calls": kernel_calls,
        "scan.batch_mean": matrices / kernel_calls if kernel_calls else 0.0,
        "scan.self_s": total(SCAN_SPANS, "self_s"),
        "scan.confirms": get("specdom.scan.eigenvalues")["calls"],
        "spectra.scalar_solve_s": total(SCALAR_SOLVES, "total_s"),
        "spectra.scalar_solves": scalar_solves,
        "spectra.solves_per_report": (scalar_solves / reports["calls"]
                                      if reports["calls"] else 0.0),
        "dominance.report_self_s": reports["self_s"],
        "dominance.report_ms_p50": (float(np.percentile(report_ms, 50))
                                    if len(report_ms) else 0.0),
        "dominance.report_ms_p90": (float(np.percentile(report_ms, 90))
                                    if len(report_ms) else 0.0),
        "builders.extremal_calls": get(EXTREMAL)["calls"],
        "partitions.conjugate_calls": total(CONJUGATES, "calls"),
        "dominance.enumerate_s": get(ENUMERATE)["total_s"],
        "dominance.threshold_graphs": counts.get(ENUMERATE + ".items", 0),
        "builders.serialize_s": get(SERIALIZE)["total_s"],
        "cli.self_s": get(ROOT_SPAN)["self_s"],
    }


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.npz RUN_ID -- CLI ARGS...")
    tracer = Tracer(int(run_id))
    tracer.install()
    cli = importlib.import_module("specdom.cli")
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
