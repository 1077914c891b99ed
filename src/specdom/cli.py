"""Command-line front end: analyze, build, search, enumerate-threshold.

Deterministic results go to stdout; wall time, worker counts, and
progress go to stderr.  Exit codes: 0 success, 1 violations found by
search, 2 input or usage errors.

This module imports only argparse and sys, so ``--help`` and a usage
error load nothing else.  Each command imports the modules it runs:
``enumerate-threshold`` only ``enumeration``; ``build`` the builders,
``graphs`` and ``partitions``; ``search`` the scan and ``analyze`` the
writers, and only those two load numpy.
"""

from __future__ import annotations

import argparse
import sys

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

    from .builders import ThresholdGraph
    from .graphs import Graph
    from .scan import ScanSummary

ENUMERATE_MAX_N = 20
# Lines or JSON items per stdout write of ``search``: a write-through
# stdout (PYTHONUNBUFFERED) makes one syscall per write, and blocks this
# small leave peak RSS as it was; 4,096-line blocks added 0.4 MB to
# ``search --gen-all 6`` with all three checks.
_WRITE_BLOCK = 256


# The solver entry points stay names of this module, called through it, so
# that a tracer can wrap them here.
def scan_graph6_lines(lines: Iterable[str] | Iterable[bytes],
                      **options) -> ScanSummary:
    from . import scan
    return scan.scan_graph6_lines(lines, **options)


def scan_all_graphs(n: int, **options) -> ScanSummary:
    from . import scan
    return scan.scan_all_graphs(n, **options)


def _open_binary(path: str):
    """A file, or stdin for '-', as a binary stream to use in a with block
    (which leaves stdin open)."""
    from contextlib import nullcontext

    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _read_text(path: str) -> str:
    """A file or stdin read as bytes and decoded as UTF-8 whatever the
    locale; a byte that is not UTF-8 becomes a lone surrogate, which the
    graph6 readers report as a bad byte of its own line."""
    with _open_binary(path) as fh:
        return fh.read().decode("utf-8", "surrogateescape")


def _analyze_input(text: str) -> list[str]:
    """Parse analyze input into graph6 lines, stripped, one record per
    non-blank line; an edge-list file is the one line that encodes it.

    A first non-blank line of two integers means edge-list; anything else
    is treated as graph6.  A node count above MAX_N in the edge-list
    header is an error before any edge is read.
    """
    from .graphs import MAX_N, GraphInputError, encode_graph6, parse_edge_list

    stripped = [ln.strip() for ln in text.splitlines()]
    first = next((ln for ln in stripped if ln), None)
    if first is None:
        raise GraphInputError("line 1: empty input")
    fields = first.split()
    if len(fields) == 2 and all(f.lstrip("-").isdigit() for f in fields):
        return [encode_graph6(parse_edge_list(text, MAX_N))]
    return stripped


def _graphs_from_text(text: str) -> list[Graph]:
    """analyze-style input as graphs, decoded one line at a time without
    numpy, as ``build split-dominator`` reads its graph; a graph6 size
    header above MAX_N is an error before the body is read."""
    from .graphs import MAX_N, Graph6Error, decode_graph6

    out = []
    for line_no, ln in enumerate(_analyze_input(text), start=1):
        if not ln:
            continue
        try:
            out.append(decode_graph6(ln, MAX_N))
        except Graph6Error as exc:
            raise Graph6Error(f"line {line_no}: {exc}") from None
    return out


def _one_blas_thread() -> None:
    """One BLAS thread per process unless the user set a count, read when
    numpy loads: large-n results then do not depend on the CPU count, and
    --jobs workers do not oversubscribe the CPUs."""
    import os

    if "numpy" not in sys.modules:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(name, "1")


def _tolerance(args) -> float:
    """``--tolerance``, or the checks' default when it is not given;
    refused unless it is a finite number."""
    from math import isfinite

    from .graphs import DEFAULT_TOL

    tol = DEFAULT_TOL if args.tolerance is None else args.tolerance
    if not isfinite(tol):
        raise ValueError(f"--tolerance must be a finite number, got {tol}")
    return tol


def _cmd_analyze(args) -> int:
    _one_blas_thread()
    from .writers import write_reports

    tol = _tolerance(args)
    fmt = "json" if args.json else "csv" if args.csv else "text"
    write_reports(_analyze_input(_read_text(args.input)), sys.stdout, fmt, tol)
    return 0


def _build_threshold(args) -> tuple[ThresholdGraph, dict | None]:
    from .builders import (brouwer_extremal, brouwer_extremal_plan,
                           clique_plus_isolated_threshold, cycle_dominator,
                           parse_threshold, pineapple, split_dominator,
                           union_merge)
    from .graphs import GraphInputError

    if args.builder == "brouwer-extremal":
        plan = brouwer_extremal_plan(args.n, args.m, args.k)
        t = brouwer_extremal(args.n, args.m, args.k)
        case = {"case": plan.case, "h": plan.h, "r": plan.r, "bound": plan.bound}
        return t, case
    if args.builder == "cycle-dominator":
        return cycle_dominator(args.n), None
    if args.builder == "pineapple":
        return pineapple(args.n, args.q), None
    if args.builder == "clique-isolated":
        return clique_plus_isolated_threshold(args.n), None
    if args.builder == "union-merge":
        parts = []
        for line_no, ln in enumerate(_read_text(args.file).splitlines(), start=1):
            try:
                if ln.strip():
                    parts.append(parse_threshold(ln))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
        return union_merge(parts), None
    if args.builder == "split-dominator":
        text = _read_text(args.file)
        graphs = _graphs_from_text(text)
        if len(graphs) != 1:
            raise GraphInputError("split-dominator expects exactly one graph")
        return split_dominator(graphs[0], args.k), None
    raise AssertionError(f"unhandled builder {args.builder!r}")


def _cmd_build(args) -> int:
    from .graphs import encode_graph6

    t, case = _build_threshold(args)
    conj = t.spectrum_ints()
    g6 = encode_graph6(t.realize())
    if args.json:
        import json

        payload = {
            "threshold": t.serialize(),
            "n": t.n,
            "m": t.m,
            "cols": list(t.cols),
            "conjugate": list(conj),
            "spectrum": list(conj),
            "graph6": g6,
            "case": case,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"threshold: {t.serialize()}")
    print("conjugate: " + " ".join(str(v) for v in conj))
    print("spectrum: " + " ".join(str(v) for v in conj))
    print(f"graph6: {g6}")
    if case is not None:
        print(f"case: {case['case']} (h={case['h']}, r={case['r']}, "
              f"bound={case['bound']})")
    return 0


def _cmd_search(args) -> int:
    from itertools import islice

    _one_blas_thread()
    tol = _tolerance(args)
    checks = []
    for item in args.check:
        checks.extend(c for c in item.split(",") if c)
    if not checks:
        checks = ["brouwer"]
    if args.gen_all is not None:
        if args.input != "-":
            raise ValueError("search takes either an input stream or "
                             "--gen-all, not both")
        summary = scan_all_graphs(args.gen_all, checks=checks, jobs=args.jobs,
                                  tol=tol, progress=args.progress)
    else:
        # binary lines, pulled by the scan a chunk at a time; it decodes
        # them as _read_text does
        with _open_binary(args.input) as fh:
            summary = scan_graph6_lines(fh, checks=checks, jobs=args.jobs,
                                        tol=tol, progress=args.progress)
    if args.json:
        from .jsonlayout import summary_json
        texts = summary_json(summary)
    else:
        texts = (f"{line}\n" for line in summary.stdout_lines())
    while block := "".join(islice(texts, _WRITE_BLOCK)):
        sys.stdout.write(block)
    sys.stderr.write(summary.stderr_text())
    return summary.exit_code


def _cmd_enumerate(args) -> int:
    """Write the records one edge-count block at a time.

    Every argument is checked before the first write, so an error leaves
    stdout empty.  The output is byte-identical to printing each record's
    serialization, or ``json.dumps(payload, indent=2)`` with ``--json``.
    """
    from .enumeration import (_check_edge_count, _json_text, _threshold_text,
                              threshold_count)

    n, m = args.n, args.m
    if not 1 <= n <= ENUMERATE_MAX_N:
        raise ValueError(
            f"enumeration needs 1 <= n <= {ENUMERATE_MAX_N}, got n={n}"
        )
    if m is not None:
        _check_edge_count(n, m)
    ms = range(n * (n - 1) // 2 + 1) if m is None else (m,)
    count = sum(threshold_count(n, mm) for mm in ms)
    write = sys.stdout.write
    if args.json:
        write(f'{{\n  "n": {n},\n  "m": {"null" if m is None else m},\n'
              f'  "count": {count},\n  "records": [')
        for piece in _json_text(n, ms):
            write(piece)
        write("\n  ]\n}\n")
        return 0
    for text in _threshold_text(n, ms):
        write(text)
    write(f"\ncount: {count}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdom",
        description="Laplacian spectra, threshold graphs, and spectral "
                    "dominance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="per-graph spectral report")
    p_an.add_argument("input", nargs="?", default="-",
                      help="graph6 lines or an edge-list file ('-' for stdin)")
    fmt = p_an.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report array")
    fmt.add_argument("--csv", action="store_true", help="CSV report rows")
    p_an.add_argument("--tolerance", type=float, default=None,
                      help="inequality tolerance (default 1e-7)")
    p_an.set_defaults(func=_cmd_analyze)

    p_b = sub.add_parser("build", help="construct threshold graphs")
    bsub = p_b.add_subparsers(dest="builder", required=True)
    b1 = bsub.add_parser("brouwer-extremal")
    b1.add_argument("n", type=int)
    b1.add_argument("m", type=int)
    b1.add_argument("k", type=int)
    b2 = bsub.add_parser("cycle-dominator")
    b2.add_argument("n", type=int)
    b3 = bsub.add_parser("pineapple")
    b3.add_argument("n", type=int)
    b3.add_argument("q", type=int)
    b4 = bsub.add_parser("clique-isolated")
    b4.add_argument("n", type=int)
    b5 = bsub.add_parser("union-merge")
    b5.add_argument("file", help="threshold records 'n: c1 c2 ...', one per line")
    b6 = bsub.add_parser("split-dominator")
    b6.add_argument("file", help="split graph as edge list or one graph6 line")
    b6.add_argument("k", type=int)
    for bp in (b1, b2, b3, b4, b5, b6):
        bp.add_argument("--json", action="store_true")
        bp.set_defaults(func=_cmd_build)

    p_s = sub.add_parser("search", help="scan a graph6 stream for violations")
    p_s.add_argument("input", nargs="?", default="-",
                     help="graph6 stream ('-' for stdin)")
    p_s.add_argument("--check", action="append", default=[],
                     help="gmb, brouwer, or std (repeatable or comma-joined; "
                          "default brouwer)")
    p_s.add_argument("--jobs", type=int, default=1,
                     help="worker count (default 1)")
    p_s.add_argument("--progress", action="store_true",
                     help="progress lines on stderr")
    p_s.add_argument("--gen-all", type=int, default=None, metavar="N",
                     help="scan all 2^(N(N-1)/2) labelled graphs instead of "
                          "reading input (N <= 7)")
    p_s.add_argument("--tolerance", type=float, default=None,
                     help="inequality tolerance (default 1e-7)")
    p_s.add_argument("--json", action="store_true")
    p_s.set_defaults(func=_cmd_search)

    p_e = sub.add_parser("enumerate-threshold",
                         help="list threshold graphs by column sequence")
    p_e.add_argument("n", type=int)
    p_e.add_argument("m", type=int, nargs="?", default=None)
    p_e.add_argument("--json", action="store_true")
    p_e.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
