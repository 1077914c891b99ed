"""Command-line front end: analyze, build, search, enumerate-threshold.

Deterministic results go to stdout; wall time, worker counts, and
progress go to stderr.  Exit codes: 0 success, 1 violations found by
search, 2 input or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .builders import (ThresholdGraph, brouwer_extremal, brouwer_extremal_plan,
                       clique_plus_isolated_threshold, cycle_dominator,
                       format_threshold, parse_threshold, pineapple,
                       split_dominator, union_merge)
from .dominance import DominanceReport, std_constructive, threshold_count
from .dominance import threshold_columns as _enumerate
from .graphs import (Graph, Graph6Error, GraphInputError, decode_graph6,
                     encode_graph6, parse_edge_list)
from .scan import ScanSummary, scan_all_graphs, scan_graph6_lines
from .spectra import DEFAULT_TOL

ENUMERATE_MAX_N = 20


def _fmt(x: float) -> str:
    """12 significant digits, integers without an exponent."""
    return f"{x:.12g}"


def _jfloat(x: float) -> float:
    return float(_fmt(x))


def _read_text(path: str) -> str:
    """A file or stdin read as bytes and decoded as UTF-8 whatever the
    locale; a byte that is not UTF-8 becomes a lone surrogate, which the
    graph6 readers report as a bad byte of its own line."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("utf-8", "surrogateescape")


def _graphs_from_text(text: str) -> list[tuple[str, Graph]]:
    """Parse analyze input: an edge-list file or graph6 lines.

    A first non-blank line of two integers means edge-list; anything else
    is treated as one graph6 record per line.
    """
    stripped = [ln.strip() for ln in text.splitlines()]
    first = next((ln for ln in stripped if ln), None)
    if first is None:
        raise GraphInputError("line 1: empty input")
    fields = first.split()
    if len(fields) == 2 and all(f.lstrip("-").isdigit() for f in fields):
        g = parse_edge_list(text)
        return [(encode_graph6(g), g)]
    out = []
    for line_no, ln in enumerate(stripped, start=1):
        if not ln:
            continue
        try:
            out.append((ln, decode_graph6(ln)))
        except Graph6Error as exc:
            raise Graph6Error(f"line {line_no}: {exc}") from None
    return out


def _check_json(report) -> dict:
    return {
        "holds": report.holds,
        "worst_k": report.worst_k,
        "min_margin": _jfloat(report.min_margin),
    }


def report_json_dict(report: DominanceReport) -> dict:
    """JSON form of a dominance report, matching the shipped schema."""
    return {
        "id": report.graph_id,
        "n": report.n,
        "m": report.m,
        "spectrum": [_jfloat(v) for v in report.spectrum],
        "energy": _jfloat(report.energy),
        "checks": {
            "gmb": _check_json(report.gmb),
            "brouwer": _check_json(report.brouwer),
            "std": _check_json(report.std),
        },
        "witnesses": [
            {"k": w.k, "cols": list(w.cols), "prefix_sum": w.prefix_sum}
            for w in report.witnesses
        ],
    }


def _near_note(report) -> str:
    if not report.near_ks:
        return ""
    ks = report.near_ks
    shown = ",".join(str(k) for k in ks[:8])
    if len(ks) > 8:
        shown += f",… ({len(ks)} positions)"
    return f" [near-equality at k={shown}]"


def _report_text(report: DominanceReport) -> str:
    lines = [
        f"id: {report.graph_id}",
        f"n={report.n} m={report.m}",
        "spectrum: " + " ".join(_fmt(v) for v in report.spectrum),
        f"energy: {_fmt(report.energy)}",
    ]
    for check in (report.gmb, report.brouwer, report.std):
        verdict = "holds" if check.holds else "VIOLATED"
        lines.append(
            f"{check.check}: {verdict} (worst k={check.worst_k}, "
            f"margin {_fmt(check.min_margin)}){_near_note(check)}"
        )
    lines.append("witnesses:")
    for w in report.witnesses:
        serial = format_threshold(report.n, w.cols)
        lines.append(f"  k={w.k}: {serial} | prefix {w.prefix_sum}")
    le_g, le_t = report.energy_pair
    serial = format_threshold(report.n, report.energy_witness_cols)
    lines.append(
        f"energy witness: {serial} | LE {_fmt(le_t)} >= {_fmt(le_g)}"
    )
    return "\n".join(lines) + "\n"


def _report_csv(reports: list[DominanceReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "id", "n", "m", "energy",
        "gmb_holds", "gmb_worst_k", "gmb_min_margin",
        "brouwer_holds", "brouwer_worst_k", "brouwer_min_margin",
        "std_holds", "std_worst_k", "std_min_margin",
        "spectrum",
    ])
    for r in reports:
        writer.writerow([
            r.graph_id, r.n, r.m, _fmt(r.energy),
            r.gmb.holds, r.gmb.worst_k, _fmt(r.gmb.min_margin),
            r.brouwer.holds, r.brouwer.worst_k, _fmt(r.brouwer.min_margin),
            r.std.holds, r.std.worst_k, _fmt(r.std.min_margin),
            " ".join(_fmt(v) for v in r.spectrum),
        ])
    return buf.getvalue()


def _cmd_analyze(args) -> int:
    text = _read_text(args.input)
    reports = [std_constructive(g, tol=args.tolerance, graph_id=rid)
               for rid, g in _graphs_from_text(text)]
    if args.json:
        print(json.dumps([report_json_dict(r) for r in reports], indent=2))
    elif args.csv:
        sys.stdout.write(_report_csv(reports))
    else:
        sys.stdout.write("\n".join(_report_text(r) for r in reports))
    return 0


def _build_threshold(args) -> tuple[ThresholdGraph, dict | None]:
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
        records = _graphs_from_text(text)
        if len(records) != 1:
            raise GraphInputError("split-dominator expects exactly one graph")
        return split_dominator(records[0][1], args.k), None
    raise AssertionError(f"unhandled builder {args.builder!r}")


def _cmd_build(args) -> int:
    t, case = _build_threshold(args)
    conj = t.spectrum_ints()
    g6 = encode_graph6(t.realize())
    if args.json:
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


def _summary_json_dict(summary: ScanSummary) -> dict:
    return {
        "records": summary.records,
        "checks": list(summary.checks),
        "violations": [
            {"id": v.record, "check": v.check, "k": v.k, "margin": _jfloat(v.margin)}
            for v in summary.violations
        ],
        "near_equality_count": summary.near_count,
        "near_equality": [
            {"id": e.record, "check": e.check, "k": e.k, "margin": _jfloat(e.margin)}
            for e in summary.near
        ],
        "errors": [
            {"line": e.line, "message": e.message} for e in summary.errors
        ],
    }


def _cmd_search(args) -> int:
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
                                  tol=args.tolerance, progress=args.progress)
    else:
        text = _read_text(args.input)
        summary = scan_graph6_lines(text.splitlines(), checks=checks,
                                    jobs=args.jobs, tol=args.tolerance,
                                    progress=args.progress)
    if args.json:
        print(json.dumps(_summary_json_dict(summary), indent=2))
    else:
        sys.stdout.write(summary.stdout_text())
    sys.stderr.write(summary.stderr_text())
    return summary.exit_code


def _json_record(cols: tuple[int, ...]) -> str:
    """One column list as ``json.dumps(..., indent=2)`` writes it inside
    the top-level "records" array."""
    if not cols:
        return "    []"
    return "    [\n      " + ",\n      ".join(map(str, cols)) + "\n    ]"


def _cmd_enumerate(args) -> int:
    """Write the records one edge-count block at a time.

    Every argument is checked before the first write, so an error leaves
    stdout empty.  The output is byte-identical to printing each record's
    serialization, or ``json.dumps(payload, indent=2)`` with ``--json``.
    """
    n, m = args.n, args.m
    if not 1 <= n <= ENUMERATE_MAX_N:
        raise ValueError(
            f"enumeration needs 1 <= n <= {ENUMERATE_MAX_N}, got n={n}"
        )
    cap = n * (n - 1) // 2
    if m is not None and not 0 <= m <= cap:
        raise ValueError(f"edge count m={m} outside 0..{cap}")
    ms = range(cap + 1) if m is None else (m,)
    count = sum(threshold_count(n, mm) for mm in ms)
    write = sys.stdout.write
    if args.json:
        write(f'{{\n  "n": {n},\n  "m": {json.dumps(m)},\n'
              f'  "count": {count},\n  "records": [')
        # every valid m has at least one record, so no block is empty
        sep = "\n"
        for mm in ms:
            write(sep + ",\n".join(map(_json_record, _enumerate(n, mm))))
            sep = ",\n"
        write("\n  ]\n}\n")
        return 0
    for mm in ms:
        write("".join([format_threshold(n, cols) + "\n"
                       for cols in _enumerate(n, mm)]))
    write(f"count: {count}\n")
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
    p_an.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
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
    p_s.add_argument("--jobs", type=int, default=None,
                     help="worker count (default $SPECDOM_JOBS or 1)")
    p_s.add_argument("--progress", action="store_true",
                     help="progress lines on stderr")
    p_s.add_argument("--gen-all", type=int, default=None, metavar="N",
                     help="scan all 2^(N(N-1)/2) labelled graphs instead of "
                          "reading input (N <= 7)")
    p_s.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
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
    except (Graph6Error, GraphInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
