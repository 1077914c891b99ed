"""Streamed writers of ``analyze``'s reports.

``analyze`` decodes its whole input before it writes anything, so a bad
record leaves stdout empty.  Its input is graph6 lines (an edge-list file
arrives as the one line that encodes it), decoded in batches of
``graphs.CHUNK`` lines by ``graphs._g6_groups`` and kept as packed bit
rows.  Each batch's n-groups then go through ``dominance.report_rows``,
and every record is written, in input order, as soon as it is read off
its stack's arrays.  No report object, dict or output string outlives
its record.

JSON is laid out by ``jsonlayout`` rather than by ``json.dumps(...,
indent=2)`` of the whole payload, with the same bytes.  Only ``analyze``
loads this module; ``json`` is imported only by the JSON writer and
``csv`` only by the CSV writer.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import itemgetter
from typing import Iterable

from .builders import format_threshold
from .dominance import ReportRow, _constructive_witnesses, report_rows
from .graphs import CHUNK, Graph6Error, _g6_groups
from .jsonlayout import _jfloat, array_texts, json_list, json_object
from .spectra import CHECKS

# numpy is imported after the package's own modules: loading it first
# raised the peak RSS of analyze by about 0.5 MB
import numpy as np


def _fmt(x: float) -> str:
    """12 significant digits, integers without an exponent."""
    return f"{x:.12g}"


def _decode(parsed: list[str]) -> list[dict]:
    """The batches of stripped graph6 lines, each {n: (line indexes,
    packed edge-bit rows)}, or Graph6Error naming the first bad line."""
    batches = []
    for start in range(0, len(parsed), CHUNK):
        stop = min(start + CHUNK, len(parsed))
        groups, errors = _g6_groups((i, parsed[i]) for i in range(start, stop) if parsed[i])
        if errors:
            line, message = errors[0]
            raise Graph6Error(f"line {line + 1}: {message}")
        batches.append({n: (keys, np.packbits(rows, axis=1))
                        for n, (keys, rows) in groups.items()})
    return batches


def _rows(batch: dict, tol: float) -> Iterable[tuple[int, ReportRow]]:
    """(line index, ReportRow) of a batch's records in input order."""
    groups = []
    for n, (keys, packed) in batch.items():
        rows = np.unpackbits(packed, axis=1, count=n * (n - 1) // 2)
        groups.append(zip(keys.tolist(), report_rows(n, rows, tol)))
    return heapq.merge(*groups, key=itemgetter(0))


def _near_note(ks: tuple[int, ...]) -> str:
    if not ks:
        return ""
    shown = ",".join(str(k) for k in ks[:8])
    if len(ks) > 8:
        shown += f",… ({len(ks)} positions)"
    return f" [near-equality at k={shown}]"


@lru_cache(maxsize=256)
def _witness_text(n: int, m: int) -> str:
    return "\n".join(["witnesses:"] + [
        f"  k={w.k}: {format_threshold(n, w.cols)} | prefix {w.prefix_sum}"
        for w in _constructive_witnesses(n, m)])


@lru_cache(maxsize=256)
def _witness_json(n: int, m: int) -> str:
    """The witnesses array of a report, two levels deep."""
    return json_list([json_object([("k", str(w.k)),
                                   ("cols", json_list([str(c) for c in w.cols], 4)),
                                   ("prefix_sum", str(w.prefix_sum))], 3)
                      for w in _constructive_witnesses(n, m)], 2)


def _report_text(rid: str, row: ReportRow) -> str:
    v, i = row.verdicts, row.index
    n, m = v.n, v.m[i]
    le_g, le_t = row.energy_pair
    lines = [
        f"id: {rid}",
        f"n={n} m={m}",
        "spectrum: " + " ".join(map(_fmt, row.spectrum.values)),
        f"energy: {_fmt(le_g)}",
    ]
    for check in CHECKS:
        holds, worst_k, low = v.check(i, check)
        verdict = "holds" if holds else "VIOLATED"
        lines.append(f"{check}: {verdict} (worst k={worst_k}, "
                     f"margin {_fmt(low)}){_near_note(v.near(i, check))}")
    lines.append(_witness_text(n, m))
    serial = format_threshold(n, row.energy_witness_cols)
    lines.append(f"energy witness: {serial} | LE {_fmt(le_t)} >= {_fmt(le_g)}")
    return "\n".join(lines) + "\n"


def _report_csv(rid: str, row: ReportRow) -> list:
    v, i = row.verdicts, row.index
    out = [rid, v.n, v.m[i], _fmt(row.energy_pair[0])]
    for check in CHECKS:
        holds, worst_k, low = v.check(i, check)
        out += [holds, worst_k, _fmt(low)]
    out.append(" ".join(map(_fmt, row.spectrum.values)))
    return out


def _report_json(rid_json: str, row: ReportRow) -> str:
    """A report's JSON object, laid out as an item of the top-level array;
    ``rid_json`` is the record's id as a JSON string."""
    v, i = row.verdicts, row.index
    checks = []
    for check in CHECKS:
        holds, worst_k, low = v.check(i, check)
        checks.append((check, json_object([("holds", "true" if holds else "false"),
                                           ("worst_k", str(worst_k)),
                                           ("min_margin", _jfloat(low))], 3)))
    return json_object([
        ("id", rid_json),
        ("n", str(v.n)),
        ("m", str(v.m[i])),
        ("spectrum", json_list(list(map(_jfloat, row.spectrum.values)), 2)),
        ("energy", _jfloat(row.energy_pair[0])),
        ("checks", json_object(checks, 2)),
        ("witnesses", _witness_json(v.n, v.m[i])),
    ], 1)


CSV_HEADER = [
    "id", "n", "m", "energy",
    "gmb_holds", "gmb_worst_k", "gmb_min_margin",
    "brouwer_holds", "brouwer_worst_k", "brouwer_min_margin",
    "std_holds", "std_worst_k", "std_min_margin",
    "spectrum",
]


def write_reports(parsed: list[str], out, fmt: str, tol: float) -> None:
    """Write the reports of analyze input, stripped graph6 lines, each
    record's id its line, to the text stream ``out`` as "text", "csv" or
    "json", byte-identical to joining every report's text, one csv.writer
    run, or json.dumps(list, indent=2) plus a newline."""
    batches = _decode(parsed)
    records = ((parsed[key], row) for batch in batches for key, row in _rows(batch, tol))
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as json_str

        out.writelines(array_texts((_report_json(json_str(rid), row)
                                    for rid, row in records), 0))
        out.write("\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rid, row in records:
            writer.writerow(_report_csv(rid, row))
    else:
        sep = ""
        for rid, row in records:
            out.write(sep + _report_text(rid, row))
            sep = "\n"
