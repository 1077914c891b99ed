"""Bulk scanning of graph streams against spectral bounds.

This module only chunks the input, calls ``spectra.verify`` and assembles
events: the edge-bit order belongs to ``graphs``, and the Laplacian and
the margins to ``spectra``.

The stream is cut into fixed-size chunks before any worker is involved,
every chunk is processed by the same batched path (``spectra.laplacians``
on the edge-bit rows, then ``spectra.verify``: one batched LAPACK eigvalsh,
exact integer bounds and the margin rows bound - prefix), each record's
worst k and margin are read straight off its margin rows, and chunk
results are reassembled in input order.  The summary is therefore
byte-identical whatever the worker count; wall time (from the first line
read) and worker count are reported separately and never enter the
deterministic payload.

A chunk is columnar from input to events.  Its graph6 texts are bucketed
by length and each bucket is decoded at once by
``graphs.decode_graph6_batch``: one (B, L) array of character codes,
validated and unpacked into (B, P) edge-bit rows by numpy.  Records
that path does not take (multi-byte headers, the ``>>graph6<<`` prefix,
anything malformed) go through ``decode_graph6``, the one writer of
graph6 error messages; ``graphs.bit_rows`` unpacks those records, and
the edge masks of generated chunks, into the same rows.  Events come back
as arrays (position, check, k, margin, violation flag) ordered by position
and check, and only the events the summary lists become objects.

Inside ``verify``, a record that some check flags as a violation is
confirmed once, all its checks together: the flagged records of a stack
are re-solved in one batch by the Jacobi confirmer at a 100x tighter
tolerance, and every check of such a record reads its margin from that
spectrum.  Margins that land back inside the tolerance are demoted to
near-equality events.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterable, Iterator

import numpy as np

from .graphs import (MAX_N, Graph, Graph6Error, bit_rows, decode_graph6,
                     decode_graph6_batch, encode_graph6)
from .spectra import DEFAULT_TOL, NEAR_EQUALITY, laplacians, verify

CHUNK = 4096
NEAR_CAP = 10000
KNOWN_CHECKS = ("gmb", "brouwer", "std")
GEN_ALL_MAX = 7


@dataclass(frozen=True)
class Violation:
    record: str
    check: str
    k: int
    margin: float


@dataclass(frozen=True)
class NearEquality:
    record: str
    check: str
    k: int
    margin: float


@dataclass(frozen=True)
class RecordError:
    line: int
    message: str


@dataclass
class ScanSummary:
    """Deterministic scan results plus volatile run facts.

    ``stdout_text`` depends only on the input stream and the checks;
    ``stderr_text`` carries wall time and worker count.
    """

    records: int
    checks: tuple[str, ...]
    violations: list[Violation]
    near_count: int
    near: list[NearEquality]
    errors: list[RecordError]
    wall_time: float
    jobs: int

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        if self.violations:
            return 1
        return 0

    def stdout_text(self) -> str:
        lines = [
            f"records: {self.records}",
            f"checks: {','.join(self.checks)}",
            f"violations: {len(self.violations)}",
        ]
        for v in self.violations:
            lines.append(
                f"VIOLATION {v.record} check={v.check} k={v.k} margin={v.margin:.12g}"
            )
        lines.append(f"near-equality: {self.near_count}")
        for e in self.near:
            lines.append(
                f"NEAR {e.record} check={e.check} k={e.k} margin={e.margin:.12g}"
            )
        if self.near_count > len(self.near):
            lines.append(f"(near-equality list capped at {NEAR_CAP})")
        lines.append(f"errors: {len(self.errors)}")
        for err in self.errors:
            lines.append(f"ERROR line {err.line}: {err.message}")
        return "\n".join(lines) + "\n"

    def stderr_text(self) -> str:
        worker = "worker" if self.jobs == 1 else "workers"
        return (f"scanned {self.records} records in {self.wall_time:.1f}s "
                f"({self.jobs} {worker})\n")


def _g6_groups(records) -> tuple[dict[int, tuple], list[tuple[int, str]]]:
    """Decode a chunk of (line, text) records into bit-row groups by n.

    Returns ({n: (positions, bit_rows)}, errors): positions index the
    chunk's records, and errors are (line, message) in line order.
    Records are bucketed by text length and decoded a bucket at a time by
    ``decode_graph6_batch``; the records it leaves go through
    ``decode_graph6``, which refuses a record of more than MAX_N nodes.
    """
    by_len: dict[int, list[int]] = {}
    for pos, (_, text) in enumerate(records):
        by_len.setdefault(len(text), []).append(pos)
    pieces: dict[int, list] = {}
    fallback: list[int] = []
    for length, positions in by_len.items():
        pos = np.array(positions)
        ok, n, bits = decode_graph6_batch([records[p][1] for p in positions], length)
        fallback.extend(pos[~ok].tolist())
        for nn in np.unique(n[ok]).tolist():
            pick = ok & (n == nn)
            pieces.setdefault(nn, []).append(
                (pos[pick], bits[pick, :nn * (nn - 1) // 2]))
    errors: list[tuple[int, str]] = []
    for p in sorted(fallback):
        line_no, text = records[p]
        try:
            g = decode_graph6(text, MAX_N)
        except Graph6Error as exc:
            errors.append((line_no, str(exc)))
            continue
        pieces.setdefault(g.n, []).append((np.array([p]), bit_rows(g.n, [g.bits])))
    groups = {n: (np.concatenate([pos for pos, _ in parts]),
                  np.concatenate([rows for _, rows in parts]))
              for n, parts in pieces.items()}
    return groups, errors


def _scan_chunk(payload) -> tuple[int, tuple[np.ndarray, ...], list]:
    """Process one chunk; returns (records, events, errors).

    events are five arrays, one entry per violation or near-equality
    event, ordered by (position, check): the record's position in the
    chunk, the check's index in the payload's checks, k, the margin, and
    whether it is a violation.  A position indexes the payload's records
    for a stream chunk and counts from its first mask for a generated
    one.  errors are (line, message).
    """
    kind, checks, tol = payload[0], payload[1], payload[2]
    if kind == "g6":
        groups, errors = _g6_groups(payload[3])
    else:
        n, start, stop = payload[3], payload[4], payload[5]
        masks = np.arange(start, stop)
        groups, errors = {n: (masks - start, bit_rows(n, masks))}, []
    records = 0
    found = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0),)]
    for n, (pos, rows) in sorted(groups.items()):
        records += len(pos)
        margins = verify(laplacians(n, rows), checks, tol)[3]
        for ci, check in enumerate(checks):
            idx = margins[check].argmin(axis=1)
            worst = margins[check][np.arange(len(idx)), idx]
            hit = np.flatnonzero((worst < -tol) | (worst < NEAR_EQUALITY))
            found.append((pos[hit], np.full(len(hit), ci), idx[hit] + 1, worst[hit]))
    pos, check, k, margin = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((check, pos))
    margin = margin[order]
    events = (pos[order], check[order], k[order], margin, margin < -tol)
    return records, events, errors


def _validate_checks(checks: Iterable[str]) -> tuple[str, ...]:
    out = []
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {c!r}, expected one of {KNOWN_CHECKS}")
        if c not in out:
            out.append(c)
    if not out:
        raise ValueError("at least one check is required")
    return tuple(out)


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        raw = os.environ.get("SPECDOM_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"SPECDOM_JOBS must be an integer, got {raw!r}")
    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")
    return jobs


def _run_chunks(payloads: list, jobs: int, progress: bool) -> Iterator:
    pooled = jobs > 1 and len(payloads) > 1
    with Pool(min(jobs, len(payloads))) if pooled else nullcontext() as pool:
        results = pool.imap(_scan_chunk, payloads) if pooled else map(_scan_chunk, payloads)
        for i, result in enumerate(results, start=1):
            yield result
            if progress:
                print(f"progress: {i}/{len(payloads)} chunks", file=sys.stderr)


def _record_text(payload, pos: int) -> str:
    """graph6 text of the record at ``pos`` in the chunk built by ``payload``."""
    if payload[0] == "g6":
        return payload[3][pos][1]
    return encode_graph6(Graph(payload[3], payload[4] + pos))


def _assemble(payloads: list, checks: tuple[str, ...], jobs: int,
              progress: bool, started: float) -> ScanSummary:
    records = 0
    violations: list[Violation] = []
    near_count = 0
    near: list[NearEquality] = []
    errors: list[RecordError] = []
    # the chunk generator goes first, so zip resumes it after its last
    # chunk and its final progress line is printed
    chunks = zip(_run_chunks(payloads, jobs, progress), payloads)
    for (count, events, errs), payload in chunks:
        records += count
        pos, check, k, margin, violation = events
        near_at = np.flatnonzero(~violation)
        near_count += len(near_at)
        room = max(NEAR_CAP - len(near), 0)
        # only the events that are listed become objects (and, for a
        # generated chunk, get encoded); the other near events are counted
        for i in np.flatnonzero(violation).tolist():
            violations.append(Violation(_record_text(payload, int(pos[i])),
                                        checks[check[i]], int(k[i]), float(margin[i])))
        for i in near_at[:room].tolist():
            near.append(NearEquality(_record_text(payload, int(pos[i])),
                                     checks[check[i]], int(k[i]), float(margin[i])))
        for line, message in errs:
            errors.append(RecordError(line, message))
    return ScanSummary(
        records=records,
        checks=checks,
        violations=violations,
        near_count=near_count,
        near=near,
        errors=errors,
        wall_time=time.monotonic() - started,
        jobs=jobs,
    )


def scan_graph6_lines(lines: Iterable[str], *, checks: Iterable[str] = ("brouwer",),
                      jobs: int | None = None, tol: float = DEFAULT_TOL,
                      progress: bool = False) -> ScanSummary:
    """Scan a stream of graph6 lines; blank lines are skipped but counted
    for error line numbers."""
    started = time.monotonic()
    checks = _validate_checks(checks)
    jobs = _resolve_jobs(jobs)
    payloads = []
    buf: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        buf.append((line_no, text))
        if len(buf) == CHUNK:
            payloads.append(("g6", checks, tol, tuple(buf)))
            buf = []
    if buf:
        payloads.append(("g6", checks, tol, tuple(buf)))
    return _assemble(payloads, checks, jobs, progress, started)


def scan_all_graphs(n: int, *, checks: Iterable[str] = ("brouwer",),
                    jobs: int | None = None, tol: float = DEFAULT_TOL,
                    progress: bool = False) -> ScanSummary:
    """Scan every labelled graph on n nodes (n <= 7, 2^21 graphs at most)."""
    if not 1 <= n <= GEN_ALL_MAX:
        raise ValueError(f"exhaustive scan needs 1 <= n <= {GEN_ALL_MAX}, got n={n}")
    started = time.monotonic()
    checks = _validate_checks(checks)
    jobs = _resolve_jobs(jobs)
    total = 1 << (n * (n - 1) // 2)
    payloads = [("gen", checks, tol, n, a, min(a + CHUNK, total))
                for a in range(0, total, CHUNK)]
    return _assemble(payloads, checks, jobs, progress, started)
