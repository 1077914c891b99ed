"""Bulk scanning of graph streams against spectral bounds.

The stream is cut into fixed-size chunks before any worker is involved,
every chunk is processed by the same batched kernel (Laplacians scattered
from the edge bits, one batched LAPACK eigvalsh, exact integer bounds),
and chunk results are reassembled in input order.  The summary is
therefore byte-identical whatever the worker count; wall time and worker
count are reported separately and never enter the deterministic payload.

Inside the kernel, a record that some check flags as a violation is
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
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph, Graph6Error, decode_graph6, encode_graph6
from .spectra import DEFAULT_TOL, NEAR_EQUALITY, verify

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
    near_cap: int = NEAR_CAP

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
            lines.append(f"(near-equality list capped at {self.near_cap})")
        lines.append(f"errors: {len(self.errors)}")
        for err in self.errors:
            lines.append(f"ERROR line {err.line}: {err.message}")
        return "\n".join(lines) + "\n"

    def stderr_text(self) -> str:
        worker = "worker" if self.jobs == 1 else "workers"
        return (f"scanned {self.records} records in {self.wall_time:.1f}s "
                f"({self.jobs} {worker})\n")


@lru_cache(maxsize=64)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of each edge bit in graph6 order: bit p is the 0-based
    pair (i, j), i < j, column-major, so rows hold j and cols hold i."""
    return np.tril_indices(n, -1)


def _laplacians(n: int, bit_rows: np.ndarray) -> np.ndarray:
    """(B, n, n) Laplacians scattered from (B, P) edge bits in {0, 1}."""
    rows, cols = _pair_index(n)
    # negate only after the cast: -uint8 wraps to 255
    off = -bit_rows.astype(float)
    lap = np.zeros((bit_rows.shape[0], n, n))
    lap[:, rows, cols] = off
    lap[:, cols, rows] = off
    diag = np.arange(n)
    lap[:, diag, diag] = -lap.sum(axis=2)
    return lap


def _kernel(n: int, bit_rows: np.ndarray, checks: Sequence[str],
            tol: float = DEFAULT_TOL):
    """Confirmed margins for one stack of graphs sharing a node count.

    bit_rows is (B, P) in {0, 1}.  Returns, per check, arrays
    (min_margin, worst_k) of shape (B,), plus the (B,) edge counts.
    """
    _, prefix, bounds = verify(_laplacians(n, bit_rows), checks, tol)
    out = {}
    for check in checks:
        margins = bounds[check] - prefix
        idx = np.argmin(margins, axis=1)
        out[check] = (margins[np.arange(len(idx)), idx], idx + 1)
    return out, bit_rows.sum(axis=1).astype(np.int64)


def _scan_chunk(payload) -> tuple[int, list, list, list]:
    """Process one chunk; returns (records, violations, nears, errors).

    Violation and near entries are (record, check, k, margin), where the
    record is a stream record's graph6 text or a generated graph's bare
    edge mask (``_record_text`` encodes it); errors are (line, message).
    """
    kind, checks, tol = payload[0], payload[1], payload[2]
    errors: list[tuple[int, str]] = []
    if kind == "g6":
        entries = []
        for line_no, text in payload[3]:
            try:
                g = decode_graph6(text)
            except Graph6Error as exc:
                errors.append((line_no, str(exc)))
                continue
            entries.append((text, g.n, g.bits))
    else:
        n, start, stop = payload[3], payload[4], payload[5]
        entries = [(mask, n, mask) for mask in range(start, stop)]
    by_n: dict[int, list[int]] = {}
    for pos, (_, n, _bits) in enumerate(entries):
        by_n.setdefault(n, []).append(pos)
    results: dict[int, dict[str, tuple[float, int]]] = {}
    for n, positions in sorted(by_n.items()):
        nbits = n * (n - 1) // 2
        rows = np.zeros((len(positions), max(nbits, 1)), dtype=np.uint8)
        for r, pos in enumerate(positions):
            bits = entries[pos][2]
            if nbits:
                raw = bits.to_bytes((nbits + 7) // 8, "little")
                rows[r, :nbits] = np.unpackbits(
                    np.frombuffer(raw, dtype=np.uint8), bitorder="little"
                )[:nbits]
        per_check, _ = _kernel(n, rows[:, :nbits], checks, tol)
        for r, pos in enumerate(positions):
            results[pos] = {c: (float(per_check[c][0][r]), int(per_check[c][1][r]))
                            for c in checks}
    violations: list[tuple[str | int, str, int, float]] = []
    nears: list[tuple[str | int, str, int, float]] = []
    for pos, (record, _n, _bits) in enumerate(entries):
        for check in checks:
            margin, worst_k = results[pos][check]
            if margin < -tol:
                violations.append((record, check, worst_k, margin))
            elif margin < NEAR_EQUALITY:
                nears.append((record, check, worst_k, margin))
    return len(entries), violations, nears, errors


def _record_text(payload, record: str | int) -> str:
    """graph6 text of an event record from the chunk built by ``payload``."""
    if payload[0] == "g6":
        return record
    return encode_graph6(Graph(payload[3], record))


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
    if jobs == 1 or len(payloads) <= 1:
        for i, payload in enumerate(payloads):
            yield _scan_chunk(payload)
            if progress:
                print(f"progress: {i + 1}/{len(payloads)} chunks", file=sys.stderr)
        return
    with Pool(processes=min(jobs, len(payloads))) as pool:
        for i, result in enumerate(pool.imap(_scan_chunk, payloads)):
            yield result
            if progress:
                print(f"progress: {i + 1}/{len(payloads)} chunks", file=sys.stderr)


def _assemble(payloads: list, checks: tuple[str, ...], jobs: int,
              progress: bool) -> ScanSummary:
    started = time.monotonic()
    records = 0
    violations: list[Violation] = []
    near_count = 0
    near: list[NearEquality] = []
    errors: list[RecordError] = []
    # the chunk generator goes first, so zip resumes it after its last
    # chunk and its final progress line is printed
    chunks = zip(_run_chunks(payloads, jobs, progress), payloads)
    for (count, vios, nears, errs), payload in chunks:
        records += count
        for rec, check, k, margin in vios:
            violations.append(Violation(_record_text(payload, rec), check, k, margin))
        near_count += len(nears)
        room = NEAR_CAP - len(near)
        # only the listed near events are encoded; the rest are just counted
        for rec, check, k, margin in nears[:max(room, 0)]:
            near.append(NearEquality(_record_text(payload, rec), check, k, margin))
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
    return _assemble(payloads, checks, jobs, progress)


def scan_all_graphs(n: int, *, checks: Iterable[str] = ("brouwer",),
                    jobs: int | None = None, tol: float = DEFAULT_TOL,
                    progress: bool = False) -> ScanSummary:
    """Scan every labelled graph on n nodes (n <= 7, 2^21 graphs at most)."""
    if not 1 <= n <= GEN_ALL_MAX:
        raise ValueError(f"exhaustive scan needs 1 <= n <= {GEN_ALL_MAX}, got n={n}")
    checks = _validate_checks(checks)
    jobs = _resolve_jobs(jobs)
    total = 1 << (n * (n - 1) // 2)
    payloads = [("gen", checks, tol, n, a, min(a + CHUNK, total))
                for a in range(0, total, CHUNK)]
    return _assemble(payloads, checks, jobs, progress)
