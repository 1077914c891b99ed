"""Bulk scanning of graph streams against spectral bounds.

This module only chunks the input, calls ``spectra.verdicts`` and
assembles events: the edge-bit order and the graph6 batch reader belong
to ``graphs``, and the Laplacian and the margins to ``spectra``.

The stream is cut into chunks lazily, as the scan needs them.  A binary
stream, the command line's file or stdin, is read into a bytes buffer and
cut after a line end (a newline or a lone CR) found there by numpy: a
chunk ends after CHUNK lines or at ``CHUNK_BYTES`` bytes, whichever comes
first, so no line becomes an object in this process and a chunk of large
graphs holds only a few.
Other iterables, of str or bytes lines, go CHUNK items to a chunk, each
item given a final newline.  The chunk's text travels as is; the worker
decodes bytes as UTF-8 with surrogateescape, splits the text by
``str.splitlines`` and returns its line count, and errors are numbered
from a running count of lines, so every form of the input numbers the
same lines.  At most 2 x jobs chunks are in flight at once (one worker
unless the caller asks for more, at most ``MAX_JOBS``), so memory does
not grow with the input.  A record in a chunk is keyed once, by its line
offset, and events and errors are numbered from that key.  Every chunk is
processed by the same batched path (``spectra.verdicts``: per stack
of at most 2^20 matrix entries, ``spectra.laplacians`` on the edge-bit
rows, one batched LAPACK eigvalsh, exact integer bounds and the margin
rows bound - prefix), each record's worst k, margin and verdict, a
violation or a near equality, are read off the stack's ``Verdicts``, and
chunk results are reassembled in input order.
The summary is therefore byte-identical whatever the worker count; wall
time (from the first line read) and worker count are reported separately
and never enter the deterministic payload.

A chunk is columnar from input to events.  ``graphs._g6_groups``, the
reader ``analyze`` shares, buckets its graph6 texts by length and decodes
each bucket at once by ``graphs.decode_graph6_batch``: one (B, L) array
of character codes, validated and unpacked into (B, P) edge-bit rows by
numpy.  Records that path does not take (multi-byte headers, the
``>>graph6<<`` prefix, anything malformed) go through ``decode_graph6``,
the one writer of graph6 error messages; ``graphs.bit_rows`` unpacks
those records, and the edge masks of generated chunks, as Python ints,
into the same rows.
A chunk's events are arrays (position, check, k, margin, violation flag)
ordered by position and check.  A chunk returns only the events the
summary can list: its payload carries, when it is sent, how many near
equalities can still be listed, and the chunk returns its near count,
every violation and at most that many near equalities.  A record's text
is cut out of the chunk or, for a generated chunk, encoded by
``graphs.encode_graph6_batch``.  The listed events come back as the
blocks their section of the summary stores: slices of at most ``SLICE``,
each one marshalled block of columns (record texts, check names, k,
margins), so no event becomes an object here; errors are numbered here
and stored the same way.  A section keeps ``SPOOL_BUDGET`` bytes of
blocks in memory and writes the rest to an unnamed temporary file
(about 57 bytes per ``##bad##`` line's error), so the memory of a scan
does not grow with the events it lists either; the objects are built
as the summary is read.

Inside ``verify``, a record that some check flags as a violation is
confirmed once, all its checks together: the flagged records of a stack
are re-solved by the Jacobi confirmer at a 100x tighter tolerance, one
matrix at a time, and every check of such a record reads its margin from
that spectrum.  Margins that land back inside the tolerance are demoted to
near-equality events.
"""

from __future__ import annotations

import io
import marshal
import sys
import time
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator

from .graphs import CHUNK, _g6_groups, bit_rows, encode_graph6_batch
from .spectra import CHECKS, DEFAULT_TOL, verdicts

# numpy is imported after the package's own modules: loading it first
# raised the peak RSS of analyze by about 0.5 MB
import numpy as np

NEAR_CAP = 10000
GEN_ALL_MAX = 7
# listed events or errors per stored block, and the bytes of blocks one
# section of a summary keeps in memory before it writes them to a file
SLICE = 1024
SPOOL_BUDGET = 1 << 20
# the most bytes of a binary stream in one chunk, unless its one line is
# longer: 4,096 records on up to 12 nodes still make one chunk, and a chunk
# of large graphs holds a few, so its memory does not grow with n^2 x CHUNK
CHUNK_BYTES = 1 << 16
# the most workers a scan starts; a larger --jobs is refused before any
# input is read, as its window of 2 x jobs chunks would be unbounded
MAX_JOBS = 256


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


class _Section(Sequence):
    """A read-only list of ``kind`` objects, stored as marshalled blocks of
    columns (one sequence per field) and built only as they are read.

    Blocks stay in memory until they would pass ``SPOOL_BUDGET`` bytes;
    later blocks go to one unnamed temporary file and are read back whole
    by their (offset, length), so iterations may interleave.  marshal
    round-trips floats bit for bit and strings with lone surrogates.
    """

    def __init__(self, kind):
        self._kind = kind
        self._blocks: list = []     # bytes, or (offset, length) in _file
        self._ends: list[int] = []  # item count up to the end of each block
        self._held = 0
        self._file = None

    def append(self, *columns: Sequence) -> None:
        """Store one block: equal-length columns, one per field of ``kind``."""
        self.append_block(len(columns[0]), marshal.dumps(columns))

    def append_block(self, count: int, data: bytes) -> None:
        """Store one block of ``count`` items, its columns marshalled."""
        if self._file is None and self._held + len(data) > SPOOL_BUDGET:
            import tempfile
            import weakref
            self._file = tempfile.TemporaryFile()
            weakref.finalize(self, self._file.close)
        if self._file is None:
            self._held += len(data)
            self._blocks.append(data)
        else:
            self._blocks.append((self._file.seek(0, 2), len(data)))
            self._file.write(data)
        self._ends.append(len(self) + count)

    def _columns(self, block) -> tuple:
        if isinstance(block, tuple):
            self._file.seek(block[0])
            block = self._file.read(block[1])
        return marshal.loads(block)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for block in self._blocks:
            yield from map(self._kind, *self._columns(block))

    def __getitem__(self, i: int):
        i = range(len(self))[i]
        b = bisect_right(self._ends, i)
        i -= self._ends[b - 1] if b else 0
        return self._kind(*(column[i] for column in self._columns(self._blocks[b])))


@dataclass
class ScanSummary:
    """Deterministic scan results plus volatile run facts.

    ``stdout_text`` depends only on the input stream and the checks;
    ``stderr_text`` carries wall time and worker count.  A scan's
    ``violations``, ``near`` and ``errors`` are read-only sequences that
    build each object as it is read; each keeps its first
    ``SPOOL_BUDGET`` bytes of events in memory and the rest in a
    temporary file, about 57 bytes per ``##bad##`` line's error.  Plain
    lists serve as well.
    """

    records: int
    checks: tuple[str, ...]
    violations: Sequence[Violation]
    near_count: int
    near: Sequence[NearEquality]
    errors: Sequence[RecordError]
    wall_time: float
    jobs: int

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        if self.violations:
            return 1
        return 0

    def stdout_lines(self) -> Iterator[str]:
        """The lines of ``stdout_text``, without their newlines."""
        yield f"records: {self.records}"
        yield f"checks: {','.join(self.checks)}"
        yield f"violations: {len(self.violations)}"
        for v in self.violations:
            yield f"VIOLATION {v.record} check={v.check} k={v.k} margin={v.margin:.12g}"
        yield f"near-equality: {self.near_count}"
        for e in self.near:
            yield f"NEAR {e.record} check={e.check} k={e.k} margin={e.margin:.12g}"
        if self.near_count > len(self.near):
            yield f"(near-equality list capped at {NEAR_CAP})"
        yield f"errors: {len(self.errors)}"
        for err in self.errors:
            yield f"ERROR line {err.line}: {err.message}"

    def stdout_text(self) -> str:
        return "".join(f"{line}\n" for line in self.stdout_lines())

    def stderr_text(self) -> str:
        worker = "worker" if self.jobs == 1 else "workers"
        return (f"scanned {self.records} records in {self.wall_time:.1f}s "
                f"({self.jobs} {worker})\n")


def _scan_chunk(payload) -> tuple[int, int, int, list, list, list]:
    """Process one chunk; returns (lines, records, near count, violations,
    near, errors).

    A payload is (checks, tol, near_cap, "g6", text) for a stream chunk,
    its text str or UTF-8 bytes, or (checks, tol, near_cap, "gen", n,
    start, stop) for the masks start..stop - 1 on n nodes.  ``violations``
    holds every violation of the chunk and ``near`` its first ``near_cap``
    near equalities, ordered by record and check, each as blocks of at
    most SLICE events: (count, marshalled columns of record texts, check
    names, k and margins), as a summary's section stores them.  ``lines``
    is the chunk's line count and errors are (line offset, message),
    numbered from 0 at the chunk's first line.
    """
    checks, tol, near_cap, kind = payload[:4]
    if kind == "g6":
        data = payload[4]
        if isinstance(data, bytes):
            data = data.decode("utf-8", "surrogateescape")
        lines = data.splitlines()
        groups, errors = _g6_groups((i, text) for i, raw in enumerate(lines)
                                    if (text := raw.strip()))

        def texts(positions):
            return [lines[p].strip() for p in positions]
    else:
        n, start, stop = payload[4:]
        lines = ()
        groups, errors = {n: (np.arange(stop - start), bit_rows(n, range(start, stop)))}, []

        def texts(positions):
            return encode_graph6_batch(n, bit_rows(n, [start + p for p in positions]))
    records = 0
    found = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0), np.zeros(0, bool))]
    for n, (pos, rows) in sorted(groups.items()):
        records += len(pos)
        for v in verdicts(n, rows, checks, tol):
            for ci, check in enumerate(checks):
                violated = v.violated[check]
                hit = np.flatnonzero(violated | v.near_equal[check])
                found.append((pos[v.part][hit], np.full(len(hit), ci), v.worst_k[check][hit],
                              v.min_margin[check][hit], violated[hit]))
    pos, check, k, margin, violation = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((check, pos))
    pos, check, k, margin, violation = (col[order] for col in (pos, check, k, margin, violation))
    near_at = np.flatnonzero(~violation)

    def blocks(at):
        return [(len(part), marshal.dumps((texts(pos[part].tolist()),
                                           [checks[c] for c in check[part].tolist()],
                                           k[part].tolist(), margin[part].tolist())))
                for part in (at[i:i + SLICE] for i in range(0, len(at), SLICE))]

    return (len(lines), records, len(near_at), blocks(np.flatnonzero(violation)),
            blocks(near_at[:near_cap]), errors)


def _validate_checks(checks: Iterable[str]) -> tuple[str, ...]:
    out = []
    for c in checks:
        if c not in CHECKS:
            raise ValueError(f"unknown check {c!r}, expected one of {CHECKS}")
        if c not in out:
            out.append(c)
    if not out:
        raise ValueError("at least one check is required")
    return tuple(out)


def _resolve_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")
    if jobs > MAX_JOBS:
        raise ValueError(f"worker count must be between 1 and {MAX_JOBS}")
    return jobs


def _stream_chunks(lines: Iterable) -> Iterator[tuple]:
    """The chunks of a graph6 stream, ("g6", text), cut only as they are
    pulled; each chunk ends on a line break, so the chunks' lines, split
    by ``str.splitlines``, are those of the whole text.

    A binary stream is cut by ``_byte_chunks``.  Other items, bytes lines
    as a binary file yields them or str lines, go CHUNK to a chunk, joined
    with one final newline each if they have none, so no two items run
    together.
    """
    if isinstance(lines, (io.BufferedIOBase, io.RawIOBase)):
        yield from _byte_chunks(lines)
        return
    lines = iter(lines)
    while chunk := list(islice(lines, CHUNK)):
        if isinstance(chunk[0], bytes):
            yield "g6", b"\n".join(map(bytes.removesuffix, chunk, repeat(b"\n"))) + b"\n"
        else:
            yield "g6", "\n".join(map(str.removesuffix, chunk, repeat("\n"))) + "\n"


def _line_ends(buf: bytes):
    """Offsets of the bytes in ``buf`` that surely end a line: each newline,
    and each CR whose next byte is in ``buf`` and is not a newline."""
    codes = np.frombuffer(buf, np.uint8)
    ends = codes == 10
    ends[:-1] |= (codes[:-1] == 13) & (codes[1:] != 10)
    return np.flatnonzero(ends)


def _byte_chunks(stream) -> Iterator[tuple]:
    """A binary stream's chunks, ("g6", bytes): each ends after a line end
    of ``_line_ends`` or at the end of the stream, and holds at most CHUNK
    line ends and at most CHUNK_BYTES bytes, unless its one line is longer.

    The line ends are found by numpy in a buffer, so no line becomes an
    object here.  Each decodes to a line break, also after an invalid
    byte, and ends any line break it is part of, so no cut splits a line.
    """
    buf, eof = b"", False
    while True:
        while not eof and len(buf) < CHUNK_BYTES:
            block = stream.read(CHUNK_BYTES - len(buf))
            eof = not block
            buf += block
        if not buf:
            return
        ends = _line_ends(buf)
        if len(ends) >= CHUNK:
            cut = int(ends[CHUNK - 1]) + 1
        elif eof:
            cut = len(buf)
        elif len(ends):
            cut = int(ends[-1]) + 1
        else:
            # a line longer than the budget is a chunk of its own; a CR
            # that ends the last part read is a line end unless LF follows
            parts, cut = [buf], len(buf)
            while block := stream.read(CHUNK_BYTES):
                ends = _line_ends(parts[-1][-1:] + block)
                parts.append(block)
                if len(ends):
                    cut += int(ends[0])
                    break
                cut += len(block)
            buf = b"".join(parts)
        yield "g6", buf[:cut]
        buf = buf[cut:]


def Pool(jobs: int):
    """``multiprocessing.Pool(jobs)``; multiprocessing is imported here,
    when a scan first starts workers, and not by a scan that starts none."""
    from multiprocessing import Pool

    return Pool(jobs)


def _run_chunks(payloads: Iterator, jobs: int) -> Iterator[tuple]:
    """The result of each chunk, in input order.

    Input that fits in one chunk, or one job, runs in this process.
    Otherwise a pool of ``jobs`` workers starts once a second chunk is
    seen, and at most 2 x jobs chunks are in flight: the next payload is
    pulled only when the oldest result has come back.
    """
    head = list(islice(payloads, 2))
    if jobs == 1 or len(head) < 2:
        yield from map(_scan_chunk, chain(head, payloads))
        return
    payloads = chain(head, payloads)
    with Pool(jobs) as pool:
        def submit(payload):
            return pool.apply_async(_scan_chunk, (payload,))

        window = deque(map(submit, islice(payloads, 2 * jobs)))
        while window:
            result = window.popleft().get()
            # refill first, so the workers stay busy while the result is
            # assembled here
            window.extend(map(submit, islice(payloads, 1)))
            yield result


def _extend(section: _Section, blocks: list, limit: int) -> None:
    """Store the first ``limit`` items of (count, marshalled columns)
    blocks in ``section``."""
    for count, data in blocks:
        if count > limit:
            if limit > 0:
                section.append(*(column[:limit] for column in marshal.loads(data)))
            return
        section.append_block(count, data)
        limit -= count


def _assemble(chunks: Iterator, checks: tuple[str, ...], tol: float, jobs: int,
              progress: bool, started: float, total: int | None = None) -> ScanSummary:
    """Scan the chunks and fold their results into one summary; ``total``
    is the chunk count when it is known ahead, for the progress lines."""
    records = 0
    violations = _Section(Violation)
    near_count = 0
    near = _Section(NearEquality)
    errors = _Section(RecordError)
    first = 1
    # a payload is made as it is sent, with how many near events can still
    # be listed; a chunk sent before the results ahead of it came back may
    # return more than that, and the rest are only counted
    payloads = ((checks, tol, NEAR_CAP - len(near), *chunk) for chunk in chunks)
    for done, (lines, count, near_found, listed, near_listed, errs) in enumerate(
            _run_chunks(payloads, jobs), start=1):
        records += count
        near_count += near_found
        _extend(violations, listed, sys.maxsize)
        _extend(near, near_listed, NEAR_CAP - len(near))
        for start in range(0, len(errs), SLICE):
            offsets, messages = zip(*errs[start:start + SLICE])
            errors.append([first + i for i in offsets], messages)
        first += lines
        if progress:
            seen = f"{done}/{total} chunks" if total else f"{done} chunks, {records} records"
            print(f"progress: {seen}", file=sys.stderr)
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


def scan_graph6_lines(lines: Iterable[str] | Iterable[bytes], *,
                      checks: Iterable[str] = ("brouwer",),
                      jobs: int = 1, tol: float = DEFAULT_TOL,
                      progress: bool = False) -> ScanSummary:
    """Scan a stream of graph6 lines; blank lines are skipped but counted
    for error line numbers.

    ``lines`` is a binary stream (``io.BufferedIOBase`` or
    ``io.RawIOBase``, such as a file opened "rb"), read in blocks of at
    most ``CHUNK_BYTES``; or str items, one line each with or without its
    newline, or bytes lines as a binary file yields them.  Bytes are
    decoded as UTF-8 with surrogateescape, and every form splits like
    ``str.splitlines``, so a text-mode file, a binary file and the command
    line number the same lines.  They are read lazily, a chunk at a time.
    """
    started = time.monotonic()
    checks = _validate_checks(checks)
    jobs = _resolve_jobs(jobs)
    return _assemble(_stream_chunks(lines), checks, tol, jobs, progress, started)


def scan_all_graphs(n: int, *, checks: Iterable[str] = ("brouwer",),
                    jobs: int = 1, tol: float = DEFAULT_TOL,
                    progress: bool = False) -> ScanSummary:
    """Scan every labelled graph on n nodes (n <= 7, 2^21 graphs at most)."""
    if not 1 <= n <= GEN_ALL_MAX:
        raise ValueError(f"exhaustive scan needs 1 <= n <= {GEN_ALL_MAX}, got n={n}")
    started = time.monotonic()
    checks = _validate_checks(checks)
    jobs = _resolve_jobs(jobs)
    total = 1 << (n * (n - 1) // 2)
    chunks = (("gen", n, a, min(a + CHUNK, total)) for a in range(0, total, CHUNK))
    return _assemble(chunks, checks, tol, jobs, progress, started, -(-total // CHUNK))
