"""Streaming and exhaustive scans: counters, events, exit codes, parallelism."""

import hashlib
import marshal
import math
import random
import time

import numpy as np
import pytest

from specdom import scan, spectra
from specdom.graphs import (Graph, Graph6Error, decode_graph6,
                            decode_graph6_batch, encode_graph6)
from specdom.scan import (CHUNK, GEN_ALL_MAX, MAX_JOBS, NEAR_CAP, ScanSummary, _g6_groups,
                          _resolve_jobs, _validate_checks,
                          scan_all_graphs, scan_graph6_lines)
from specdom.spectra import laplacian, laplacians, verify

C8 = "GhCGKC"
K6_PLUS_2 = "G~~w??"


class TestStreams:
    def test_three_records(self):
        s = scan_graph6_lines(["Bw", C8, "Dhc"])
        assert s.records == 3
        assert s.exit_code == 0
        assert not s.violations and not s.errors

    def test_empty_stream(self):
        s = scan_graph6_lines([])
        assert s.records == 0
        assert s.exit_code == 0
        assert "records: 0" in s.stdout_text()

    def test_blank_lines_skipped_but_numbered(self):
        s = scan_graph6_lines(["", "Bw", "", "Dhc"])
        assert s.records == 2
        assert not s.errors
        # a bad record after blanks reports its true line number
        s2 = scan_graph6_lines(["", "Dhd"])
        assert s2.records == 0
        assert s2.errors[0].line == 2
        assert "padding" in s2.errors[0].message

    def test_records_counts_only_analyzed(self):
        s = scan_graph6_lines(["Bw", "##bad##", "Dhc"])
        assert s.records == 2
        assert len(s.errors) == 1
        assert s.errors[0].line == 2
        assert s.exit_code == 2

    def test_error_wins_over_violation_in_exit_code(self):
        s = scan_graph6_lines([K6_PLUS_2, "##bad##"], tol=-0.5)
        assert s.violations and s.errors
        assert s.exit_code == 2

    def test_stdout_reports_error_lines(self):
        s = scan_graph6_lines(["Bw", "##bad##"])
        out = s.stdout_text()
        assert "errors: 1" in out
        assert "ERROR line 2:" in out

    def test_wall_time_covers_reading(self):
        def slow_lines():
            time.sleep(0.2)
            yield "Bw"

        s = scan_graph6_lines(slow_lines())
        assert s.wall_time >= 0.2
        assert s.stdout_text() == scan_graph6_lines(["Bw"]).stdout_text()


class TestEvents:
    def test_equality_shows_as_near(self):
        # complete graph on 6 plus 2 isolated meets the edge bound at k=5
        s = scan_graph6_lines([K6_PLUS_2])
        assert s.exit_code == 0
        assert s.near_count == 1
        e = s.near[0]
        assert (e.record, e.check, e.k) == (K6_PLUS_2, "brouwer", 5)
        assert abs(e.margin) < 1e-9

    def test_negative_tolerance_forces_violation(self):
        s = scan_graph6_lines([K6_PLUS_2], tol=-0.5)
        assert s.exit_code == 1
        v = s.violations[0]
        assert (v.record, v.check, v.k) == (K6_PLUS_2, "brouwer", 5)

    def test_cycle8_minimum_margin_confirmed(self):
        # true minimum 6 - 2*sqrt(2) at k=3; tol=-4 drags it below zero
        s = scan_graph6_lines([C8], tol=-4.0)
        v = s.violations[0]
        assert v.k == 3
        assert math.isclose(v.margin, 6 - 2 * math.sqrt(2), abs_tol=1e-9)

    def test_std_violation_confirmed(self):
        # the std bound meets S_k = 2m = 16 at k = 7 and 8, margin zero
        s = scan_graph6_lines([C8], checks=("std",), tol=-4.0)
        v = s.violations[0]
        assert v.check == "std" and v.k in (7, 8)
        assert abs(v.margin) < 1e-9

    def test_one_event_per_record_and_check(self):
        # with tol=-4 both checks flag each copy exactly once, at the argmin k
        s = scan_graph6_lines([C8, C8], checks=("gmb", "brouwer"), tol=-4.0)
        by_check = {}
        for v in s.violations:
            by_check[v.check] = by_check.get(v.check, 0) + 1
        assert by_check == {"gmb": 2, "brouwer": 2}

    def test_near_listing_in_stdout(self):
        s = scan_graph6_lines([K6_PLUS_2])
        out = s.stdout_text()
        assert "near-equality: 1" in out
        assert f"NEAR {K6_PLUS_2} check=brouwer k=5" in out


def bit_row(n, bits):
    return [(bits >> p) & 1 for p in range(n * (n - 1) // 2)]


def d_minus_a(g):
    """D - A of a graph, written entry by entry from its edge list."""
    mat = [[0.0] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        mat[u - 1][v - 1] = mat[v - 1][u - 1] = -1.0
        mat[u - 1][u - 1] += 1.0
        mat[v - 1][v - 1] += 1.0
    return np.array(mat)


def worst_per_check(n, rows, checks, tol=spectra.DEFAULT_TOL):
    """Per check, (min margin, worst k) arrays read off verify's margin rows."""
    margins = verify(laplacians(n, rows), checks, tol)[3]
    return {check: (row.min(axis=1), row.argmin(axis=1) + 1)
            for check, row in margins.items()}


class TestKernel:
    def test_scattered_laplacians_match_scalar(self):
        rng = random.Random(77)
        # n = 100 runs the one-row path through a 4950-bit integer
        for n, count in ((1, 5), (2, 5), (7, 5), (30, 5), (62, 5), (100, 1)):
            graphs = [Graph(n, rng.getrandbits(n * (n - 1) // 2)) for _ in range(count)]
            rows = np.array([bit_row(n, g.bits) for g in graphs], dtype=np.uint8)
            stack = laplacians(n, rows)
            for g, lap in zip(graphs, stack):
                want = d_minus_a(g)
                assert np.array_equal(lap, want)
                # bytes, not just values: eigvalsh rounds by the sign of a
                # zero, so one graph's Laplacian is its scattered row
                assert laplacian(g).tobytes() == lap.tobytes()

    def test_empty_batch(self):
        rows = np.zeros((0, 21), dtype=np.uint8)
        assert laplacians(7, rows).shape == (0, 7, 7)
        per_check = worst_per_check(7, rows, ("gmb", "brouwer", "std"))
        for margins, ks in per_check.values():
            assert margins.shape == ks.shape == (0,)

    def test_n150_record(self):
        # n = 150: an edge-basis Laplacian build would need a 2 GB stack
        n = 150
        g = Graph(n, random.Random(150).getrandbits(n * (n - 1) // 2))
        s = scan_graph6_lines([encode_graph6(g)], checks=("gmb", "brouwer", "std"))
        assert s.records == 1
        assert not s.errors and not s.violations


# A stream of every kind of record the batch decoder must hand back to
# decode_graph6, around valid ones: blank lines, a non-ASCII character, a
# lone surrogate (as stdin's surrogateescape yields), a byte below 63,
# wrong body lengths, a nonzero padding bit, the >>graph6<< prefix, a
# 4-byte header (n = 63), the n = 0 header "?", n = 1 ("@"), a line longer
# than any one-byte-header record, and records of one length whose
# headers differ ("Bw", "C~", "A_").
MIXED = ["Bw", "", "C~", "   ", "A_", "B\u00e9", "Dh:", "Dhcc", "Dh", "Dhd",
         ">>graph6<<Dhc", encode_graph6(Graph(63, random.Random(63).getrandbits(1953))),
         "?", "@", "A", "~", "G~~w??", ">>graph6<<", "Dhc", "GhCGKC", "Ch",
         "B" + "w" * 400, "B\udcff"]


class TestBatchDecode:
    def test_bit_rows_match_decoder(self):
        rng = random.Random(6262)
        for n in range(1, 63):
            nbits = n * (n - 1) // 2
            graphs = [Graph(n, rng.getrandbits(nbits) if nbits else 0)
                      for _ in range(4)]
            texts = [encode_graph6(g) for g in graphs]
            ok, ns, bits = decode_graph6_batch(texts, len(texts[0]))
            assert ok.all() and (ns == n).all()
            want = np.array([bit_row(n, g.bits) for g in graphs], dtype=np.uint8)
            assert np.array_equal(bits[:, :nbits], want), n
            assert not bits[:, nbits:].any()

    def test_shared_length_split_by_header(self):
        # n = 2, 3 and 4 all take one body byte
        texts = ["A_", "Bw", "C~", "Bo", "A?"]
        groups, errors = _g6_groups(list(enumerate(texts)))
        assert not errors
        assert sorted(groups) == [2, 3, 4]
        for n, (positions, rows) in groups.items():
            for p, row in zip(positions, rows):
                g = decode_graph6(texts[p])
                assert g.n == n
                assert row.tolist() == bit_row(n, g.bits)

    def test_mixed_stream_matches_decoder(self):
        checks = ("gmb", "brouwer", "std")
        s = scan_graph6_lines(MIXED, checks=checks)
        errors, nears = [], []
        for line, raw in enumerate(MIXED, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                g = decode_graph6(text)
            except Graph6Error as exc:
                errors.append(f"ERROR line {line}: {exc}")
                continue
            rows = np.array([bit_row(g.n, g.bits)], dtype=np.uint8)
            per_check = worst_per_check(g.n, rows, checks)
            for check in checks:
                margin, k = per_check[check][0][0], per_check[check][1][0]
                assert margin >= -spectra.DEFAULT_TOL
                if margin < spectra.NEAR_EQUALITY:
                    nears.append((text, check, int(k), float(margin)))
        out = s.stdout_text()
        assert [ln for ln in out.splitlines() if ln.startswith("ERROR")] == errors
        assert len(errors) == 11
        assert s.records == len([t for t in MIXED if t.strip()]) - len(errors)
        assert [(e.record, e.check, e.k, e.margin) for e in s.near] == nears
        assert not s.violations and s.exit_code == 2


def near_stream(records):
    """Seeded random graph6 records, n from 4 to 12; about two near events each."""
    rng = random.Random(2016)
    out = []
    for _ in range(records):
        n = rng.randint(4, 12)
        out.append(encode_graph6(Graph(n, rng.getrandbits(n * (n - 1) // 2))))
    return out


class TestColumnarEvents:
    # sha256 of stdout, recorded from the scanner that built one tuple per
    # event; both runs span several chunks and overflow the NEAR_CAP list
    @pytest.mark.parametrize("scan, digest", [
        (lambda jobs: scan_graph6_lines(near_stream(2 * CHUNK + 800),
                                        checks=("gmb", "brouwer", "std"), jobs=jobs),
         "1f178f7e6953c77502fe06c6cd661cf03a7166b1295b72d6e3aaea38a75731b4"),
        (lambda jobs: scan_all_graphs(6, checks=("gmb", "brouwer", "std"), jobs=jobs),
         "47dbf6a6a1f6a32b7123553533e53527a3388c463dcc7486110835bbba6bbaee"),
    ], ids=["stream", "gen-all-6"])
    def test_golden_digest(self, scan, digest):
        one = scan(1)
        assert one.near_count > NEAR_CAP and len(one.near) == NEAR_CAP
        out = one.stdout_text()
        assert f"(near-equality list capped at {NEAR_CAP})" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert scan(2).stdout_text() == out


class TestSpooledSections:
    @pytest.mark.parametrize("tol", [spectra.DEFAULT_TOL, -0.5], ids=["near", "violations"])
    def test_spilled_views_round_trip(self, monkeypatch, tol):
        checks = ("gmb", "brouwer", "std")
        lines = [encode_graph6(Graph(5, mask)).encode() for mask in range(1024)]
        lines[3:3] = [b"D\x80\x80", b"##bad##"] * 15
        # the reference: the chunk's own event columns and errors
        chunk = next(scan._stream_chunks(lines))
        _, _, _, listed, near, errs = scan._scan_chunk((checks, tol, NEAR_CAP, *chunk))
        events = [[(r, c, kk, mm.hex()) for _, data in blocks
                   for r, c, kk, mm in zip(*marshal.loads(data))] for blocks in (listed, near)]
        errs = [(line + 1, message) for line, message in errs]
        # ten items a block, the first few blocks of each section in memory
        monkeypatch.setattr(scan, "SLICE", 10)
        monkeypatch.setattr(scan, "SPOOL_BUDGET", 1000)
        s = scan_graph6_lines(lines, checks=checks, tol=tol)
        for view, want in zip((s.violations, s.near), events):
            assert len(view) == len(want) and bool(view) == bool(want)
            assert [(e.record, e.check, e.k, e.margin.hex()) for e in view] == want
            if not want:
                with pytest.raises(IndexError):
                    view[0]
                continue
            assert isinstance(view._blocks[0], bytes) and isinstance(view._blocks[-1], tuple)
            for i in (0, 11, -1):
                e = view[i]
                assert (e.record, e.check, e.k, e.margin.hex()) == want[i]
            pairs = list(zip(view, view))
            assert len(pairs) == len(want) and all(a == b for a, b in pairs)
        assert len(s.errors) == len(errs) == 30 and s.errors
        assert isinstance(s.errors._blocks[-1], tuple)
        assert [(e.line, e.message) for e in s.errors] == errs
        assert s.errors[0] == scan.RecordError(
            4, "byte 1: character '\\udc80' outside graph6 range 63..126")
        lone = scan._Section(scan.RecordError)
        lone.append([7], ["\udc80"])
        assert list(lone) == [scan.RecordError(7, "\udc80")]


def count_confirmed(monkeypatch):
    """Record the batch size of every call to the Jacobi confirmer."""
    sizes = []
    real = spectra.jacobi_eigenvalues_batch

    def counting(matrices, **kwargs):
        sizes.append(len(matrices))
        return real(matrices, **kwargs)

    monkeypatch.setattr(spectra, "jacobi_eigenvalues_batch", counting)
    return sizes


class TestConfirm:
    def test_only_flagged_rows_confirmed(self, monkeypatch):
        # K6 plus 2 isolated meets the brouwer bound at k=5, so tol=-1 flags
        # it; C8's smallest brouwer margin 6 - 2*sqrt(2) stays clear
        sizes = count_confirmed(monkeypatch)
        s = scan_graph6_lines([C8, K6_PLUS_2, C8], checks=("brouwer",), tol=-1.0)
        assert sum(sizes) == 1
        assert [(v.record, v.check, v.k) for v in s.violations] == [
            (K6_PLUS_2, "brouwer", 5)]
        rows = np.array([bit_row(8, decode_graph6(t).bits)
                         for t in (C8, K6_PLUS_2, C8)], dtype=np.uint8)
        per_check = worst_per_check(8, rows, ("brouwer",), tol=-1.0)
        margins, ks = per_check["brouwer"]
        for r in (0, 2):
            assert ks[r] == 3
            assert abs(margins[r] - (6 - 2 * math.sqrt(2))) < 1e-12

    def test_one_confirm_per_record(self, monkeypatch):
        # both checks flag each copy, but each record is re-solved once
        sizes = count_confirmed(monkeypatch)
        s = scan_graph6_lines([C8, C8], checks=("gmb", "brouwer"), tol=-4.0)
        assert sum(sizes) == 2
        assert len(s.violations) == 4


class TestExhaustive:
    def test_n_bounds(self):
        with pytest.raises(ValueError):
            scan_all_graphs(0)
        with pytest.raises(ValueError):
            scan_all_graphs(GEN_ALL_MAX + 1)

    def test_n3_record_count(self):
        s = scan_all_graphs(3)
        assert s.records == 8
        assert s.exit_code == 0

    def test_n6_deterministic_across_jobs(self):
        # 32768 graphs spread over several chunks, so workers really run
        a = scan_all_graphs(6, checks=("gmb", "brouwer"), jobs=1)
        b = scan_all_graphs(6, checks=("gmb", "brouwer"), jobs=4)
        assert a.stdout_text() == b.stdout_text()
        assert a.records == 32768
        assert a.exit_code == 0

    def test_stderr_is_volatile_only(self):
        s = scan_all_graphs(3, jobs=2)
        err = s.stderr_text()
        assert "8 records" in err
        assert "2 workers" in err


class TestConfiguration:
    def test_checks_deduplicated_in_order(self):
        assert _validate_checks(["brouwer", "gmb", "brouwer"]) == ("brouwer", "gmb")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            _validate_checks(["brouwer", "spectral"])

    def test_empty_checks_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            _validate_checks([])

    def test_one_worker_by_default(self, monkeypatch):
        # the worker count comes from the caller only, never the environment
        monkeypatch.setenv("SPECDOM_JOBS", "zero")
        assert scan_graph6_lines(["Bw"]).jobs == 1
        assert scan_all_graphs(3).jobs == 1

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            _resolve_jobs(0)

    def test_jobs_above_the_bound_refused_before_input_is_read(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        def unread():
            raise AssertionError("input was read")
            yield "Bw"

        monkeypatch.setattr(scan, "Pool", no_pool)
        assert _resolve_jobs(MAX_JOBS) == MAX_JOBS
        message = f"^worker count must be between 1 and {MAX_JOBS}$"
        with pytest.raises(ValueError, match=message):
            scan_graph6_lines(unread(), jobs=MAX_JOBS + 1)
        with pytest.raises(ValueError, match=message):
            scan_all_graphs(GEN_ALL_MAX, jobs=100_000)


class TestSummaryShape:
    def test_cap_note_appears_when_capped(self):
        s = ScanSummary(records=3, checks=("brouwer",), violations=[],
                        near_count=NEAR_CAP + 7, near=[], errors=[],
                        wall_time=0.0, jobs=1)
        out = s.stdout_text()
        assert f"near-equality: {NEAR_CAP + 7}" in out
        assert f"capped at {NEAR_CAP}" in out

    def test_exit_code_priority(self):
        from specdom.scan import RecordError, Violation

        base = dict(records=1, checks=("brouwer",), near_count=0, near=[],
                    wall_time=0.0, jobs=1)
        v = Violation("Bw", "brouwer", 1, -0.2)
        e = RecordError(4, "broken")
        assert ScanSummary(violations=[], errors=[], **base).exit_code == 0
        assert ScanSummary(violations=[v], errors=[], **base).exit_code == 1
        assert ScanSummary(violations=[v], errors=[e], **base).exit_code == 2
