"""Dominance reports, enumeration, the oracle table, and energy search."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys

import pytest

from specdom import (BrouwerViolationError, ThresholdGraph, energy_witness,
                     enumerate_threshold, max_energy_threshold, std_constructive,
                     std_oracle, threshold_columns, threshold_count,
                     threshold_energy)
from specdom import builders, dominance, spectra
from specdom.builders import (ExtremalPlan, brouwer_extremal, format_threshold,
                              threshold_spectrum)
from specdom.cli import main
from specdom.enumeration import _blocks, _json_text, _threshold_text
from specdom.graphs import (Graph, complete_plus_isolated, cycle,
                            from_edge_list)
from specdom.partitions import conjugate_counts


def effective_bound(n, m, k):
    return min(k * n, m + k * (k + 1) // 2, 2 * m)


# sha256 of the reprs of ``_constructive_witnesses(n, m)`` for n = 1..30 and
# m = 0..n(n-1)/2 in that order; the witnesses are part of every report
WITNESS_DIGEST = "225d2be663373ebc461716855cce573585705204e3e0bb7885859c8f1c51c64b"


def check_witness_spectra(n, m):
    """Each witness of the (n, m) table, through ``threshold_spectrum``:
    a threshold graph with m edges whose prefix at k is the bound."""
    spectra_of = {}
    for w in dominance._constructive_witnesses(n, m):
        if w.cols not in spectra_of:
            assert ThresholdGraph(n, w.cols).m == m, (n, m, w.k)
            spectra_of[w.cols] = threshold_spectrum(n, w.cols)
        prefix = sum(spectra_of[w.cols][:w.k])
        assert prefix == w.prefix_sum == effective_bound(n, m, w.k), (n, m, w.k)


def threshold_lines(n, m):
    """``format_threshold`` of every ``threshold_columns(n, m)`` record,
    one per line, from the enumeration's text form."""
    return next(_threshold_text(n, (m,))) + "\n"


def json_records(n, m):
    """The enumeration's JSON form of one edge count as one string,
    without its leading newline."""
    return "".join(_json_text(n, (m,)))[1:]


def sampled_edge_counts(n):
    """0, 1, n - 1, n, M/4, M/2, 3M/4, M - 1 and M for M = n(n-1)/2."""
    top = n * (n - 1) // 2
    return sorted({0, 1, n - 1, n, top // 4, top // 2, 3 * top // 4, top - 1, top})


class TestEnumeration:
    def test_n4_m3(self):
        recs = [t.cols for t in enumerate_threshold(4, 3)]
        assert recs == [(3,), (2, 1)]

    def test_n4_all(self):
        recs = [t.cols for t in enumerate_threshold(4)]
        assert len(recs) == 8
        assert recs[0] == ()
        # edge counts ascend, columns descend lexicographically within m
        ms = [sum(c) for c in recs]
        assert ms == sorted(ms)

    def test_n1(self):
        assert [t.cols for t in enumerate_threshold(1)] == [()]

    def test_descending_lex_within_m(self):
        for n, m in ((6, 7), (7, 10), (8, 12)):
            cols = [t.cols for t in enumerate_threshold(n, m)]
            assert cols == sorted(cols, reverse=True)
            assert len(set(cols)) == len(cols)

    def test_totals_are_powers_of_two(self):
        for n in range(1, 17):
            total = sum(threshold_count(n, m)
                        for m in range(n * (n - 1) // 2 + 1))
            assert total == 2 ** (n - 1), n

    def test_counts_match_enumeration(self):
        for n in range(1, 9):
            for m in range(n * (n - 1) // 2 + 1):
                assert threshold_count(n, m) == sum(
                    1 for _ in enumerate_threshold(n, m))

    def test_parts_are_distinct_and_bounded(self):
        for t in enumerate_threshold(7):
            assert len(set(t.cols)) == len(t.cols)
            assert all(1 <= c <= 6 for c in t.cols)

    def test_every_record_is_threshold(self):
        for t in enumerate_threshold(6):
            g = t.realize()
            assert g.degree_sequence().is_threshold()

    def test_blocks_equal_per_record_lines(self):
        for n in range(1, 15):
            for m in range(n * (n - 1) // 2 + 1):
                assert threshold_lines(n, m) == "".join(
                    format_threshold(n, c) + "\n"
                    for c in threshold_columns(n, m)), (n, m)

    def test_uncached_blocks_equal_per_record_lines(self):
        # from n = 16 on, first columns above the block cache's cap of 14
        # only lengthen the head; every m for n 15..18, sampled m for n 19
        # and 20
        cases = [(n, m) for n in range(15, 19) for m in range(n * (n - 1) // 2 + 1)]
        cases += [(n, m) for n in (19, 20) for m in sampled_edge_counts(n)]
        for n, m in cases:
            assert threshold_lines(n, m) == "".join(
                format_threshold(n, c) + "\n"
                for c in threshold_columns(n, m)), (n, m)

    def test_uncached_json_records_equal_dumps(self):
        for n in range(15, 18):
            for m in sampled_edge_counts(n):
                # each record as an item of the top-level "records" array
                assert json_records(n, m) == ",\n".join(
                    "    " + json.dumps(list(c), indent=2).replace("\n", "\n    ")
                    for c in threshold_columns(n, m)), (n, m)

    @pytest.mark.parametrize("n, m", [(0, 0), (4, 7), (4, -1)])
    def test_blocks_reject_what_columns_reject(self, n, m):
        with pytest.raises(ValueError):
            threshold_lines(n, m)
        with pytest.raises(ValueError):
            next(threshold_columns(n, m))

    def test_block_cache_stays_small(self, capsys):
        assert main(["enumerate-threshold", "20"]) == 0
        assert capsys.readouterr().out.endswith("count: 524288\n")
        cached = sum(sys.getsizeof(b) for b in _blocks.values())
        assert 0 < cached < 1_000_000


class TestStdReports:
    def test_c8_constructive(self):
        rep = std_constructive(cycle(8))
        assert rep.gmb.holds and rep.brouwer.holds and rep.std.holds
        assert rep.brouwer.worst_k == 3
        assert abs(rep.brouwer.min_margin - (6 - 2 * math.sqrt(2))) < 1e-9

    def test_c8_oracle_agrees(self):
        ro = std_oracle(cycle(8))
        rc = std_constructive(cycle(8))
        assert ro.std.holds == rc.std.holds
        for a, b in zip(ro.per_k(), rc.per_k()):
            assert a.k == b.k
            assert a.best_threshold_prefix == b.best_threshold_prefix

    def test_oracle_maxima_equal_formula(self):
        # best threshold prefix over all same-size thresholds is the
        # three-way minimum, for every feasible (n, m, k) up to n=10
        for n in range(1, 11):
            for m in range(n * (n - 1) // 2 + 1):
                assert list(threshold_columns(n, m)) == \
                    [t.cols for t in enumerate_threshold(n, m)], (n, m)
                g = None
                for t in enumerate_threshold(n, m):
                    g = t.realize()
                    break
                if g is None:
                    continue
                rep = std_oracle(g)
                for entry in rep.per_k():
                    assert entry.best_threshold_prefix == \
                        effective_bound(n, m, entry.k), (n, m, entry.k)

    def test_oracle_table_matches_threshold_graphs(self):
        # first record, in enumeration order, to reach each per-k maximum
        for n in range(1, 9):
            for m in range(n * (n - 1) // 2 + 1):
                maxima, cols = [0] * n, [()] * n
                for t in enumerate_threshold(n, m):
                    for i, p in enumerate(t.spectrum_prefix()):
                        if p > maxima[i]:
                            maxima[i], cols[i] = p, t.cols
                assert dominance._oracle_table(n, m) == \
                    (tuple(maxima), tuple(cols)), (n, m)

    def test_threshold_graph_attains_equality(self):
        t = ThresholdGraph(8, (5, 4, 3, 2, 1))
        rep = std_constructive(t.realize())
        assert rep.std.holds
        assert abs(rep.std.min_margin) < 1e-9

    def test_witnesses_are_the_extremal_graphs(self):
        for n in range(1, 13):
            for m in range(n * (n - 1) // 2 + 1):
                assert dominance._constructive_witnesses(n, m) == tuple(
                    dominance.DominanceWitness(k, brouwer_extremal(n, m, k).cols,
                                               effective_bound(n, m, k))
                    for k in range(1, n + 1)), (n, m)

    def test_witness_prefixes_reach_the_bound_through_n24(self):
        for n in range(1, 25):
            for m in range(n * (n - 1) // 2 + 1):
                check_witness_spectra(n, m)

    def test_witness_prefixes_reach_the_bound_to_n512(self):
        rng = random.Random(512)
        pairs = [(512, 17_611), (512, 65_001), (512, 105_154), (512, 130_816)]
        for _ in range(12):
            n = rng.randint(25, 512)
            pairs.append((n, rng.randint(0, n * (n - 1) // 2)))
        for n, m in pairs:
            check_witness_spectra(n, m)

    def test_witness_tables_are_pinned_through_n30(self):
        digest = hashlib.sha256()
        for n in range(1, 31):
            for m in range(n * (n - 1) // 2 + 1):
                digest.update(repr(dominance._constructive_witnesses(n, m)).encode())
        assert digest.hexdigest() == WITNESS_DIGEST

    def test_witness_tables_build_no_spectrum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a witness table built a threshold graph or spectrum")

        for module in (dominance, builders):
            monkeypatch.setattr(module, "ThresholdGraph", refuse)
            monkeypatch.setattr(module, "threshold_spectrum", refuse)
        for n, m in ((1, 0), (8, 12), (30, 0), (30, 435), (512, 17_611), (512, 105_154)):
            table = dominance._constructive_witnesses.__wrapped__(n, m)
            assert [w.prefix_sum for w in table] == [
                effective_bound(n, m, k) for k in range(1, n + 1)]

    @pytest.mark.parametrize("at, wrong", [
        (2, {"case": 1}), (2, {"case": 3}), (2, {"h": 2}), (5, {"h": 5})])
    def test_a_plan_short_of_its_bound_raises(self, monkeypatch, at, wrong):
        # at (8, 12) the plan at k = 2 is case 2 with h = 7, r = 1, and at
        # k = 5 case 3 with h = 4, r = 2; each change breaks the condition
        # under which the plan's columns reach its bound
        plan_of = dominance.brouwer_extremal_plan

        def bent(n, m, k):
            plan = plan_of(n, m, k)
            return dataclasses.replace(plan, **wrong) if k == at else plan

        assert plan_of(8, 12, 2) == ExtremalPlan(2, 7, 1, 15)
        assert plan_of(8, 12, 5) == ExtremalPlan(3, 4, 2, 24)
        monkeypatch.setattr(dominance, "brouwer_extremal_plan", bent)
        with pytest.raises(AssertionError, match=f"k={at}"):
            dominance._constructive_witnesses.__wrapped__(8, 12)

    def test_witnesses_have_matching_size(self):
        rep = std_constructive(cycle(7))
        for w in rep.witnesses:
            t = ThresholdGraph(rep.n, w.cols)
            assert t.m == rep.m
            assert w.prefix_sum == t.spectrum_prefix()[w.k - 1]

    def test_per_k_merges_all_bounds(self):
        rep = std_constructive(cycle(6))
        rows = rep.per_k()
        assert [r.k for r in rows] == list(range(1, 7))
        for r in rows:
            assert r.gmb_bound >= r.eig_sum - 1e-7
            assert r.brouwer_bound >= r.eig_sum - 1e-7
            assert r.effective_bound == effective_bound(6, 6, r.k)

    def test_report_ids(self):
        rep = std_constructive(cycle(5), graph_id="tag")
        assert rep.graph_id == "tag"


class TestEnergyWitness:
    def test_c8(self):
        t, (le_g, le_t) = energy_witness(cycle(8))
        assert abs(le_g - (4 + 4 * math.sqrt(2))) < 1e-10
        assert le_t >= le_g - 1e-8
        assert abs(threshold_energy(t) - le_t) < 1e-12

    def test_edgeless(self):
        t, (le_g, le_t) = energy_witness(Graph(5, 0))
        assert t.cols == () and le_g == le_t == 0.0

    def test_threshold_self_energy(self):
        t = ThresholdGraph(9, (6, 5, 4, 3, 2, 1))
        assert abs(threshold_energy(t) - 28.0) < 1e-12

    def test_random_graphs_dominated(self):
        rng = random.Random(117)
        for _ in range(120):
            n = rng.randint(1, 8)
            g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
            t, (le_g, le_t) = energy_witness(g)
            assert t.m == g.m
            assert le_t >= le_g - 1e-8

    def test_shortfall_raises_after_the_confirmer(self, monkeypatch):
        calls = []
        solve = spectra.jacobi_eigenvalues_batch

        def counting(matrices, **kwargs):
            calls.append(len(matrices))
            return solve(matrices, **kwargs)

        monkeypatch.setattr(spectra, "jacobi_eigenvalues_batch", counting)
        with pytest.raises(BrouwerViolationError):
            energy_witness(cycle(8), tol=-100)
        assert calls

    def test_matches_report_through_n5(self):
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                g = Graph(n, bits)
                r = std_constructive(g)
                assert energy_witness(g) == (
                    ThresholdGraph(n, r.energy_witness_cols), r.energy_pair), (n, bits)


class TestMaxEnergy:
    def test_small_fixtures(self):
        t3, le3 = max_energy_threshold(3)
        assert t3.cols == (2, 1) and abs(le3 - 4.0) < 1e-12
        t4, _ = max_energy_threshold(4)
        assert t4.cols == (2, 1)

    def test_n9_and_n12_clique_sizes(self):
        for n, c in ((9, 7), (12, 9)):
            t, _ = max_energy_threshold(n)
            assert t.cols == tuple(range(c - 1, 0, -1)), (n, t.cols)

    def test_n9_energy(self):
        _, le = max_energy_threshold(9)
        assert abs(le - 28.0) < 1e-8

    def test_clique_form_through_n12(self):
        for n in range(1, 13):
            t, _ = max_energy_threshold(n)
            f = t.trace
            assert t.cols == tuple(range(f, 0, -1)), (n, t.cols)

    def test_column_spectrum_is_conjugate_degrees(self):
        for n in range(1, 13):
            for t in enumerate_threshold(n):
                assert threshold_spectrum(n, t.cols) == conjugate_counts(
                    t.degree_sequence().values, n)

    def test_matches_spectrum_ints_search(self):
        # the search over conjugate degrees that the column scoring replaced
        for n in range(1, 15):
            best_score, best_cols = -1, ()
            for t in enumerate_threshold(n):
                spec = conjugate_counts(t.degree_sequence().values, n)
                score = sum(abs(n * v - 2 * t.m) for v in spec)
                if score > best_score or (score == best_score and t.cols < best_cols):
                    best_score, best_cols = score, t.cols
            assert max_energy_threshold(n) == (ThresholdGraph(n, best_cols),
                                               best_score / n), n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            max_energy_threshold(21)
        with pytest.raises(ValueError):
            max_energy_threshold(0)


class TestGuards:
    def test_oracle_guard_on_huge_enumeration(self):
        # 40 vertices, 300 edges: over 10^9 threshold graphs share (n, m)
        assert threshold_count(40, 300) > 10 ** 7
        edges = [(i, j) for i in range(1, 26) for j in range(i + 1, 26)]
        g = from_edge_list(40, edges[:300])
        with pytest.raises(ValueError, match="guard"):
            std_oracle(g)

    def test_oracle_accepts_sparse_large_graph(self):
        # same vertex count, one edge: a single threshold graph, no guard
        rep = std_oracle(complete_plus_isolated(2, 40))
        assert rep.std.holds

    def test_violation_error_is_value_error(self):
        assert issubclass(BrouwerViolationError, Exception)
