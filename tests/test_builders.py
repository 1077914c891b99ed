"""Threshold graph constructions and their integer spectra.

The exact prefix-sum targets come from the closed forms they are
required to attain; cross-checks realize each construction as a graph
and re-derive everything from degrees.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from specdom import (ThresholdGraph, brouwer_extremal, brouwer_extremal_plan,
                     clique_plus_isolated_threshold, complement_threshold,
                     cycle_dominator, cycle_spectrum, from_below_columns,
                     from_creation_sequence, parse_threshold, pineapple,
                     realize, spectrum_of, split_dominator, union_merge)
from specdom.graphs import Graph, disjoint_union, from_edge_list


def effective_bound(n, m, k):
    return min(k * n, m + k * (k + 1) // 2, 2 * m)


class TestThresholdGraph:
    def test_degree_reconstruction(self):
        t = ThresholdGraph(8, (4, 3, 1))
        assert tuple(t.degree_sequence()) == (4, 4, 3, 3, 2, 0, 0, 0)
        assert t.m == 8
        assert t.trace == 3

    def test_spectrum_is_conjugate(self):
        t = ThresholdGraph(8, (4, 3, 1))
        assert t.spectrum_ints() == (5, 5, 4, 2, 0, 0, 0, 0)
        assert t.spectrum_prefix() == (5, 10, 14, 16, 16, 16, 16, 16)

    def test_realize_matches_declared_degrees(self):
        rng = random.Random(31137)
        for _ in range(300):
            n = rng.randint(1, 12)
            t = ThresholdGraph(n, _random_cols(rng, n))
            g = t.realize()
            assert tuple(sorted(g.degrees(), reverse=True)) == tuple(t.degree_sequence())
            assert g.m == t.m
            assert g.degree_sequence().is_threshold()

    def test_realized_spectrum_matches_integers(self):
        # numeric eigenvalues equal the conjugate degrees
        from specdom import eigenvalues
        t = ThresholdGraph(8, (4, 3, 1))
        numeric = eigenvalues(t.realize()).values
        for a, b in zip(numeric, t.spectrum_ints()):
            assert abs(a - b) < 1e-9

    def test_serialize_round_trip(self):
        for text in ("8: 4 3 1", "3: 2 1", "5:", "300: 299 256 255 7"):
            t = parse_threshold(text)
            assert t.serialize() == text
            assert parse_threshold(t.serialize()) == t

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            ThresholdGraph(4, (3, 3))
        with pytest.raises(ValueError):
            ThresholdGraph(4, (4,))
        with pytest.raises(ValueError):
            ThresholdGraph(4, (2, 2))
        with pytest.raises(ValueError):
            ThresholdGraph(4, (0,))

    def test_value_object_over_any_int_sequence(self):
        forms = [ThresholdGraph(8, [4, 3, 1]), ThresholdGraph(8, (4, 3, 1)),
                 ThresholdGraph(8, np.array([4, 3, 1]))]
        for t in forms:
            assert t == forms[0] and hash(t) == hash(forms[0])
            assert t.cols == (4, 3, 1) and all(type(c) is int for c in t.cols)
        with pytest.raises(dataclasses.FrozenInstanceError):
            forms[0].cols = (5,)

    def test_from_below_columns_strips_nothing(self):
        t = from_below_columns(6, (5, 3))
        assert tuple(t.degree_sequence()) == (5, 4, 2, 2, 2, 1)

    def test_creation_sequence_triangle(self):
        # each d joins to everything so far, so "idd" is the triangle
        t = from_creation_sequence("idd")
        assert tuple(t.degree_sequence()) == (2, 2, 2) and t.m == 3

    def test_creation_sequence_star(self):
        t = from_creation_sequence("iiid")
        assert tuple(t.degree_sequence()) == (3, 1, 1, 1)

    def test_every_creation_sequence_is_threshold(self):
        for length in range(1, 9):
            for ops in itertools.product("id", repeat=length - 1):
                t = from_creation_sequence("i" + "".join(ops))
                g = realize(t)
                assert g.degree_sequence().is_threshold()
                assert tuple(sorted(g.degrees(), reverse=True)) == tuple(t.degree_sequence())


class TestBrouwerExtremal:
    def test_worked_example_case_labels(self):
        for k in range(1, 9):
            plan = brouwer_extremal_plan(8, 15, k)
            want = 1 if k <= 2 else (2 if k <= 5 else 3)
            assert plan.case == want, (k, plan.case)

    def test_worked_example_parameters(self):
        p4 = brouwer_extremal_plan(8, 15, 4)
        assert (p4.case, p4.h, p4.r) == (2, 6, 1)
        p7 = brouwer_extremal_plan(8, 15, 7)
        assert (p7.case, p7.h, p7.r) == (3, 5, 0)

    def test_worked_example_prefixes(self):
        for k in range(1, 9):
            t = brouwer_extremal(8, 15, k)
            assert t.spectrum_prefix()[k - 1] == effective_bound(8, 15, k)

    def test_case2_k4_conjugate_prefix(self):
        t = brouwer_extremal(8, 15, 4)
        assert t.cols == (6, 4, 3, 2)
        assert t.spectrum_ints()[:4] == (7, 6, 6, 6)

    def test_case3_k7_regular_spectrum(self):
        t = brouwer_extremal(8, 15, 7)
        assert t.spectrum_ints() == (6, 6, 6, 6, 6, 0, 0, 0)

    def test_case2_h_r_shape(self):
        # conjugate degrees are r copies of h+1 then k-r copies of h
        t = brouwer_extremal(8, 8, 3)
        plan = brouwer_extremal_plan(8, 8, 3)
        assert plan.case == 2
        conj = t.spectrum_ints()
        h, r = plan.h, plan.r
        assert conj[:3] == tuple([h + 1] * r + [h] * (3 - r))

    def test_attains_bound_exhaustive(self):
        # every feasible (n, m, k) with n <= 12 attains the closed form
        for n in range(1, 13):
            cap = n * (n - 1) // 2
            for m in range(cap + 1):
                for k in range(1, n + 1):
                    t = brouwer_extremal(n, m, k)
                    assert t.n == n and t.m == m
                    assert t.spectrum_prefix()[k - 1] == effective_bound(n, m, k), \
                        (n, m, k, t.cols)

    def test_edgeless(self):
        t = brouwer_extremal(6, 0, 3)
        assert t.cols == () and t.m == 0

    def test_edgeless_every_size_and_position(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert brouwer_extremal(n, 0, k).cols == (), (n, k)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            brouwer_extremal(4, 7, 2)
        with pytest.raises(ValueError):
            brouwer_extremal(4, 3, 0)
        with pytest.raises(ValueError):
            brouwer_extremal(4, 3, 5)


class TestSplitDominator:
    # 6-node split graph with degrees (4,4,3,2,2,1): clique {1,2,3},
    # independent {4,5,6}
    def sample_split(self):
        return from_edge_list(
            6, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 6)])

    def test_small_k_keeps_below_shape(self):
        t = split_dominator(self.sample_split(), 2)
        assert t.serialize() == "6: 5 3"
        assert tuple(t.degree_sequence()) == (5, 4, 2, 2, 2, 1)

    def test_equal_sum_at_trace(self):
        g = self.sample_split()
        f = g.degree_sequence().trace()
        assert f == 3
        t = split_dominator(g, f)
        assert t.spectrum_prefix()[f - 1] == g.m + f * (f + 1) // 2

    def test_large_k_fill(self):
        t = split_dominator(self.sample_split(), 3)
        assert t.cols == (4, 3, 1)

    def test_threshold_input_is_fixed_point_below_trace(self):
        # a threshold graph's own below columns survive the small-k path
        t0 = ThresholdGraph(8, (5, 3, 2))
        g = t0.realize()
        for k in range(1, t0.trace):
            t = split_dominator(g, k)
            assert t.cols == t0.cols

    def test_non_split_rejected(self):
        from specdom.graphs import cycle
        with pytest.raises(ValueError):
            split_dominator(cycle(4), 2)

    def test_partition_level_large_k_instance(self):
        # Ferrers diagram with rows (6,3,3,3,2,1): m=9, f=3; the fill
        # yields columns (4,3,2) and degree rows (4,4,4,3,3)
        m, f = 9, 3
        q, s = divmod(m - f * (f + 1) // 2, f)
        cols = tuple((f - r + 1) + q + (1 if s >= r else 0)
                     for r in range(1, f + 1))
        assert cols == (4, 3, 2)
        t = ThresholdGraph(7, cols)
        assert tuple(t.degree_sequence()) == (4, 4, 4, 3, 3, 0, 0)
        assert t.spectrum_prefix()[f - 1] == m + f * (f + 1) // 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            split_dominator(self.sample_split(), 0)
        with pytest.raises(ValueError):
            split_dominator(self.sample_split(), 7)


class TestUnionMerge:
    def test_fixture(self):
        t = union_merge([parse_threshold("3: 2 1"), parse_threshold("4: 3")])
        assert t.n == 7 and t.cols == (5, 1)

    def test_prefix_dominates_disjoint_union(self):
        a, b = parse_threshold("3: 2 1"), parse_threshold("4: 3")
        merged = union_merge([a, b])
        union_vals = sorted(list(a.spectrum_ints()) + list(b.spectrum_ints()),
                            reverse=True)
        union_prefix = list(itertools.accumulate(union_vals))
        for pk, uk in zip(merged.spectrum_prefix(), union_prefix):
            assert pk >= uk

    def test_single_input_identity(self):
        t = parse_threshold("6: 4 2 1")
        assert union_merge([t]) == t

    def test_edge_count_preserved(self):
        rng = random.Random(8080)
        for _ in range(200):
            parts = []
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 8)
                cols = _random_cols(rng, n)
                parts.append(ThresholdGraph(n, cols))
            merged = union_merge(parts)
            assert merged.n == sum(p.n for p in parts)
            assert merged.m == sum(p.m for p in parts)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            union_merge([])


class TestComplement:
    def test_fixture(self):
        t = clique_plus_isolated_threshold(8)
        comp = complement_threshold(t)
        assert spectrum_of(comp).values == (8.0, 8.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0)

    def test_matches_graph_complement(self):
        from specdom.graphs import complement as graph_complement
        rng = random.Random(6021)
        for _ in range(200):
            n = rng.randint(1, 10)
            t = ThresholdGraph(n, _random_cols(rng, n))
            comp = complement_threshold(t)
            cg = graph_complement(t.realize())
            assert tuple(sorted(cg.degrees(), reverse=True)) == tuple(comp.degree_sequence())

    def test_eigenvalue_reflection_exhaustive(self):
        # lambda_i of the complement is n minus lambda_{n-i} for i < n
        from specdom.dominance import enumerate_threshold
        for n in range(1, 9):
            for t in enumerate_threshold(n):
                vals = t.spectrum_ints()
                cvals = complement_threshold(t).spectrum_ints()
                for i in range(n - 1):
                    assert cvals[i] == n - vals[n - 2 - i], (t.cols, i)
                assert cvals[n - 1] == 0


class TestCycleDominator:
    def test_octagon_instance(self):
        t = cycle_dominator(8)
        assert t.cols == (4, 3, 1)
        assert t.spectrum_prefix() == (5, 10, 14, 16, 16, 16, 16, 16)

    def test_small_instances(self):
        assert cycle_dominator(9).cols == (4, 3, 2)
        assert cycle_dominator(12).cols == (5, 4, 3)
        assert cycle_dominator(40).cols == (9, 8, 7, 6, 5, 4, 1)

    def test_edge_count_matches_cycle(self):
        for n in range(8, 200):
            assert cycle_dominator(n).m == n

    def test_dominance_over_analytic_spectrum(self):
        for n in (8, 9, 16, 33, 100, 257):
            t = cycle_dominator(n)
            cyc = cycle_spectrum(n).prefix_sums()
            pref = t.spectrum_prefix()
            for k in range(n):
                assert pref[k] >= cyc[k] - 1e-7, (n, k)

    def test_integer_dominance_floor(self):
        # prefix sums attain min(4k, 2n), a bound no cycle prefix exceeds
        for n in range(8, 300):
            t = cycle_dominator(n)
            pref = t.spectrum_prefix()
            for k in range(1, n + 1):
                assert pref[k - 1] >= min(4 * k, 2 * n), (n, k)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            cycle_dominator(7)


class TestPineapple:
    def test_fixture(self):
        t = pineapple(8, 6)
        assert tuple(t.degree_sequence()) == (7, 5, 5, 5, 5, 5, 1, 1)
        assert t.m == 17

    def test_realizes_as_clique_plus_pendants(self):
        t = pineapple(7, 4)
        g = realize(t)
        degs = sorted(g.degrees(), reverse=True)
        # one apex of full degree, clique interior, pendant leaves
        assert degs[0] == 6
        assert degs[1:4] == [3, 3, 3]
        assert degs[4:] == [1, 1, 1]

    def test_q_equals_n_is_complete(self):
        t = pineapple(5, 5)
        assert tuple(t.degree_sequence()) == (4, 4, 4, 4, 4)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pineapple(5, 1)
        with pytest.raises(ValueError):
            pineapple(5, 6)


class TestCliqueIsolated:
    def test_formula_sizes(self):
        for n, c in ((9, 7), (12, 9)):
            t = clique_plus_isolated_threshold(n)
            assert t.cols == tuple(range(c - 1, 0, -1)), (n, t.cols)

    def test_small_n_clamped(self):
        t = clique_plus_isolated_threshold(2)
        assert t.n == 2 and t.cols == (1,)

    def test_realization_shape(self):
        t = clique_plus_isolated_threshold(9)
        g = realize(t)
        degs = sorted(g.degrees(), reverse=True)
        assert degs == [6] * 7 + [0] * 2


def _random_cols(rng, n):
    cols = []
    limit = n - 1
    i = 1
    while limit >= 1 and rng.random() < 0.7:
        c = rng.randint(1, min(limit, n - i))
        cols.append(c)
        limit = c - 1
        i += 1
    return tuple(cols)
