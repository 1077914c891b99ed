"""Conjugate sequences, trace, split and threshold recognition.

Oracles here are deliberately naive: double loops over Ferrers boxes
and brute-force bipartition search, so the fast implementations are
checked against something independently simple.
"""

import itertools
import random

import pytest

from specdom import (ConjugateSequence, DegreeSequence, below_columns,
                     conjugate, is_split, is_threshold, trace)
from specdom.graphs import Graph


def conjugate_oracle(parts, length):
    """Column counts by walking every box of the Ferrers diagram."""
    out = [0] * length
    for p in parts:
        for i in range(min(p, length)):
            out[i] += 1
    return tuple(out)


def trace_oracle(parts):
    f = 0
    for i, p in enumerate(sorted(parts, reverse=True), start=1):
        if p >= i:
            f = i
    return f


def split_oracle_graph(g):
    """Brute-force: some vertex subset induces a clique whose complement
    side is independent."""
    n = g.n
    verts = range(1, n + 1)
    for size in range(n + 1):
        for clique in itertools.combinations(verts, size):
            cs = set(clique)
            if not all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2)):
                continue
            rest = [v for v in verts if v not in cs]
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(rest, 2)):
                return True
    return False


def is_graphical(seq):
    """Erdos-Gallai test on a nonincreasing sequence."""
    d = sorted(seq, reverse=True)
    if sum(d) % 2 or any(v < 0 for v in d):
        return False
    n = len(d)
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(v, k) for v in d[k:])
        if lhs > rhs:
            return False
    return True


class TestConjugate:
    def test_fixture(self):
        d = DegreeSequence([4, 4, 3, 3, 2, 0, 0, 0])
        assert tuple(d.conjugate()) == (5, 5, 4, 2, 0, 0, 0, 0)

    def test_matches_box_walk_exhaustive(self):
        for n in range(1, 8):
            for d in itertools.combinations_with_replacement(range(n), n):
                seq = DegreeSequence(sorted(d, reverse=True))
                assert tuple(seq.conjugate()) == conjugate_oracle(seq.values, n)

    def test_involution_on_partitions(self):
        # conjugating twice restores the padded nonincreasing sequence
        for n in range(1, 11):
            for d in itertools.combinations_with_replacement(range(n), min(n, 6)):
                padded = sorted(d, reverse=True) + [0] * (n - min(n, 6))
                seq = DegreeSequence(padded)
                conj = seq.conjugate()
                back = conjugate_oracle(tuple(conj), n)
                assert back == seq.values

    def test_conjugate_sequence_round_trip(self):
        c = ConjugateSequence([5, 5, 4, 2, 0, 0, 0, 0])
        assert tuple(c.conjugate()) == (4, 4, 3, 3, 2, 0, 0, 0)

    def test_prefix_sums(self):
        c = ConjugateSequence([5, 5, 4, 2, 0, 0, 0, 0])
        assert c.prefix_sums() == (5, 10, 14, 16, 16, 16, 16, 16)

    def test_all_zero(self):
        d = DegreeSequence([0, 0, 0])
        assert tuple(d.conjugate()) == (0, 0, 0)
        assert d.trace() == 0

    def test_conjugate_counted_once_per_sequence(self, monkeypatch):
        import specdom.partitions as partitions

        calls = []
        counts = partitions.conjugate_counts

        def counting(parts, length):
            calls.append(length)
            return counts(parts, length)

        monkeypatch.setattr(partitions, "conjugate_counts", counting)
        d = DegreeSequence([4, 4, 3, 3, 2, 0, 0, 0])
        for _ in range(2):
            assert tuple(d.conjugate()) == (5, 5, 4, 2, 0, 0, 0, 0)
            assert d.trace() == 3
            assert d.is_split() and d.is_threshold()
            assert d.below_columns() == (4, 3, 1)
        assert calls == [8]

    def test_free_function_accepts_plain_lists(self):
        assert tuple(conjugate([2, 2, 2])) == (3, 3, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DegreeSequence([3, 0, 0])
        with pytest.raises(ValueError):
            DegreeSequence([-1, 0, 0])


class TestTrace:
    def test_fixture(self):
        assert trace([4, 4, 3, 3, 2, 0, 0, 0]) == 3

    def test_matches_oracle(self):
        rng = random.Random(411)
        for _ in range(300):
            n = rng.randint(1, 12)
            seq = sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
            assert trace(seq) == trace_oracle(seq)

    def test_complete_graph(self):
        for n in range(2, 8):
            assert trace([n - 1] * n) == n - 1


class TestSplit:
    def test_fixture_split(self):
        # triangle with pendant: clique {1,2,3}, independent {4}
        assert is_split([3, 2, 2, 1])

    def test_c4_not_split(self):
        assert not is_split([2, 2, 2, 2])

    def test_c5_not_split(self):
        assert not is_split([2, 2, 2, 2, 2])

    def test_matches_bipartition_search_exhaustive_n5(self):
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                g = Graph(n, bits)
                assert g.degree_sequence().is_split() == split_oracle_graph(g), bits

    def test_matches_bipartition_search_all_n7(self):
        # full 2^21 sweep, vectorized on both sides
        from vector_helpers import (all_graph_bits, sorted_degree_rows,
                                    split_rows_bipartition, split_rows_hs)
        for n in range(1, 8):
            masks = all_graph_bits(n)
            by_degrees = split_rows_hs(sorted_degree_rows(masks, n))
            by_structure = split_rows_bipartition(masks, n)
            diff = by_degrees != by_structure
            assert not diff.any(), (n, masks[diff][:5])

    def test_vector_split_matches_library_sampled(self):
        # ties the vectorized oracle back to the scalar library routine
        rng = random.Random(1889)
        for _ in range(300):
            bits = rng.randrange(1 << 21)
            g = Graph(7, bits)
            assert g.degree_sequence().is_split() == split_oracle_graph(g), bits

    def test_box_count_identity(self):
        # above-plus-diagonal box count equals below count exactly when split
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 10)
            seq = DegreeSequence(sorted((rng.randint(0, n - 1) for _ in range(n)),
                                        reverse=True))
            f = seq.trace()
            above = sum(seq.values[i] - i for i in range(f))
            below = sum(seq.conjugate()[i] - (i + 1) for i in range(f))
            assert (above == below) == seq.is_split()


class TestThreshold:
    def test_threshold_examples(self):
        assert is_threshold([3, 2, 2, 1])
        assert is_threshold([0, 0])
        assert is_threshold([4, 3, 2, 2, 1])
        assert not is_threshold([2, 2, 2, 2])
        assert not is_threshold([1, 1, 1, 1])

    def test_conjugate_shift_characterization(self):
        # d*_i = d_i + 1 for i <= f, checked directly
        rng = random.Random(2025)
        for _ in range(400):
            n = rng.randint(1, 10)
            seq = DegreeSequence(sorted((rng.randint(0, n - 1) for _ in range(n)),
                                        reverse=True))
            f = seq.trace()
            conj = seq.conjugate()
            expect = all(conj[i] == seq.values[i] + 1 for i in range(f))
            assert seq.is_threshold() == expect

    def test_threshold_implies_split_on_graphical_sequences(self):
        for n in range(1, 9):
            for d in itertools.combinations_with_replacement(range(n), n):
                seq = sorted(d, reverse=True)
                if not is_graphical(seq):
                    continue
                if is_threshold(seq):
                    assert is_split(seq), seq


class TestBelowColumns:
    def test_fixture(self):
        assert below_columns([4, 4, 3, 3, 2, 0, 0, 0]) == (4, 3, 1)

    def test_total_is_below_box_count(self):
        rng = random.Random(7341)
        for _ in range(300):
            n = rng.randint(1, 12)
            seq = DegreeSequence(sorted((rng.randint(0, n - 1) for _ in range(n)),
                                        reverse=True))
            cols = seq.below_columns()
            f = seq.trace()
            conj = seq.conjugate()
            assert cols == tuple(conj[i] - (i + 1) for i in range(f))

    def test_edgeless(self):
        assert below_columns([0, 0, 0, 0]) == ()
