"""Graph container, constructors, edge lists, and the graph6 codec."""

import itertools
import random
import time

import numpy as np
import pytest

from specdom import (Graph, Graph6Error, GraphInputError, complement,
                     complete, complete_plus_isolated, cycle, decode_graph6,
                     disjoint_union, encode_graph6, format_edge_list,
                     from_edge_list, iter_graph6, parse_edge_list)
from specdom.graphs import bit_rows, encode_graph6_batch
from specdom.spectra import laplacian


class TestConstructors:
    def test_cycle(self):
        g = cycle(5)
        assert g.n == 5 and g.m == 5
        assert sorted(g.degrees()) == [2] * 5
        assert g.has_edge(1, 2) and g.has_edge(5, 1)
        assert not g.has_edge(1, 3)

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_complete(self):
        g = complete(6)
        assert g.m == 15
        assert all(g.has_edge(u, v)
                   for u, v in itertools.combinations(range(1, 7), 2))

    def test_complete_plus_isolated(self):
        g = complete_plus_isolated(4, 7)
        assert g.n == 7 and g.m == 6
        assert sorted(g.degrees(), reverse=True) == [3, 3, 3, 3, 0, 0, 0]

    def test_complete_plus_isolated_degenerate(self):
        assert complete_plus_isolated(0, 3).m == 0
        assert complete_plus_isolated(1, 3).m == 0

    def test_complete_plus_isolated_is_clique_pairs(self):
        for n in range(1, 13):
            for c in range(n + 1):
                clique = itertools.combinations(range(1, c + 1), 2)
                assert complete_plus_isolated(c, n) == from_edge_list(n, clique)

    def test_from_edge_list(self):
        g = from_edge_list(4, [(1, 2), (2, 3), (2, 3)])
        assert g.m == 2

    def test_from_edge_list_rejects_self_loop(self):
        with pytest.raises(GraphInputError, match="3"):
            from_edge_list(4, [(3, 3)])

    def test_from_edge_list_rejects_out_of_range(self):
        with pytest.raises(GraphInputError, match="5"):
            from_edge_list(4, [(1, 5)])

    def test_degree_sum_is_twice_edges(self):
        rng = random.Random(52)
        for _ in range(200):
            n = rng.randint(1, 10)
            bits = rng.randrange(1 << (n * (n - 1) // 2))
            g = Graph(n, bits)
            assert sum(g.degrees()) == 2 * g.m

    def test_complement_involution(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1, 9)
            g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
            assert complement(complement(g)) == g
            assert g.m + complement(g).m == n * (n - 1) // 2

    def test_disjoint_union_edge_count(self):
        rng = random.Random(54)
        for _ in range(100):
            parts = []
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 6)
                parts.append(Graph(n, rng.randrange(1 << (n * (n - 1) // 2))))
            u = disjoint_union(parts)
            assert u.n == sum(p.n for p in parts)
            assert u.m == sum(p.m for p in parts)
            assert sorted(u.degrees()) == sorted(
                d for p in parts for d in p.degrees())

    def test_disjoint_union_associative_on_degrees(self):
        a, b, c = cycle(3), complete(4), cycle(5)
        left = disjoint_union([disjoint_union([a, b]), c])
        right = disjoint_union([a, disjoint_union([b, c])])
        assert left == right


class TestGraph6Fixtures:
    # hand-decoded records:
    #   "@"    n=1, no bits
    #   "A_"   n=2, single edge
    #   "Bw"   n=3, bits 111 -> triangle
    #   "D?{"  n=5, star centered at the last vertex
    #   "Dhc"  n=5, the 5-cycle 1-2-3-4-5-1 relabeled per column order
    def test_k1(self):
        g = decode_graph6("@")
        assert (g.n, g.m) == (1, 0)

    def test_single_edge(self):
        g = decode_graph6("A_")
        assert (g.n, g.m) == (2, 1) and g.has_edge(1, 2)

    def test_triangle(self):
        g = decode_graph6("Bw")
        assert (g.n, g.m) == (3, 3)

    def test_star(self):
        g = decode_graph6("D?{")
        assert sorted(g.edges()) == [(1, 5), (2, 5), (3, 5), (4, 5)]

    def test_five_cycle(self):
        g = decode_graph6("Dhc")
        assert g.n == 5 and g.m == 5 and sorted(g.degrees()) == [2] * 5

    def test_header_prefix_allowed(self):
        g = decode_graph6(">>graph6<<Bw")
        assert (g.n, g.m) == (3, 3)

    def test_multibyte_n(self):
        g = complete(70)
        text = encode_graph6(g)
        assert text.startswith("~")
        back = decode_graph6(text)
        assert back == g

    def test_encode_fixtures(self):
        assert encode_graph6(Graph(1, 0)) == "@"
        assert encode_graph6(complete(3)) == "Bw"
        assert encode_graph6(cycle(5)) == "Dhc"


class TestGraph6Errors:
    def test_nonzero_padding_rejected(self):
        # "Dhd" flips a padding bit of the valid record "Dhc"
        with pytest.raises(Graph6Error, match="byte"):
            decode_graph6("Dhd")

    def test_character_out_of_range(self):
        with pytest.raises(Graph6Error, match="byte 1"):
            decode_graph6("B" + chr(20))

    def test_truncated_body(self):
        with pytest.raises(Graph6Error, match="needs"):
            decode_graph6("D?")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            decode_graph6("Bw?")

    def test_empty(self):
        with pytest.raises(Graph6Error):
            decode_graph6("")

    def test_node_limit_read_from_size_header(self):
        # "D?" is n = 5 with a truncated body, so the size is checked first
        with pytest.raises(Graph6Error) as err:
            decode_graph6("D?", max_n=4)
        assert str(err.value) == "byte 0: n=5 exceeds the 4-node limit"
        assert decode_graph6("Dhc", max_n=5).n == 5

    @pytest.mark.parametrize("record, max_n", [
        ("", None),        # empty record
        ("B#", None),      # character outside 63..126
        ("~??", None),     # truncated 4-byte size header
        ("~~???", None),   # truncated 8-byte size header
        ("D?", 4),         # node limit
        ("?", None),       # node count 0
        ("Bw?", None),     # body length
        ("Dhd", None),     # nonzero padding
    ])
    def test_prefix_counts_in_offsets(self, record, max_n):
        def fault(text):
            with pytest.raises(Graph6Error) as err:
                decode_graph6(text, max_n)
            offset, rest = str(err.value).split(":", 1)
            assert offset.startswith("byte ")
            return int(offset[5:]), rest

        offset, rest = fault(record)
        assert fault(">>graph6<<" + record) == (offset + 10, rest)


class TestGraph6RoundTrip:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                g = Graph(n, bits)
                assert decode_graph6(encode_graph6(g)) == g

    def test_sampled_to_n12(self):
        rng = random.Random(5150)
        for _ in range(500):
            n = rng.randint(1, 12)
            g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
            assert decode_graph6(encode_graph6(g)) == g

    def test_batch_encoder_matches_encode_graph6(self):
        rng = random.Random(6262)
        for n in range(1, 63):
            graphs = [Graph(n, rng.getrandbits(n * (n - 1) // 2)) for _ in range(7)]
            graphs.append(Graph(n, (1 << (n * (n - 1) // 2)) - 1))
            rows = bit_rows(n, [g.bits for g in graphs])
            assert encode_graph6_batch(n, rows) == [encode_graph6(g) for g in graphs], n
        assert encode_graph6_batch(5, bit_rows(5, [])) == []

    def test_iter_graph6_skips_blanks(self):
        lines = ["Bw", "", "  ", "Dhc"]
        out = list(iter_graph6(lines))
        assert [g.n for g in out] == [3, 5]


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle(6)
        back = parse_edge_list(format_edge_list(g))
        assert back == g

    def test_parse_basic(self):
        g = parse_edge_list("3 2\n1 2\n2 3\n")
        assert g.m == 2 and g.has_edge(1, 2) and g.has_edge(2, 3)

    def test_count_mismatch(self):
        with pytest.raises(GraphInputError, match="line"):
            parse_edge_list("3 2\n1 2\n")

    def test_bad_pair_line_number(self):
        with pytest.raises(GraphInputError, match="line 3"):
            parse_edge_list("4 2\n1 2\nbogus\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphInputError, match="line 2"):
            parse_edge_list("3 1\n1 9\n")

    def test_empty_input(self):
        with pytest.raises(GraphInputError):
            parse_edge_list("")

    def test_node_limit_read_from_header(self):
        # the edge line past the header is never read
        with pytest.raises(GraphInputError) as err:
            parse_edge_list("\n9 1\nbogus\n", max_n=8)
        assert str(err.value) == "line 2: n=9 exceeds the 8-node limit"
        assert parse_edge_list("8 1\n1 2\n", max_n=8).n == 8

    @pytest.mark.parametrize("text, message", [
        ("3 3\n1 2\n1 2\n1 2\n", "line 3: duplicate edge (1, 2)"),
        ("3 2\n1 2\n2 1\n", "line 3: duplicate edge (2, 1)"),
        ("4 3\n\n1 2\n3 4\n\n4 3\n", "line 6: duplicate edge (4, 3)"),
    ])
    def test_duplicate_pair_rejected(self, text, message):
        # a repeated pair would make the graph's m differ from the header's
        with pytest.raises(GraphInputError) as err:
            parse_edge_list(text)
        assert str(err.value) == message
        # the constructor still collapses it
        assert from_edge_list(4, [(1, 2), (2, 1), (1, 2)]).m == 1


class TestBitCodec:
    """graph6, the edge walk and edge-list packing against references that
    share none of their bit conversion: the Laplacian goes through
    ``bit_rows``'s little-endian bytes."""

    # 4-byte graph6 headers; 63 pads its last body byte, 64 fills it
    NS = (63, 64, 100, 257)

    @staticmethod
    def seeded(n, seed):
        return Graph(n, random.Random(seed).getrandbits(n * (n - 1) // 2))

    def test_round_trip_four_byte_header(self):
        for n in self.NS:
            g = self.seeded(n, n)
            text = encode_graph6(g)
            assert text[0] == "~" and len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
            assert decode_graph6(text) == g

    def test_walk_matches_laplacian(self):
        for n in self.NS:
            g = self.seeded(n, n + 1)
            lap = laplacian(g)
            rows, cols = np.nonzero(np.triu(lap, 1) == -1.0)
            assert g.edges() == list(zip((rows + 1).tolist(), (cols + 1).tolist()))
            assert g.degrees() == tuple(int(d) for d in np.diag(lap))

    def test_masked_edges_match_laplacian(self):
        # the edges come off the sorted bit-text walk at every n, 62 nodes included
        for n in (1, 2, 7, 30, 61, 62):
            for seed in range(5):
                g = self.seeded(n, seed)
                rows, cols = np.nonzero(np.triu(laplacian(g), 1) == -1.0)
                assert g.edges() == list(zip((rows + 1).tolist(), (cols + 1).tolist()))

    def test_packing_paths_agree(self):
        for n in self.NS:
            g, h = self.seeded(n, n + 2), self.seeded(n // 2, n + 3)
            assert from_edge_list(n, g.edges()) == g
            assert parse_edge_list(format_edge_list(g)) == g
            shifted = [(u + n, v + n) for u, v in h.edges()]
            assert disjoint_union([g, h]).edges() == g.edges() + shifted

    def test_padding_error_names_last_byte(self):
        # n = 63: 1953 bits, so the last of 326 body bytes has 3 padding bits
        text = encode_graph6(self.seeded(63, 7))
        bad = text[:-1] + chr(ord(text[-1]) + 1)
        with pytest.raises(Graph6Error, match=f"^byte {len(text) - 1}: nonzero padding"):
            decode_graph6(bad)

    def test_n1000_budget(self):
        # every conversion is linear in the 499,500 bits; a per-bit loop
        # over a big int takes over a minute here
        n = 1000
        g = self.seeded(n, 1000)
        started = time.perf_counter()
        assert decode_graph6(encode_graph6(g)) == g
        edges = g.edges()
        assert len(edges) == g.m
        assert sum(g.degrees()) == 2 * g.m
        assert from_edge_list(n, edges) == g
        assert parse_edge_list(format_edge_list(g)) == g
        assert disjoint_union([g, g]).m == 2 * g.m
        assert time.perf_counter() - started < 10.0
