"""Seeded inputs for the benchmark workloads.

Every corpus is a function of the seed alone.  Its shape is fixed: the n
histogram, the share of each kind, and one edge density per stratum of
(0.05, 0.95) in each (n, kind) group.  The seed draws the point inside each
stratum, the edges, the relabellings and the order.  So runs with different
seeds do close to the same amount of work, and the spread of a metric over
seeds is mostly the machine's.  Graphs are kept as adjacency matrices for
the oracle; the program only ever sees the graph6 text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

STREAM_RECORDS = 49152   # 12 scan chunks of 4096
STREAM_SMALL_N = range(6, 11)
STREAM_LARGE_N = range(11, 25)
STREAM_LARGE_SHARE = 0.01
STREAM_THRESHOLD_SHARE = 0.10

ANALYZE_NS = range(10, 31)
ANALYZE_PER_N = 4
ANALYZE_CYCLES = 4
ANALYZE_THRESHOLDS = 8

DENSITY_LOW, DENSITY_HIGH = 0.05, 0.95


@dataclass
class Corpus:
    """Generated graphs in file order, with the text the program reads."""

    adjacency: list[np.ndarray]
    kinds: list[str]
    densities: list[float]
    text: str

    def lines(self) -> list[str]:
        return self.text.splitlines()

    def stats(self) -> dict:
        ns = [a.shape[0] for a in self.adjacency]
        hist = {str(n): ns.count(n) for n in sorted(set(ns))}
        kinds = {k: self.kinds.count(k) for k in sorted(set(self.kinds))}
        return {
            "records": len(ns),
            "n_histogram": hist,
            "kinds": kinds,
            "threshold_share": kinds.get("threshold", 0) / len(ns),
            "density_range": [min(self.densities), max(self.densities)],
            "sha256": hashlib.sha256(self.text.encode("ascii")).hexdigest(),
        }


def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each graph6 bit: pairs (i, j), i < j, column-major."""
    iu = [(i, j) for j in range(1, n) for i in range(j)]
    if not iu:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    rows, cols = zip(*iu)
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def graph6(adj: np.ndarray) -> str:
    """Standard graph6 text of one adjacency matrix (n <= 62)."""
    n = adj.shape[0]
    rows, cols = upper_pairs(n)
    bits = adj[rows, cols].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)])
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    body = (bits.reshape(-1, 6) * weights).sum(axis=1) + 63
    return chr(n + 63) + bytes(body.astype(np.uint8)).decode("ascii")


def random_graph(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return (upper | upper.T).astype(np.uint8)


def threshold_graph(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Random creation sequence (each new node dominating with
    probability p, else isolated), randomly relabelled."""
    adj = np.zeros((n, n), dtype=np.uint8)
    for v in range(1, n):
        if rng.random() < p:
            adj[v, :v] = 1
            adj[:v, v] = 1
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


def cycle_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.uint8)
    order = rng.permutation(n)
    for a, b in zip(order, np.roll(order, -1)):
        adj[a, b] = adj[b, a] = 1
    return adj


def stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """count densities, one drawn uniformly inside each of count equal
    strata of (DENSITY_LOW, DENSITY_HIGH), in random order."""
    cells = rng.permutation(count) + rng.random(count)
    return DENSITY_LOW + (DENSITY_HIGH - DENSITY_LOW) * cells / count


def _assemble(rng: np.random.Generator, specs: list[tuple[int, str]],
              order: np.ndarray) -> Corpus:
    """Draw one graph per (n, kind) spec and write them in the given order.

    Densities are stratified within each (n, kind) group; cycles have
    their own density 2/(n-1).
    """
    groups: dict[tuple[int, str], list[int]] = {}
    for pos, spec in enumerate(specs):
        groups.setdefault(spec, []).append(pos)
    density = np.zeros(len(specs))
    for (n, kind), members in sorted(groups.items()):
        density[members] = (stratified(rng, len(members)) if kind != "cycle"
                            else 2.0 / (n - 1))
    adjacency, kinds, densities = [], [], []
    for pos in order:
        (n, kind), p = specs[pos], float(density[pos])
        if kind == "threshold":
            adj = threshold_graph(rng, n, p)
        elif kind == "cycle":
            adj = cycle_graph(rng, n)
        else:
            adj = random_graph(rng, n, p)
        adjacency.append(adj)
        kinds.append(kind)
        densities.append(p)
    text = "".join(graph6(a) + "\n" for a in adjacency)
    return Corpus(adjacency, kinds, densities, text)


def _even_interleave(rng: np.random.Generator, specs: list[tuple[int, str]]) -> np.ndarray:
    """Order in which every n group is spread evenly over the whole file,
    with random order locally: the i-th of c members of a group sits near
    position (i + u) / c of the file, u uniform in [0, 1)."""
    key = np.zeros(len(specs))
    by_n: dict[int, list[int]] = {}
    for pos, (n, _) in enumerate(specs):
        by_n.setdefault(n, []).append(pos)
    for members in by_n.values():
        ranks = rng.permutation(len(members))
        key[members] = (ranks + rng.random(len(members))) / len(members)
    return np.argsort(key, kind="stable")


def search_stream(seed: int, records: int = STREAM_RECORDS) -> Corpus:
    """Mixed-n graph6 stream: 99% n in 6..10, 1% n in 11..24, each n spread
    evenly over the file, so every scan chunk holds about the same mix;
    10% of each n are relabelled threshold graphs."""
    rng = np.random.default_rng([seed, 1])
    large = round(records * STREAM_LARGE_SHARE)
    small = records - large
    ns = [STREAM_SMALL_N[i % len(STREAM_SMALL_N)] for i in range(small)]
    ns += [STREAM_LARGE_N[i % len(STREAM_LARGE_N)] for i in range(large)]
    specs = []
    for n in sorted(set(ns)):
        count = ns.count(n)
        n_thr = round(count * STREAM_THRESHOLD_SHARE)
        specs += [(n, "threshold")] * n_thr + [(n, "random")] * (count - n_thr)
    return _assemble(rng, specs, _even_interleave(rng, specs))


def analyze_corpus(seed: int) -> Corpus:
    """Per-graph report corpus: n in 10..30, mostly random densities, plus
    a few cycles and threshold graphs, in random order."""
    rng = np.random.default_rng([seed, 2])
    ns = [n for n in ANALYZE_NS for _ in range(ANALYZE_PER_N)]
    # Spread the special kinds evenly over the n range.
    special = ["cycle"] * ANALYZE_CYCLES + ["threshold"] * ANALYZE_THRESHOLDS
    step = len(ns) / len(special)
    slot_kind = {int(i * step): kind for i, kind in enumerate(special)}
    specs = [(n, slot_kind.get(i, "random")) for i, n in enumerate(ns)]
    return _assemble(rng, specs, rng.permutation(len(specs)))
