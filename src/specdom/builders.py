"""Threshold-graph constructions and their integer spectra.

A threshold graph on n nodes is determined by the column counts of the
below-diagonal part of its Ferrers diagram: a strictly decreasing sequence
of positive integers c_1 > ... > c_f with c_i <= n - i.  Its Laplacian
eigenvalues are exactly the conjugate degrees (Merris), so every spectrum
here is integral and computed without numerics.

The builders cover the extremal constructions used to certify eigenvalue
prefix-sum bounds: greedy diagrams meeting the Brouwer bound m + k(k+1)/2,
dominators for split graphs and cycles, pineapples, and merges that add
diagrams columnwise.

Threshold graphs are listed by edge count in ``enumeration``, which
``enumerate-threshold`` loads without this module.  ``partitions`` is
imported only inside the functions that build a degree sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .enumeration import _check_edge_count, threshold_columns
from .graphs import Graph, from_edge_list

if TYPE_CHECKING:
    from .partitions import DegreeSequence


@dataclass(frozen=True)
class ThresholdGraph:
    """Threshold graph given by below-diagonal column counts.

    ``cols`` must be strictly decreasing positive integers with
    c_i <= n - i; the empty sequence is the edgeless graph.  Any sequence
    of integers is accepted and stored as a tuple of ints.
    """

    n: int
    cols: tuple[int, ...]

    def __post_init__(self):
        n, cols = self.n, tuple(int(c) for c in self.cols)
        if n < 1:
            raise ValueError(f"threshold graph needs at least one node, got n={n}")
        for idx, c in enumerate(cols, start=1):
            if c < 1:
                raise ValueError(f"column count c_{idx}={c} must be positive")
            if c > n - idx:
                raise ValueError(f"column count c_{idx}={c} exceeds n - {idx} = {n - idx}")
        for a, b in zip(cols, cols[1:]):
            if b >= a:
                raise ValueError(f"column counts must strictly decrease, got {a} then {b}")
        object.__setattr__(self, "cols", cols)

    @property
    def trace(self) -> int:
        return len(self.cols)

    @property
    def m(self) -> int:
        return sum(self.cols)

    def degree_sequence(self) -> DegreeSequence:
        """Degrees as the conjugate of the spectrum: the spectrum is the
        conjugate degree sequence, and conjugation at length n is an
        involution."""
        from .partitions import DegreeSequence, conjugate_counts

        spectrum = threshold_spectrum(self.n, self.cols)
        return DegreeSequence(conjugate_counts(spectrum, self.n), self.n)

    def spectrum_ints(self) -> tuple[int, ...]:
        """Laplacian eigenvalues: the conjugate degrees, nonincreasing."""
        return threshold_spectrum(self.n, self.cols)

    def spectrum_prefix(self) -> tuple[int, ...]:
        """Cumulative eigenvalue sums for k = 1..n, exact integers."""
        return tuple(accumulate(self.spectrum_ints()))

    def realize(self) -> Graph:
        """Concrete labelled graph: node i has the i-th largest degree.

        With degrees sorted nonincreasing, i < j are joined exactly when
        d_j >= i; for threshold sequences this realises the sequence.
        """
        d = self.degree_sequence().values
        pairs = [(i, j) for i in range(1, self.n + 1)
                 for j in range(i + 1, self.n + 1) if d[j - 1] >= i]
        return from_edge_list(self.n, pairs)

    def serialize(self) -> str:
        """Text form "n: c_1 c_2 ... c_f" (just "n:" when edgeless)."""
        return format_threshold(self.n, self.cols)


def format_threshold(n: int, cols: Sequence[int]) -> str:
    """Text form "n: c_1 c_2 ... c_f" of columns ("n:" when empty).

    The one writer of the format that ``parse_threshold`` reads.
    """
    return f"{n}:{''.join([f' {c}' for c in cols])}"


def threshold_spectrum(n: int, cols: Sequence[int]) -> tuple[int, ...]:
    """Laplacian eigenvalues, nonincreasing, of the threshold graph with
    these valid columns, read straight off them.

    The spectrum is the conjugate of the degrees d_i = c_i + i - 1 (i <= f).
    Its first f entries are h_i = c_i + i, and entry i > f counts the
    h_j above i; the h_j never increase, so one pointer walks them down.
    """
    heads = [c + i for i, c in enumerate(cols, start=1)]
    j = len(heads)
    tail = []
    for i in range(j + 1, n + 1):
        while j and heads[j - 1] <= i:
            j -= 1
        tail.append(j)
    return tuple(heads + tail)


def enumerate_threshold(n: int, m: int | None = None) -> Iterator[ThresholdGraph]:
    """All threshold graphs on n nodes, or those with exactly m edges.

    Edge counts run from 0 up to n(n-1)/2 (just m when given); within one
    edge count the column sequences come from ``threshold_columns``, in
    descending lexicographic order.  Totals over all m are 2^(n-1).  Each
    record is a ``ThresholdGraph``, validated as any other.  Raises
    ValueError for n < 1 or m outside 0..n(n-1)/2.
    """
    # n(n-1)/2 >= 0 for every integer n, so a bad n raises at m = 0
    ms = range(n * (n - 1) // 2 + 1) if m is None else (m,)
    for mm in ms:
        for cols in threshold_columns(n, mm):
            yield ThresholdGraph(n, cols)


from_below_columns = ThresholdGraph


def parse_threshold(text: str) -> ThresholdGraph:
    """Parse the "n: c_1 ... c_f" serialization."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"missing ':' in threshold record {text!r}")
    try:
        n = int(head.strip())
    except ValueError:
        raise ValueError(f"bad node count in threshold record {text!r}")
    try:
        cols = [int(tok) for tok in tail.split()]
    except ValueError:
        raise ValueError(f"bad column count in threshold record {text!r}")
    return ThresholdGraph(n, cols)


def from_creation_sequence(ops: str) -> ThresholdGraph:
    """Build from a creation sequence of 'i' (isolated) and 'd' (dominating).

    Each 'i' adds a node joined to nothing, each 'd' a node joined to
    everything so far.  The first character may be either; both give a
    single node.
    """
    from .partitions import DegreeSequence

    degs: list[int] = []
    for op in ops:
        if op == "i":
            degs.append(0)
        elif op == "d":
            degs = [d + 1 for d in degs]
            degs.append(len(degs))
        else:
            raise ValueError(f"creation sequence step {op!r} is not 'i' or 'd'")
    if not degs:
        raise ValueError("creation sequence is empty")
    return ThresholdGraph(len(degs), DegreeSequence(degs).below_columns())


realize = ThresholdGraph.realize


def spectrum_of(t: ThresholdGraph):
    """Integer Laplacian spectrum of a threshold graph as a Spectrum."""
    from .spectra import Spectrum

    return Spectrum(tuple(float(v) for v in t.spectrum_ints()), t.n, t.m)


def split_dominator(g: Graph, k: int) -> ThresholdGraph:
    """Threshold graph with the same n and m whose eigenvalue prefix sums
    dominate those of a split graph at position k.

    For k below the trace f the below-diagonal columns are kept as they
    are; for k >= f the m below-diagonal boxes are repacked greedily into
    columns of height at most f, which drives the k-th prefix sum up to
    m + f(f+1)/2, the largest any graph with trace f can reach.
    """
    d = g.degree_sequence()
    if not d.is_split():
        raise ValueError("split dominator needs a split graph")
    if not 1 <= k <= g.n:
        raise ValueError(f"position k={k} outside 1..{g.n}")
    f = d.trace()
    if f == 0:
        return ThresholdGraph(g.n, ())
    if k < f:
        cols = d.below_columns()
        while cols and cols[-1] == 0:
            cols = cols[:-1]
        return ThresholdGraph(g.n, cols)
    m = g.m
    q, s = divmod(m - f * (f + 1) // 2, f)
    cols = [(f - r + 1) + q + (1 if s >= r else 0) for r in range(1, f + 1)]
    return ThresholdGraph(g.n, cols)


@dataclass(frozen=True)
class ExtremalPlan:
    """Which of the three bound shapes wins at (n, m, k) and its fill data."""

    case: int
    h: int
    r: int
    bound: int


def _case1_cols(n: int, m: int) -> tuple[int, ...]:
    """Greedy fill below the diagonal: column i takes up to n - i boxes."""
    cols, left = [], m
    for cap in range(n - 1, 0, -1):
        if left <= 0:
            break
        cols.append(min(cap, left))
        left -= cap
    return tuple(cols)


def brouwer_extremal_plan(n: int, m: int, k: int) -> ExtremalPlan:
    """Case analysis for the bound min(k*n, m + k(k+1)/2, 2m).

    Ties prefer case 1 over case 2 over case 3.
    """
    if not 1 <= k <= n:
        raise ValueError(f"position k={k} outside 1..{n}")
    _check_edge_count(n, m)
    kn = k * n
    brw = m + k * (k + 1) // 2
    full = 2 * m
    bound = min(kn, brw, full)
    if bound == kn:
        return ExtremalPlan(1, 0, 0, bound)
    if bound == brw:
        h = (2 * m + k * (k + 1)) // (2 * k)
        r = m + k * (k + 1) // 2 - k * h
        return ExtremalPlan(2, h, r, bound)
    # 2m wins: pack a staircase of h distinct column heights, the largest
    # h with h(h+1)/2 <= m, plus r spare boxes
    h = (isqrt(8 * m + 1) - 1) // 2
    r = m - h * (h + 1) // 2
    return ExtremalPlan(3, h, r, bound)


def brouwer_extremal(n: int, m: int, k: int) -> ThresholdGraph:
    """Threshold graph on n nodes and m edges whose first k eigenvalues sum
    to min(k*n, m + k(k+1)/2, 2m), the largest value any graph attains."""
    return ThresholdGraph(n, _extremal_cols(n, m, k, brouwer_extremal_plan(n, m, k)))


def _extremal_cols(n: int, m: int, k: int, plan: ExtremalPlan) -> tuple[int, ...]:
    """Columns of ``brouwer_extremal(n, m, k)`` from its plan; in cases 1
    and 3 they depend on (n, m) alone.  Column i's head c_i + i is the
    i-th eigenvalue: in case 2 the k heads are h + 1 (r times) then h, in
    case 3 the h heads are h + 2 (r times) then h + 1, and r follows."""
    if plan.case == 1:
        return _case1_cols(n, m)
    h, r = plan.h, plan.r
    if plan.case == 2:
        return (*range(h, h - r, -1), *range(h - r - 1, h - k - 1, -1))
    return (*range(h + 1, h + 1 - r, -1), *range(h - r, 0, -1))


def union_merge(parts: Iterable[ThresholdGraph]) -> ThresholdGraph:
    """Merge threshold graphs by adding their diagrams columnwise.

    The result lives on the summed node count and edge count, and its
    eigenvalue prefix sums dominate those of the disjoint union of the
    realisations at every k.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("union merge needs at least one threshold graph")
    n = sum(t.n for t in parts)
    width = max(t.trace for t in parts)
    cols = [sum(t.cols[i] for t in parts if i < t.trace) for i in range(width)]
    return ThresholdGraph(n, cols)


def complement_threshold(t: ThresholdGraph) -> ThresholdGraph:
    """Complement within K_n; threshold graphs are closed under it."""
    from .partitions import DegreeSequence

    n = t.n
    degs = [n - 1 - d for d in t.degree_sequence().values]
    return ThresholdGraph(n, DegreeSequence(degs, n).below_columns())


def cycle_dominator(n: int) -> ThresholdGraph:
    """Threshold graph on n nodes and n edges dominating the cycle C_n.

    Needs n >= 8.  With h = floor(sqrt(2n)) the trace is h when
    2n >= h^2 + h and h - 1 otherwise; the n boxes are packed greedily
    into columns of capacity f + 2 - i.  Dominance over C_n follows
    because the cycle's prefix sums never exceed min(4k, 2n), which the
    packed spectrum attains at every k; this integer condition is
    asserted before returning.
    """
    if n < 8:
        raise ValueError(f"cycle dominator needs n >= 8, got n={n}")
    h = 1
    while (h + 1) * (h + 1) <= 2 * n:
        h += 1
    f = h if 2 * n - (h * h + h) >= 0 else h - 1
    cols = []
    left = n
    for i in range(1, f + 1):
        if left == 0:
            break
        take = min(f + 2 - i, left)
        cols.append(take)
        left -= take
    if left != 0:
        raise AssertionError(f"cycle dominator fill left {left} boxes for n={n}")
    t = ThresholdGraph(n, cols)
    prefix = t.spectrum_prefix()
    if any(prefix[k - 1] < min(4 * k, 2 * n) for k in range(1, n + 1)):
        raise AssertionError(f"cycle dominator prefix dips below min(4k, 2n) for n={n}")
    return t


def pineapple(n: int, q: int) -> ThresholdGraph:
    """Pineapple P(n, q): K_q with n - q extra nodes joined to one apex.

    Built by creation sequence: a first node, q - 2 dominating nodes,
    n - q isolated nodes, then a final dominating apex.  Needs
    2 <= q <= n.
    """
    if not 2 <= q <= n:
        raise ValueError(f"pineapple needs 2 <= q <= n, got q={q}, n={n}")
    return from_creation_sequence("i" + "d" * (q - 2) + "i" * (n - q) + "d")


def clique_plus_isolated_threshold(n: int) -> ThresholdGraph:
    """K_c plus n - c isolated nodes with c = floor((2n+1)/3) + 1.

    This clique size maximises Laplacian energy among clique-plus-isolated
    graphs on n nodes; c is capped at n so tiny n stay well formed.
    """
    if n < 1:
        raise ValueError(f"graph needs at least one node, got n={n}")
    c = min((2 * n + 1) // 3 + 1, n)
    return ThresholdGraph(n, tuple(range(c - 1, 0, -1)))
