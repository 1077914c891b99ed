"""Spectral threshold dominance: certificates, enumeration, and energy.

A graph is spectrally threshold dominated when for every k some threshold
graph with the same node and edge counts has first-k eigenvalue sum at
least as large.  Two routes certify this:

  * constructive: per k, the extremal threshold graph of the plan
    ``builders.brouwer_extremal_plan``, whose prefix sum equals
    min(k*n, m + k(k+1)/2, 2m) by one integer check, with no spectrum;
  * oracle: enumerate every threshold graph with the same (n, m) and take
    true per-k maxima (guarded, small cases only).

The oracle's maxima must equal the plans' bounds exactly; disagreement is a
theorem violation and raises rather than degrading into a verdict.  The
energy route picks the extremal witness at k* (the number of eigenvalues
above the mean 2m/n), whose Laplacian energy then dominates the graph's.

One batched core, ``report_rows``, computes every report: it solves a
stack of edge-bit rows with one ``spectra.verify`` call per capped stack
and reads each record's spectrum, verdicts and energy witness off the
arrays.  ``analyze`` writes its records straight from those rows, and
``std_constructive`` and ``std_oracle`` build a DominanceReport from the
batch of one.  Witnesses depend only on (n, m) and are cached there; the
energy witness is the table's witness at k*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .builders import (ThresholdGraph, _extremal_cols, brouwer_extremal_plan,
                       format_threshold, threshold_spectrum)
from .enumeration import threshold_columns, threshold_count
from .graphs import Graph, bit_rows, encode_graph6
from .spectra import (CHECKS, DEFAULT_TOL, CheckReport, Spectrum, Verdicts,
                      energy_count, laplacian_energy, verdicts)

ENUMERATION_GUARD = 10_000_000


class BrouwerViolationError(RuntimeError):
    """A dominance or energy certificate failed after tight re-verification."""


@dataclass(frozen=True)
class DominanceWitness:
    """Extremal threshold graph for one prefix position."""

    k: int
    cols: tuple[int, ...]
    prefix_sum: int


@dataclass(frozen=True)
class PerKEntry:
    """All bounds at one prefix position, margin taken against the best
    threshold prefix sum."""

    k: int
    eig_sum: float
    gmb_bound: int
    brouwer_bound: int
    effective_bound: int
    best_threshold_prefix: int
    witness: str
    margin: float


@dataclass(frozen=True)
class DominanceReport:
    """Full dominance verdict for one graph.

    ``std`` compares eigenvalue prefix sums against the best threshold
    graph with the same (n, m) at every k; ``witnesses`` names those
    threshold graphs.  ``energy_pair`` is (LE of the graph, LE of the
    witness at k*) and ``energy_holds`` whether the second dominates.
    """

    graph_id: str
    n: int
    m: int
    spectrum: tuple[float, ...]
    energy: float
    gmb: CheckReport
    brouwer: CheckReport
    std: CheckReport
    witnesses: tuple[DominanceWitness, ...]
    energy_witness_cols: tuple[int, ...]
    energy_pair: tuple[float, float]
    energy_holds: bool
    route: str

    def per_k(self) -> tuple[PerKEntry, ...]:
        """Merged per-k view across all three checks."""
        out = []
        for i in range(self.n):
            w = self.witnesses[i]
            out.append(PerKEntry(
                k=i + 1,
                eig_sum=self.std.entries[i].eig_sum,
                gmb_bound=int(self.gmb.entries[i].bound),
                brouwer_bound=int(self.brouwer.entries[i].bound),
                effective_bound=int(self.brouwer.entries[i].effective_bound),
                best_threshold_prefix=w.prefix_sum,
                witness=format_threshold(self.n, w.cols),
                margin=self.std.entries[i].margin,
            ))
        return tuple(out)


def _scaled_energy(n: int, m: int, cols: tuple[int, ...]) -> int:
    """n times a threshold graph's Laplacian energy, sum |n*v - 2m|, exact."""
    two_m = 2 * m
    return sum(abs(n * v - two_m) for v in threshold_spectrum(n, cols))


def threshold_energy(t: ThresholdGraph) -> float:
    """Laplacian energy of a threshold graph, exact up to one division."""
    return _scaled_energy(t.n, t.m, t.cols) / t.n


@lru_cache(maxsize=4096)
def _constructive_witnesses(n: int, m: int) -> tuple[DominanceWitness, ...]:
    """Extremal witness per k: its plan's columns, prefix sum ``plan.bound``.

    One integer check per k, which raises if it fails, confirms that the
    columns reach the bound: case 1's greedy fill has k full columns, case
    2's k column heads are the first k eigenvalues (h > k), and case 3 has
    no nonzero eigenvalue past k.  Case 1 and 3 columns are filled once.
    """
    fills: dict = {}
    out = []
    for k in range(1, n + 1):
        plan = brouwer_extremal_plan(n, m, k)
        case, h, r = plan.case, plan.h, plan.r
        if not (k < n and k * n <= m + k * (k + 1) // 2 if case == 1
                else h > k if case == 2 else h + (r > 0) <= k):
            raise AssertionError(
                f"case {case} plan (h={h}, r={r}) does not reach its bound "
                f"{plan.bound} at k={k} (n={n}, m={m})"
            )
        if case == 2 or case not in fills:
            fills[case] = _extremal_cols(n, m, k, plan)
        out.append(DominanceWitness(k, fills[case], plan.bound))
    return tuple(out)


@lru_cache(maxsize=256)
def _oracle_table(n: int, m: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per-k maxima over all threshold graphs with (n, m), plus witnesses.

    Refuses when the enumeration would exceed 10^7 graphs.  The maxima
    must match the constructive witnesses' prefix sums, min(k*n,
    m + k(k+1)/2, 2m), exactly; a mismatch raises.
    """
    total = threshold_count(n, m)
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of {total} threshold graphs with n={n}, m={m} "
            f"exceeds the {ENUMERATION_GUARD} guard"
        )
    maxima = [0] * n
    witnesses: list[tuple[int, ...]] = [()] * n
    for cols in threshold_columns(n, m):
        for i, p in enumerate(accumulate(threshold_spectrum(n, cols))):
            if p > maxima[i]:
                maxima[i] = p
                witnesses[i] = cols
    for w in _constructive_witnesses(n, m):
        if maxima[w.k - 1] != w.prefix_sum:
            raise AssertionError(
                f"enumerated maximum {maxima[w.k - 1]} at k={w.k} differs from "
                f"formula {w.prefix_sum} (n={n}, m={m})"
            )
    return tuple(maxima), tuple(witnesses)


def _energy_fields(spec: Spectrum, tol: float):
    """The energy witness's cols, the (graph, witness) energy pair, and
    whether it dominates; the witness is the table's extremal graph at k*."""
    n, m = spec.n, spec.m
    cols = _constructive_witnesses(n, m)[max(energy_count(spec), 1) - 1].cols
    le_g, le_t = laplacian_energy(spec), _scaled_energy(n, m, cols) / n
    return cols, (le_g, le_t), le_t >= le_g - tol


@dataclass(frozen=True)
class ReportRow:
    """One record of ``report_rows``: its Spectrum, its energy fields, and
    the stack's Verdicts with the record's index in it."""

    verdicts: Verdicts
    index: int
    spectrum: Spectrum
    energy_witness_cols: tuple[int, ...]
    energy_pair: tuple[float, float]
    energy_holds: bool


def report_rows(n: int, rows, tol: float) -> Iterator[ReportRow]:
    """Dominance verdicts of (B, P) edge-bit rows on n nodes, one record at
    a time in row order.

    The one report core: each capped stack of rows takes one ``verify``
    call for all three checks, and each record is then read off the
    stack's arrays, its Spectrum checked and its energy witness read off
    the witness table of its (n, m).  Witnesses depend on (n, m) alone, so
    callers take them from the per-(n, m) caches.
    """
    for v in verdicts(n, rows, CHECKS, tol):
        for i in range(len(v)):
            spec = v.spectrum(i)
            yield ReportRow(v, i, spec, *_energy_fields(spec, tol))


def _report(g: Graph, tol: float, graph_id: str | None, route: str,
            witnesses: tuple[DominanceWitness, ...]) -> DominanceReport:
    """One graph's report: ``report_rows`` on the batch of one."""
    row = next(report_rows(g.n, bit_rows(g.n, [g.bits]), tol))
    v = row.verdicts
    return DominanceReport(
        graph_id=graph_id if graph_id is not None else encode_graph6(g),
        n=g.n,
        m=g.m,
        spectrum=row.spectrum.values,
        energy=row.energy_pair[0],
        gmb=v.check_report(0, "gmb"),
        brouwer=v.check_report(0, "brouwer"),
        std=v.check_report(0, "std"),
        witnesses=witnesses,
        energy_witness_cols=row.energy_witness_cols,
        energy_pair=row.energy_pair,
        energy_holds=row.energy_holds,
        route=route,
    )


def std_constructive(g: Graph, tol: float = DEFAULT_TOL,
                     graph_id: str | None = None) -> DominanceReport:
    """Dominance report with explicit extremal witnesses at every k."""
    return _report(g, tol, graph_id, "constructive",
                   _constructive_witnesses(g.n, g.m))


def std_oracle(g: Graph, tol: float = DEFAULT_TOL,
               graph_id: str | None = None) -> DominanceReport:
    """Dominance report with per-k maxima from full enumeration.

    Only for small (n, m): refuses beyond 10^7 threshold graphs.
    """
    maxima, cols = _oracle_table(g.n, g.m)
    witnesses = tuple(DominanceWitness(k, cols[k - 1], maxima[k - 1])
                      for k in range(1, g.n + 1))
    return _report(g, tol, graph_id, "oracle", witnesses)


def energy_witness(g: Graph, tol: float = DEFAULT_TOL
                   ) -> tuple[ThresholdGraph, tuple[float, float]]:
    """Threshold graph with the same (n, m) whose Laplacian energy
    dominates the graph's, together with the pair (LE graph, LE witness).

    The witness is the prefix-extremal threshold graph at k*, the number
    of eigenvalues above the mean, on the spectrum ``spectra.verify``
    confirms for the std check, as every other verdict does.  If its
    energy still falls short, that contradicts prefix dominance at k* and
    raises BrouwerViolationError.
    """
    spec = next(verdicts(g.n, bit_rows(g.n, [g.bits]), ("std",), tol)).spectrum(0)
    cols, pair, holds = _energy_fields(spec, tol)
    if holds:
        return ThresholdGraph(g.n, cols), pair
    raise BrouwerViolationError(
        f"energy witness {format_threshold(g.n, cols)!r} has LE {pair[1]:.12g} below the "
        f"graph's {pair[0]:.12g} at k*={energy_count(spec)} (n={g.n}, m={g.m})"
    )


def max_energy_threshold(n: int) -> tuple[ThresholdGraph, float]:
    """Threshold graph on n nodes with the largest Laplacian energy.

    Full enumeration over all 2^(n-1) threshold graphs, so n is capped at
    20.  Energy comparisons are exact (scaled by n); ties go to the
    lexicographically smallest column sequence.
    """
    if not 1 <= n <= 20:
        raise ValueError(f"exhaustive energy search needs 1 <= n <= 20, got n={n}")
    best_score = -1
    best_cols: tuple[int, ...] = ()
    for m in range(n * (n - 1) // 2 + 1):
        for cols in threshold_columns(n, m):
            score = _scaled_energy(n, m, cols)
            if score > best_score or (score == best_score and cols < best_cols):
                best_score = score
                best_cols = cols
    return ThresholdGraph(n, best_cols), best_score / n
