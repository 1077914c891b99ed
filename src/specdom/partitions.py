"""Ferrers-diagram arithmetic for degree sequences.

A nonincreasing integer sequence d_1 >= ... >= d_n is drawn as a Ferrers
diagram with d_i left-aligned boxes in row i.  Counting boxes by column
gives the conjugate sequence d*_i = |{j : d_j >= i}|, the side of the
largest square of boxes anchored at the top-left corner is the trace, and
comparing box counts on either side of the main diagonal recognises split
and threshold sequences:

  * split:      sum_{i<=f} (d_i - i + 1)  ==  sum_{i<=f} (d*_i - i)
                (boxes on or above the diagonal match boxes below it)
  * threshold:  d*_i == d_i + 1 for all i <= f

Sequences are stored zero-padded to their full length n, so conjugation is
an exact involution on the stored tuples.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable


def conjugate_counts(parts: Iterable[int], length: int) -> tuple[int, ...]:
    """Column counts |{j : parts_j >= i}| for i = 1..length.

    Parts larger than ``length`` still contribute to every column, so the
    result is always a valid partition of min-capped total; callers keep
    parts within range.
    """
    occurrences = [0] * (length + 1)
    for p in parts:
        if p > 0:
            occurrences[min(p, length)] += 1
    # column i counts the parts of size i and above: suffix sums from the top
    return tuple(accumulate(occurrences[:0:-1]))[::-1]


class _Sequence:
    """Tuple protocol shared by the two sequence kinds: ``values`` holds the
    validated, zero-padded entries, and two sequences are equal only when
    they are of the same kind."""

    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> int:
        """Sum of all entries; for degrees, twice the edge count of a
        realisation."""
        return sum(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.values))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.values)!r})"


class DegreeSequence(_Sequence):
    """Nonincreasing degree sequence of length n with entries in [0, n-1].

    Input values are sorted into nonincreasing order and zero-padded to
    length ``n`` (default: the number of values given).  The conjugate and
    the trace are computed once, here; every method reads them.
    """

    def __init__(self, values: Iterable[int], n: int | None = None):
        vals = sorted((int(v) for v in values), reverse=True)
        if n is None:
            n = len(vals)
        if n < 1:
            raise ValueError("degree sequence needs at least one entry")
        if len(vals) > n:
            raise ValueError(f"{len(vals)} values do not fit in length {n}")
        vals.extend([0] * (n - len(vals)))
        for v in vals:
            if v < 0 or v > n - 1:
                raise ValueError(f"degree {v} outside [0, {n - 1}] for n={n}")
        self.values = tuple(vals)
        self._conj = conjugate_counts(vals, n)
        # d_i - i strictly decreases, so d_i >= i holds on a prefix
        self._trace = sum(d >= i for i, d in enumerate(vals, start=1))

    def conjugate(self) -> "ConjugateSequence":
        """Column counts of the Ferrers diagram, padded to length n."""
        return ConjugateSequence(self._conj, self.n)

    def trace(self) -> int:
        """Largest i with d_i >= i (0 for the all-zero sequence)."""
        return self._trace

    def is_split(self) -> bool:
        """Whether boxes on/above the diagonal equal boxes below it."""
        f = self._trace
        return sum(self.values[:f]) - f * (f - 1) // 2 == sum(self.below_columns())

    def is_threshold(self) -> bool:
        """Whether d*_i == d_i + 1 for every i up to the trace."""
        return all(c == d + 1 for c, d in zip(self._conj[:self._trace], self.values))

    def below_columns(self) -> tuple[int, ...]:
        """Below-diagonal column counts c_i = d*_i - i for i = 1..trace.

        For a split sequence these are strictly decreasing and only the
        final entry can be zero; for a threshold sequence all are positive.
        """
        return tuple(c - i for i, c in enumerate(self._conj[:self._trace], start=1))


class ConjugateSequence(_Sequence):
    """Conjugate (column-count) sequence of length n with entries in [0, n]."""

    def __init__(self, values: Iterable[int], n: int | None = None):
        vals = [int(v) for v in values]
        if n is None:
            n = len(vals)
        if len(vals) > n:
            raise ValueError(f"{len(vals)} values do not fit in length {n}")
        vals.extend([0] * (n - len(vals)))
        for a, b in zip(vals, vals[1:]):
            if b > a:
                raise ValueError("conjugate sequence must be nonincreasing")
        for v in vals:
            if v < 0 or v > n:
                raise ValueError(f"column count {v} outside [0, {n}]")
        self.values = tuple(vals)

    def conjugate(self) -> DegreeSequence:
        """Conjugate back to a degree sequence (exact involution)."""
        return DegreeSequence(conjugate_counts(self.values, self.n), self.n)

    def prefix_sums(self) -> tuple[int, ...]:
        """Cumulative sums sum_{i<=k} d*_i for k = 1..n."""
        return tuple(accumulate(self.values))


def _as_sequence(d) -> DegreeSequence:
    if isinstance(d, DegreeSequence):
        return d
    return DegreeSequence(d)


def conjugate(d) -> ConjugateSequence:
    return _as_sequence(d).conjugate()


def trace(d) -> int:
    return _as_sequence(d).trace()


def is_split(d) -> bool:
    return _as_sequence(d).is_split()


def is_threshold(d) -> bool:
    return _as_sequence(d).is_threshold()


def below_columns(d) -> tuple[int, ...]:
    return _as_sequence(d).below_columns()
