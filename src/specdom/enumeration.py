"""Threshold graphs listed by edge count, as column tuples and as text.

The threshold graphs on n nodes with m edges are the partitions of m into
distinct parts below n, their below-diagonal column counts c1 > c2 > ...
``threshold_columns`` yields them lazily and ``threshold_count`` counts
them.  ``enumerate-threshold`` prints them from suffix blocks instead:
the newline-led lines " c1 c2 ..." of the partitions of a rest into
distinct parts <= cap.  Blocks with cap <= 14 stay cached (about 0.5 MB).
Above the cache the recursion only lengthens a head such as "20: 19 17",
and each cached block is emitted once under its head by one str.replace,
so every output byte of the text form is written by one replace and one
join per edge count.  The JSON form is made from the same pieces by one
chained replace each and written piece by piece.

This module imports no other module of the package and no dataclasses,
so ``enumerate-threshold`` starts with it and the command line alone.
"""

from __future__ import annotations

from functools import lru_cache

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator


def _check_edge_count(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"threshold graph needs at least one node, got n={n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"edge count m={m} outside 0..{n * (n - 1) // 2}")


def threshold_columns(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Column tuples of the threshold graphs on n nodes with m edges.

    The tuples are the partitions of m into distinct parts below n, in
    descending lexicographic order: the greedy fill first, then each next
    one by lowering the rightmost part that can drop by one and refilling
    greedily from there.  Each part c is checked where it is placed,
    1 <= c <= n - depth (depth counted from 1); strict decrease holds
    because a part's successor is capped at c - 1.  So every tuple
    satisfies the ``ThresholdGraph`` invariant without building one, and
    AssertionError is raised if one ever would not.  Raises ValueError for
    n < 1 or m outside 0..n(n-1)/2.
    """
    _check_edge_count(n, m)
    top = n - 1
    parts: list[int] = []
    cap, rest = top, m
    while True:
        # greedy fill: the largest distinct parts <= cap that sum to rest
        while rest:
            c = cap if cap < rest else rest
            if not 0 < c <= top - len(parts):
                raise AssertionError(
                    f"column count {c} at depth {len(parts) + 1} breaks "
                    f"the invariant for n={n} (columns {parts})")
            parts.append(c)
            rest -= c
            cap = c - 1
        yield tuple(parts)
        # the rightmost part p that can drop to p - 1 with distinct parts
        # below p - 1 still summing to the rest; the fill re-places the
        # whole suffix from p - 1 down
        j = len(parts)
        rest = 0
        while j:
            j -= 1
            rest += parts[j]
            cap = parts[j] - 1
            if rest - cap <= cap * (cap - 1) // 2:
                break
        else:
            return
        del parts[j:]


# Blocks with cap <= 14 stay cached: at n = 20 that is 470 blocks, about
# 0.55 MB.  Caching every cap held 24.6 MB there; above the cache only
# heads are built.  The block of rest 0 is the one empty line.
_BLOCK_CACHE_CAP = 14
_blocks: dict[tuple[int, int], str] = {(0, 0): "\n"}


def _column_block(rest: int, cap: int) -> str:
    """``_column_pieces`` of (rest, cap) with no head, as one cached block,
    for cap <= min(rest, 14)."""
    block = _blocks.get((rest, cap))
    if block is None:
        out: list[str] = []
        c = cap
        while rest <= c * (c + 1) // 2:
            _column_pieces(rest - c, c - 1, f" {c}", out)
            c -= 1
        block = _blocks[rest, cap] = "".join(out)
    return block


def _column_pieces(rest: int, cap: int, head: str, out: list[str]) -> None:
    """Append to ``out`` the lines head + " c1 c2 ...", each led by its
    newline, of the partitions of rest into distinct parts <= cap, in
    descending lexicographic order.

    A line with first part c goes on with a line of (rest - c, c - 1).
    Above the cache that only lengthens the head; a cached block is put
    under its head by one replace.
    """
    cap = min(cap, rest)
    if cap <= _BLOCK_CACHE_CAP:
        block = _column_block(rest, cap)
        out.append(block.replace("\n", "\n" + head) if head else block)
        return
    c = cap
    while rest <= c * (c + 1) // 2:
        _column_pieces(rest - c, c - 1, f"{head} {c}", out)
        c -= 1


def _column_lines(n: int, m: int, head: str) -> list[str]:
    """The columns of every threshold graph on n nodes with m edges as
    lines head + " c1 c2 ...", each led by its newline, in
    ``threshold_columns`` order, in a few pieces."""
    _check_edge_count(n, m)
    out: list[str] = []
    _column_pieces(m, n - 1, head, out)
    return out


def _threshold_text(n: int, ms: Iterable[int]) -> Iterator[str]:
    """``format_threshold`` of every record on n nodes with an edge count
    in ``ms``, as one string per edge count.  The strings join to the
    records' lines with a newline between each two and none at the end."""
    lead = 1
    for m in ms:
        pieces = _column_lines(n, m, f"{n}:")
        # the text's one leading newline is dropped from its first piece
        pieces[0] = pieces[0][lead:]
        lead = 0
        yield "".join(pieces)


# A piece's lines "\n c1 c2 ..." become JSON lists by one chained replace:
# each " c" opens an item, and each line's newline then closes the list
# before and opens its own.
_CLOSE = "\n    ]"


def _json_text(n: int, ms: Iterable[int]) -> Iterator[str]:
    """The column lists of every threshold graph on n nodes with an edge
    count in ``ms``, as ``json.dumps(..., indent=2)`` writes them inside
    the top-level "records" array: pieces that join to a newline, the
    lists joined by ",\\n", and no newline at the end.

    The first piece drops the close it has no list for, and the last
    list is closed after the last piece.  Only m = 0 has an empty list;
    it comes first, and the piece after it drops just the close.
    """
    cut = len(_CLOSE + ",")
    for m in ms:
        pieces = _column_lines(n, m, "")
        if m == 0:
            yield "\n    []"
            cut = len(_CLOSE)
            continue
        for piece in pieces:
            piece = piece.replace(" ", ",\n      ").replace("\n,", _CLOSE + ",\n    [")
            if cut:
                piece, cut = piece[cut:], 0
            yield piece
    if not cut:
        yield _CLOSE


@lru_cache(maxsize=None)
def _distinct_count(m: int, cap: int) -> int:
    if m == 0:
        return 1
    if cap <= 0 or m < 0 or m > cap * (cap + 1) // 2:
        return 0
    return _distinct_count(m, cap - 1) + _distinct_count(m - cap, cap - 1)


def threshold_count(n: int, m: int) -> int:
    """Number of threshold graphs on n nodes with m edges; 0 for any other m."""
    if n < 1:
        raise ValueError(f"threshold graph needs at least one node, got n={n}")
    return _distinct_count(m, n - 1)
