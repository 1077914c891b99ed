"""Simple undirected graphs on 1-based nodes with a packed edge bitset.

Edges live in the strict upper triangle, stored column-major: the bit for
the 0-based pair (i, j) with i < j sits at position j*(j-1)//2 + i.  This
is exactly the bit order of the graph6 format, so encoding and decoding
are straight bit runs.  This module is the one owner of that bit order,
for one pair (``_bit_index``) and as index arrays (``_pair_index``), and
every conversion is linear in the bits: a packed integer and its
graph6-order bit text convert in one step each way, for the codec, the
edge walk and edge-list packing; ``decode_graph6_batch``, ``_g6_groups``
and ``bit_rows`` give numpy edge-bit rows, and ``encode_graph6_batch``
turns them back into graph6.  Node names are 1-based everywhere in the
API.  Only those array functions and ``_pair_index`` use numpy, and they
import it when called, so the codec and the parsers load without it;
``Graph.degree_sequence`` imports ``partitions`` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

    from .partitions import DegreeSequence

# the parsers' node limit when asked: an n-node report solves 8n^2 bytes
MAX_N = 512
# the checks' tolerance, here so that the command line reads it without numpy
DEFAULT_TOL = 1e-7


class GraphInputError(ValueError):
    """Malformed graph input (edge lists, pair files)."""


class Graph6Error(ValueError):
    """Malformed graph6 record; the message names the byte at fault."""


def _bit_index(i: int, j: int) -> int:
    """Bit position of 0-based pair (i, j), i < j."""
    return j * (j - 1) // 2 + i


@lru_cache(maxsize=64)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_bit_index`` in array form: (rows, cols) of every bit position in
    order, so bit p is the pair (cols[p], rows[p]), column-major."""
    import numpy as np
    return np.tril_indices(n, -1)


def _bit_text(bits: int, nbits: int) -> str:
    """The low ``nbits`` bits of ``bits`` as '0'/'1' text, bit 0 first."""
    return bin(bits | 1 << nbits)[:2:-1]


def _pack(text: str) -> int:
    """Inverse of ``_bit_text``: the int whose bit p is text[p]."""
    return int(text[::-1] or "0", 2)


def _set_pairs(n: int, bits: int) -> Iterator[tuple[int, int]]:
    """0-based (i, j) pair of each set bit of ``bits``, lowest bit first."""
    text = _bit_text(bits, n * (n - 1) // 2)
    for j in range(1, n):
        # column j holds the bits of pairs (0, j) .. (j - 1, j)
        base = j * (j - 1) // 2
        p = text.find("1", base, base + j)
        while p >= 0:
            yield p - base, j
            p = text.find("1", p + 1, base + j)


@lru_cache(maxsize=64)
def _node_masks(n: int) -> tuple[int, ...]:
    """Per 0-based node v, the bits of every pair that contains v."""
    # column v holds the pairs (u, v), u < v, and each later column j the pair (v, j)
    return tuple((((1 << v) - 1) << _bit_index(0, v))
                 | sum(1 << _bit_index(v, j) for j in range(v + 1, n)) for v in range(n))


def _pair_bit(n: int, u: int, v: int) -> int:
    """Bit position of the 1-based pair (u, v) on n nodes, either order."""
    if u == v:
        raise GraphInputError(f"self-loop ({u}, {v}) rejected")
    if not (1 <= u <= n and 1 <= v <= n):
        raise GraphInputError(f"node out of range in pair ({u}, {v}) for n={n}")
    return _bit_index(min(u, v) - 1, max(u, v) - 1)


@dataclass(frozen=True)
class Graph:
    """Immutable graph: node count ``n`` and packed upper-triangle ``bits``."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        if self.bits < 0 or self.bits.bit_length() > self.n * (self.n - 1) // 2:
            raise ValueError(f"edge bits out of range for n={self.n}")

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.bits.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            return False
        return (self.bits >> _pair_bit(self.n, u, v)) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """Sorted 1-based edge list."""
        return sorted((i + 1, j + 1) for i, j in _set_pairs(self.n, self.bits))

    def degrees(self) -> tuple[int, ...]:
        """Degree of node u at index u-1."""
        if self.n <= 62:
            # masks hold n * n(n-1)/2 bits; larger graphs take the text walk
            bits = self.bits
            return tuple([(bits & mask).bit_count() for mask in _node_masks(self.n)])
        degs = [0] * self.n
        for i, j in _set_pairs(self.n, self.bits):
            degs[i] += 1
            degs[j] += 1
        return tuple(degs)

    def degree_sequence(self) -> DegreeSequence:
        """Degrees sorted into nonincreasing order."""
        from .partitions import DegreeSequence

        return DegreeSequence(self.degrees(), self.n)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Graph on nodes 1..n from unordered pairs; duplicates collapse.

    Self-loops and out-of-range node names are rejected with the offending
    pair in the message.
    """
    if n < 1:
        raise GraphInputError(f"graph needs at least one node, got n={n}")
    text = bytearray(b"0" * (n * (n - 1) // 2))
    for u, v in pairs:
        text[_pair_bit(n, u, v)] = ord("1")
    return Graph(n, _pack(text.decode()))


def cycle(n: int) -> Graph:
    """Cycle C_n, n >= 3."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got n={n}")
    return from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got n={n}")
    return Graph(n, (1 << (n * (n - 1) // 2)) - 1)


def complete_plus_isolated(c: int, n: int) -> Graph:
    """K_c together with n - c isolated nodes (c = 0 or 1 gives edgeless).

    Column-major order puts the pairs among nodes 1..c first, so K_c's
    edges are the low c(c-1)/2 bits.
    """
    if not 0 <= c <= n:
        raise ValueError(f"clique size {c} outside [0, {n}]")
    if n < 1:
        raise ValueError(f"graph needs at least one node, got n={n}")
    return Graph(n, (1 << (c * (c - 1) // 2)) - 1)


def complement(g: Graph) -> Graph:
    """Edge-complement on the same nodes."""
    full = (1 << (g.n * (g.n - 1) // 2)) - 1
    return Graph(g.n, g.bits ^ full)


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Disjoint union; component nodes are relabelled consecutively."""
    parts = list(graphs)
    if not parts:
        raise ValueError("disjoint union needs at least one graph")
    # global column n + j of a part on top of n earlier nodes is n zeros
    # (no edges between parts) and then the part's own column j
    columns = []
    n = 0
    for g in parts:
        text = _bit_text(g.bits, g.n * (g.n - 1) // 2)
        columns.extend("0" * n + text[j * (j - 1) // 2:j * (j + 1) // 2] for j in range(g.n))
        n += g.n
    return Graph(n, _pack("".join(columns)))


# graph6 codec (format of McKay's nauty tools), bytes 63..126 only.

_G6_PREFIX = ">>graph6<<"


def _g6_size(s: str, at: int) -> tuple[int, int]:
    """Node count of the graph6 record whose header starts at byte ``at``
    of s, and the offset of its body."""
    c0 = ord(s[at]) - 63
    if c0 < 63:
        return c0, at + 1
    # "~~" and 6 size bytes from n = 258048 on, "~" and 3 below
    start, end = (at + 2, at + 8) if s[at + 1:at + 2] == chr(126) else (at + 1, at + 4)
    if len(s) < end:
        raise Graph6Error(f"byte {start - 1}: truncated {end - at}-byte size header")
    return int("".join([format(ord(c) - 63, "06b") for c in s[start:end]]), 2), end


def decode_graph6(text: str, max_n: int | None = None) -> Graph:
    """Decode one graph6 record; errors name the byte offset at fault,
    counted from the start of the text, ``>>graph6<<`` prefix included.

    With ``max_n``, a size header above it is an error before the body is
    decoded.
    """
    s = text.rstrip("\n")
    at = len(_G6_PREFIX) if s.startswith(_G6_PREFIX) else 0
    if len(s) == at:
        raise Graph6Error(f"byte {at}: empty record")
    for off, ch in enumerate(s[at:], at):
        code = ord(ch)
        if code < 63 or code > 126:
            raise Graph6Error(f"byte {off}: character {ch!r} outside graph6 range 63..126")
    n, body_at = _g6_size(s, at)
    if max_n is not None and n > max_n:
        raise Graph6Error(f"byte {at}: n={n} exceeds the {max_n}-node limit")
    if n == 0:
        raise Graph6Error(f"byte {at}: node count 0 unsupported (graphs need a node)")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    body = len(s) - body_at
    if body != expected:
        raise Graph6Error(
            f"byte {body_at}: body holds {body} characters, n={n} needs {expected}"
        )
    text = "".join([format(ord(c) - 63, "06b") for c in s[body_at:]])
    pad = text.find("1", nbits)
    if pad >= 0:
        raise Graph6Error(f"byte {body_at + pad // 6}: nonzero padding bit")
    return Graph(n, _pack(text[:nbits]))


# longest graph6 record with a one-byte header: n = 62, 1891 bits in 316 bytes
_G6_SHORT_MAX = 1 + (62 * 61 // 2 + 5) // 6


def decode_graph6_batch(texts: list[str], length: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched counterpart of ``decode_graph6`` for texts of ``length`` characters.

    Returns (ok, n, bits): ok (B,) marks the records decoded here, n (B,)
    their node counts and bits (B, 6 * (length - 1)) their edge bits in
    {0, 1}, graph6 order, padding included.  A record is decoded here only
    when every character is in 63..126 (compared as code points, so
    non-ASCII text fails like any bad byte), its header is one byte with
    1 <= n <= 62, its body length fits n and its padding bits are zero.
    Everything else (bad bytes, the ``>>graph6<<`` prefix, longer headers,
    n = 0) is left to ``decode_graph6``, which writes every error message;
    texts longer than any one-byte-header record are not read at all, and
    then bits has no columns.
    """
    import numpy as np
    if not 1 <= length <= _G6_SHORT_MAX:
        return (np.zeros(len(texts), bool), np.zeros(len(texts), np.int64),
                np.zeros((len(texts), 0), np.uint8))
    # surrogatepass: a lone surrogate (stdin under surrogateescape) becomes
    # one more code point out of range instead of an encoding error
    joined = "".join(texts).encode("utf-32-le", "surrogatepass")
    codes = np.frombuffer(joined, dtype=np.uint32).reshape(len(texts), length)
    n = codes[:, 0].astype(np.int64) - 63
    nbits = n * (n - 1) // 2
    ok = (((codes >= 63) & (codes <= 126)).all(axis=1) & (n >= 1) & (n <= 62)
          & ((nbits + 5) // 6 == length - 1))
    # bits 2..7 of each byte are its six graph6 bits, high bit first
    body = (codes[:, 1:] - 63).astype(np.uint8)
    bits = np.unpackbits(body[:, :, None], axis=2)[:, :, 2:].reshape(len(texts), -1)
    padding = np.arange(bits.shape[1]) >= nbits[:, None]
    ok &= ~(bits.astype(bool) & padding).any(axis=1)
    return ok, n, bits


def bit_rows(n: int, packed) -> np.ndarray:
    """(B, P) edge bits in {0, 1}, graph6 order, of B packed bit integers
    on n nodes, P = n(n-1)/2.

    ``packed`` is a sequence of Python ints of any size, such as a list or
    a range, unpacked from their little-endian bytes.
    """
    import numpy as np
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    raw = b"".join([b.to_bytes(nbytes, "little") for b in packed])
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(packed), nbytes)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :nbits]


# graph6 lines decoded and solved together: one scan chunk, one analyze batch
CHUNK = 4096


def _g6_groups(records) -> tuple[dict[int, tuple], list[tuple[int, str]]]:
    """Decode (key, text) records into bit-row groups by n.

    Returns ({n: (keys, bit_rows)}, errors): keys are the records' own,
    ascending within each group, and errors are (key, message) in key
    order.  Records are bucketed by text length and decoded a bucket at a
    time by ``decode_graph6_batch``; the records it leaves go through
    ``decode_graph6``, which refuses a record of more than MAX_N nodes.
    """
    import numpy as np
    by_len: dict[int, list[tuple[int, str]]] = {}
    for record in records:
        by_len.setdefault(len(record[1]), []).append(record)
    pieces: dict[int, list] = {}
    fallback: list[tuple[int, str]] = []
    for length, bucket in by_len.items():
        keys, texts = zip(*bucket)
        ok, n, bits = decode_graph6_batch(texts, length)
        fallback.extend(bucket[i] for i in np.flatnonzero(~ok).tolist())
        keys = np.array(keys)
        # bincount, not np.unique, which imports numpy.ma (2 MB) to run
        for nn in np.flatnonzero(np.bincount(n[ok])).tolist():
            pick = ok & (n == nn)
            pieces.setdefault(nn, []).append(
                (keys[pick], bits[pick, :nn * (nn - 1) // 2]))
    errors: list[tuple[int, str]] = []
    for key, text in sorted(fallback):
        try:
            g = decode_graph6(text, MAX_N)
        except Graph6Error as exc:
            errors.append((key, str(exc)))
            continue
        pieces.setdefault(g.n, []).append((np.array([key]), bit_rows(g.n, [g.bits])))
    groups = {}
    for n, parts in pieces.items():
        keys = np.concatenate([keys for keys, _ in parts])
        order = np.argsort(keys)
        groups[n] = (keys[order], np.concatenate([rows for _, rows in parts])[order])
    return groups, errors


def _g6_header(n: int) -> str:
    """graph6 size header: one byte up to n = 62, then "~" and 3 bytes,
    then "~~" and 6."""
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    return "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 record for a graph."""
    nbits = g.n * (g.n - 1) // 2
    text = _bit_text(g.bits, nbits) + "0" * (-nbits % 6)
    return _g6_header(g.n) + "".join([chr(int(text[k:k + 6], 2) + 63)
                                      for k in range(0, nbits, 6)])


def encode_graph6_batch(n: int, rows) -> list[str]:
    """``encode_graph6`` of B graphs on n nodes given as (B, P) edge bits in
    {0, 1}, graph6 order: the bits are padded to 6-bit groups and each
    group packed into one byte at once."""
    import numpy as np
    rows = np.asarray(rows, dtype=np.uint8)
    size = -(-(n * (n - 1) // 2) // 6)
    padded = np.zeros((len(rows), size * 6), np.uint8)
    padded[:, :rows.shape[1]] = rows
    # packbits fills 8 bits from the high end, so a group lands in bits 7..2
    body = (np.packbits(padded.reshape(len(rows), size, 6), axis=2)[:, :, 0] >> 2) + 63
    text = body.tobytes().decode("ascii")
    header = _g6_header(n)
    return [header + text[i * size:(i + 1) * size] for i in range(len(rows))]


def iter_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Decode a stream of graph6 lines, skipping blank ones."""
    for line in lines:
        s = line.strip()
        if s:
            yield decode_graph6(s)


# Plain edge-list text format: a header line "n m" and then m lines "i j".


def parse_edge_list(text: str, max_n: int | None = None) -> Graph:
    """Parse the "n m" edge-list format; errors carry 1-based line numbers.
    A pair listed twice, in either order, is an error.  With ``max_n``, a
    header n above it is an error before any edge line is read."""
    lines = text.splitlines()
    numbered = [(ln, raw.strip()) for ln, raw in enumerate(lines, start=1) if raw.strip()]
    if not numbered:
        raise GraphInputError("line 1: missing 'n m' header")
    (hln, htext), edge_lines = numbered[0], numbered[1:]
    fields = htext.split()
    if len(fields) != 2:
        raise GraphInputError(f"line {hln}: header must be 'n m', got {htext!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphInputError(f"line {hln}: header must be two integers, got {htext!r}")
    if n < 1:
        raise GraphInputError(f"line {hln}: node count must be positive, got {n}")
    if max_n is not None and n > max_n:
        raise GraphInputError(f"line {hln}: n={n} exceeds the {max_n}-node limit")
    if m < 0:
        raise GraphInputError(f"line {hln}: edge count must be nonnegative, got {m}")
    pairs: dict[int, tuple[int, int]] = {}
    for ln2, stripped in edge_lines:
        if len(pairs) == m:
            raise GraphInputError(f"line {ln2}: extra content after {m} edges")
        fields = stripped.split()
        if len(fields) != 2:
            raise GraphInputError(f"line {ln2}: edge must be 'i j', got {stripped!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphInputError(f"line {ln2}: edge must be two integers, got {stripped!r}")
        try:
            bit = _pair_bit(n, u, v)
        except GraphInputError as exc:
            raise GraphInputError(f"line {ln2}: {exc}")
        if bit in pairs:
            raise GraphInputError(f"line {ln2}: duplicate edge ({u}, {v})")
        pairs[bit] = (u, v)
    if len(pairs) != m:
        raise GraphInputError(
            f"line {len(lines)}: header promised {m} edges, found {len(pairs)}")
    return from_edge_list(n, pairs.values())


def format_edge_list(g: Graph) -> str:
    """Render a graph in the "n m" edge-list format."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
