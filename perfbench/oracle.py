"""Independent checks of the CLI's outputs.

The references here use ``numpy.linalg.eigvalsh`` and integer bound
formulas written out again in this file, never the program's own solver
or bound code.  Each check returns a ``Verdict``: how many records the
output covers, how many of them failed, and the reasons.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from corpus import graph6, upper_pairs

TOL = 1e-7          # the CLI's default inequality tolerance
SPECTRUM_TOL = 1e-8
CHECKS = ("gmb", "brouwer", "std")


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def fail(self, count: int, reason: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.reasons


def laplacian_spectra(adj: np.ndarray) -> np.ndarray:
    """(B, n, n) adjacency -> (B, n) Laplacian eigenvalues, descending."""
    lap = -adj.astype(float)
    diag = np.arange(adj.shape[1])
    lap[:, diag, diag] = adj.sum(axis=2)
    return np.linalg.eigvalsh(lap)[:, ::-1]


def exact_bounds(adj: np.ndarray) -> dict[str, np.ndarray]:
    """(B, n, n) adjacency -> check -> (B, n) integer bounds at k = 1..n."""
    n = adj.shape[1]
    degs = adj.sum(axis=2).astype(np.int64)
    m = (degs.sum(axis=1) // 2)[:, None]
    ks = np.arange(1, n + 1, dtype=np.int64)
    conj = (degs[:, None, :] >= ks[None, :, None]).sum(axis=2)
    brouwer = m + ks * (ks + 1) // 2
    return {
        "gmb": np.cumsum(conj, axis=1),
        "brouwer": brouwer,
        "std": np.minimum(np.minimum(ks * n, brouwer), 2 * m),
    }


def std_formula(n: int, m: int) -> list[int]:
    return [min(k * n, m + k * (k + 1) // 2, 2 * m) for k in range(1, n + 1)]


def reference(adjacency: list[np.ndarray]) -> tuple[list[np.ndarray], list[dict[str, bool]]]:
    """Per graph, its Laplacian spectrum (descending) and whether each check
    holds within TOL; graphs are solved in stacks of one n."""
    spectra: list[np.ndarray] = [np.zeros(0)] * len(adjacency)
    holds: list[dict[str, bool]] = [{} for _ in adjacency]
    by_n: dict[int, list[int]] = {}
    for pos, adj in enumerate(adjacency):
        by_n.setdefault(adj.shape[0], []).append(pos)
    for positions in by_n.values():
        stack = np.stack([adjacency[p] for p in positions])
        values = laplacian_spectra(stack)
        prefix = np.cumsum(values, axis=1)
        verdicts = {check: (bounds - prefix).min(axis=1) >= -TOL
                    for check, bounds in exact_bounds(stack).items()}
        for r, pos in enumerate(positions):
            spectra[pos] = values[r]
            holds[pos] = {check: bool(v[r]) for check, v in verdicts.items()}
    return spectra, holds


def all_labelled(n: int) -> list[np.ndarray]:
    """Every labelled graph on n nodes, mask bit p = graph6 bit p."""
    rows, cols = upper_pairs(n)
    masks = np.arange(1 << len(rows), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(rows))) & 1
    adj = np.zeros((len(masks), n, n), dtype=np.uint8)
    adj[:, rows, cols] = bits
    adj[:, cols, rows] = bits
    return list(adj)


# search ---------------------------------------------------------------------

_VIOLATION = re.compile(r"VIOLATION (\S+) check=(\w+) k=(\d+) margin=\S+")


def search_reference(adjacency: list[np.ndarray], ids: list[str] | None) -> set:
    """(record id, check) pairs a correct scan reports as violations."""
    out = set()
    for pos, holds in enumerate(reference(adjacency)[1]):
        for check in CHECKS:
            if not holds[check]:
                rid = ids[pos] if ids is not None else graph6(adjacency[pos])
                out.add((rid, check))
    return out


def check_search(stdout: str, exit_code: int, records: int,
                 expected: set) -> Verdict:
    v = Verdict(attempted=records)
    if exit_code != (1 if expected else 0):
        v.fail(records, f"exit code {exit_code}")
    lines = stdout.splitlines()
    head = dict(ln.split(": ", 1) for ln in lines
                if re.match(r"^(records|checks|violations|near-equality|errors): ", ln))
    if head.get("records") != str(records):
        v.fail(records, f"records line {head.get('records')!r}, expected {records}")
    if head.get("checks") != ",".join(CHECKS):
        v.fail(records, f"checks line {head.get('checks')!r}")
    errors = [ln for ln in lines if ln.startswith("ERROR ")]
    if head.get("errors") != "0" or errors:
        v.fail(max(len(errors), 1), f"errors line {head.get('errors')!r}")
    found = {(m.group(1), m.group(2)) for m in map(_VIOLATION.match, lines) if m}
    if head.get("violations") != str(len(found)):
        v.fail(1, f"violations line {head.get('violations')!r} against "
                  f"{len(found)} VIOLATION lines")
    wrong = found ^ expected
    if wrong:
        v.fail(len({rid for rid, _ in wrong}),
               f"violations differ from reference: {sorted(wrong)[:5]}")
    near = head.get("near-equality")
    v.facts["near_events"] = int(near) if near and near.isdigit() else None
    v.facts["violations"] = len(found)
    return v


# analyze --------------------------------------------------------------------

def check_analyze(stdout: str, exit_code: int, ids: list[str],
                  adjacency: list[np.ndarray]) -> Verdict:
    v = Verdict(attempted=len(ids))
    if exit_code != 0:
        v.fail(len(ids), f"exit code {exit_code}")
        return v
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError as exc:
        v.fail(len(ids), f"stdout is not JSON: {exc}")
        return v
    if not isinstance(reports, list) or len(reports) != len(ids):
        v.fail(len(ids), f"expected {len(ids)} reports")
        return v
    spectra, holds = reference(adjacency)
    for pos, (rep, rid, adj) in enumerate(zip(reports, ids, adjacency)):
        problem = _analyze_problem(rep, rid, adj, spectra[pos], holds[pos])
        if problem:
            v.fail(1, f"report {pos} ({rid}): {problem}")
    return v


def _analyze_problem(rep, rid: str, adj: np.ndarray, spectrum: np.ndarray,
                     holds: dict[str, bool]) -> str | None:
    n, m = adj.shape[0], int(adj.sum()) // 2
    try:
        if rep["id"] != rid:
            return f"id {rep['id']!r}"
        if (rep["n"], rep["m"]) != (n, m):
            return f"n, m = {rep['n']}, {rep['m']}, expected {n}, {m}"
        got = np.array(rep["spectrum"], dtype=float)
        if got.shape != spectrum.shape or np.abs(got - spectrum).max() > SPECTRUM_TOL:
            return "spectrum differs from eigvalsh"
        formula = std_formula(n, m)
        ks = [w["k"] for w in rep["witnesses"]]
        sums = [w["prefix_sum"] for w in rep["witnesses"]]
        if ks != list(range(1, n + 1)) or sums != formula:
            return "witness prefix sums differ from min(kn, m+k(k+1)/2, 2m)"
        for check in CHECKS:
            if rep["checks"][check]["holds"] is not holds[check]:
                return f"{check} verdict {rep['checks'][check]['holds']}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return None


# enumerate-threshold --------------------------------------------------------

def check_enumerate(stdout: str, exit_code: int, n: int) -> Verdict:
    """All 2^(n-1) threshold graphs on n nodes, each once, then the count."""
    total = 1 << (n - 1)
    v = Verdict(attempted=total)
    if exit_code != 0:
        v.fail(total, f"exit code {exit_code}")
        return v
    lines = stdout.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != f"count: {total}":
        v.fail(total, f"last line {lines[-1] if lines else None!r}")
        return v
    seen = bytearray(total)
    prefix = f"{n}:"
    bad = 0
    for line in lines[:-1]:
        head, sep, tail = line.partition(":")
        if not sep or head + sep != prefix:
            bad += 1
            continue
        try:
            cols = [int(c) for c in tail.split()]
        except ValueError:
            bad += 1
            continue
        mask = 0
        prev = n
        for i, c in enumerate(cols, start=1):
            if not (0 < c < prev and c <= n - i):
                mask = -1
                break
            mask |= 1 << (c - 1)
            prev = c
        if mask < 0 or seen[mask]:
            bad += 1
            continue
        seen[mask] = 1
    missing = total - sum(seen)
    if bad:
        v.fail(bad, f"{bad} invalid or repeated column lists")
    if missing:
        v.fail(missing, f"{missing} threshold graphs missing")
    v.facts["lines"] = len(lines) - 1
    return v
