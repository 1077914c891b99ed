"""Laplacian spectra, Laplacian energy, and eigenvalue prefix-sum bounds.

Laplacians are built in one place: ``laplacians`` scatters a (B, P) stack
of graph6-order edge-bit rows into (B, n, n) matrices D - A through the
pair index arrays of ``graphs``, and ``laplacian`` of one graph is the
stack of one.

Every first solve is LAPACK's symmetric eigensolver (numpy.linalg.eigvalsh).
The confirmer of flagged margins is a different algorithm: a cyclic Jacobi
iteration, sweeps of plane rotations in a fixed pivot order until the
off-diagonal Frobenius norm drops below off_tol * (1 + ||A||_F), with a
hard failure after 64 sweeps.  Jacobi works on one matrix at a time; a
stack is solved matrix by matrix, so each row is its matrix's own result.

Three prefix-sum bounds are checked against the spectrum, with
compensated summation on the eigenvalue side and exact integers on the
bound side:

  * Grone-Merris-Bai:  sum_{i<=k} lambda_i  <=  sum_{i<=k} d*_i
  * Brouwer:           sum_{i<=k} lambda_i  <=  m + k(k+1)/2
  * STD maximum:       sum_{i<=k} lambda_i  <=  min(k*n, m + k(k+1)/2, 2m)

One batched verdict core serves every caller, a single graph being the
batch of one: ``bound_rows`` writes the three bounds as exact integer
rows, ``solve`` is the only eigensolve, and ``verify`` solves a stack,
bounds every row, re-solves the rows some check flags by the Jacobi
confirmer at a 100x tighter tolerance before a violation is believed,
and returns the margin rows bound - prefix.  ``verdicts`` runs it on
edge-bit rows a stack of at most STACK_ENTRIES matrix entries at a time,
so memory does not grow with the number of rows, and yields one
``Verdicts`` per stack.  A margin row becomes a verdict in one place:
``Verdicts`` reads each record's worst k and smallest margin per check
off the stack's rows once, and whether it is violated (below -tol) or near
equality (below NEAR_EQUALITY); the scan's events, the dominance reports,
``check_gmb`` and ``check_brouwer`` all read them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .graphs import DEFAULT_TOL, Graph, _pair_index, bit_rows

# numpy is imported after the package's own modules: loading it first
# raised the peak RSS of analyze by about 0.5 MB
import numpy as np

OFF_TOL = 1e-12
CONFIRM_TOL = OFF_TOL / 100.0
MAX_SWEEPS = 64
ZERO_SNAP = 1e-9
NEAR_EQUALITY = 1e-4
# the checks, one per row of bound_rows, in report order
CHECKS = ("gmb", "brouwer", "std")
# the most float64 matrix entries solved in one stack (8 MiB of Laplacians)
STACK_ENTRIES = 1 << 20


class JacobiConvergenceError(RuntimeError):
    """The rotation budget ran out before the off-diagonal norm target."""


def laplacians(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, n, n) Laplacians scattered from (B, P) edge bits in {0, 1}.

    An absent edge is written as -0.0, the negated bit.  eigvalsh's
    Householder signs follow the sign of a zero, so every result, a scan
    row or one graph's report, is solved with this one sign.
    """
    rows, cols = _pair_index(n)
    # negate only after the cast: -uint8 wraps to 255
    off = -bits.astype(float)
    lap = np.zeros((bits.shape[0], n, n))
    lap[:, rows, cols] = off
    lap[:, cols, rows] = off
    diag = np.arange(n)
    lap[:, diag, diag] = -lap.sum(axis=2)
    return lap


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian matrix L = D - A as float64: ``laplacians`` of one row,
    byte for byte, -0.0 zeros included, so a graph's report solves the
    same matrix as its row in a scan."""
    return laplacians(g.n, bit_rows(g.n, [g.bits]))[0]


def jacobi_eigenvalues(matrix, *, off_tol: float = OFF_TOL,
                       max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi, sorted descending."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n <= 1:
        return a.diagonal().copy()
    target = off_tol * (1.0 + math.sqrt((a * a).sum()))
    # a rotation is skipped when its pivot is already this small; the
    # skipped mass stays safely below the convergence target
    skip = target / (2.0 * n)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for sweep in range(max_sweeps + 1):
        # summed directly off a diagonal-zeroed copy: subtracting the
        # diagonal mass from the full norm cancels below the target
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        off2 = (off * off).sum()
        if not off2 > target * target:
            return np.sort(a.diagonal())[::-1].copy()
        if sweep == max_sweeps:
            raise JacobiConvergenceError(
                f"off-diagonal norm {math.sqrt(off2):.3e} above {target:.3e} "
                f"after {max_sweeps} sweeps (n={n})")
        for p, q in pairs:
            apq = a.item(p, q)
            if abs(apq) <= skip:
                continue
            theta = (a.item(q, q) - a.item(p, p)) / (2.0 * apq)
            # |theta| + root never cancels, so both signs share one branch
            t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            rp, rq = a[p].copy(), a[q].copy()
            a[p] = c * rp - s * rq
            a[q] = s * rp + c * rq
            cp, cq = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * cp - s * cq
            a[:, q] = s * cp + c * cq
            a[p, q] = a[q, p] = 0.0
    raise AssertionError("unreachable")


def jacobi_eigenvalues_batch(matrices, *, off_tol: float = OFF_TOL,
                             max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues of a (B, n, n) stack of symmetric matrices: row i of the
    (B, n) result is ``jacobi_eigenvalues`` of matrix i."""
    a = np.array(matrices, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"need a (B, n, n) stack, got shape {a.shape}")
    out = np.zeros(a.shape[:2])
    for i, matrix in enumerate(a):
        out[i] = jacobi_eigenvalues(matrix, off_tol=off_tol, max_sweeps=max_sweeps)
    return out


def kahan_cumsum(mat: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums with Kahan compensation, (B, n) -> (B, n)."""
    out = np.empty_like(mat)
    total = np.zeros(mat.shape[0])
    comp = np.zeros(mat.shape[0])
    for j in range(mat.shape[1]):
        y = mat[:, j] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[:, j] = total
    return out


def prefix_sums(values) -> tuple[float, ...]:
    """Cumulative sums with Kahan compensation.

    Accepts a Spectrum or any iterable of reals.
    """
    if isinstance(values, Spectrum):
        values = values.values
    row = np.array([float(v) for v in values])
    return tuple(kahan_cumsum(row[None])[0].tolist())


@dataclass(frozen=True)
class Spectrum:
    """Laplacian spectrum: eigenvalues sorted nonincreasing, with n and m.

    The eigenvalue sum must match 2m and the smallest eigenvalue must be
    zero, both within tolerance of the matrix scale.
    """

    values: tuple[float, ...]
    n: int
    m: int

    def __post_init__(self):
        if len(self.values) != self.n:
            raise ValueError(f"{len(self.values)} eigenvalues for n={self.n}")
        scale = max(1.0, 2.0 * self.m)
        wiggle = 1e-6 * scale
        for a, b in zip(self.values, self.values[1:]):
            if b > a + wiggle:
                raise ValueError(f"eigenvalues must be nonincreasing, got {a} then {b}")
        if self.values and (self.values[-1] < -wiggle or self.values[-1] > wiggle):
            raise ValueError(f"smallest eigenvalue {self.values[-1]} is not zero")
        total = math.fsum(self.values)
        if abs(total - 2.0 * self.m) > wiggle:
            raise ValueError(f"eigenvalue sum {total} does not match 2m = {2 * self.m}")

    @property
    def mean_degree(self) -> float:
        """Average Laplacian eigenvalue 2m/n."""
        return 2.0 * self.m / self.n

    def prefix_sums(self) -> tuple[float, ...]:
        return prefix_sums(self.values)


def solve(laps: np.ndarray, off_tol: float | None = None) -> np.ndarray:
    """(B, n) Laplacian spectra of a (B, n, n) stack, each row descending.

    LAPACK's eigvalsh, or cyclic Jacobi converged to ``off_tol`` when one
    is given.  Values within 1e-9 of zero are snapped to zero; anything
    lower is a solver failure and raises.
    """
    if off_tol is None:
        vals = np.linalg.eigvalsh(laps)[:, ::-1]
    else:
        vals = jacobi_eigenvalues_batch(laps, off_tol=off_tol)
    # eigvalsh returns rounding noise such as 5.7e-16 for a zero eigenvalue.
    # No true nonzero Laplacian eigenvalue comes near the window: a connected
    # graph's algebraic connectivity is at least 4/(n*diam) >= 4/n^2.
    vals[np.abs(vals) < ZERO_SNAP] = 0.0
    low = vals[:, -1].min(initial=0.0)
    if low < 0.0:
        raise JacobiConvergenceError(
            f"eigenvalue {low} below the zero-snap window for n={laps.shape[1]}"
        )
    return vals


def eigenvalues(g: Graph, *, off_tol: float | None = None) -> Spectrum:
    """Laplacian spectrum of a graph: ``solve`` on the stack of one."""
    vals = solve(laplacian(g)[None], off_tol)[0]
    return Spectrum(tuple(vals.tolist()), g.n, g.m)


def bound_rows(n: int, degrees) -> dict[str, np.ndarray]:
    """Exact int64 (B, n) bound rows "gmb", "brouwer" and "std" for graphs
    on n nodes with the given (B, n) degrees; m is half the degree sum.

    gmb is the prefix of the conjugate degrees d*_k = #{i : d_i >= k},
    brouwer is m + k(k+1)/2 and std is min(k*n, m + k(k+1)/2, 2m).
    """
    degs = np.asarray(degrees, dtype=np.int64)
    ks = np.arange(1, n + 1, dtype=np.int64)
    m = degs.sum(axis=1, keepdims=True) // 2
    conj = (degs[:, None, :] >= ks[None, :, None]).sum(axis=2)
    brouwer = m + ks * (ks + 1) // 2
    return {"gmb": np.cumsum(conj, axis=1), "brouwer": brouwer,
            "std": np.minimum(np.minimum(ks * n, brouwer), 2 * m)}


def verify(laps: np.ndarray, checks, tol: float
           ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray],
                      dict[str, np.ndarray]]:
    """Spectra, Kahan prefix sums, exact bound rows and margin rows of a
    (B, n, n) stack of Laplacians.

    Every row is solved once.  Rows where some requested check misses by
    more than ``tol`` are re-solved together by the Jacobi confirmer at
    CONFIRM_TOL, and their spectra, prefix sums and margins are replaced.
    The margins are ``bounds[check] - prefix`` for each requested check,
    the one table every verdict reads.  ``tol`` must be finite.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {tol}")
    bounds = bound_rows(laps.shape[1], np.einsum("bii->bi", laps))
    eigs = solve(laps)
    prefix = kahan_cumsum(eigs)
    margins = {check: bounds[check] - prefix for check in checks}
    flagged = np.zeros(len(laps), dtype=bool)
    for row in margins.values():
        flagged |= row.min(axis=1, initial=np.inf) < -tol
    if flagged.any():
        eigs[flagged] = solve(laps[flagged], CONFIRM_TOL)
        prefix[flagged] = kahan_cumsum(eigs[flagged])
        for check, row in margins.items():
            row[flagged] = bounds[check][flagged] - prefix[flagged]
    return eigs, prefix, bounds, margins


def cycle_spectrum(n: int) -> Spectrum:
    """Exact cycle spectrum 2 - 2cos(2*pi*j/n), sorted descending."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got n={n}")
    vals = sorted((2.0 - 2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n)),
                  reverse=True)
    vals[-1] = 0.0
    return Spectrum(tuple(vals), n, n)


def laplacian_energy(spectrum: Spectrum) -> float:
    """Sum of |lambda_i - 2m/n| over the whole spectrum."""
    mean = spectrum.mean_degree
    return math.fsum(abs(v - mean) for v in spectrum.values)


def energy_count(spectrum: Spectrum, *, band: float = 1e-9) -> int:
    """Number of eigenvalues strictly above the mean 2m/n.

    Eigenvalues within ``band`` of the mean count as not above, so ties
    are resolved the same way everywhere.
    """
    mean = spectrum.mean_degree
    return sum(1 for v in spectrum.values if v > mean + band)


def energy_via_prefix(spectrum: Spectrum) -> float:
    """Laplacian energy as 2 * (S_{k*} - k* * 2m/n) with k* = energy_count.

    Equal to laplacian_energy because deviations above and below the mean
    cancel in total.
    """
    k = energy_count(spectrum)
    if k == 0:
        return 0.0
    pref = spectrum.prefix_sums()
    return 2.0 * (pref[k - 1] - k * spectrum.mean_degree)


@dataclass(frozen=True)
class KEntry:
    """One position of a prefix-sum check."""

    k: int
    eig_sum: float
    bound: float
    margin: float
    effective_bound: float | None = None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a prefix-sum bound check across k = 1..n.

    ``holds`` means every margin is at least -tol; ``near_ks`` lists the
    positions whose margin is below the near-equality window 1e-4.
    """

    check: str
    n: int
    m: int
    tol: float
    entries: tuple[KEntry, ...]
    holds: bool
    worst_k: int
    min_margin: float
    near_ks: tuple[int, ...]


class Verdicts:
    """Prefix-sum verdicts of one stack of B graphs on n nodes.

    ``part`` is the stack's slice of the rows given to ``verdicts``.  Holds
    ``verify``'s spectra, prefix sums, bound and margin rows, and, per
    check, each record's worst k (its first smallest margin), that margin
    and whether it is violated or near equality, the one reading of a
    margin row that every verdict shares; ``spectrum``, ``check``, ``near``
    and ``check_report`` read one record's values off them.
    """

    def __init__(self, n: int, rows: np.ndarray, part: slice, checks, tol: float):
        self.n, self.part, self.tol = n, part, tol
        self.eigs, self.prefix, self.bounds, self.margins = verify(
            laplacians(n, rows), checks, tol)
        self.m = rows.sum(axis=1, dtype=np.int64).tolist()
        self.worst_k, self.min_margin, self.violated, self.near_equal = {}, {}, {}, {}
        for check, row in self.margins.items():
            worst = row.argmin(axis=1)
            self.worst_k[check] = worst + 1
            self.min_margin[check] = low = row[np.arange(len(worst)), worst]
            self.violated[check], self.near_equal[check] = low < -tol, low < NEAR_EQUALITY

    def __len__(self) -> int:
        return len(self.m)

    def spectrum(self, i: int) -> Spectrum:
        return Spectrum(tuple(self.eigs[i].tolist()), self.n, self.m[i])

    def check(self, i: int, check: str) -> tuple[bool, int, float]:
        """(holds, worst k, smallest margin) of record i."""
        return (not self.violated[check].item(i), self.worst_k[check].item(i),
                self.min_margin[check].item(i))

    def near(self, i: int, check: str) -> tuple[int, ...]:
        """The ks where record i's margin is below the near-equality window."""
        return _near(self.margins[check][i].tolist())

    def check_report(self, i: int, check: str) -> CheckReport:
        """Record i's CheckReport.  Brouwer entries carry the std row as
        their effective bound."""
        n = self.n
        row = self.margins[check][i].tolist()
        effective = (self.bounds["std"][i].astype(float).tolist() if check == "brouwer"
                     else [None] * n)
        entries = tuple(map(KEntry, range(1, n + 1), self.prefix[i].tolist(),
                            self.bounds[check][i].astype(float).tolist(), row, effective))
        return CheckReport(check, n, self.m[i], self.tol, entries, *self.check(i, check),
                           _near(row))


def _near(row: list[float]) -> tuple[int, ...]:
    return tuple(k for k, margin in enumerate(row, 1) if margin < NEAR_EQUALITY)


def verdicts(n: int, rows: np.ndarray, checks, tol: float) -> Iterator[Verdicts]:
    """``Verdicts`` of (B, P) edge-bit rows on n nodes, in row order, a
    stack of at most STACK_ENTRIES matrix entries (one matrix at least) at
    a time, so memory does not grow with B."""
    step = max(1, STACK_ENTRIES // (n * n))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        yield Verdicts(n, rows[part], part, checks, tol)


def _one(g: Graph, check: str, tol: float) -> CheckReport:
    return next(verdicts(g.n, bit_rows(g.n, [g.bits]), (check,), tol)).check_report(0, check)


def check_gmb(g: Graph, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check sum_{i<=k} lambda_i <= sum_{i<=k} d*_i for every k."""
    return _one(g, "gmb", tol)


def check_brouwer(g: Graph, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check sum_{i<=k} lambda_i <= m + k(k+1)/2 for every k.

    Entries also carry the effective bound min(k*n, m + k(k+1)/2, 2m).
    """
    return _one(g, "brouwer", tol)
