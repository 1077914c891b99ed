"""Eigensolver, spectra, energies, and inequality checks.

numpy.linalg.eigvalsh is the fast path behind ``eigenvalues``; the cyclic
Jacobi solver is the confirmer it is checked against, and Jacobi itself
must agree with eigvalsh without ever calling it.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from specdom import (Spectrum, check_brouwer, check_gmb, cycle_spectrum,
                     eigenvalues, energy_count, energy_via_prefix, energy_witness,
                     jacobi_eigenvalues, jacobi_eigenvalues_batch, laplacian,
                     laplacian_energy, prefix_sums, scan_graph6_lines,
                     std_constructive)
from specdom.graphs import (Graph, complete, complete_plus_isolated, cycle,
                            decode_graph6)
from specdom.partitions import conjugate_counts
from specdom.spectra import (CONFIRM_TOL, JacobiConvergenceError, bound_rows,
                             kahan_cumsum)

SQRT2 = math.sqrt(2.0)


def random_graph(rng, n):
    return Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))


class TestLaplacian:
    def test_triangle(self):
        lap = laplacian(complete(3))
        expect = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        assert np.array_equal(lap, expect)

    def test_row_sums_vanish(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10))
            assert np.allclose(laplacian(g).sum(axis=1), 0.0)


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(271828)
        for _ in range(60):
            n = int(rng.integers(1, 16))
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            ours = jacobi_eigenvalues(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.allclose(ours, ref, atol=1e-9)

    def test_repeated_eigenvalues(self):
        # complete graphs have an (n-1)-fold eigenvalue
        for n in range(2, 30):
            vals = jacobi_eigenvalues(laplacian(complete(n)))
            assert np.allclose(vals, [n] * (n - 1) + [0], atol=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1912)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            b = int(rng.integers(1, 7))
            stack = rng.normal(size=(b, n, n))
            stack = (stack + stack.transpose(0, 2, 1)) / 2
            batch = jacobi_eigenvalues_batch(stack)
            for i in range(b):
                assert np.allclose(batch[i], jacobi_eigenvalues(stack[i]),
                                   atol=1e-10)

    def test_converged_matrix_takes_no_more_rotations(self):
        # the first matrix meets its target before any sweep, but its pivot
        # is above the skip size and its diagonal repeats, so one rotation
        # would move two eigenvalues by 2e-12 while its stack mate converges
        a = np.diag([2.0, 2.0, 5.0])
        a[0, 1] = a[1, 0] = 2e-12
        mate = np.array([[1.0, 0.5, 0.3], [0.5, 2.0, 0.7], [0.3, 0.7, 3.0]])
        together = jacobi_eigenvalues_batch(np.stack([a, mate]))
        for row, m in zip(together, (a, mate)):
            assert row.tobytes() == jacobi_eigenvalues_batch(m[None])[0].tobytes()
        assert together[0].tolist() == [5.0, 2.0, 2.0]

    def test_confirmer_bytes_pinned(self):
        # every labelled graph with n <= 5, then 100 random graphs with n up
        # to 40 one at a time and again as one stack per n, at the confirm
        # tolerance.  A stacked row is hashed with its zeros made positive:
        # a zero's sign is no part of a spectrum, as solve snaps it to +0.0.
        digests = []
        h = hashlib.sha256()
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                lap = laplacian(Graph(n, bits))[None]
                h.update(jacobi_eigenvalues_batch(lap, off_tol=CONFIRM_TOL).tobytes())
        digests.append(h.hexdigest())
        rng = random.Random(2718)
        laps = [laplacian(random_graph(rng, rng.randint(2, 40))) for _ in range(100)]
        h = hashlib.sha256()
        for lap in laps:
            h.update(jacobi_eigenvalues_batch(lap[None], off_tol=CONFIRM_TOL).tobytes())
        digests.append(h.hexdigest())
        h = hashlib.sha256()
        for n in sorted({len(lap) for lap in laps}):
            stack = np.stack([lap for lap in laps if len(lap) == n])
            h.update((jacobi_eigenvalues_batch(stack, off_tol=CONFIRM_TOL) + 0.0).tobytes())
        digests.append(h.hexdigest())
        assert digests == [
            "278f786dc7b74f3f8789fb42aac8ddd31c260bd973d9c6f65527af08034d4813",
            "fc2734fea0b38d0432133fa3ef754bc55ac47781cc4a8ab4566002bdee758c05",
            "5daea2b4452f79dcfe65a71d28b541495aeb720aea9f83480f8e8082a5289a27",
        ]

    def test_zero_sweep_budget_raises(self):
        a = laplacian(cycle(5))
        with pytest.raises(JacobiConvergenceError):
            jacobi_eigenvalues(a, max_sweeps=0)
        with pytest.raises(JacobiConvergenceError):
            jacobi_eigenvalues_batch(a[None, :, :], max_sweeps=0)

    def test_diagonal_converges_in_zero_sweeps(self):
        a = np.diag([3.0, 1.0, 2.0])
        assert np.array_equal(jacobi_eigenvalues(a, max_sweeps=0), [3.0, 2.0, 1.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            jacobi_eigenvalues_batch(np.zeros((2, 3, 4)))


class TestEigenvalues:
    def test_c8_spectrum(self):
        vals = eigenvalues(cycle(8)).values
        expect = sorted([4, 2 + SQRT2, 2 + SQRT2, 2, 2, 2 - SQRT2, 2 - SQRT2, 0],
                        reverse=True)
        for a, b in zip(vals, expect):
            assert abs(a - b) < 1e-9

    def test_complete_graph_integer(self):
        vals = eigenvalues(complete(5)).values
        assert np.allclose(vals, [5, 5, 5, 5, 0], atol=1e-10)

    def test_negative_tail_clamped_to_zero(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9))
            assert eigenvalues(g).values[-1] >= 0.0

    def test_matches_jacobi_on_random_graphs(self):
        # the production path and the eigvalsh oracle are one routine, so
        # the independent cross-check is the Jacobi confirmer
        rng = random.Random(4242)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 40))
            fast = eigenvalues(g).values
            slow = jacobi_eigenvalues(laplacian(g))
            assert np.allclose(fast, slow, rtol=0.0, atol=1e-9)

    def test_zero_eigenvalues_snapped_exactly(self):
        # K6 plus 2 isolated nodes: three exact zeros, no rounding noise
        vals = eigenvalues(complete_plus_isolated(6, 8)).values
        assert vals[-3:] == (0.0, 0.0, 0.0)
        assert vals[-4] > 1.0

    def test_off_tol_selects_jacobi(self, monkeypatch):
        def no_lapack(_):
            raise AssertionError("eigvalsh called on the Jacobi path")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
        vals = eigenvalues(cycle(8), off_tol=1e-14).values
        assert np.allclose(vals, cycle_spectrum(8).values, rtol=0.0, atol=1e-12)

    def test_merris_on_thresholds(self):
        from specdom import ThresholdGraph
        for n, cols in ((8, (4, 3, 1)), (6, (5, 3)), (10, (9, 4, 2, 1))):
            t = ThresholdGraph(n, cols)
            numeric = eigenvalues(t.realize()).values
            for a, b in zip(numeric, t.spectrum_ints()):
                assert abs(a - b) < 1e-8


class TestSpectrumType:
    def test_trace_identity(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 10))
            s = eigenvalues(g)
            assert abs(math.fsum(s.values) - 2 * g.m) < 1e-8 * max(1, 2 * g.m)

    def test_mean_degree(self):
        s = eigenvalues(cycle(6))
        assert abs(s.mean_degree - 2.0) < 1e-12

    def test_validation_rejects_increasing(self):
        with pytest.raises(ValueError):
            Spectrum((1.0, 2.0, 0.0), 3, 1.5)

    def test_validation_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Spectrum((2.0, 0.0), 3, 1)

    def test_validation_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Spectrum((4.0, 2.0, 0.0), 3, 1)

    def test_validation_rejects_nonzero_tail(self):
        with pytest.raises(ValueError):
            Spectrum((2.0, 1.5, 0.5), 3, 2)


class TestCycleSpectrum:
    def test_matches_solver(self):
        for n in (3, 4, 5, 8, 12, 17):
            analytic = cycle_spectrum(n).values
            numeric = eigenvalues(cycle(n)).values
            for a, b in zip(analytic, numeric):
                assert abs(a - b) < 1e-9

    def test_closed_form(self):
        vals = cycle_spectrum(4).values
        assert np.allclose(vals, [4.0, 2.0, 2.0, 0.0], atol=1e-12)


class TestPrefixSums:
    def test_c8_fixture(self):
        ps = eigenvalues(cycle(8)).prefix_sums()
        want = (4, 6 + SQRT2, 8 + 2 * SQRT2, 10 + 2 * SQRT2, 12 + 2 * SQRT2,
                14 + SQRT2, 16, 16)
        for a, b in zip(ps, want):
            assert abs(a - b) < 1e-9

    def test_matches_fsum(self):
        rng = random.Random(808)
        for _ in range(100):
            vals = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
                    for _ in range(rng.randint(1, 40))]
            ours = prefix_sums(vals)
            for k in range(1, len(vals) + 1):
                assert math.isclose(ours[k - 1], math.fsum(vals[:k]),
                                    rel_tol=1e-12, abs_tol=1e-15)

    def test_accepts_spectrum(self):
        s = eigenvalues(cycle(5))
        assert prefix_sums(s) == s.prefix_sums()

    def test_empty(self):
        assert prefix_sums([]) == ()

    def test_bit_identical_to_kahan_cumsum(self):
        rng = random.Random(4242)
        for length in [0, 1] + [rng.randint(0, 40) for _ in range(198)]:
            row = np.array([rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
                            for _ in range(length)])
            assert prefix_sums(row) == tuple(kahan_cumsum(row[None])[0].tolist())


class TestEnergy:
    def test_c8(self):
        le = laplacian_energy(eigenvalues(cycle(8)))
        assert abs(le - (4 + 4 * SQRT2)) < 1e-12

    def test_clique_plus_isolated(self):
        # K7 + 2 isolated on 9 nodes: LE = 28
        le = laplacian_energy(eigenvalues(complete_plus_isolated(7, 9)))
        assert abs(le - 28.0) < 1e-9

    def test_edgeless(self):
        assert laplacian_energy(eigenvalues(Graph(4, 0))) == 0.0

    def test_prefix_route_agrees_exhaustive_n5(self):
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                s = eigenvalues(Graph(n, bits))
                assert abs(laplacian_energy(s) - energy_via_prefix(s)) < 1e-8

    def test_energy_count_band(self):
        s = eigenvalues(cycle(8))
        assert energy_count(s) == 3


class TestChecks:
    def test_gmb_c8(self):
        rep = check_gmb(cycle(8))
        assert rep.holds
        # k=2 margin: conjugate prefix 16 minus (6 + sqrt 2)
        entry = rep.entries[1]
        assert entry.k == 2
        assert abs(entry.margin - (16 - (6 + SQRT2))) < 1e-9

    def test_gmb_threshold_equality_everywhere(self):
        from specdom import ThresholdGraph
        t = ThresholdGraph(7, (5, 3, 1))
        rep = check_gmb(t.realize())
        assert rep.holds
        for entry in rep.entries:
            assert abs(entry.margin) < 1e-9

    def test_gmb_edgeless(self):
        rep = check_gmb(Graph(5, 0))
        assert rep.holds and rep.min_margin == 0.0

    def test_brouwer_c8_k1(self):
        rep = check_brouwer(cycle(8))
        assert rep.holds
        assert abs(rep.entries[0].margin - 5.0) < 1e-9

    def test_brouwer_k62_equality_at_5(self):
        rep = check_brouwer(complete_plus_isolated(6, 8))
        assert rep.holds
        assert abs(rep.entries[4].margin) < 1e-9
        assert 5 in rep.near_ks

    def test_brouwer_effective_bound(self):
        rep = check_brouwer(cycle(8))
        for entry in rep.entries:
            k = entry.k
            assert entry.effective_bound == min(8 * k, 8 + k * (k + 1) // 2, 16)

    def test_negative_tolerance_forces_violation(self):
        rep = check_gmb(complete(4), tol=-0.5)
        assert not rep.holds

    def test_gmb_holds_exhaustive_n4(self):
        for bits in range(1 << 6):
            assert check_gmb(Graph(4, bits)).holds

    def test_report_margins_sorted_by_k(self):
        rep = check_brouwer(cycle(6))
        assert [e.k for e in rep.entries] == list(range(1, 7))
        assert rep.min_margin == min(e.margin for e in rep.entries)
        assert rep.worst_k == min(e.k for e in rep.entries
                                  if e.margin == rep.min_margin)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("verdict", [
        lambda tol: check_brouwer(cycle(5), tol),
        lambda tol: std_constructive(cycle(5), tol),
        lambda tol: energy_witness(cycle(5), tol),
        lambda tol: scan_graph6_lines(["Bw"], tol=tol),
    ], ids=["check_brouwer", "std_constructive", "energy_witness", "scan"])
    def test_non_finite_tolerance_is_refused(self, verdict, tol):
        # every verdict goes through spectra.verify, which refuses it
        with pytest.raises(ValueError, match=f"tolerance must be a finite number, got {tol}"):
            verdict(tol)


class TestBoundRows:
    def test_rows_match_formulas(self):
        rng = random.Random(31)
        graphs = [random_graph(rng, 9) for _ in range(40)]
        degrees = np.array([g.degree_sequence().values for g in graphs])
        rows = bound_rows(9, degrees)
        for i, g in enumerate(graphs):
            conj = conjugate_counts(g.degree_sequence().values, 9)
            gmb = [sum(conj[:k]) for k in range(1, 10)]
            assert rows["gmb"][i].tolist() == gmb
            for k in range(1, 10):
                brouwer = g.m + k * (k + 1) // 2
                assert rows["brouwer"][i, k - 1] == brouwer
                assert rows["std"][i, k - 1] == min(9 * k, brouwer, 2 * g.m)
        assert all(r.dtype == np.int64 for r in rows.values())

