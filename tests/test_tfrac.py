"""Tests for the graded-mesh fractional time stepping."""

import dataclasses
import itertools
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.sparse.linalg as spla
from scipy.special import exprel, gamma as gamma_fn

from fracuq import estimator, tfrac
from fracuq.errors import ConfigurationError, SolverError, ToleranceError
from fracuq.estimator import _chunks, _functional_samples, example_initial_gradient
from fracuq.fem import (StiffnessAssembler, assemble_mass, band_ordered,
                        load_mesh, load_vector, phi_integrals, save_mesh,
                        triangulate_unit_square)
from fracuq.field import build_example_field, build_sine_table_field
from fracuq.tfrac import (GradedTimeMesh, TrajectorySolver, _pair_weights, exp_sum_kernel,
                          graded_mesh, l2J_norm, weight_matrix)
from oracles import (exp_sum_values, g_uniform, history_weights, reference_trajectory,
                     ritz_projection)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def oracle_weight(tmesh, alpha, n, j):
    """w_nj by adaptive quadrature of the defining double integral.

    The inner integral over s is the exact increment of the fractional
    integral kernel antiderivative; the outer one is left to quad.
    """
    t = tmesh.t
    tau_n = t[n] - t[n - 1]
    tau_j = t[j] - t[j - 1]
    g2 = gamma_fn(2.0 - alpha)

    def inner(tt):
        hi = (tt - t[j - 1]) ** (1.0 - alpha) / g2
        lo = (max(tt - t[j], 0.0)) ** (1.0 - alpha) / g2 if tt > t[j] else 0.0
        return hi - lo

    val, err = si.quad(inner, t[n - 1], t[n], epsabs=0.0, epsrel=1e-12, limit=200)
    return val / (tau_n * tau_j)


class TestGradedMesh:
    def test_endpoints(self):
        tm = graded_mesh(2.0, 7, 3.0)
        assert tm.t[0] == 0.0
        assert tm.t[-1] == pytest.approx(2.0, rel=1e-14)
        assert np.all(tm.dt > 0)

    def test_uniform_when_gamma_one(self):
        tm = graded_mesh(1.0, 5, 1.0)
        assert np.allclose(tm.dt, 0.2)

    def test_first_level_strong_grading(self):
        tm = graded_mesh(1.0, 150, 4.0)
        assert tm.t[1] == pytest.approx((1.0 / 150.0) ** 4, rel=1e-14)
        assert tm.t[1] == pytest.approx(1.9753e-9, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            graded_mesh(1.0, 5, 0.5)
        with pytest.raises(ConfigurationError):
            graded_mesh(0.0, 5, 2.0)


class TestHistoryWeights:
    def test_uniform_diagonal_value(self):
        tm = graded_mesh(4.0, 4, 1.0)  # tau = 1
        row = history_weights(tm, 0.5, 1)
        assert row[0] == pytest.approx(1.0 / gamma_fn(2.5), rel=1e-14)

    def test_uniform_toeplitz_structure(self):
        alpha = 0.3
        tm = graded_mesh(1.0, 12, 1.0)
        wnn = history_weights(tm, alpha, 1)[0]
        for n in (5, 12):
            row = history_weights(tm, alpha, n)
            j = np.arange(1, n + 1)
            expected = wnn * g_uniform(n - j, alpha)
            assert np.allclose(row, expected, rtol=1e-12)

    def test_uniform_g1_value(self):
        # g_1 at alpha = 1/2 is 2^(3/2) - 2
        assert g_uniform(1, 0.5) == pytest.approx(2.0 ** 1.5 - 2.0, rel=1e-14)

    def test_quadrature_oracle_random_configs(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            alpha = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(1.0, 5.0)
            nt = int(rng.integers(2, 13))
            tm = graded_mesh(1.0, nt, gamma)
            n = int(rng.integers(1, nt + 1))
            row = history_weights(tm, alpha, n)
            assert np.all(row > 0)
            for j in range(1, n + 1):
                assert row[j - 1] == pytest.approx(
                    oracle_weight(tm, alpha, n, j), rel=1e-9)

    def test_crank_nicolson_limit(self):
        alpha = 1.0 - 1e-8
        tm = graded_mesh(1.0, 8, 1.0)
        row = history_weights(tm, alpha, 8)
        assert row[-1] * tm.dt[-1] == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.abs(row[:-1]) < 1e-6)

    def test_bounds_checked(self):
        tm = graded_mesh(1.0, 4, 2.0)
        with pytest.raises(ConfigurationError):
            history_weights(tm, 0.5, 5)
        with pytest.raises(ConfigurationError):
            history_weights(tm, 1.5, 2)

    def test_weight_matrix_lower_triangular(self):
        tm = graded_mesh(1.0, 6, 3.0)
        W = weight_matrix(tm, 0.4)
        assert np.allclose(W, np.tril(W))
        for n in range(1, 7):
            assert np.allclose(W[n, 1: n + 1], history_weights(tm, 0.4, n))


def reference_weight_matrix(tmesh, alpha):
    """W built row by row with 12 Gauss-Legendre nodes for every far pair:
    the reference for the per-pair node counts of weight_matrix.  A near
    pair's four w_{3-a} terms are grouped across the shorter interval I_j
    (tau_j <= tau_n on these meshes), which keeps them accurate at any
    step ratio."""
    nodes, gl_weights = np.polynomial.legendre.leggauss(12)
    t, dt = tmesh.t, tmesh.dt
    g23, g2 = gamma_fn(3.0 - alpha), gamma_fn(2.0 - alpha)
    e3, e2 = 2.0 - alpha, 1.0 - alpha

    def omega3_diff(base, gap):
        out = np.empty_like(base)
        zero = base <= 0
        out[zero] = gap[zero] ** e3 / g23
        b = base[~zero]
        out[~zero] = b ** e3 * np.expm1(e3 * np.log1p(gap[~zero] / b)) / g23
        return out

    nt = tmesh.n_steps
    W = np.zeros((nt + 1, nt + 1))
    for n in range(1, nt + 1):
        tau_n = dt[n - 1]
        W[n, n] = tau_n ** e3 / g23 / tau_n ** 2
        j = np.arange(1, n)
        base_lo = t[n - 1] - t[j]
        num = omega3_diff(base_lo + tau_n, dt[j - 1]) - omega3_diff(base_lo, dt[j - 1])
        far = base_lo >= 2.0 * dt[j - 1]
        delta = dt[j - 1][far]
        x = base_lo[far][:, None] + 0.5 * delta[:, None] * (nodes[None, :] + 1.0)
        vals = x ** e2 * np.expm1(e2 * np.log1p(tau_n / x)) / g2
        num[far] = 0.5 * delta * (vals @ gl_weights)
        W[n, 1:n] = num / (tau_n * dt[j - 1])
    return W


class TestWeightMatrix:
    @pytest.mark.parametrize("n_steps", [50, 150, 400])
    def test_matches_twelve_node_rows(self, n_steps):
        worst = 0.0
        for gamma in (1.0, 1.5, 4.0, 6.0):
            for alpha in (0.05, 0.5, 0.95):
                tm = graded_mesh(1.0, n_steps, gamma)
                W = weight_matrix(tm, alpha)
                ref = reference_weight_matrix(tm, alpha)
                assert np.array_equal(W == 0.0, ref == 0.0)
                nz = ref != 0.0
                worst = max(worst, np.max(np.abs(W[nz] - ref[nz]) / np.abs(ref[nz])))
        assert worst <= 1e-13, f"worst relative deviation {worst:.3e}"

    def test_rows_are_history_weights(self):
        # one pair kernel: every row of W is bitwise the history_weights row
        tm = graded_mesh(1.0, 130, 4.0)
        W = weight_matrix(tm, 0.7)
        for n in (1, 2, 31, 32, 100, 130):
            assert np.array_equal(W[n, 1: n + 1], history_weights(tm, 0.7, n))

    def test_alpha_checked(self):
        with pytest.raises(ConfigurationError):
            weight_matrix(graded_mesh(1.0, 4, 2.0), 1.0)


class TestFarPairSeries:
    @staticmethod
    def oracle(alpha, base, tau_n, tau_j):
        """w_nj from its four w_{3-a} values in 60-digit arithmetic; at
        tau_j / base = 1e-12, tau_n / c = 1e-8 and alpha = 1 - 1e-6 they
        cancel by about 26 digits."""
        with mpmath.workdps(60):
            e3 = 2 - mpmath.mpf(alpha)
            b, tn, tj = (mpmath.mpf(float(v)) for v in (base, tau_n, tau_j))
            four = (b + tj + tn) ** e3 - (b + tn) ** e3 - (b + tj) ** e3 + b ** e3
            return four / (mpmath.gamma(1 + e3) * tn * tj)

    def test_matches_mpmath(self):
        # ratios tau_j / base on both sides of the switch from degree 4 to
        # degree 10 (base = 1 keeps 0.05 and the next float apart), tau_n
        # from 1e-8 to 10 times the midpoint distance c, and alpha up to
        # criterion 4's 1 - 1e-6
        ratios = [1e-12, 1e-6, 1e-3, 0.05, np.nextafter(0.05, 1.0), 0.3, 0.5]
        gaps = [1e-8, 1e-3, 0.1, 1.0, 10.0]
        tau_j, r = (np.array(v) for v in zip(*itertools.product(ratios, gaps)))
        base = np.ones_like(tau_j)
        tau_n = r * (base + 0.5 * tau_j)
        worst = 0.0
        for alpha in (0.01, 0.05, 0.5, 0.95, 0.99, 1.0 - 1e-6):
            w = _pair_weights(alpha, base, tau_n, tau_j)
            for i in range(w.size):
                ref = self.oracle(alpha, base[i], tau_n[i], tau_j[i])
                worst = max(worst, float(abs((w[i] - ref) / ref)))
        assert worst <= 1e-14, f"worst relative deviation {worst:.3e}"


class TestExpSumKernel:
    def test_uniform_relative_accuracy(self):
        # t^-alpha is scale-free, so [1e-6 T, T] takes as many terms for any T
        alpha, eps = 0.5, 1e-8
        for T in (1.0, 1e-3, 1e3, 1e150):
            k = exp_sum_kernel(alpha, 1e-6 * T, T, eps)
            t = np.geomspace(1e-6 * T, T, 300)
            target = t ** (-alpha) / gamma_fn(1.0 - alpha)
            assert np.max(np.abs(exp_sum_values(k, t) - target) / target) <= eps, T
            assert k.nodes.size == exp_sum_kernel(alpha, 1e-6, 1.0, eps).nodes.size, T

    def test_few_terms_near_target(self):
        # the step is refined finely enough to stop near eps/2, not far below
        # it with about twice the terms
        for n_steps, terms in ((400, 89), (6400, 115)):
            t_min = float(graded_mesh(1.0, n_steps, 4.0).dt.min())
            k = exp_sum_kernel(0.5, t_min, 1.0, 1e-8)
            assert k.nodes.size == terms
            assert 5e-10 < k.rel_err <= 5e-9

    def test_term_budget_enforced(self):
        # eps = 1e-15 over twelve decades outgrows the 4000-term budget
        with pytest.raises(ToleranceError, match="more than 4000 terms"):
            exp_sum_kernel(0.5, 1e-12, 1.0, 1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            exp_sum_kernel(0.5, 1.0, 0.5, 1e-8)
        # the window's left end takes ln(ln(8/(eps alpha))): eps lies in (0, 1)
        with pytest.raises(ConfigurationError):
            exp_sum_kernel(0.5, 1e-3, 1.0, 1.0)


class TestL2JNorm:
    def test_constant_series(self):
        tm = graded_mesh(2.0, 9, 3.0)
        series = np.full(10, 1.5)
        assert l2J_norm(series, tm) == pytest.approx(1.5 * math.sqrt(2.0), rel=1e-13)

    def test_linear_series_exact(self):
        # the piecewise-linear reconstruction of t_n is t itself
        tm = graded_mesh(1.0, 7, 2.5)
        assert l2J_norm(tm.t, tm) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)

    def test_vector_series_euclidean(self):
        tm = graded_mesh(1.0, 5, 2.0)
        rng = np.random.default_rng(6)
        series = rng.normal(size=(6, 3))
        direct = math.sqrt(sum(l2J_norm(series[:, c], tm) ** 2 for c in range(3)))
        assert l2J_norm(series, tm) == pytest.approx(direct, rel=1e-13)

    def test_length_checked(self):
        tm = graded_mesh(1.0, 5, 2.0)
        with pytest.raises(ConfigurationError):
            l2J_norm(np.zeros(5), tm)


def crank_nicolson_series(mesh, field, y, tau, n_steps, f, grad_g):
    """Independent Crank-Nicolson Galerkin reference for the alpha -> 1 limit."""
    M = assemble_mass(mesh)
    asm = StiffnessAssembler(mesh, field, grad_g)
    D = asm.matrix(y)
    u = ritz_projection(mesh, field, y, grad_g, assembler=asm)
    phi = phi_integrals(mesh)
    series = [phi @ u]
    A = (M / tau + 0.5 * D).tocsc()
    lu = spla.splu(A)
    for n in range(1, n_steps + 1):
        rhs = load_vector(mesh, f, (n - 1) * tau, n * tau) - D @ u
        u = u + lu.solve(rhs)
        series.append(phi @ u)
    return np.array(series)


def solve_trajectory(field, y, mesh, tmesh, alpha, f, grad_g):
    return TrajectorySolver(mesh, field, tmesh, alpha, f, grad_g).solve(y)


class TestTrajectorySolver:
    def setup_method(self):
        self.field = build_example_field(4)
        self.mesh = triangulate_unit_square(8)

    def test_crank_nicolson_degeneration(self):
        alpha = 1.0 - 1e-8
        tm = graded_mesh(1.0, 16, 1.0)
        rng = np.random.default_rng(13)
        y = rng.uniform(-0.5, 0.5, size=len(self.field))
        got = solve_trajectory(self.field, y, self.mesh, tm, alpha, 1.0,
                               example_initial_gradient) @ phi_integrals(self.mesh)
        ref = crank_nicolson_series(self.mesh, self.field, y, tm.dt[0], 16, 1.0,
                                    example_initial_gradient)
        assert l2J_norm(got - ref, tm) <= 1e-4 * l2J_norm(ref, tm)

    def test_superposition(self):
        tm = graded_mesh(1.0, 10, 4.0)
        y = np.full(len(self.field), 0.2)

        def zero_grad(x1, x2):
            z = np.zeros_like(np.asarray(x1, dtype=float))
            return z, z

        full = solve_trajectory(self.field, y, self.mesh, tm, 0.5, 1.0,
                                example_initial_gradient)
        source_only = solve_trajectory(self.field, y, self.mesh, tm, 0.5, 1.0, zero_grad)
        init_only = solve_trajectory(self.field, y, self.mesh, tm, 0.5, 0.0,
                                     example_initial_gradient)
        assert np.allclose(full, source_only + init_only, atol=1e-12)

    def test_fast_history_solver_close(self):
        tm = graded_mesh(1.0, 30, 4.0)
        y = np.full(len(self.field), 0.1)
        args = (self.mesh, self.field, tm, 0.5, 1.0,
                example_initial_gradient)
        slow = TrajectorySolver(*args).functional_series(y)
        fast = TrajectorySolver(*args, fast_history=True,
                                fast_eps=1e-10).functional_series(y)
        assert np.max(np.abs(slow - fast)) <= 1e-7 * np.max(np.abs(slow))

    def test_truncated_parameters_consistent(self):
        tm = graded_mesh(1.0, 6, 2.0)
        solver = TrajectorySolver(self.mesh, self.field, tm, 0.5, 1.0,
                                  example_initial_gradient)
        y = np.array([0.4, -0.1])
        padded = np.concatenate([y, np.zeros(len(self.field) - 2)])
        assert np.allclose(solver.functional_series(y),
                           solver.functional_series(padded), atol=1e-14)

    def test_initial_functional_near_one(self):
        # the initial datum has unit mean; its Ritz projection keeps it to O(h^2)
        tm = graded_mesh(1.0, 2, 2.0)
        mesh = triangulate_unit_square(24)
        solver = TrajectorySolver(mesh, self.field, tm, 0.5, 1.0,
                                  example_initial_gradient)
        series = solver.functional_series(np.zeros(len(self.field)))
        assert series[0] == pytest.approx(1.0, abs=5e-3)

    def test_monotone_decay_with_zero_source(self):
        # with f = 0 the functional of the subdiffusion solution decays
        tm = graded_mesh(1.0, 20, 4.0)

        def zero(x1, x2):
            return np.zeros_like(np.asarray(x1, dtype=float))

        series = solve_trajectory(
            self.field, np.zeros(len(self.field)), self.mesh, tm, 0.5, 0.0,
            example_initial_gradient
        ) @ phi_integrals(self.mesh)
        assert np.all(np.diff(series) < 0)
        assert series[-1] > 0


class TestChunkedStepping:
    def setup_method(self):
        self.field = build_example_field(3)
        self.mesh = triangulate_unit_square(6)
        self.tmesh = graded_mesh(1.0, 12, 4.0)
        self.points = np.random.default_rng(21).uniform(
            -0.5, 0.5, size=(5, len(self.field)))

    def solver(self, **kw):
        return TrajectorySolver(self.mesh, self.field, self.tmesh, 0.5, 1.0,
                                example_initial_gradient, **kw)

    def test_single_sample_matches_reference(self):
        y = self.points[0]
        ref = (reference_trajectory(self.mesh, self.field, self.tmesh, 0.5, y)
               @ phi_integrals(self.mesh))
        solver = self.solver()
        assert np.max(np.abs(solver.functional_series(y) - ref)) <= 1e-12
        u = solver.solve(y)
        assert np.max(np.abs(u @ solver.phi - ref)) <= 1e-12

    def test_ragged_chunks_match_reference(self, monkeypatch):
        # d = 25 fits 5 samples into one chunk; 100 dofs a chunk splits them
        monkeypatch.setattr(estimator, "_CHUNK_DOFS", 100)
        assert _chunks(5, 25) == [(0, 2), (2, 5)]
        got = _functional_samples(self.solver(), self.points, threads=1)
        for y, row in zip(self.points, got):
            ref = (reference_trajectory(self.mesh, self.field, self.tmesh, 0.5, y)
                   @ phi_integrals(self.mesh))
            assert np.max(np.abs(row - ref)) <= 1e-12

    def test_level_blocks_match_reference(self):
        # 70 levels: two full blocks of 32 after the first and a ragged one of 6
        tmesh = graded_mesh(1.0, 70, 4.0)
        solver = TrajectorySolver(self.mesh, self.field, tmesh, 0.5, 1.0,
                                  example_initial_gradient)
        ys = self.points[:3]
        phi = phi_integrals(self.mesh)
        refs = [reference_trajectory(self.mesh, self.field, tmesh, 0.5, y) @ phi for y in ys]
        assert np.max(np.abs(solver.functional_series(ys) - refs)) <= 1e-12
        assert np.max(np.abs(solver.solve(ys[0]) @ solver.phi - refs[0])) <= 1e-12

    def test_block_matches_single_samples(self):
        solver = self.solver(fast_history=True, fast_eps=1e-10)
        block = solver.functional_series(self.points)
        single = np.array([solver.functional_series(y) for y in self.points])
        assert block.shape == (5, self.tmesh.n_steps + 1)
        assert np.allclose(block, single, rtol=1e-10, atol=1e-14)

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        monkeypatch.setattr(estimator, "_CHUNK_DOFS", 100)
        solver = self.solver()
        points = np.random.default_rng(22).uniform(-0.5, 0.5, size=(11, len(self.field)))
        assert [b - a for a, b in _chunks(11, 25)] == [5, 6]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the workers as often as possible
        try:
            runs = [_functional_samples(solver, points, threads) for threads in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(runs[0], other) for other in runs[1:])

    def test_direct_path_makes_no_sparse_lu(self, monkeypatch):
        y = self.points[1]
        ref = (reference_trajectory(self.mesh, self.field, self.tmesh, 0.5, y)
               @ phi_integrals(self.mesh))

        def refuse(*args, **kwargs):
            raise AssertionError("sparse LU on the direct path")

        monkeypatch.setattr(spla, "spsolve", refuse)
        monkeypatch.setattr(spla, "splu", refuse)
        assert np.max(np.abs(self.solver().functional_series(y) - ref)) <= 1e-12


class TestHistorySums:
    """Each history object against the sum it stands for, term by term."""

    def setup_method(self):
        self.field = build_example_field(3)
        self.mesh = triangulate_unit_square(6)
        # 70 levels: two full level blocks after the first and a ragged one
        self.tmesh = graded_mesh(1.0, 70, 4.0)
        self.W = weight_matrix(self.tmesh, 0.5)
        self.mx = np.random.default_rng(31).normal(size=(70, 50))

    def solver(self, **kw):
        return TrajectorySolver(self.mesh, self.field, self.tmesh, 0.5, 1.0,
                                example_initial_gradient, **kw)

    def check(self, history, weight):
        """Drive ``history`` as the stepper does; weight(n, j) is the
        coefficient of M V^j in the history of level n."""
        for n in range(1, 71):
            x = np.zeros(50)
            history.subtract(n, x)
            terms = np.array([weight(n, j) * self.mx[j - 1] for j in range(1, n)])
            ref = -terms.sum(axis=0) if n > 1 else np.zeros(50)
            scale = np.abs(terms).sum(axis=0).max() if n > 1 else 1.0
            assert np.max(np.abs(x - ref)) <= 1e-12 * scale, f"level {n}"
            history.record(n, self.mx[n - 1].copy())

    def test_direct_history(self):
        history = self.solver()._history(50)
        assert isinstance(history, tfrac._DirectHistory)
        self.check(history, lambda n, j: self.W[n, j])
        # fast history first reads H at level 3, so shorter runs keep the direct sum
        short = TrajectorySolver(self.mesh, self.field, graded_mesh(1.0, 2, 4.0), 0.5, 1.0,
                                 example_initial_gradient, fast_history=True)
        assert isinstance(short._history(50), tfrac._DirectHistory)

    def test_exp_sum_history(self):
        history = self.solver(fast_history=True)._history(50)
        assert isinstance(history, tfrac._ExpSumHistory)
        t, dt = self.tmesh.t, self.tmesh.dt
        kernel = exp_sum_kernel(0.5, float(dt.min()), 1.0, 1e-8)
        s, kw = kernel.nodes, kernel.weights

        def weight(n, j):
            # the adjacent term exactly; the older ones through the kernel's
            # exponential sum, integrated over I_n x I_j
            if j == n - 1:
                return self.W[n, j]
            # exprel(-x) = -expm1(-x)/x is 1 at a node s = 0, a constant term of the sum
            return np.sum(kw * exprel(-s * dt[n - 1]) * exprel(-s * dt[j - 1])
                          * np.exp(-s * (t[n - 1] - t[j])))

        self.check(history, weight)

    def test_fast_history_builds_no_weight_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("weight matrix on the fast path")

        monkeypatch.setattr(tfrac, "weight_matrix", refuse)
        ys = np.random.default_rng(32).uniform(-0.5, 0.5, size=(3, len(self.field)))
        assert np.all(np.isfinite(self.solver(fast_history=True).functional_series(ys)))

    def test_fast_history_memory_has_no_square_term(self):
        # 2000 levels: W alone is 32 MB, the fast path's state a few kB
        mesh = triangulate_unit_square(3)
        tmesh = graded_mesh(1.0, 2000, 4.0)
        y = np.full(len(self.field), 0.1)
        peaks = {}
        for fast in (False, True):
            tracemalloc.start()
            try:
                TrajectorySolver(mesh, self.field, tmesh, 0.5, 1.0, example_initial_gradient,
                                 fast_history=fast).functional_series(y)
                peaks[fast] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] < 8 * 2**20 < peaks[False], peaks


def bandwidth(matrix) -> int:
    coo = matrix.tocoo()
    return int(np.max(np.abs(coo.row - coo.col)))


class TestBandOrdering:
    def setup_method(self):
        self.field = build_example_field(3)
        self.tmesh = graded_mesh(1.0, 10, 4.0)

    def solver(self, mesh):
        return TrajectorySolver(mesh, self.field, self.tmesh, 0.5, 1.0,
                                example_initial_gradient)

    def test_structured_half_bandwidth(self):
        for n_div in (6, 24):
            mesh = band_ordered(triangulate_unit_square(n_div))
            assert bandwidth(assemble_mass(mesh)) == n_div - 1

    def test_shuffled_mesh_file_matches_structured(self, tmp_path):
        mesh = triangulate_unit_square(6)
        rng = np.random.default_rng(41)
        new_id = rng.permutation(mesh.n_vertices)      # vertex v is written as new_id[v]
        verts = np.empty_like(mesh.vertices)
        verts[new_id] = mesh.vertices
        bdy = np.empty_like(mesh.boundary)
        bdy[new_id] = mesh.boundary
        path = tmp_path / "shuffled.txt"
        save_mesh(dataclasses.replace(mesh, vertices=verts, boundary=bdy,
                                      triangles=new_id[mesh.triangles]), path)
        shuffled = load_mesh(path)
        assert bandwidth(assemble_mass(shuffled)) > 2 * bandwidth(
            assemble_mass(band_ordered(shuffled)))
        ys = rng.uniform(-0.5, 0.5, size=(3, len(self.field)))
        structured, loaded = self.solver(mesh), self.solver(shuffled)
        assert np.max(np.abs(loaded.functional_series(ys)
                             - structured.functional_series(ys))) <= 1e-12
        # solve() returns coefficients in the numbering of the mesh it was given
        inner = ~mesh.boundary
        u_struct = structured.solve(ys[0])[:, mesh.interior_index[inner]]
        u_loaded = loaded.solve(ys[0])[:, shuffled.interior_index[new_id[inner]]]
        assert np.max(np.abs(u_loaded - u_struct)) <= 1e-12

    def test_indefinite_level_matrix_gives_nan_block(self):
        # kappa = 0.05 + 0.5 y sin(pi x1) sin(pi x2) is negative mid-square at
        # y = -1/2: that row never reaches the band solve, so it spoils no other
        field = build_sine_table_field(0.05, [[1, 1, 0.5]])
        solver = TrajectorySolver(triangulate_unit_square(8), field, self.tmesh, 0.5,
                                  1.0, example_initial_gradient)
        assert solver._levels is tfrac._BandLevels
        values = solver.functional_series(np.array([[0.5], [-0.5]]))
        assert np.array_equal(values[0], solver.functional_series(np.array([0.5])))
        assert np.all(np.isnan(values[1]))
        with pytest.raises(SolverError, match="element-averaged diffusivity <= 0"):
            solver.solve(np.array([-0.5]))
        # a level matrix that fails on its own: w_nn M + D/2 with M negated
        solver._mass_band = -solver._mass_band
        values = solver.functional_series(np.array([0.5]))
        assert np.isfinite(values[0]) and np.all(np.isnan(values[1:]))
        with pytest.raises(SolverError, match="non-finite solution values"):
            solver.solve(np.array([0.5]))


class TestModalLevels:
    """The modal level solver against the band one, forced through the
    solver's private ``_levels``, and the rule that picks between them."""

    def setup_method(self):
        self.field = build_example_field(3)
        self.mesh = triangulate_unit_square(8)          # d = 49
        self.points = np.random.default_rng(51).uniform(
            -0.5, 0.5, size=(3, len(self.field)))

    def pair(self, n_steps, **kw):
        """Two solvers of one problem, one per level solver."""
        solvers = []
        for levels in (tfrac._BandLevels, tfrac._ModalLevels):
            solver = TrajectorySolver(self.mesh, self.field, graded_mesh(1.0, n_steps, 4.0),
                                      0.5, 1.0, example_initial_gradient, **kw)
            solver._levels = levels
            solvers.append(solver)
        return solvers

    @pytest.mark.parametrize("n_steps", [70, 400])
    def test_functional_series_matches_band(self, n_steps):
        band, modal = self.pair(n_steps)
        ref = band.functional_series(self.points)
        assert np.max(np.abs(modal.functional_series(self.points) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_solve_matches_band(self):
        band, modal = self.pair(70)
        ref = band.solve(self.points[0])
        assert np.max(np.abs(modal.solve(self.points[0]) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fast_history_matches_band(self):
        band, modal = self.pair(400, fast_history=True)
        ref = band.functional_series(self.points)
        assert np.max(np.abs(modal.functional_series(self.points) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_time_dependent_load_matches_band(self):
        # a load that differs per level is projected at every level
        solvers = []
        for levels in (tfrac._BandLevels, tfrac._ModalLevels):
            solver = TrajectorySolver(self.mesh, self.field, graded_mesh(1.0, 70, 4.0), 0.5,
                                      lambda x1, x2, t: np.sin(3.0 * t) + x1 * x2,
                                      example_initial_gradient)
            solver._levels = levels
            solvers.append(solver)
        ref = solvers[0].functional_series(self.points)
        assert np.max(np.abs(solvers[1].functional_series(self.points) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("levels", ["_BandLevels", "_ModalLevels"])
    def test_carried_stiffness_product_matches_reference(self, levels):
        # each level solver carries D U from the level equation; the reference
        # multiplies D(y) by U^{n-1} at every one of 2,000 levels
        field, mesh = build_example_field(6), triangulate_unit_square(6)
        tmesh = graded_mesh(1.0, 2000, 4.0)
        points = np.random.default_rng(52).uniform(-0.5, 0.5, size=(8, len(field)))
        solver = TrajectorySolver(mesh, field, tmesh, 0.5, 1.0, example_initial_gradient)
        solver._levels = getattr(tfrac, levels)
        _, u = solver._march(points, keep_u=True)
        for i, y in enumerate(points):
            ref = reference_trajectory(mesh, field, tmesh, 0.5, y)
            err = np.max(np.abs(u[:, i][:, solver._dof] - ref), axis=1)
            assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=1)), (i, np.max(err))

    @pytest.mark.parametrize("levels", ["_BandLevels", "_ModalLevels"])
    def test_mesh_without_interior_dofs(self, levels):
        solver = TrajectorySolver(triangulate_unit_square(1), self.field,
                                  graded_mesh(1.0, 5, 4.0), 0.5, 1.0, example_initial_gradient)
        solver._levels = getattr(tfrac, levels)
        assert np.array_equal(solver.functional_series(self.points), np.zeros((3, 6)))
        assert solver.solve(self.points[0]).shape == (6, 0)

    @pytest.mark.parametrize("levels", ["_BandLevels", "_ModalLevels"])
    def test_ill_posed_and_nan_rows_are_not_stepped(self, levels):
        # kappa = 0.05 + 0.5 y sin(pi x1) sin(pi x2) is negative mid-square at
        # y = -1/2; the well-posed rows of a chunk are stepped as if alone
        field = build_sine_table_field(0.05, [[1, 1, 0.5]])
        solver = TrajectorySolver(triangulate_unit_square(4), field, graded_mesh(1.0, 10, 4.0),
                                  0.5, 1.0, example_initial_gradient)
        solver._levels = getattr(tfrac, levels)
        values = solver.functional_series(np.array([[0.5], [-0.5], [0.25], [np.nan]]))
        assert np.array_equal(values[[0, 2]], solver.functional_series(np.array([[0.5], [0.25]])))
        assert np.all(np.isnan(values[[1, 3]]))
        alone = solver.functional_series(np.array([0.5]))
        for bad in (-0.5, np.nan):
            values, u = solver._march(np.array([[0.5], [bad]]), keep_u=True)
            assert np.array_equal(values[0], alone) and np.all(np.isnan(values[1]))
            assert np.array_equal(u[:, 0][:, solver._dof], solver.solve(np.array([0.5])))
            assert np.all(np.isnan(u[:, 1]))
        with pytest.raises(SolverError, match=r"element-averaged diffusivity <= 0 \(min -"):
            solver.solve(np.array([-0.5]))
        with pytest.raises(SolverError, match="non-finite element-averaged diffusivity"):
            solver.solve(np.array([np.nan]))

    def test_estimator_names_only_the_bad_samples(self, monkeypatch):
        field = build_sine_table_field(0.05, [[1, 1, 0.5]])
        solver = TrajectorySolver(triangulate_unit_square(4), field, graded_mesh(1.0, 10, 4.0),
                                  0.5, 1.0, example_initial_gradient)
        march = TrajectorySolver._march
        blocks = []

        def counted(self, Y, keep_u):
            blocks.append(Y.shape)
            return march(self, Y, keep_u)

        monkeypatch.setattr(TrajectorySolver, "_march", counted)
        points = np.array([[0.5], [-0.5], [0.25], [np.nan], [0.0]])
        with pytest.raises(SolverError, match="2 of 5") as info:
            _functional_samples(solver, points, threads=1)
        assert blocks == [(5, 1)]            # one chunk, stepped once
        message = str(info.value)
        assert "sample 1: element-averaged diffusivity <= 0" in message
        assert "sample 3: non-finite element-averaged diffusivity" in message
        assert message.count("sample ") == 2

    def test_nonpositive_eigenvalue_fails_the_chunk(self, monkeypatch):
        # no input is known to give a well-posed sample an eigenvalue <= 0,
        # so eigh is made to: the guard turns the whole chunk NaN, and the
        # run fails as a failed band factorization makes it fail
        eigh = np.linalg.eigh

        def negated_at(call):
            """eigh whose call-th call returns its least eigenvalue negated."""
            calls = itertools.count(1)

            def patched(a):
                lam, Q = eigh(a)
                if next(calls) == call:
                    lam[0] = -lam[0]
                return lam, Q
            return patched

        cfg = estimator.RunConfig(alpha=0.5, n_steps=16, field=self.field, z=len(self.field),
                                  m=2, beta=2, n_div=4)         # 9 dofs, 4 samples in one chunk
        solver = estimator.build_solver(cfg)
        assert solver._levels is tfrac._ModalLevels
        monkeypatch.setattr(np.linalg, "eigh", negated_at(2))
        with pytest.raises(SolverError, match=r"4 of 4 .*\(sample 0: non-finite solution values"):
            estimator.estimate(cfg)
        monkeypatch.setattr(np.linalg, "eigh", negated_at(1))
        with pytest.raises(SolverError, match="non-finite solution values"):
            solver.solve(self.points[0])

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        monkeypatch.setattr(estimator, "_CHUNK_DOFS", 200)
        assert _chunks(11, 49) == [(0, 5), (5, 11)]
        solver = TrajectorySolver(self.mesh, self.field, graded_mesh(1.0, 60, 4.0), 0.5, 1.0,
                                  example_initial_gradient)
        assert solver._levels is tfrac._ModalLevels
        points = np.random.default_rng(52).uniform(-0.5, 0.5, size=(11, len(self.field)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [_functional_samples(solver, points, threads) for threads in (1, 2)]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("name, n_div, n_steps, modal", [
        ("desk-table", 24, 50, False),
        ("paper-scale and criterion 2", 53, 150, False),
        ("long-history and criterion 10", 8, 400, True),
        ("band test of an indefinite level matrix", 8, 10, False),
    ])
    def test_path_of_the_benchmark_and_criteria_shapes(self, name, n_div, n_steps, modal):
        d = triangulate_unit_square(n_div).n_dofs
        expected = tfrac._ModalLevels if modal else tfrac._BandLevels
        assert tfrac._level_solver(d, n_steps) is expected, name
