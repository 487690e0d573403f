"""Tests for the QMC expected-value estimator and its studies."""

import math

import numpy as np
import pytest

from fracuq.errors import ConfigurationError, SolverError
from fracuq.estimator import (RunConfig, _functional_samples, build_solver,
                              convergence_table,
                              default_qmc_weights, estimate, example_initial,
                              example_initial_gradient, sample_points,
                              spacetime_refinement_study, truncation_study)
from fracuq.fem import triangulate_unit_square
from fracuq.field import build_example_field, build_sine_table_field


def zero(x1, x2):
    return np.zeros_like(np.asarray(x1, dtype=float))


def zero_grad(x1, x2):
    z = np.zeros_like(np.asarray(x1, dtype=float))
    return z, z


def small_config(**kw):
    field = kw.pop("field", build_example_field(2))
    base = dict(alpha=0.5, n_steps=4, field=field, z=len(field), m=2,
                gamma=4.0, n_div=6, beta=2)
    base.update(kw)
    return RunConfig(**base)


class TestExampleData:
    def test_initial_profile_normalised(self):
        # 144 integral of x^2(1-x) twice = 144 / 144 = 1
        from scipy.integrate import dblquad
        val, _ = dblquad(lambda y, x: example_initial(x, y), 0, 1, 0, 1)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 0.9, size=20)
        y = rng.uniform(0.1, 0.9, size=20)
        gx, gy = example_initial_gradient(x, y)
        h = 1e-6
        assert np.allclose(gx, (example_initial(x + h, y) -
                                example_initial(x - h, y)) / (2 * h), atol=1e-5)
        assert np.allclose(gy, (example_initial(x, y + h) -
                                example_initial(x, y - h)) / (2 * h), atol=1e-5)


class TestDefaultWeights:
    def test_positive_field_uses_declared_bound(self):
        field = build_example_field(4)
        w = default_qmc_weights(field, 5)
        kmin = field.declared_bounds[0]
        assert kmin > 0
        assert np.allclose(w, math.sqrt(2.0) * field.sup_norms[:5] / kmin)

    def test_fallback_for_nonpositive_bound(self):
        field = build_sine_table_field(0.1, [(1, 1, 0.3)])
        assert field.declared_bounds[0] <= 0
        w = default_qmc_weights(field, 1)
        assert w[0] == pytest.approx(math.sqrt(2.0) * 0.3 / 0.1, rel=1e-3)

    def test_all_negative_rejected(self):
        field = build_sine_table_field(-1.0, [(1, 1, 0.1)])
        with pytest.raises(ConfigurationError):
            default_qmc_weights(field, 1)


class TestRunConfig:
    def test_gamma_defaults_to_two_over_alpha(self):
        cfg = small_config(gamma=None, alpha=0.4)
        assert cfg.gamma == pytest.approx(5.0)

    def test_n_samples(self):
        assert small_config(m=5).n_samples == 32

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(alpha=1.0)
        with pytest.raises(ConfigurationError):
            small_config(z=99)
        with pytest.raises(ConfigurationError):
            small_config(mesh=triangulate_unit_square(4))  # both mesh and n_div
        with pytest.raises(ConfigurationError):
            small_config(threads=0)

    def test_rule_mismatch_rejected(self):
        from fracuq.qmc import cbc_rule
        rule = cbc_rule(2, 3, 2, 3, [1.0, 0.5, 0.25])
        with pytest.raises(ConfigurationError):
            small_config(m=2, rule=rule)

    def test_explicit_weights_used(self):
        w = np.array([1.0, 0.5, 0.3])
        cfg = small_config(qmc_weights=w)
        assert np.array_equal(cfg.cbc_weights(), w)
        with pytest.raises(ConfigurationError):
            small_config(qmc_weights=np.array([1.0])).cbc_weights()


class TestSamplePoints:
    def test_shape_and_range(self):
        pts = sample_points(small_config(m=3))
        assert pts.shape == (8, 3)
        assert np.all(pts >= -0.5) and np.all(pts < 0.5)
        assert np.all(pts[0] == -0.5)

    def test_single_point_rule(self):
        pts = sample_points(small_config(m=0))
        assert pts.shape == (1, 3)
        assert np.all(pts == -0.5)
        shifted = sample_points(small_config(m=0, shift="digital-half"))
        assert np.all(shifted == 0.0)


class TestEstimate:
    def test_zero_data(self):
        cfg = small_config(f=0.0, g=zero, grad_g=zero_grad)
        series = estimate(cfg)
        assert np.all(series.mean == 0.0)
        assert np.all(series.std == 0.0)

    def test_deterministic_field_zero_std(self):
        field = build_sine_table_field(0.25, [])
        cfg = small_config(field=field, z=0, m=2)
        series = estimate(cfg)
        assert np.allclose(series.std, 0.0, atol=1e-14)
        solver = build_solver(cfg)
        direct = solver.functional_series(np.zeros(0))
        assert np.allclose(series.mean, direct, atol=1e-15)

    def test_deterministic_field_steps_one_trajectory(self, monkeypatch):
        from fracuq.tfrac import TrajectorySolver
        field = build_sine_table_field(0.25, [])
        cfg = small_config(field=field, z=0, m=5, threads=2)
        assert cfg.n_samples == 32
        solver = build_solver(cfg)
        per_sample = np.array([solver.functional_series(y) for y in sample_points(cfg)])
        march = TrajectorySolver._march
        blocks = []

        def counted(self, Y, keep_u):
            blocks.append(Y.shape)
            return march(self, Y, keep_u)

        monkeypatch.setattr(TrajectorySolver, "_march", counted)
        values = _functional_samples(solver, sample_points(cfg), cfg.threads)
        assert blocks == [(1, 0)]
        assert values.shape == per_sample.shape
        assert np.max(np.abs(values - per_sample)) <= 1e-12
        series = estimate(cfg, solver)
        assert len(blocks) == 2
        assert np.all(series.std == 0.0)
        assert np.array_equal(series.mean, values[0])

    def test_single_sample_is_corner_trajectory(self):
        cfg = small_config(m=0)
        series = estimate(cfg)
        solver = build_solver(cfg)
        direct = solver.functional_series(np.full(cfg.z, -0.5))
        assert np.array_equal(series.mean, direct)
        assert np.all(series.std == 0.0)

    def test_std_matches_two_pass_oracle(self):
        cfg = small_config(m=3)
        series = estimate(cfg)
        solver = build_solver(cfg)
        pts = sample_points(cfg)
        vals = np.array([solver.functional_series(y) for y in pts])
        assert np.allclose(series.mean, vals.mean(axis=0), atol=1e-15)
        assert np.allclose(series.std, vals.std(axis=0, ddof=1), rtol=1e-12)

    def test_thread_count_does_not_change_bits(self):
        cfg1 = small_config(m=3, threads=1)
        cfg8 = small_config(m=3, threads=8)
        s1 = estimate(cfg1)
        s8 = estimate(cfg8)
        assert np.array_equal(s1.mean, s8.mean)
        assert np.array_equal(s1.std, s8.std)

    def test_failure_names_sample_index(self, monkeypatch):
        cfg = small_config(m=1)
        solver = build_solver(cfg)

        def boom(y):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(solver, "functional_series", boom)
        with pytest.raises(SolverError, match="sample 0"):
            estimate(cfg, solver=solver)


    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_non_finite_samples_are_named_not_averaged(self):
        cfg = small_config(m=3)           # N = 8 in chunks of 4
        solver = build_solver(cfg)
        points = sample_points(cfg).copy()
        points[5, 1] = np.nan             # one NaN parameter poisons its chunk
        with pytest.raises(SolverError, match="4 of 8") as info:
            _functional_samples(solver, points, threads=2)
        message = str(info.value)
        assert "sample 5: non-finite" in message
        assert "sample 3" not in message

    def test_non_finite_value_of_one_sample(self, monkeypatch):
        cfg = small_config(m=3)
        solver = build_solver(cfg)
        bad = sample_points(cfg)[6]
        series = solver.functional_series

        def one_nan(y):
            out = series(y)
            out[np.all(y == bad, axis=1), -1] = np.nan
            return out

        monkeypatch.setattr(solver, "functional_series", one_nan)
        with pytest.raises(SolverError, match=r"1 of 8 .*\(sample 6: non-finite"):
            estimate(cfg, solver=solver)


class TestConvergenceTable:
    def test_structure_and_monotone_reference(self):
        cfg = small_config(field=build_example_field(3), m=2, n_steps=6)
        rows = convergence_table(cfg, [4, 8], 32)
        assert [r.n_samples for r in rows] == [4, 8]
        assert math.isnan(rows[0].rate_T)
        assert rows[0].err_T > rows[1].err_T > 0
        assert rows[1].rate_T > 0

    def test_nref_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigurationError):
            convergence_table(cfg, [4, 8], 8)
        with pytest.raises(ConfigurationError):
            convergence_table(cfg, [5], 32)  # not a power of b


class TestTruncationStudy:
    def test_decay_and_slope(self):
        field = build_example_field(5)  # z = 15
        cfg = small_config(field=field, z=15, m=4, n_div=8, n_steps=6)
        study = truncation_study(cfg, [1, 3, 6, 10], 15)
        assert np.all(study.err_T >= 0)
        assert study.err_T[0] > study.err_T[-1]
        assert study.slope < 0

    def test_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigurationError):
            truncation_study(cfg, [1, 3], 3)
        with pytest.raises(ConfigurationError):
            truncation_study(cfg, [1], 99)


class TestRefinementStudy:
    def test_zero_data_zero_errors(self):
        cfg = small_config(f=0.0, g=zero, grad_g=zero_grad, n_div=4)
        study = spacetime_refinement_study(cfg, levels=2)
        assert np.allclose(study.errors, 0.0)

    def test_second_order_decay(self):
        cfg = small_config(field=build_example_field(2), n_div=6, n_steps=6,
                           gamma=4.0)
        study = spacetime_refinement_study(cfg, levels=3)
        assert study.errors[0] > study.errors[1] > 0
        assert 3.2 <= study.ratios[0] <= 4.8

    def test_requires_structured_mesh(self):
        mesh = triangulate_unit_square(4)
        cfg = small_config(n_div=None, mesh=mesh)
        with pytest.raises(ConfigurationError):
            spacetime_refinement_study(cfg, levels=2)
