"""Tests for the QMC expected-value estimator and its studies."""

import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from fracuq import estimator, fem, tfrac
from fracuq.errors import ConfigurationError, DomainError, SolverError
from fracuq.estimator import (RunConfig, _chunks, _functional_samples,
                              build_solver, convergence_table,
                              default_qmc_weights, estimate,
                              example_initial_gradient, sample_points,
                              spacetime_refinement_study, truncation_study)
from fracuq.fem import triangulate_unit_square
from fracuq.field import build_example_field, build_sine_table_field
from oracles import example_initial


def zero_grad(x1, x2):
    z = np.zeros_like(np.asarray(x1, dtype=float))
    return z, z


def small_config(**kw):
    field = kw.pop("field", build_example_field(2))
    base = dict(alpha=0.5, n_steps=4, field=field, z=len(field), m=2,
                gamma=4.0, n_div=6, beta=2)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture
def cbc_calls(monkeypatch):
    """The m of every estimator.cbc_rule call the test makes."""
    calls = []
    cbc = estimator.cbc_rule

    def counted(b, m, *args, **kwargs):
        calls.append(m)
        return cbc(b, m, *args, **kwargs)

    monkeypatch.setattr(estimator, "cbc_rule", counted)
    return calls


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



class TestRunConfig:
    def test_gamma_defaults_to_two_over_alpha(self):
        cfg = small_config(gamma=None, alpha=0.4)
        assert cfg.grading == pytest.approx(5.0)

    def test_n_samples(self):
        assert small_config(m=5).n_samples == 32

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(alpha=1.0)
        with pytest.raises(ConfigurationError):
            small_config(z=99)
        with pytest.raises(ConfigurationError, match="z = -1 must be >= 0"):
            small_config(z=-1)
        with pytest.raises(ConfigurationError, match="m >= 0 .* not m = -1"):
            small_config(m=-1)
        with pytest.raises(ConfigurationError):
            small_config(mesh=triangulate_unit_square(4))  # both mesh and n_div
        with pytest.raises(ConfigurationError):
            small_config(threads=0)
        with pytest.raises(ConfigurationError):
            small_config(shift="half")
        # what graded_mesh and exp_sum_kernel would refuse in a run
        for kw in (dict(gamma=0.5), dict(gamma=float("nan")), dict(gamma=math.inf),
                   dict(fast_eps=0.0), dict(fast_eps=-1.0), dict(fast_eps=1e300),
                   dict(T=math.nan), dict(T=math.inf), dict(T=1e200)):
            with pytest.raises(ConfigurationError, match="gamma|fast_eps|T a positive finite"):
                small_config(**kw)

    def test_rule_mismatch_rejected(self):
        from fracuq.qmc import cbc_rule
        rule = cbc_rule(2, 3, 2, 3, [1.0, 0.5, 0.25])
        with pytest.raises(ConfigurationError):
            small_config(m=2, rule=rule)

    def test_user_grad_g_is_kept(self):
        cfg = small_config(f=0.0, grad_g=zero_grad)
        assert cfg.grad_g is zero_grad
        assert np.all(estimate(cfg).mean == 0.0)

    @pytest.mark.parametrize("kappa0, kappa0_xy", [(0.1, 0.0), (-1.0, 0.0), (1.0, math.nan)],
                             ids=["0.1", "-1.0", "nan-xy"])
    def test_nonpositive_declared_bound_rejected(self, kappa0, kappa0_xy):
        # 0.1 + 0.3 y sin(pi x1) sin(pi x2) has the declared lower bound
        # -0.05; a negative mean field, and a NaN one, are rejected the same way
        field = build_sine_table_field(kappa0, [(1, 1, 0.3)], kappa0_xy=kappa0_xy)
        assert not field.declared_bounds[0] > 0
        with pytest.raises(DomainError):
            small_config(field=field, z=1)

    def test_replace_on_a_constructed_config(self):
        cfg = small_config()
        fast = dataclasses.replace(cfg, fast_history=True)
        assert fast.fast_history and fast.n_div == cfg.n_div and fast.mesh is None
        finer = dataclasses.replace(cfg, n_div=8)
        assert finer.space_mesh.n_vertices == 9 ** 2
        assert cfg.space_mesh.n_vertices == 7 ** 2
        loaded = dataclasses.replace(cfg, n_div=None, mesh=triangulate_unit_square(4))
        assert loaded.space_mesh is loaded.mesh
        with pytest.raises(ConfigurationError, match="exactly one"):
            dataclasses.replace(cfg, mesh=triangulate_unit_square(4))

    def test_replace_resolves_the_grading_afresh(self):
        cfg = small_config(gamma=None, alpha=0.5)
        changed = dataclasses.replace(cfg, alpha=0.25)
        fresh = small_config(gamma=None, alpha=0.25)
        assert np.array_equal(changed.time_mesh().t, fresh.time_mesh().t)
        assert cfg.gamma is None and changed.gamma is None
        assert changed.grading == fresh.grading == 8.0

    def test_frozen(self):
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.m = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.rule = None

    def test_resolved_at_construction(self, cbc_calls):
        from fracuq.qmc import cbc_rule
        cfg = small_config(m=3, gamma=None, alpha=0.4)
        assert cfg.space_mesh.n_vertices == 7 ** 2
        assert cfg.grading == pytest.approx(5.0)
        assert cfg.grad_g is example_initial_gradient
        # construction builds no rule: qmc_rule() is the given rule or None
        assert cfg.rule is None and cfg.qmc_rule() is None
        given = cbc_rule(2, 3, 2, 3, [1.0, 0.5, 0.25])
        assert small_config(m=3, rule=given).qmc_rule() is given
        assert cbc_calls == []


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

    def test_rule_chosen_where_points_are_drawn(self, cbc_calls):
        from fracuq.qmc import cbc_rule
        cfg = small_config(m=3)
        w = default_qmc_weights(cfg.field, 3)
        built = cbc_rule(2, 3, 2, 3, w).centered_points()
        assert sample_points(cfg).tobytes() == built.tobytes()
        assert cbc_calls == [3]
        # a given rule serves its own m and any z it covers, without a search
        given = cbc_rule(2, 3, 2, 3, [1.0, 0.5, 0.25])
        with_rule = small_config(m=3, rule=given)
        assert np.array_equal(sample_points(with_rule, z=2), given.centered_points()[:, :2])
        assert cbc_calls == [3]
        # other m are searched with the default weights
        assert sample_points(with_rule, m=2).shape == (4, 3)
        assert cbc_calls == [3, 2]

    def test_each_rule_tests_its_modulus_once(self, monkeypatch):
        # the table's default modulus is taken as it is; the rule's
        # construction is the one test, not the CBC search or the points
        from fracuq import qmc
        qmc.default_modulus.cache_clear()
        tested = []
        test = qmc.is_irreducible

        def spy(p, b):
            tested.append(p)
            return test(p, b)

        monkeypatch.setattr(qmc, "is_irreducible", spy)
        cfg = small_config(m=4)
        for m in (4, 5, 4):
            sample_points(cfg, m=m)
        p4, p5 = qmc.default_modulus(2, 4), qmc.default_modulus(2, 5)
        assert tested == [p4, p5, p4]

    def test_fewer_coordinates_are_a_prefix(self):
        # CBC is greedy: the rule of z columns starts with the rule of fewer,
        # so a truncation study may draw its points in z_ref coordinates
        cfg = small_config(field=build_example_field(3), z=6, m=4)
        assert (sample_points(cfg, z=4).tobytes()
                == np.ascontiguousarray(sample_points(cfg)[:, :4]).tobytes())

    def test_deterministic_field_repeats_the_empty_vector(self):
        cfg = small_config(field=build_sine_table_field(0.25, []), z=0, m=3)
        assert sample_points(cfg).shape == (8, 0)
        assert sample_points(cfg, m=1).shape == (2, 0)


class TestChunks:
    def test_bench_shapes(self):
        # desk-table and paper-scale keep the chunks of the 8-sample rule
        assert _chunks(56, 529) == [(7 * i, 7 * i + 7) for i in range(8)]
        assert _chunks(2, 2704) == [(0, 1), (1, 2)]
        # long-history's 16 samples of 49 dofs step as one chunk
        assert _chunks(16, 49) == [(0, 16)]
        # criterion 2's 512 paper-scale samples keep 64 chunks of 8
        assert _chunks(512, 2704) == [(8 * i, 8 * i + 8) for i in range(64)]

    def test_no_samples_no_chunks(self):
        assert _chunks(0, 25) == []

    @pytest.mark.parametrize("d", [0, 1, 16, 25, 49, 529, 2047, 2049, 2704, 5000])
    def test_even_count_bounded_size(self, d):
        for n in range(1, 300):
            chunks = _chunks(n, d)
            bounds = [a for a, _ in chunks] + [n]
            assert bounds[0] == 0 and [b for _, b in chunks] == bounds[1:]
            sizes = np.diff(bounds)
            assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
            if n * max(d, 1) <= 4096:
                assert chunks == [(0, n)]
            else:
                # an even count of chunks of at most 4096 dofs or 8 samples
                assert len(chunks) % 2 == 0 or n == 1
                assert sizes.max() <= max(8, 4096 // max(d, 1))


class TestBuildSolver:
    def test_mesh_tables_built_once_per_mesh(self, monkeypatch):
        calls = collections.Counter()

        def counting(name):
            fn = getattr(fem, name)

            def counted(mesh, *args):
                calls[name, id(mesh)] += 1
                return fn(mesh, *args)
            return counted

        for name in ("_pattern", "_element_geometry", "_edge_table"):
            monkeypatch.setattr(fem, name, counting(name))
        cfg = small_config()
        build_solver(cfg)
        # the band mesh is the one other mesh the tables were built for
        (band_id,) = {mesh_id for _, mesh_id in calls} - {id(cfg.space_mesh)}
        # RCM reads the input mesh's pattern; assembly shares the band mesh's
        assert calls == {("_pattern", id(cfg.space_mesh)): 1, ("_pattern", band_id): 1,
                         ("_element_geometry", band_id): 1,
                         ("_edge_table", band_id): 1}


class TestEstimate:
    def test_zero_data(self):
        cfg = small_config(f=0.0, grad_g=zero_grad)
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
        monkeypatch.setattr(estimator, "build_solver", lambda config: solver)
        series = estimate(cfg)
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

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        monkeypatch.setattr(estimator, "_CHUNK_DOFS", 100)    # 2 chunks of 4 at d = 25
        cfg1 = small_config(m=3, threads=1)
        cfg8 = small_config(m=3, threads=8)
        s1 = estimate(cfg1)
        s8 = estimate(cfg8)
        assert np.array_equal(s1.mean, s8.mean)
        assert np.array_equal(s1.std, s8.std)

    def test_chunk_error_keeps_its_code(self):
        # a chunk's own error is not relabelled as a failed solve
        cfg = small_config()
        with pytest.raises(ConfigurationError,
                           match=f"parameter vector length {cfg.z + 2} exceeds basis size {cfg.z}"):
            _functional_samples(build_solver(cfg), np.zeros((4, cfg.z + 2)), threads=1)


    def test_non_finite_samples_are_named_not_averaged(self):
        cfg = small_config(m=3)           # N = 8 in one chunk
        solver = build_solver(cfg)
        points = sample_points(cfg).copy()
        points[5, 1] = np.nan             # one NaN parameter poisons its chunk
        with pytest.raises(SolverError, match="1 of 8") as info:
            _functional_samples(solver, points, threads=2)
        message = str(info.value)
        assert "sample 5: non-finite" in message
        assert message.count("sample ") == 1

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
        monkeypatch.setattr(estimator, "build_solver", lambda config: solver)
        with pytest.raises(SolverError, match=r"1 of 8 .*\(sample 6: non-finite"):
            estimate(cfg)


class TestConvergenceTable:
    def test_structure_and_monotone_reference(self):
        cfg = small_config(field=build_example_field(3), m=2, n_steps=6)
        table = convergence_table(cfg, [4, 8], 32)
        assert table.N.tolist() == [4, 8]
        assert math.isnan(table.rate_T[0])
        assert table.err_T[0] > table.err_T[1] > 0
        assert table.rate_T[1] > 0

    def test_desk_table_builds_three_rules(self, cbc_calls):
        # N = 8, 16 and the reference 32: one CBC search per N, in
        # increasing N, where its points are drawn
        cfg = small_config(field=build_example_field(3), m=5, n_steps=3, n_div=4)
        table = convergence_table(cfg, [8, 16], 32)
        assert table.N.tolist() == [8, 16]
        assert cbc_calls == [3, 4, 5]

    def test_single_point_and_deterministic_field(self, cbc_calls):
        # N = 1 is the single-point rule, and z = 0 needs no rule at all
        cfg = small_config(m=2, n_steps=3, n_div=4)
        table = convergence_table(cfg, [1, 2], 4)
        assert table.N.tolist() == [1, 2]
        assert cbc_calls == [1, 2]
        det = small_config(field=build_sine_table_field(0.25, [(1, 1, 0.1)]), z=0,
                           n_steps=3, n_div=4)
        table = convergence_table(det, [2], 4)
        assert table.err_T[0] == 0.0 and table.err_L2J[0] == 0.0
        assert cbc_calls == [1, 2]

    def test_zero_errors_have_no_rate(self):
        # at z = 0 every sample is the mean field, so each error is exactly 0
        # and no rate can be taken: every rate is NaN, not the log of 0 / 0
        det = small_config(z=0, n_steps=3, n_div=4)
        table = convergence_table(det, [1, 2], 4)
        assert np.all(table.err_T == 0.0) and np.all(table.err_L2J == 0.0)
        assert np.all(np.isnan(table.rate_T)) and np.all(np.isnan(table.rate_L2J))

    def test_nref_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigurationError):
            convergence_table(cfg, [4, 8], 8)
        with pytest.raises(ConfigurationError):
            convergence_table(cfg, [5], 32)  # not a power of b
        for n_list in ([0, 2], [-2, 2], []):
            with pytest.raises(ConfigurationError, match="N >= 1"):
                convergence_table(cfg, n_list, 4)


class TestTruncationStudy:
    def test_decay_and_slope(self):
        field = build_example_field(5)  # z = 15
        cfg = small_config(field=field, z=15, m=4, n_div=8, n_steps=6)
        study = truncation_study(cfg, [1, 3, 6, 10], 15)
        assert np.all(study.err_T >= 0)
        assert study.err_T[0] > study.err_T[-1]
        assert study.slope < 0

    def test_single_point(self, cbc_calls):
        # m = 0: the one point is the corner of the parameter box
        cfg = small_config(m=0, n_steps=3, n_div=4)
        study = truncation_study(cfg, [1, 2], 3)
        assert study.err_T.shape == (2,) and np.all(study.err_T > 0)
        assert cbc_calls == []

    def test_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigurationError):
            truncation_study(cfg, [1, 3], 3)
        with pytest.raises(ConfigurationError):
            truncation_study(cfg, [1], 99)
        with pytest.raises(ConfigurationError, match="z >= 0"):
            truncation_study(cfg, [-1, 1], 2)
        with pytest.raises(ConfigurationError, match="z >= 0"):
            truncation_study(cfg, [], 2)

    def test_means_are_those_of_estimate(self, monkeypatch):
        # each E_{z,N,h}(T) is the last entry of the series mean that
        # estimate takes, in the same summation order
        field = build_example_field(3)  # z = 6
        cfg = small_config(field=field, z=6, m=4, n_div=4, n_steps=3)
        reduce = estimator._reduce_series
        reduced = []

        def counted(values):
            reduced.append(values.shape)
            return reduce(values)

        monkeypatch.setattr(estimator, "_reduce_series", counted)
        study = truncation_study(cfg, [1, 2, 4], 6)
        assert reduced == [(16, 4)] * 4
        solver = build_solver(cfg)
        points = sample_points(cfg, z=6)
        means = [reduce(_functional_samples(solver, points[:, :z], 1))[0][-1]
                 for z in (1, 2, 4, 6)]
        assert np.array_equal(study.err_T, np.abs(np.array(means[:3]) - means[3]))

    def test_zero_truncation_kept_out_of_the_fit(self):
        # z = 0 is the mean field alone: its error is reported, but log 0
        # stays out of the fitted slope
        field = build_example_field(5)  # z = 15
        cfg = small_config(field=field, z=15, m=4, n_div=8, n_steps=6)
        with np.errstate(all="raise"):
            study = truncation_study(cfg, [0, 1, 3, 6, 10], 15)
        plain = truncation_study(cfg, [1, 3, 6, 10], 15)
        assert list(study.z) == [0, 1, 3, 6, 10]
        assert study.err_T[0] > 0
        assert np.array_equal(study.err_T[1:], plain.err_T)
        assert study.slope == plain.slope

    def test_one_fitted_point_has_no_slope(self):
        # z = 0 stays out of the fit, which leaves z = 1 alone: no line
        cfg = small_config(m=2, n_steps=3, n_div=4)
        study = truncation_study(cfg, [0, 1], 2)
        assert np.all(study.err_T > 0)
        assert math.isnan(study.slope)


class TestRefinementStudy:
    def test_zero_data_zero_errors(self):
        cfg = small_config(f=0.0, grad_g=zero_grad, n_div=4)
        study = spacetime_refinement_study(cfg, levels=2)
        assert np.allclose(study.errors, 0.0)

    def test_zero_errors_take_no_ratio_and_warn_nothing(self):
        # three levels divide 0 by 0 once: the ratio and order are NaN, silently
        cfg = small_config(f=0.0, grad_g=zero_grad, n_div=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = spacetime_refinement_study(cfg, levels=3)
        assert study.errors.tolist() == [0.0, 0.0]
        assert np.all(np.isnan(study.ratios)) and np.all(np.isnan(study.orders))
        assert study.n_div.tolist() == [4, 8] and study.ratios.size == 2

    def test_second_order_decay(self):
        cfg = small_config(field=build_example_field(2), n_div=6, n_steps=6,
                           gamma=4.0)
        study = spacetime_refinement_study(cfg, levels=3)
        assert study.errors[0] > study.errors[1] > 0
        assert 3.2 <= study.ratios[1] <= 4.8

    def test_fast_history_is_kept(self, monkeypatch):
        # every level is built from the config, so fast_history steps
        # without the direct history's weight matrix
        direct = spacetime_refinement_study(small_config(n_div=4), levels=2)

        def no_weight_matrix(*args):
            raise AssertionError("weight_matrix called")

        monkeypatch.setattr(tfrac, "weight_matrix", no_weight_matrix)
        fast = spacetime_refinement_study(small_config(n_div=4, fast_history=True), levels=2)
        assert fast.errors == pytest.approx(direct.errors, rel=1e-8)

    def test_requires_structured_mesh(self):
        mesh = triangulate_unit_square(4)
        cfg = small_config(n_div=None, mesh=mesh)
        with pytest.raises(ConfigurationError):
            spacetime_refinement_study(cfg, levels=2)
