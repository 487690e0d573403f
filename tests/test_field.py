"""Tests for the parametric diffusivity fields."""

import mpmath
import numpy as np
import pytest

from fracuq.errors import ConfigurationError, DomainError
from fracuq.estimator import example_initial_gradient
from fracuq.fem import StiffnessAssembler, load_mesh, triangulate_unit_square
from fracuq.field import (SineRandomField, _kappa_range, build_example_field,
                          build_sine_table_field, verify_bounds)
from oracles import basis_values

# the example field's scale M = zeta(3) - zeta(4) = 0.119733669448456..., from
# 30-digit mpmath and not from the scipy call the package makes
with mpmath.workdps(30):
    M = float(mpmath.zeta(3) - mpmath.zeta(4))


class TestBuildExampleField:
    def test_basis_length_q22(self):
        assert len(build_example_field(22)) == 253

    def test_basis_length_q1(self):
        assert len(build_example_field(1)) == 1

    def test_enumeration_order(self):
        # l = 1..q outer, k = 1..q+1-l inner, k varying most rapidly
        f = build_example_field(3)
        assert list(f.k) == [1, 2, 3, 1, 2, 1]
        assert list(f.l) == [1, 1, 1, 2, 2, 3]

    def test_amplitudes(self):
        f = build_example_field(2)
        assert f.amp[0] == pytest.approx(1.0 / (10.0 * M * 16.0), rel=1e-13)
        assert f.amp[1] == pytest.approx(1.0 / (10.0 * M * 81.0), rel=1e-13)

    def test_amplitudes_match_mpmath_scale(self):
        # an Euler-Maclaurin sum giving M = 0.11973366944845587 is 1.8e-15 off
        for q in (3, 22):
            f = build_example_field(q)
            expected = 1.0 / (10.0 * M * (f.k + f.l).astype(float) ** 4)
            assert np.max(np.abs(f.amp - expected) / expected) <= 1e-15, q

    def test_sort_by_norm(self):
        f = build_example_field(5, sort_by_norm=True)
        assert np.all(np.diff(f.sup_norms) <= 0)
        # same multiset of terms as the default enumeration
        d = build_example_field(5)
        assert sorted(zip(d.k, d.l)) == sorted(zip(f.k, f.l))

    def test_invalid_q(self):
        with pytest.raises(ConfigurationError):
            build_example_field(0)

    def test_sup_norm_attained_at_sine_maxima(self):
        f = build_example_field(4)
        x1 = 1.0 / (2.0 * f.k)
        x2 = 1.0 / (2.0 * f.l)
        vals = np.array([basis_values(f, np.array([a]), np.array([b]))[j, 0]
                         for j, (a, b) in enumerate(zip(x1, x2))])
        assert np.allclose(np.abs(vals), f.sup_norms, atol=1e-10)


def evaluate_kappa(f, x, y):
    """kappa at one point x = (x1, x2) for the parameter vector y."""
    psi = basis_values(f, np.array([x[0]]), np.array([x[1]]))[: len(y), 0]
    return float(f.kappa0(x[0], x[1]) + np.asarray(y) @ psi)


def element_kappa(f, y):
    """The element averages of kappa that the solver assembles with."""
    return StiffnessAssembler(triangulate_unit_square(4), f,
                              example_initial_gradient).parts(y)[0]


def tail_bound(f, z):
    """Worst-case truncation error of kappa: half the sup-norm tail sum."""
    return 0.5 * float(np.sum(f.sup_norms[z:]))


class TestEvaluateKappa:
    def test_mean_field_at_origin(self):
        f = build_example_field(3)
        assert evaluate_kappa(f, (0.0, 0.0), np.zeros(6)) == pytest.approx(0.2)

    def test_y_zero_gives_kappa0(self):
        f = build_example_field(4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(0, 1, size=2)
            assert evaluate_kappa(f, x, np.zeros(len(f))) == pytest.approx(
                0.2 + 0.1 * x[0] * x[1], rel=1e-14)

    def test_first_unit_vector_at_centre(self):
        f = build_example_field(3)
        y = np.zeros(len(f))
        y[0] = 1.0
        expected = 0.225 + 1.0 / (160.0 * M)  # kappa0(centre) + amp of (1,1)
        assert evaluate_kappa(f, (0.5, 0.5), y) == pytest.approx(expected, rel=1e-13)

    def test_outside_domain_raises(self, tmp_path):
        # kappa, and so its declared bounds, live on the closed unit square:
        # a mesh reaching outside it is refused before kappa is evaluated
        path = tmp_path / "mesh.txt"
        path.write_text("3\n0 0 1\n1.2 0.5 1\n0 1 1\n1\n0 1 2\n")
        with pytest.raises(DomainError):
            load_mesh(path)

    def test_too_many_parameters_raises(self):
        f = build_example_field(2)
        with pytest.raises(ConfigurationError):
            element_kappa(f, np.zeros(10))

    def test_affine_in_y(self):
        f = build_example_field(4)
        rng = np.random.default_rng(11)
        y1 = rng.uniform(-0.5, 0.5, size=len(f))
        y2 = rng.uniform(-0.5, 0.5, size=len(f))
        for a in (0.0, 0.3, 1.0):
            lhs = element_kappa(f, a * y1 + (1 - a) * y2)
            rhs = a * element_kappa(f, y1) + (1 - a) * element_kappa(f, y2)
            assert np.allclose(lhs, rhs, rtol=1e-13, atol=0.0)

    def test_truncation_matches_short_vector(self):
        f = build_example_field(4)
        rng = np.random.default_rng(7)
        y = rng.uniform(-0.5, 0.5, size=3)
        full = np.concatenate([y, np.zeros(len(f) - 3)])
        assert np.allclose(element_kappa(f, y), element_kappa(f, full),
                           rtol=1e-14, atol=0.0)


class TestTailBound:
    def test_full_tail_direct_sum(self):
        f = build_example_field(22)
        oracle = 0.5 * sum(1.0 / (10.0 * M * (k + l) ** 4)
                           for l in range(1, 23) for k in range(1, 24 - l))
        assert tail_bound(f, 0) == pytest.approx(oracle, rel=1e-13)

    def test_decay_slope(self):
        # slope of log tail_bound vs log z must be <= 1 - 1/p for p = 0.55
        f = build_example_field(22, sort_by_norm=True)
        zs = np.arange(10, 251, 10)
        tails = np.array([tail_bound(f, int(z)) for z in zs])
        slope = np.polyfit(np.log(zs), np.log(tails), 1)[0]
        assert slope <= 1.0 - 1.0 / 0.55 + 1e-6


class TestVerifyBounds:
    def test_constant_field(self):
        f = build_sine_table_field(1.0, [])
        report = verify_bounds(f, grid_resolution=16)
        assert report.observed_min == pytest.approx(1.0)
        assert report.observed_max == pytest.approx(1.0)
        assert report.ok

    def test_example_field_positive(self):
        report = verify_bounds(build_example_field(22), grid_resolution=64)
        assert report.observed_min > 0.0
        assert report.ok

    def test_violation_reported(self):
        # kappa0 = 0.1 with a single amplitude-0.3 mode dips to -0.05, so a
        # field declaring positive bounds must report violations
        base = build_sine_table_field(0.1, [(1, 1, 0.3)])
        bad = SineRandomField(
            kappa0_const=0.1, kappa0_xy=0.0, k=base.k, l=base.l, amp=base.amp,
            declared_bounds=(0.01, 0.4))
        report = verify_bounds(bad, grid_resolution=32)
        assert not report.ok
        assert report.observed_min == pytest.approx(-0.05, abs=1e-3)

    def test_grid_of_one_interval_refused(self):
        with pytest.raises(ConfigurationError, match="grid_resolution"):
            verify_bounds(build_example_field(2), grid_resolution=1)


class TestKappaRange:
    """The range product |S1|^T |S2| against the whole basis table on the
    129^2 grid the declared bounds are taken on."""

    @staticmethod
    def table_range(f, resolution=128):
        g = np.linspace(0.0, 1.0, resolution + 1)
        x1, x2 = (X.ravel() for X in np.meshgrid(g, g, indexing="ij"))
        k0 = f.kappa0(x1, x2)
        half_abs = 0.5 * np.abs(basis_values(f, x1, x2)).sum(axis=0)
        shape = (resolution + 1, resolution + 1)
        return (k0 - half_abs).reshape(shape), (k0 + half_abs).reshape(shape)

    @pytest.mark.parametrize("f", [
        build_example_field(22),
        # repeated (k, l) pairs, mixed signs and a mean field varying in x
        build_sine_table_field(0.6, [(2, 1, 0.05), (2, 1, -0.03), (1, 3, 0.02),
                                     (5, 3, 0.01), (1, 3, -0.04), (2, 1, 0.05)],
                               kappa0_xy=0.2),
    ], ids=["q22", "repeated-modes"])
    def test_matches_basis_table(self, f):
        lo, hi = _kappa_range(f.kappa0_const, f.kappa0_xy, f.k, f.l, f.amp, 128)
        lo_ref, hi_ref = self.table_range(f)
        assert lo.shape == hi.shape == (129, 129)
        assert np.max(np.abs(lo - lo_ref)) <= 1e-15
        assert np.max(np.abs(hi - hi_ref)) <= 1e-15
        assert f.declared_bounds == (float(lo.min()), float(hi.max()))

    def test_no_terms_is_kappa0(self):
        f = build_sine_table_field(0.4, [], kappa0_xy=0.3)
        lo, hi = _kappa_range(f.kappa0_const, f.kappa0_xy, f.k, f.l, f.amp, 128)
        g = np.linspace(0.0, 1.0, 129)
        k0 = 0.4 + 0.3 * g[:, None] * g[None, :]
        assert np.array_equal(lo, k0) and np.array_equal(hi, k0)
        assert f.declared_bounds == (k0.min(), k0.max())


class TestSineTableField:
    def test_declared_bounds_honest(self):
        f = build_sine_table_field(1.0, [(1, 1, 0.25)])
        lo, hi = f.declared_bounds
        assert lo == pytest.approx(1.0 - 0.125, abs=1e-3)
        assert hi == pytest.approx(1.0 + 0.125, abs=1e-3)

    def test_bad_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            build_sine_table_field(1.0, [(0, 1, 0.1)])
        with pytest.raises(ConfigurationError):
            build_sine_table_field(1.0, [(1.0, 2.0)])
        with pytest.raises(ConfigurationError, match="whole numbers"):
            build_sine_table_field(1.0, [(1.5, 1, 0.1)])
        # 2^53 is the last mode number float64 holds with all its neighbours
        assert build_sine_table_field(1.0, [(2.0 ** 53, 1, 0.1)]).k.tolist() == [2 ** 53]
        for row in [(2.0 ** 53 + 2, 1, 0.1), (1, 1e300, 0.1), (9.3e18, 1, 0.1)]:
            with pytest.raises(ConfigurationError, match="whole numbers"):
                build_sine_table_field(1.0, [row])
