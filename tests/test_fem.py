"""Tests for the P1 finite element pieces."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate as si

from fracuq.errors import ConfigurationError, ValidationError
from fracuq.fem import (StiffnessAssembler, TriMesh, apply_functional,
                        assemble_mass, assemble_stiffness, eval_structured,
                        interpolate_vertices, load_mesh, load_vector,
                        phi_integrals, prolong_structured, ritz_projection,
                        save_mesh, triangulate_unit_square)
from fracuq.fem import (_MIDPOINT_BASIS, _dof_scatter, _edge_midpoints,
                        _element_geometry, band_ordered)
from fracuq.field import build_example_field, build_sine_table_field

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _load_vector_untrimmed(mesh, f, t_a, t_b):
    """All-vertex variant of load_vector (f at the interval midpoint), whose
    entries sum to the integral of f: a partition-of-unity check."""
    area, _ = _element_geometry(mesh)
    mid = _edge_midpoints(mesh)
    x1 = mid[:, :, 0].ravel()
    x2 = mid[:, :, 1].ravel()
    if callable(f):
        fbar = np.broadcast_to(np.asarray(f(x1, x2, 0.5 * (t_a + t_b)), dtype=float), x1.shape)
    else:
        fbar = np.full(x1.shape, float(f))
    fq = fbar.reshape(mesh.n_triangles, 3)
    contrib = (fq @ _MIDPOINT_BASIS) * (area / 3.0)[:, None]
    rhs = np.zeros(mesh.n_vertices)
    np.add.at(rhs, mesh.triangles.ravel(), contrib.ravel())
    return rhs


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]], dtype=np.int64)
    bdy = np.array([True, True, True])
    interior = np.array([-1, -1, -1], dtype=np.int64)
    return TriMesh(verts, tris, bdy, interior, h=math.sqrt(2.0))


class TestTriangulate:
    def test_minimal_mesh(self):
        m = triangulate_unit_square(1)
        assert m.n_triangles == 2
        assert m.n_dofs == 0

    def test_counts_ndiv4(self):
        m = triangulate_unit_square(4)
        assert m.n_vertices == 25
        assert m.n_triangles == 32
        assert m.n_dofs == 9

    def test_h_ndiv53(self):
        m = triangulate_unit_square(53)
        assert m.h == pytest.approx(math.sqrt(2.0) / 53)
        assert m.h == pytest.approx(0.0267, abs=2e-4)

    def test_total_area_is_one(self):
        m = triangulate_unit_square(5)
        v = m.vertices[m.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.all(area > 0)
        assert area.sum() == pytest.approx(1.0, rel=1e-14)

    def test_invalid_ndiv(self):
        with pytest.raises(ConfigurationError):
            triangulate_unit_square(0)

    @pytest.mark.parametrize("n_div", [1, 2, 5, 53])
    def test_triangles_match_cell_loop(self, n_div):
        tris = []
        for i in range(n_div):
            for j in range(n_div):
                v00, v10 = i * (n_div + 1) + j, (i + 1) * (n_div + 1) + j
                tris += [(v00, v10, v10 + 1), (v00, v10 + 1, v00 + 1)]
        got = triangulate_unit_square(n_div).triangles
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, np.array(tris, dtype=np.int64))


class TestMeshFiles:
    def test_round_trip(self, tmp_path):
        m = triangulate_unit_square(3)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        loaded = load_mesh(path)
        assert np.array_equal(loaded.vertices, m.vertices)
        assert np.array_equal(loaded.triangles, m.triangles)
        assert np.array_equal(loaded.interior_index, m.interior_index)
        assert loaded.h == pytest.approx(m.h)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("4\n0 0 1\n")
        with pytest.raises(ValidationError):
            load_mesh(path)

    def test_degenerate_triangle_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("3\n0 0 1\n1 0 1\n2 0 1\n1\n0 1 2\n")
        with pytest.raises(ValidationError):
            load_mesh(path)


class TestMass:
    def test_reference_element_block(self):
        M = assemble_mass(reference_triangle(), trimmed=False).toarray()
        # area 1/2, so the diagonal is 1/12 and off-diagonal 1/24
        assert np.allclose(M, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0)

    def test_total_mass_is_domain_area(self):
        M = assemble_mass(triangulate_unit_square(6), trimmed=False)
        assert M.sum() == pytest.approx(1.0, rel=1e-14)

    def test_single_dof_value(self):
        # n_div = 2: one interior vertex supported on 6 triangles of area 1/8
        M = assemble_mass(triangulate_unit_square(2)).toarray()
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(1.0 / 8.0, rel=1e-14)

    def test_symmetric_positive_definite(self):
        M = assemble_mass(triangulate_unit_square(8)).toarray()
        assert np.allclose(M, M.T)
        assert np.linalg.eigvalsh(M).min() > 0


class TestStiffness:
    def test_unit_diffusivity_stencil(self):
        field = build_sine_table_field(1.0, [])
        D = assemble_stiffness(triangulate_unit_square(2), field, np.zeros(0))
        assert D.toarray() == pytest.approx(np.array([[4.0]]), rel=1e-14)

    def test_row_sums_vanish_untrimmed(self):
        field = build_sine_table_field(1.0, [])
        D = assemble_stiffness(triangulate_unit_square(5), field, np.zeros(0),
                               trimmed=False)
        assert np.allclose(np.asarray(D.sum(axis=1)).ravel(), 0.0, atol=1e-13)

    def test_affine_in_parameters(self):
        field = build_example_field(4)
        mesh = triangulate_unit_square(6)
        asm = StiffnessAssembler(mesh, field)
        rng = np.random.default_rng(5)
        y1 = rng.uniform(-0.5, 0.5, size=len(field))
        y2 = rng.uniform(-0.5, 0.5, size=len(field))
        a = 0.37
        lhs = asm.matrix(a * y1 + (1 - a) * y2).toarray()
        rhs = a * asm.matrix(y1).toarray() + (1 - a) * asm.matrix(y2).toarray()
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_symmetric_positive_definite(self):
        field = build_example_field(6)
        mesh = triangulate_unit_square(8)
        rng = np.random.default_rng(1)
        D = assemble_stiffness(mesh, field,
                               rng.uniform(-0.5, 0.5, size=len(field))).toarray()
        assert np.allclose(D, D.T)
        assert np.linalg.eigvalsh(D).min() > 0

    def test_short_parameter_vector_truncates(self):
        field = build_example_field(4)
        asm = StiffnessAssembler(triangulate_unit_square(4), field)
        y = np.array([0.3, -0.2])
        full = np.concatenate([y, np.zeros(len(field) - 2)])
        assert np.allclose(asm.matrix(y).toarray(), asm.matrix(full).toarray())

    def test_nonpositive_diffusivity_rejected(self):
        field = build_sine_table_field(-1.0, [])
        mesh = triangulate_unit_square(3)
        with pytest.raises(ConfigurationError):
            assemble_stiffness(mesh, field, np.zeros(0))
        # the lenient assembler path still produces a (negative) matrix
        D = StiffnessAssembler(mesh, field).matrix(np.zeros(0))
        assert D.toarray()[0, 0] < 0


def reference_affine_parts(mesh, field, grad_g):
    """psibar, r0 and R built as the assembler once did, from the whole
    midpoint basis table ``field.basis_values``."""
    nt = mesh.n_triangles
    mid = _edge_midpoints(mesh)
    x1, x2 = mid[:, :, 0].ravel(), mid[:, :, 1].ravel()
    psi = field.basis_values(x1, x2)
    q = psi.T.reshape(nt, 3, psi.shape[0])
    psibar = ((q[:, 0] + q[:, 1] + q[:, 2]) / 3.0).T
    area, grads = _element_geometry(mesh)
    gx, gy = grad_g(mid[:, :, 0], mid[:, :, 1])
    gg = np.stack([np.broadcast_to(gx, mid.shape[:2]),
                   np.broadcast_to(gy, mid.shape[:2])], axis=-1)
    weights = np.einsum("tqd,tid->tqi", gg, grads) * (area / 3.0)[:, None, None]
    scatter = _dof_scatter(mesh, weights)
    return psibar, scatter @ field.kappa0(x1, x2), (scatter @ psi.T).T


def shuffled_mesh(tmp_path, n_div=6, seed=41):
    """The structured mesh written with permuted vertex ids and read back."""
    mesh = triangulate_unit_square(n_div)
    new_id = np.random.default_rng(seed).permutation(mesh.n_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[new_id] = mesh.vertices
    bdy = np.empty_like(mesh.boundary)
    bdy[new_id] = mesh.boundary
    path = tmp_path / "shuffled.txt"
    save_mesh(dataclasses.replace(mesh, vertices=verts, boundary=bdy,
                                  triangles=new_id[mesh.triangles]), path)
    return load_mesh(path)


def repeated_mode_field():
    """A sine-table field of 21 terms over few distinct mode numbers."""
    rng = np.random.default_rng(17)
    rows = [[k, l, a] for k, l, a in zip(rng.integers(1, 4, 21), rng.integers(1, 3, 21),
                                         rng.uniform(-0.01, 0.01, 21))]
    return build_sine_table_field(0.3, rows, kappa0_xy=0.05)


class TestAffineParts:
    """The assembler reduces the basis table in blocks of modes; its parts
    must be bitwise those of the whole table."""

    @pytest.mark.parametrize("case", ["q1", "q3", "q22", "shuffled", "repeated"])
    def test_bitwise_equal_to_whole_table(self, case, tmp_path):
        from fracuq.estimator import example_initial_gradient as grad_g
        if case == "shuffled":
            mesh, field = shuffled_mesh(tmp_path), build_example_field(3)
        elif case == "repeated":
            mesh, field = band_ordered(triangulate_unit_square(9)), repeated_mode_field()
        else:
            q = int(case[1:])
            n_div = 53 if q == 22 else 8
            mesh, field = band_ordered(triangulate_unit_square(n_div)), build_example_field(q)
        psibar, r0, R = reference_affine_parts(mesh, field, grad_g)
        asm = StiffnessAssembler(mesh, field, grad_g)
        lazy = StiffnessAssembler(mesh, field)
        ys = np.random.default_rng(3).uniform(-0.5, 0.5, size=(8, len(field)))
        kbar = asm.kbar0 + ys @ psibar
        assert np.array_equal(asm.psibar, psibar)
        assert np.array_equal(asm.matrix_data(ys), (asm._spread @ kbar.T).T)
        for parts in (asm._ritz[grad_g], lazy._ritz.get(grad_g)):
            if parts is None:       # the lazy assembler builds its parts on first use
                assert np.array_equal(lazy.ritz_rhs(ys, grad_g), r0 + ys @ R)
                parts = lazy._ritz[grad_g]
            assert np.array_equal(parts[0], r0)
            assert np.array_equal(parts[1], R)
        assert np.array_equal(asm.ritz_rhs(ys, grad_g), r0 + ys @ R)

    def test_basis_values_plain_formula(self):
        field = repeated_mode_field()
        x1, x2 = np.random.default_rng(4).uniform(0.0, 1.0, size=(2, 300))
        plain = (np.sin(np.pi * np.outer(x1, field.k)).T * field.amp[:, None]
                 * np.sin(np.pi * np.outer(x2, field.l)).T)
        assert np.array_equal(field.basis_values(x1, x2), plain)

    def test_set_up_memory(self):
        from fracuq.estimator import example_initial_gradient as grad_g
        mesh = band_ordered(triangulate_unit_square(53))
        field = build_example_field(22)
        tracemalloc.start()
        try:
            asm = StiffnessAssembler(mesh, field, grad_g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = asm.psibar.nbytes + asm._ritz[grad_g][1].nbytes
        assert peak < 2.5 * kept, f"peak {peak / 2**20:.1f} MiB for {kept / 2**20:.1f} MiB kept"


class TestLoadVector:
    def test_constant_source_partition_of_unity(self):
        mesh = triangulate_unit_square(5)
        rhs = _load_vector_untrimmed(mesh, 1.0, 0.0, 1.0)
        assert rhs.sum() == pytest.approx(1.0, rel=1e-14)

    def test_linear_time_average(self):
        mesh = triangulate_unit_square(4)
        a = load_vector(mesh, lambda x1, x2, t: t, 0.0, 1.0)
        c = load_vector(mesh, 0.5, 0.0, 1.0)
        assert np.allclose(a, c, atol=1e-15)

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            load_vector(triangulate_unit_square(2), 1.0, 1.0, 1.0)

    def test_spatial_quadrature_degree_two(self):
        # edge-midpoint rule integrates quadratics exactly: compare the sum
        # of the untrimmed load of x1*x2 to its exact integral 1/4
        mesh = triangulate_unit_square(3)
        rhs = _load_vector_untrimmed(mesh, lambda x1, x2, t: x1 * x2, 0.0, 1.0)
        assert rhs.sum() == pytest.approx(0.25, rel=1e-14)


class TestFunctional:
    def test_phi_integrals_single_dof(self):
        w = phi_integrals(triangulate_unit_square(2))
        assert w == pytest.approx([0.25], rel=1e-14)

    def test_matches_quadrature(self):
        mesh = triangulate_unit_square(8)
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=mesh.n_dofs)
        val, _ = si.dblquad(lambda x2, x1: eval_structured(8, coeffs, x1, x2),
                            0, 1, 0, 1, epsabs=1e-10)
        assert apply_functional(mesh, coeffs) == pytest.approx(val, abs=1e-8)

    def test_interpolant_of_normalised_initial(self):
        from fracuq.estimator import example_initial
        mesh = triangulate_unit_square(64)
        coeffs = interpolate_vertices(mesh, example_initial)
        assert apply_functional(mesh, coeffs) == pytest.approx(1.0, abs=2e-3)


class TestRitz:
    def test_galerkin_orthogonality(self):
        from fracuq.estimator import example_initial, example_initial_gradient
        field = build_example_field(5)
        mesh = triangulate_unit_square(12)
        rng = np.random.default_rng(9)
        y = rng.uniform(-0.5, 0.5, size=len(field))
        asm = StiffnessAssembler(mesh, field)
        coeffs = ritz_projection(mesh, field, y, example_initial,
                                 example_initial_gradient, assembler=asm)
        resid = asm.matrix(y) @ coeffs - asm.ritz_rhs(y, example_initial_gradient)
        assert np.max(np.abs(resid)) < 1e-10

    def test_functional_of_projection_converges(self):
        from fracuq.estimator import example_initial, example_initial_gradient
        field = build_example_field(3)
        y = np.full(len(field), 0.25)
        errs = []
        for n_div in (8, 16, 32):
            mesh = triangulate_unit_square(n_div)
            coeffs = ritz_projection(mesh, field, y, example_initial,
                                     example_initial_gradient)
            errs.append(abs(apply_functional(mesh, coeffs) - 1.0))
        # O(h^2): each halving of h divides the error by about 4
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.8)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.8)


class TestStructuredEval:
    def test_vertex_reproduction(self):
        n_div = 6
        mesh = triangulate_unit_square(n_div)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=mesh.n_dofs)
        keep = mesh.interior_index >= 0
        v = mesh.vertices[keep]
        assert np.allclose(eval_structured(n_div, coeffs, v[:, 0], v[:, 1]),
                           coeffs)

    def test_boundary_values_zero(self):
        coeffs = np.ones(9)
        edge = np.linspace(0, 1, 7)
        assert np.allclose(eval_structured(4, coeffs, edge, np.zeros(7)), 0.0)
        assert np.allclose(eval_structured(4, coeffs, np.ones(7), edge), 0.0)

    def test_prolongation_exact(self):
        rng = np.random.default_rng(4)
        coarse = rng.normal(size=(3 - 1) ** 2)
        fine = prolong_structured(coarse, 3, 12)
        x = rng.uniform(0, 1, size=50)
        y = rng.uniform(0, 1, size=50)
        assert np.allclose(eval_structured(3, coarse, x, y),
                           eval_structured(12, fine, x, y), atol=1e-13)

    def test_prolongation_multiple_required(self):
        with pytest.raises(ConfigurationError):
            prolong_structured(np.zeros(4), 3, 7)
