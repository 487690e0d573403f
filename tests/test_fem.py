"""Tests for the P1 finite element pieces."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fracuq.errors import ConfigurationError, ValidationError
from fracuq.fem import (StiffnessAssembler, TriMesh, assemble_mass,
                        eval_structured, load_mesh, load_vector,
                        phi_integrals, prolong_structured, save_mesh,
                        triangulate_unit_square)
from fracuq.fem import _element_geometry, band_ordered
from fracuq.estimator import example_initial_gradient
from fracuq.field import build_example_field, build_sine_table_field
from oracles import (basis_values, element_load, element_midpoint_parts,
                     example_initial, ritz_projection)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]], dtype=np.int64)
    bdy = np.array([True, True, True])
    interior = np.array([-1, -1, -1], dtype=np.int64)
    return TriMesh(verts, tris, bdy, interior, h=math.sqrt(2.0))


def all_vertices_free(mesh):
    """The mesh with every vertex a dof, so assembly keeps the boundary rows."""
    return dataclasses.replace(mesh, boundary=np.zeros(mesh.n_vertices, dtype=bool),
                               interior_index=np.arange(mesh.n_vertices))


def stiffness(mesh, field, y):
    return StiffnessAssembler(mesh, field, example_initial_gradient).matrix(y)


def apply_functional(mesh, coeffs):
    """Mean-value functional: integral of the P1 function over the domain."""
    return float(phi_integrals(mesh) @ coeffs)


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
        M = assemble_mass(all_vertices_free(reference_triangle())).toarray()
        # area 1/2, so the diagonal is 1/12 and off-diagonal 1/24
        assert np.allclose(M, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0)

    def test_total_mass_is_domain_area(self):
        M = assemble_mass(all_vertices_free(triangulate_unit_square(6)))
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
        D = stiffness(triangulate_unit_square(2), field, np.zeros(0))
        assert D.toarray() == pytest.approx(np.array([[4.0]]), rel=1e-14)

    def test_row_sums_vanish_untrimmed(self):
        field = build_sine_table_field(1.0, [])
        D = stiffness(all_vertices_free(triangulate_unit_square(5)), field, np.zeros(0))
        assert np.allclose(np.asarray(D.sum(axis=1)).ravel(), 0.0, atol=1e-13)

    def test_affine_in_parameters(self):
        field = build_example_field(4)
        mesh = triangulate_unit_square(6)
        asm = StiffnessAssembler(mesh, field, example_initial_gradient)
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
        D = stiffness(mesh, field, rng.uniform(-0.5, 0.5, size=len(field))).toarray()
        assert np.allclose(D, D.T)
        assert np.linalg.eigvalsh(D).min() > 0

    def test_short_parameter_vector_truncates(self):
        field = build_example_field(4)
        asm = StiffnessAssembler(triangulate_unit_square(4), field, example_initial_gradient)
        y = np.array([0.3, -0.2])
        full = np.concatenate([y, np.zeros(len(field) - 2)])
        assert np.allclose(asm.matrix(y).toarray(), asm.matrix(full).toarray())

    def test_nonpositive_diffusivity_rejected(self):
        # sin(128 pi x1) vanishes on the bounds grid, so the declared lower
        # bound is 0.05; on the n_div = 3 mesh the element averages still
        # dip below 0 at y = 1/2 while the level matrices stay positive
        # definite.  The stepper gives that sample NaN values, and only it.
        from fracuq.errors import SolverError
        from fracuq.tfrac import TrajectorySolver, graded_mesh
        field = build_sine_table_field(0.05, [(128, 1, 0.5)])
        assert field.declared_bounds[0] > 0
        mesh = triangulate_unit_square(3)
        y = np.array([[0.5], [0.1], [0.0]])
        kbar, _ = StiffnessAssembler(mesh, field, example_initial_gradient).parts(y)
        assert kbar[0].min() < 0 < kbar[1:].min()
        solver = TrajectorySolver(mesh, field, graded_mesh(1.0, 4, 2.0), 0.5, 1.0,
                                  example_initial_gradient)
        values = solver.functional_series(y)
        assert np.all(np.isnan(values[0]))
        assert np.all(np.isfinite(values[1:]))
        with pytest.raises(SolverError):
            solver.solve(y[0])


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


def jittered_mesh(tmp_path, n_div=10, seed=5):
    """The structured mesh with its interior vertices moved at random, written and read back."""
    mesh = triangulate_unit_square(n_div)
    inner = ~mesh.boundary
    verts = mesh.vertices.copy()
    verts[inner] += np.random.default_rng(seed).uniform(-0.15, 0.15, (inner.sum(), 2)) / n_div
    path = tmp_path / "jittered.txt"
    save_mesh(dataclasses.replace(mesh, vertices=verts), path)
    return load_mesh(path)


def repeated_mode_field():
    """A sine-table field of 21 terms over few distinct mode numbers."""
    rng = np.random.default_rng(17)
    rows = [[k, l, a] for k, l, a in zip(rng.integers(1, 4, 21), rng.integers(1, 3, 21),
                                         rng.uniform(-0.01, 0.01, 21))]
    return build_sine_table_field(0.3, rows, kappa0_xy=0.05)


def affine_case(case, tmp_path):
    """(mesh, field, number of parameters per row) of a named test case."""
    if case == "shuffled":
        return shuffled_mesh(tmp_path), build_example_field(3), None
    if case == "jittered":
        return jittered_mesh(tmp_path), build_example_field(6), None
    if case == "n12":
        return triangulate_unit_square(12), build_example_field(6), None
    if case == "repeated":
        return band_ordered(triangulate_unit_square(9)), repeated_mode_field(), None
    if case == "z0":
        return band_ordered(triangulate_unit_square(8)), build_sine_table_field(0.7, []), None
    if case == "short":
        return band_ordered(triangulate_unit_square(8)), build_example_field(4), 4
    q = int(case[1:])
    n_div = 53 if q == 22 else 8
    return band_ordered(triangulate_unit_square(n_div)), build_example_field(q), None


class TestAffineParts:
    """The assembler evaluates kappa per block of samples from the field's
    sine maps; it must agree with the whole basis table at the element
    midpoints, and give each row the bits that row gets alone."""

    @pytest.mark.parametrize("case", ["q1", "q3", "q22", "shuffled", "repeated",
                                      "n12", "jittered", "z0", "short"])
    def test_matches_whole_table(self, case, tmp_path):
        grad_g = example_initial_gradient
        mesh, field, z = affine_case(case, tmp_path)
        z = len(field) if z is None else z
        kbar0, psibar, r0, R = element_midpoint_parts(mesh, field, grad_g)
        asm = StiffnessAssembler(mesh, field, grad_g)
        ys = np.random.default_rng(3).uniform(-0.5, 0.5, size=(8, z))
        kbar = kbar0 + ys @ psibar[:z]
        rhs = r0 + ys @ R[:z]
        assert np.max(np.abs(asm.parts(ys)[0] - kbar)) <= 1e-14 * np.max(np.abs(kbar))
        assert np.max(np.abs(asm.ritz_rhs(ys) - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("case", ["q22", "repeated", "jittered"])
    def test_row_bits_do_not_depend_on_the_block(self, case, k, tmp_path):
        mesh, field, _ = affine_case(case, tmp_path)
        asm = StiffnessAssembler(mesh, field, example_initial_gradient)
        ys = np.random.default_rng(k).uniform(-0.5, 0.5, size=(k, len(field)))
        kbar, rhs = asm.parts(ys)
        data = asm.matrix_data(kbar)
        for i, y in enumerate(ys):
            kbar_i, rhs_i = asm.parts(y[None])
            assert kbar[i].tobytes() == kbar_i[0].tobytes()
            assert rhs[i].tobytes() == rhs_i[0].tobytes() == asm.ritz_rhs(y).tobytes()
            assert data[i].tobytes() == asm.matrix_data(kbar_i)[0].tobytes()

    def test_basis_values_plain_formula(self):
        field = repeated_mode_field()
        x1, x2 = np.random.default_rng(4).uniform(0.0, 1.0, size=(2, 300))
        plain = (np.sin(np.pi * np.outer(x1, field.k)).T * field.amp[:, None]
                 * np.sin(np.pi * np.outer(x2, field.l)).T)
        assert np.array_equal(basis_values(field, x1, x2), plain)

    def test_set_up_memory(self):
        # paper scale: nothing of size z times the elements or the dofs is held
        # or built; the peak counts the mesh tables made on first use as well
        grad_g = example_initial_gradient
        mesh = band_ordered(triangulate_unit_square(53))
        field = build_example_field(22)
        tracemalloc.start()
        try:
            asm = StiffnessAssembler(mesh, field, grad_g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        sizes = [max(getattr(v, "nnz", 0), getattr(v, "size", 0)) for v in vars(asm).values()]
        assert max(sizes) < len(field) * mesh.n_dofs < len(field) * mesh.n_triangles


class TestLoadVector:
    def test_constant_source_partition_of_unity(self):
        mesh = triangulate_unit_square(5)
        rhs = element_load(mesh, 1.0, 0.0, 1.0)
        assert rhs.sum() == pytest.approx(1.0, rel=1e-14)

    def test_linear_time_average(self):
        mesh = triangulate_unit_square(4)
        a = load_vector(mesh, lambda x1, x2, t: t, 0.0, 1.0)
        c = load_vector(mesh, 0.5, 0.0, 1.0)
        assert np.allclose(a, c, atol=1e-15)

    def test_constant_source_is_one_read_only_row(self):
        mesh = triangulate_unit_square(6)
        t = np.linspace(0.0, 1.0, 6)
        rows = load_vector(mesh, 0.5, t[:-1], t[1:])
        assert rows.shape == (5, mesh.n_dofs)
        assert not rows.flags.writeable and rows.strides[0] == 0
        one = load_vector(mesh, 0.5, 0.0, 1.0)
        assert one.shape == (mesh.n_dofs,)
        assert rows.tobytes() == np.tile(one, 5).tobytes()

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            load_vector(triangulate_unit_square(2), 1.0, 1.0, 1.0)

    def test_spatial_quadrature_degree_two(self):
        # edge-midpoint rule integrates quadratics exactly: compare the sum
        # of the untrimmed load of x1*x2 to its exact integral 1/4
        mesh = triangulate_unit_square(3)
        rhs = element_load(mesh, lambda x1, x2, t: x1 * x2, 0.0, 1.0)
        assert rhs.sum() == pytest.approx(0.25, rel=1e-14)


def on_dofs(mesh, values):
    """The entries of an all-vertex vector at the dofs, in dof order."""
    out = np.empty(mesh.n_dofs)
    inner = mesh.interior_index >= 0
    out[mesh.interior_index[inner]] = values[inner]
    return out


class TestEdgeRule:
    """Loads and functional weights come from one scatter of the integrand
    at the distinct edges; they must agree with the sum element by element."""

    @pytest.mark.parametrize("case", ["n24", "n53", "jittered"])
    def test_matches_element_sums(self, case, tmp_path):
        mesh = (jittered_mesh(tmp_path) if case == "jittered"
                else band_ordered(triangulate_unit_square(int(case[1:]))))
        t = np.array([0.0, 0.1, 0.35, 1.0])

        def f(x1, x2, t):
            return np.sin(3.0 * x1 + t) * np.exp(x2) + x1 * x2 * t ** 2

        rows = load_vector(mesh, f, t[:-1], t[1:])
        for a, b, row in zip(t[:-1], t[1:], rows):
            ref = on_dofs(mesh, element_load(mesh, f, a, b))
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))
        for got, ref in ((load_vector(mesh, 0.7, 0.0, 1.0), element_load(mesh, 0.7, 0.0, 1.0)),
                         (phi_integrals(mesh), element_load(mesh, 1.0, 0.0, 1.0))):
            ref = on_dofs(mesh, ref)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_integrands_evaluated_once_per_edge(self):
        # the structured mesh has n(n+1) edges in each axis direction and n^2 diagonals
        n_div = 7
        n_edges = 2 * n_div * (n_div + 1) + n_div ** 2
        mesh = band_ordered(triangulate_unit_square(n_div))
        sizes = []

        def f(x1, x2, t):
            sizes.append((np.shape(x1), np.shape(x2)))
            return x1 * x2 + t

        def grad_g(x1, x2):
            sizes.append((np.shape(x1), np.shape(x2)))
            return example_initial_gradient(x1, x2)

        load_vector(mesh, f, np.array([0.0, 0.5]), np.array([0.5, 1.0]))
        StiffnessAssembler(mesh, build_example_field(3), grad_g)
        assert sizes == [((n_edges,), (n_edges,))] * 5


class TestFunctional:
    def test_phi_integrals_single_dof(self):
        w = phi_integrals(triangulate_unit_square(2))
        assert w == pytest.approx([0.25], rel=1e-14)

    def test_matches_quadrature(self):
        # the function is linear on the two triangles of each cell (xi >= eta
        # and xi < eta), so the centroid rule on them is exact
        n_div = 8
        mesh = triangulate_unit_square(n_div)
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=mesh.n_dofs)
        i, j = (c.ravel() for c in np.meshgrid(np.arange(n_div), np.arange(n_div)))
        x1 = np.concatenate([i + 2.0 / 3.0, i + 1.0 / 3.0]) / n_div
        x2 = np.concatenate([j + 1.0 / 3.0, j + 2.0 / 3.0]) / n_div
        val = np.sum(eval_structured(n_div, coeffs, x1, x2)) / (2 * n_div ** 2)
        assert apply_functional(mesh, coeffs) == pytest.approx(val, abs=1e-8)

    def test_interpolant_of_normalised_initial(self):
        mesh = triangulate_unit_square(64)
        v = mesh.vertices[mesh.interior_index >= 0]
        coeffs = example_initial(v[:, 0], v[:, 1])
        assert apply_functional(mesh, coeffs) == pytest.approx(1.0, abs=2e-3)


class TestRitz:
    def test_galerkin_orthogonality(self):
        field = build_example_field(5)
        mesh = triangulate_unit_square(12)
        rng = np.random.default_rng(9)
        y = rng.uniform(-0.5, 0.5, size=len(field))
        asm = StiffnessAssembler(mesh, field, example_initial_gradient)
        coeffs = ritz_projection(mesh, field, y, example_initial_gradient, assembler=asm)
        resid = asm.matrix(y) @ coeffs - asm.ritz_rhs(y)
        assert np.max(np.abs(resid)) < 1e-10

    def test_functional_of_projection_converges(self):
        field = build_example_field(3)
        y = np.full(len(field), 0.25)
        errs = []
        for n_div in (8, 16, 32):
            mesh = triangulate_unit_square(n_div)
            coeffs = ritz_projection(mesh, field, y, example_initial_gradient)
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
