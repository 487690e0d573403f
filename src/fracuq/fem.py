"""P1 Galerkin pieces on triangulations of the unit square.

Assembles the mass matrix, the diffusivity-weighted stiffness matrix
(affine in the random parameters, so the per-element basis averages are
precomputed once and reused across samples), load vectors, Ritz
projections of the initial data, and the mean-value functional.
Homogeneous Dirichlet conditions are imposed by eliminating boundary
vertices at assembly time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConfigurationError, ValidationError

__all__ = [
    "TriMesh",
    "triangulate_unit_square",
    "save_mesh",
    "load_mesh",
    "band_ordered",
    "assemble_mass",
    "assemble_stiffness",
    "StiffnessAssembler",
    "load_vector",
    "ritz_projection",
    "phi_integrals",
    "apply_functional",
    "interpolate_vertices",
    "eval_structured",
    "prolong_structured",
]


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with interior-dof numbering.

    vertices: (nv, 2); triangles: (nt, 3) counterclockwise vertex triples;
    boundary: (nv,) bool; interior_index: vertex id -> dof id, -1 on the
    boundary; h: maximal element diameter.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    interior_index: np.ndarray
    h: float
    n_div: int | None = None  # set for the structured unit-square mesh

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_dofs(self) -> int:
        return int(np.max(self.interior_index)) + 1 if np.any(self.interior_index >= 0) else 0


def _element_geometry(mesh: TriMesh):
    """Areas and constant P1 gradients per element."""
    v = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(det <= 0):
        raise ValidationError("mesh contains degenerate or misoriented triangles")
    area = 0.5 * det
    grads = np.empty((mesh.n_triangles, 3, 2))
    # gradient of the barycentric function of vertex i is the rotated opposite edge
    e0 = v[:, 2] - v[:, 1]
    e1 = v[:, 0] - v[:, 2]
    e2 = v[:, 1] - v[:, 0]
    for i, e in enumerate((e0, e1, e2)):
        grads[:, i, 0] = -e[:, 1] / det
        grads[:, i, 1] = e[:, 0] / det
    return area, grads


def _edge_midpoints(mesh: TriMesh):
    """Element quadrature points (edge midpoints, degree-2 exact) as (nt, 3, 2)."""
    v = mesh.vertices[mesh.triangles]
    return 0.5 * (v[:, [1, 2, 0]] + v[:, [2, 0, 1]])


# P1 basis values at the three edge midpoints; row = midpoint, col = vertex
_MIDPOINT_BASIS = np.array([[0.0, 0.5, 0.5],
                            [0.5, 0.0, 0.5],
                            [0.5, 0.5, 0.0]])


def triangulate_unit_square(n_div: int) -> TriMesh:
    """Structured mesh: each of n_div^2 cells split along the (1,1) diagonal."""
    if n_div < 1:
        raise ConfigurationError("n_div must be >= 1")
    g = np.linspace(0.0, 1.0, n_div + 1)
    X, Y = np.meshgrid(g, g, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j), in row-major order, has lower-left vertex i (n_div + 1) + j
    # and the triangles (v00, v10, v11), (v00, v11, v01)
    i, j = np.divmod(np.arange(n_div * n_div, dtype=np.int64), n_div)
    v00 = i * (n_div + 1) + j
    v10, v01 = v00 + (n_div + 1), v00 + 1
    v11 = v10 + 1
    tris = np.stack([np.column_stack([v00, v10, v11]),
                     np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)
    on_bdy = (verts[:, 0] == 0) | (verts[:, 0] == 1) | (verts[:, 1] == 0) | (verts[:, 1] == 1)
    interior = np.full(verts.shape[0], -1, dtype=np.int64)
    interior[~on_bdy] = np.arange(np.count_nonzero(~on_bdy))
    return TriMesh(vertices=verts, triangles=tris, boundary=on_bdy,
                   interior_index=interior, h=math.sqrt(2.0) / n_div, n_div=n_div)


def save_mesh(mesh: TriMesh, path):
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices}\n")
        for (x, y), b in zip(mesh.vertices, mesh.boundary):
            fh.write(f"{float(x):.17g} {float(y):.17g} {int(b)}\n")
        fh.write(f"{mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def load_mesh(path) -> TriMesh:
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)

    def count(what):
        n = int(next(it))
        if not 0 <= 3 * n <= len(tokens):    # each entry takes three tokens
            raise ValidationError(f"{path}: {what} count {n} does not fit the file")
        return n

    try:
        nv = count("vertex")
        verts = np.empty((nv, 2))
        bdy = np.empty(nv, dtype=bool)
        for i in range(nv):
            verts[i, 0] = float(next(it))
            verts[i, 1] = float(next(it))
            bdy[i] = bool(int(next(it)))
        nt = count("triangle")
        tris = np.empty((nt, 3), dtype=np.int64)
        for i in range(nt):
            tris[i] = [int(next(it)), int(next(it)), int(next(it))]
    except StopIteration as exc:
        raise ValidationError(f"{path}: truncated mesh file") from exc
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: invalid token in mesh file ({exc})") from exc
    if tris.size and not (0 <= tris.min() and tris.max() < nv):
        raise ValidationError(f"{path}: triangle vertex index outside 0..{nv - 1}")
    interior = np.full(nv, -1, dtype=np.int64)
    interior[~bdy] = np.arange(np.count_nonzero(~bdy))
    v = verts[tris]
    diam = max(np.linalg.norm(v[:, a] - v[:, b], axis=1).max()
               for a, b in ((0, 1), (1, 2), (2, 0)))
    mesh = TriMesh(vertices=verts, triangles=tris, boundary=bdy,
                   interior_index=interior, h=float(diam))
    _element_geometry(mesh)  # validates orientation / degeneracy
    return mesh


def _pattern(mesh: TriMesh, trimmed: bool = True):
    """CSC sparsity shared by every assembled matrix, and where entries land.

    Entry (a, b) of element t's 3x3 block, taken in row-major (t, a, b)
    order and restricted to ``keep`` (both vertices are dofs), is added to
    ``data[slot]``.  Returns (indptr, indices, slot, keep).
    """
    tri = mesh.triangles
    index = mesh.interior_index if trimmed else np.arange(mesh.n_vertices)
    rows = index[np.repeat(tri, 3, axis=1).ravel()]
    cols = index[np.tile(tri, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_dofs if trimmed else mesh.n_vertices
    # column-major keys sort into CSC order: by column, then by row
    key, slot = np.unique(cols[keep] * n + rows[keep], return_inverse=True)
    indptr = np.searchsorted(key // n, np.arange(n + 1))
    return indptr, key % n, slot, keep


def band_ordered(mesh: TriMesh) -> TriMesh:
    """The mesh with its dofs renumbered in reverse Cuthill-McKee order.

    Matrices assembled on the result are band matrices of small
    half-bandwidth (n_div - 1 on the structured mesh) whatever the dof
    numbering of ``mesh``.  Vertices and triangles are unchanged; only
    ``interior_index`` differs, and ``n_div`` is dropped because the
    structured helpers assume the row-major numbering.
    """
    indptr, indices, _, _ = _pattern(mesh)
    n = mesh.n_dofs
    graph = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    order = reverse_cuthill_mckee(graph, symmetric_mode=True) if n else np.zeros(0, np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    dof = mesh.interior_index.copy()
    inner = dof >= 0
    dof[inner] = rank[dof[inner]]
    return dataclasses.replace(mesh, interior_index=dof, n_div=None)


def _assemble(mesh: TriMesh, local: np.ndarray, trimmed: bool) -> sp.csc_matrix:
    """Scatter per-element 3x3 blocks; `local` has shape (nt, 3, 3)."""
    indptr, indices, slot, keep = _pattern(mesh, trimmed)
    data = np.bincount(slot, weights=local.ravel()[keep], minlength=indices.size)
    n = indptr.size - 1
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _dof_scatter(mesh: TriMesh, weights: np.ndarray | None = None) -> sp.csr_matrix:
    """Sparse map from per-element vertex values, flattened (t, i), to dofs.

    ``Q @ v`` adds v[3t + i] into the dof of vertex i of element t, element
    by element; with ``weights`` of shape (nt, 3, 3) the column 3t + q
    instead feeds all three vertices i of element t, scaled by
    weights[t, q, i].
    """
    nt = mesh.n_triangles
    dof = mesh.interior_index[mesh.triangles]              # (nt, 3)
    if weights is None:
        rows, cols, vals = dof.ravel(), np.arange(3 * nt), np.ones(3 * nt)
    else:
        rows = np.broadcast_to(dof[:, None, :], (nt, 3, 3)).ravel()
        cols = np.repeat(np.arange(3 * nt), 3)
        vals = weights.ravel()
    keep = rows >= 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(mesh.n_dofs, 3 * nt))


_MASS_LOCAL = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh: TriMesh, trimmed: bool = True) -> sp.csc_matrix:
    """Exact P1 mass matrix (element block area/12 * [[2,1,1],[1,2,1],[1,1,2]])."""
    area, _ = _element_geometry(mesh)
    local = area[:, None, None] * _MASS_LOCAL[None]
    return _assemble(mesh, local, trimmed)


# basis functions per block when the midpoint basis table is reduced
_MODE_BLOCK = 16


class StiffnessAssembler:
    """Stiffness matrices D(y) and Ritz right-hand sides for a fixed (mesh, field).

    The diffusivity enters each element through its 3-point Gauss average,
    which is affine in y, so per-element basis averages are precomputed and
    each sample only combines them.  Every D(y) shares the CSC pattern
    ``indptr``/``indices`` of :func:`assemble_mass`; :meth:`matrix_data`
    gives its data for a block of parameter vectors at once.  The Ritz
    right-hand side is affine in y as well; passing ``grad_g`` precomputes
    its two parts in the same pass over the basis.
    """

    def __init__(self, mesh: TriMesh, field, grad_g=None):
        self.mesh = mesh
        self.field = field
        area, grads = _element_geometry(mesh)
        self.area = area
        self.grads = grads
        # geometric element stiffness: area * grad_i . grad_j, shape (nt, 3, 3)
        self.k_geom = area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
        nt = mesh.n_triangles
        self.indptr, self.indices, slot, keep = _pattern(mesh)
        # D(y).data = spread @ (element averages of kappa)
        element = np.repeat(np.arange(nt), 9)[keep]
        self._spread = sp.csr_matrix((self.k_geom.ravel()[keep], (slot, element)),
                                     shape=(self.indices.size, nt))
        mid = _edge_midpoints(mesh)
        self._x1 = mid[:, :, 0].ravel()
        self._x2 = mid[:, :, 1].ravel()
        self._kq0 = field.kappa0(self._x1, self._x2)
        self.kbar0 = self._kq0.reshape(nt, 3).mean(axis=1)
        scatter = None if grad_g is None else self._ritz_scatter(grad_g)
        self.psibar, R = self._reduce_basis(scatter, with_psibar=True)
        self._ritz = {}
        if grad_g is not None:
            self._ritz[grad_g] = (scatter @ self._kq0, R)

    def _reduce_basis(self, scatter, with_psibar: bool):
        """psibar and R = (scatter @ psi.T).T from the midpoint basis table psi.

        psi, shape (z, 3 nt) with columns (t, q), is built _MODE_BLOCK rows
        at a time and never whole (34 MB at paper scale).  Each block is
        reduced as the whole table would be: psibar as (q0 + q1 + q2) / 3 of
        its three midpoint slots, R by the same sparse product.  psibar is
        C-ordered and R the transpose of a C-ordered array, the layouts the
        whole table gives, so the BLAS products of later samples see
        bitwise the same operands.  A part that is not asked for is None.
        """
        z, nt = len(self.field), self.mesh.n_triangles
        psibar = np.empty((z, nt)) if with_psibar else None
        R = None if scatter is None else np.empty((scatter.shape[0], z))
        rows = self.field.basis_rows(self._x1, self._x2)
        for a in range(0, z, _MODE_BLOCK):
            b = min(a + _MODE_BLOCK, z)
            psi_t = rows(a, b).T                      # (3 nt, b - a), C order
            if with_psibar:
                q = psi_t.reshape(nt, 3, b - a)
                psibar[a:b] = ((q[:, 0] + q[:, 1] + q[:, 2]) / 3.0).T
            if R is not None:
                R[:, a:b] = scatter @ psi_t
        return psibar, (None if R is None else R.T)

    def element_kappa(self, y) -> np.ndarray:
        """Element averages of kappa: shape (nt,) for one y, (k, nt) for k rows."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] > self.psibar.shape[0]:
            raise ConfigurationError(
                f"parameter vector length {y.shape[-1]} exceeds basis size {self.psibar.shape[0]}")
        return self.kbar0 + y @ self.psibar[: y.shape[-1]]

    def matrix_data(self, y) -> np.ndarray:
        """CSC data of D(y) on the shared pattern, shape (k, nnz) for k rows of y."""
        return (self._spread @ np.atleast_2d(self.element_kappa(y)).T).T

    def matrix(self, y, trimmed: bool = True, require_positive: bool = False) -> sp.csc_matrix:
        """Assemble D(y).

        With ``require_positive`` the element-averaged diffusivity must be
        strictly positive.  The default is lenient and assembles whatever
        the field gives; the built-in example field never needs it, since
        its declared lower bound (0.178 at q = 10) is positive.
        """
        kbar = self.element_kappa(y)
        if require_positive and np.any(kbar <= 0):
            raise ConfigurationError("diffusivity is nonpositive on some element")
        return _assemble(self.mesh, kbar[:, None, None] * self.k_geom, trimmed)

    def _ritz_scatter(self, grad_g) -> sp.csr_matrix:
        """Map from kappa at the edge midpoints, flattened (t, q), to the Ritz rhs.

        Each element integral <kappa grad g, grad phi_i> is area/3 * sum_q
        kappa(q) grad_g(q) . grad phi_i over the edge midpoints q, so
        kappa's values there enter linearly through one weighted scatter.
        """
        mid = _edge_midpoints(self.mesh)
        gx, gy = grad_g(mid[:, :, 0], mid[:, :, 1])
        gg = np.stack([np.broadcast_to(gx, mid.shape[:2]),
                       np.broadcast_to(gy, mid.shape[:2])], axis=-1)  # (nt, 3, 2)
        weights = np.einsum("tqd,tid->tqi", gg, self.grads) * (self.area / 3.0)[:, None, None]
        return _dof_scatter(self.mesh, weights)

    def ritz_rhs(self, y, grad_g) -> np.ndarray:
        """Right-hand side <kappa grad g, grad phi_p> with the same quadrature.

        It is affine in y, r0 + y @ R, and (r0, R) are kept per ``grad_g``.
        Shape (d,) for one parameter vector, (k, d) for k rows.
        """
        parts = self._ritz.get(grad_g)
        if parts is None:
            scatter = self._ritz_scatter(grad_g)
            _, R = self._reduce_basis(scatter, with_psibar=False)
            parts = self._ritz.setdefault(grad_g, (scatter @ self._kq0, R))
        r0, R = parts
        y = np.asarray(y, dtype=float)
        if y.shape[-1] > R.shape[0]:
            raise ConfigurationError(
                f"parameter vector length {y.shape[-1]} exceeds basis size {R.shape[0]}")
        return r0 + y @ R[: y.shape[-1]]


def assemble_stiffness(mesh: TriMesh, field, y, trimmed: bool = True,
                       require_positive: bool = True) -> sp.csr_matrix:
    """One-shot stiffness assembly; rejects nonpositive diffusivity by default."""
    return StiffnessAssembler(mesh, field).matrix(
        y, trimmed=trimmed, require_positive=require_positive)


def load_vector(mesh: TriMesh, f, t_a, t_b) -> np.ndarray:
    """<f-bar, phi_p> for the time-average of f over (t_a, t_b).

    The time average uses 2-point Gauss (exact through cubics in t); space
    uses the degree-2 edge-midpoint rule.  f is f(x1, x2, t) vectorised in
    the spatial arguments, or a plain constant.  Arrays of interval ends
    give one row per interval from a single pass over the mesh.
    """
    t_a, t_b = np.broadcast_arrays(np.asarray(t_a, dtype=float),
                                   np.asarray(t_b, dtype=float))
    if not np.all(t_a < t_b):
        raise ConfigurationError("load_vector requires t_a < t_b")
    area, _ = _element_geometry(mesh)
    mid = _edge_midpoints(mesh)
    x1 = mid[:, :, 0].ravel()
    x2 = mid[:, :, 1].ravel()
    if callable(f):
        fbar = []
        for a, b in zip(t_a.ravel(), t_b.ravel()):
            half = 0.5 * (b - a)
            c = 0.5 * (a + b)
            s = half / math.sqrt(3.0)
            fbar.append(np.broadcast_to(0.5 * (np.asarray(f(x1, x2, c - s), dtype=float)
                                               + np.asarray(f(x1, x2, c + s), dtype=float)),
                                        x1.shape))
        fbar = np.array(fbar)
    else:
        fbar = np.full((1, x1.size), float(f))
    nt = mesh.n_triangles
    # entry i gets area/3 * sum_q f(q) phi_i(q)
    contrib = (fbar.reshape(-1, nt, 3) @ _MIDPOINT_BASIS) * (area / 3.0)[:, None]
    rhs = (_dof_scatter(mesh) @ contrib.reshape(len(fbar), -1).T).T
    if not callable(f):
        rhs = np.repeat(rhs, t_a.size, axis=0)
    return rhs.reshape(t_a.shape + (mesh.n_dofs,))


def ritz_projection(mesh: TriMesh, field, y, g, grad_g,
                    assembler: StiffnessAssembler | None = None) -> np.ndarray:
    """Coefficients of the energy projection R_h g onto the interior P1 space."""
    if assembler is None:
        assembler = StiffnessAssembler(mesh, field)
    D = assembler.matrix(y)
    rhs = assembler.ritz_rhs(y, grad_g)
    return spla.spsolve(D.tocsc(), rhs)


def phi_integrals(mesh: TriMesh) -> np.ndarray:
    """Integrals of the interior nodal basis functions (area/3 per element)."""
    area, _ = _element_geometry(mesh)
    return _dof_scatter(mesh) @ np.repeat(area / 3.0, 3)


def apply_functional(mesh: TriMesh, coeffs: np.ndarray) -> float:
    """Mean-value functional: integral of the P1 function over the domain."""
    return float(phi_integrals(mesh) @ np.asarray(coeffs, dtype=float))


def interpolate_vertices(mesh: TriMesh, func) -> np.ndarray:
    """Interior coefficients of the vertex interpolant of func(x1, x2)."""
    keep = mesh.interior_index >= 0
    v = mesh.vertices[keep]
    return np.asarray(func(v[:, 0], v[:, 1]), dtype=float)


def _full_vertex_values(n_div: int, interior_coeffs: np.ndarray) -> np.ndarray:
    vals = np.zeros((n_div + 1, n_div + 1))
    vals[1:-1, 1:-1] = np.asarray(interior_coeffs).reshape(n_div - 1, n_div - 1)
    return vals


def eval_structured(n_div: int, interior_coeffs: np.ndarray,
                    x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Evaluate a P1 function on the structured mesh at arbitrary points."""
    vals = _full_vertex_values(n_div, interior_coeffs)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    i = np.clip((x1 * n_div).astype(int), 0, n_div - 1)
    j = np.clip((x2 * n_div).astype(int), 0, n_div - 1)
    xi = x1 * n_div - i
    eta = x2 * n_div - j
    c00 = vals[i, j]
    c10 = vals[i + 1, j]
    c01 = vals[i, j + 1]
    c11 = vals[i + 1, j + 1]
    lower = c00 * (1.0 - xi) + c10 * (xi - eta) + c11 * eta
    upper = c00 * (1.0 - eta) + c11 * xi + c01 * (eta - xi)
    return np.where(xi >= eta, lower, upper)


def prolong_structured(interior_coeffs: np.ndarray, n_coarse: int, n_fine: int) -> np.ndarray:
    """Interior coefficients on the fine structured mesh of the coarse P1 function.

    Exact (the coarse space is contained in the fine one when n_fine is a
    multiple of n_coarse and the diagonals align).
    """
    if n_fine % n_coarse:
        raise ConfigurationError("prolongation requires n_fine to be a multiple of n_coarse")
    g = np.linspace(0.0, 1.0, n_fine + 1)[1:-1]
    X1, X2 = np.meshgrid(g, g, indexing="ij")
    return eval_structured(n_coarse, interior_coeffs, X1.ravel(), X2.ravel())
