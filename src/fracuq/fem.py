"""P1 Galerkin pieces on triangulations of the unit square.

Assembles the mass matrix, the diffusivity-weighted stiffness matrix (kappa
evaluated per block of samples from the field's separable sine modes),
load vectors, the right-hand sides of Ritz projections of the initial data,
and the weights of the mean-value functional.  All but the mass matrix use
the degree-2 edge-midpoint rule, evaluated once per distinct edge.
Homogeneous Dirichlet conditions are imposed by eliminating boundary
vertices at assembly time.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConfigurationError, DomainError, ValidationError

__all__ = [
    "TriMesh",
    "triangulate_unit_square",
    "save_mesh",
    "load_mesh",
    "band_ordered",
    "assemble_mass",
    "StiffnessAssembler",
    "load_vector",
    "phi_integrals",
    "eval_structured",
    "prolong_structured",
]


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with interior-dof numbering.

    vertices: (nv, 2); triangles: (nt, 3) counterclockwise vertex triples;
    boundary: (nv,) bool; interior_index: vertex id -> dof id, -1 on the
    boundary; h: maximal element diameter.

    The tables every assembly shares (element geometry, edges, the CSC
    pattern and the load's edge scatter) are computed once per mesh object,
    on first use.  A mesh made by ``dataclasses.replace``, as
    :func:`band_ordered` makes one, starts without them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    interior_index: np.ndarray
    h: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_dofs(self) -> int:
        return int(np.max(self.interior_index)) + 1 if np.any(self.interior_index >= 0) else 0

    @functools.cached_property
    def _geometry(self):
        return _element_geometry(self)

    @functools.cached_property
    def _edges(self):
        return _edge_table(self)

    @functools.cached_property
    def _csc_pattern(self):
        return _pattern(self)

    @functools.cached_property
    def _load(self):
        """Edge scatter of <f, phi_i>: weights area/3 * phi_i(q)."""
        area, _ = self._geometry
        return _edge_scatter(self, (area / 3.0)[:, None, None] * _MIDPOINT_BASIS)


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


def _edge_table(mesh: TriMesh):
    """The distinct edges, where each element's midpoints fall, and the edge midpoints.

    An edge is the sorted vertex pair of an element side; midpoint q of
    element t lies on the side opposite vertex q.  Returns (edge_of, mid,
    E): edge ids, shape (nt, 3); the midpoints, shape (n_edges, 2), the
    same bits whichever element computes them, because the sum of the two
    ends does not depend on their order; and the (nt, n_edges) CSR map with
    entries 1 in (t, q) order, so that row t of ``E @ p`` is (p[e0] + p[e1])
    + p[e2].
    """
    tri = mesh.triangles
    nt, nv = mesh.n_triangles, mesh.n_vertices
    ends = np.sort(np.stack([tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]], axis=-1), axis=-1)
    key, edge_of = np.unique((ends[..., 0] * nv + ends[..., 1]).ravel(), return_inverse=True)
    edge_of = edge_of.ravel()
    v = mesh.vertices
    mid = 0.5 * (v[key // nv] + v[key % nv])
    E = sp.csr_matrix((np.ones(3 * nt), edge_of, np.arange(0, 3 * nt + 1, 3)),
                      shape=(nt, key.size))
    return edge_of.reshape(nt, 3), mid, E


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
                   interior_index=interior, h=math.sqrt(2.0) / n_div)


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
    mesh._geometry  # validates orientation / degeneracy
    # the field, and so its declared bounds, are defined on the closed unit square
    if not np.all((verts >= 0.0) & (verts <= 1.0)):
        raise DomainError(f"{path}: a vertex lies outside the closed unit square")
    return mesh


def _pattern(mesh: TriMesh):
    """CSC sparsity shared by every assembled matrix, and where entries land.

    Entry (a, b) of element t's 3x3 block, taken in row-major (t, a, b)
    order and restricted to ``keep`` (both vertices are dofs), is added to
    ``data[slot]``.  Returns (indptr, indices, slot, keep).
    """
    tri = mesh.triangles
    index = mesh.interior_index
    rows = index[np.repeat(tri, 3, axis=1).ravel()]
    cols = index[np.tile(tri, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_dofs
    # column-major keys sort into CSC order: by column, then by row
    key, slot = np.unique(cols[keep] * n + rows[keep], return_inverse=True)
    indptr = np.searchsorted(key // n, np.arange(n + 1))
    return indptr, key % n, slot, keep


def band_ordered(mesh: TriMesh) -> TriMesh:
    """The mesh with its dofs renumbered in reverse Cuthill-McKee order.

    Matrices assembled on the result are band matrices of small
    half-bandwidth (n_div - 1 on the structured mesh) whatever the dof
    numbering of ``mesh``.  Vertices and triangles are unchanged; only
    ``interior_index`` differs.
    """
    indptr, indices, _, _ = mesh._csc_pattern
    n = mesh.n_dofs
    graph = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    order = reverse_cuthill_mckee(graph, symmetric_mode=True) if n else np.zeros(0, np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    dof = mesh.interior_index.copy()
    inner = dof >= 0
    dof[inner] = rank[dof[inner]]
    return dataclasses.replace(mesh, interior_index=dof)


def _edge_scatter(mesh: TriMesh, weights: np.ndarray) -> sp.csr_matrix:
    """(n_dofs, n_edges) map of a quadrature at the edge midpoints.

    Entry (dof of vertex i of element t, edge of midpoint q of t) holds
    weights[t, q, i], for weights of shape (nt, 3, 3).  A dof meets an edge
    through both of its elements, so a row can name an edge twice: the
    entries stay unsummed, in (t, q) order, and a product adds the element
    terms in that order.
    """
    edge_of, mid, _ = mesh._edges
    dof = mesh.interior_index[mesh.triangles].ravel()             # of vertex i of t at 3t + i
    pair = np.flatnonzero(dof >= 0)
    # the keys are distinct, so a plain sort orders by dof, then by element
    row, pair = np.divmod(np.sort(dof[pair] * dof.size + pair), dof.size)
    entry = ((pair + 6 * (pair // 3))[:, None] + [0, 3, 6]).ravel()  # (t, q, i) at 9t + 3q + i
    return sp.csr_matrix((weights.ravel()[entry], edge_of.ravel()[entry // 3],
                          3 * np.searchsorted(row, np.arange(mesh.n_dofs + 1))),
                         shape=(mesh.n_dofs, mid.shape[0]))


_MASS_LOCAL = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh: TriMesh) -> sp.csc_matrix:
    """Exact P1 mass matrix (element block area/12 * [[2,1,1],[1,2,1],[1,1,2]])."""
    area, _ = mesh._geometry
    local = area[:, None, None] * _MASS_LOCAL[None]
    indptr, indices, slot, keep = mesh._csc_pattern
    data = np.bincount(slot, weights=local.ravel()[keep], minlength=indices.size)
    n = indptr.size - 1
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


class StiffnessAssembler:
    """Stiffness matrices D(y) and Ritz right-hand sides for a fixed (mesh, field, grad_g).

    Each element's diffusivity is the average of kappa at its three edge
    midpoints.  :meth:`parts` evaluates kappa at the distinct edge midpoints
    for a block of parameter vectors through the field's sine maps; the
    element-to-edge map then gives the element averages, and the Ritz edge
    scatter the Ritz right-hand side of the initial data (known through
    their gradient ``grad_g``).  Every D(y) shares the CSC pattern
    ``indptr``/``indices`` of :func:`assemble_mass`.
    """

    def __init__(self, mesh: TriMesh, field, grad_g):
        area, grads = mesh._geometry
        # geometric element stiffness: area * grad_i . grad_j, shape (nt, 3, 3)
        k_geom = area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
        nt = mesh.n_triangles
        self.indptr, self.indices, slot, keep = mesh._csc_pattern
        # D(y).data = spread @ (element averages of kappa)
        element = np.repeat(np.arange(nt), 9)[keep]
        self._spread = sp.csr_matrix((k_geom.ravel()[keep], (slot, element)),
                                     shape=(self.indices.size, nt))
        # the scatter first, so that its set-up peak never sits on the sine maps
        self._scatter = _gradient_scatter(mesh, grad_g)
        _, mid, self._E = mesh._edges
        self._kappa0 = field.kappa0(mid[:, 0], mid[:, 1])[:, None]
        self._Q, self._S = field.sine_maps(mid[:, 0], mid[:, 1])

    def parts(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Element averages of kappa, shape (k, nt), and Ritz right-hand
        sides, shape (k, d), of the k rows of y, from one evaluation of kappa
        at the edge midpoints.  A row may be shorter than the basis (the
        missing parameters are 0), not longer.  Each row is reduced alone,
        by sparse products in a fixed order: it gets the bits it gets alone."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        z = self._Q.shape[1]
        if y.shape[1] > z:
            raise ConfigurationError(f"parameter vector length {y.shape[1]} exceeds basis size {z}")
        padded = np.zeros((z, y.shape[0]))
        padded[: y.shape[1]] = y.T
        kappa = self._S @ (self._Q @ padded) + self._kappa0       # (n_edges, k)
        return ((self._E @ kappa) / 3.0).T, (self._scatter @ kappa).T

    def matrix_data(self, kbar) -> np.ndarray:
        """CSC data of D on the shared pattern, shape (k, nnz), for k rows
        of element averages ``kbar`` as :meth:`parts` gives them."""
        return (self._spread @ np.atleast_2d(kbar).T).T

    def matrix(self, y) -> sp.csc_matrix:
        """Assemble D(y) for one parameter vector."""
        n = self.indptr.size - 1
        return sp.csc_matrix((self.matrix_data(self.parts(y)[0])[0],
                              self.indices, self.indptr), shape=(n, n))

    def ritz_rhs(self, y) -> np.ndarray:
        """Right-hand side <kappa grad g, grad phi_p> with the same quadrature.

        Shape (d,) for one parameter vector, (k, d) for k rows.
        """
        _, rhs = self.parts(y)
        return rhs[0] if np.ndim(y) == 1 else rhs


def _gradient_scatter(mesh: TriMesh, grad_g) -> sp.csr_matrix:
    """Map from kappa at the edges to the Ritz rhs.

    Each element integral <kappa grad g, grad phi_i> is area/3 * sum_q
    kappa(q) grad_g(q) . grad phi_i over the edge midpoints q, so kappa's
    values there enter linearly through one edge scatter; grad_g is
    evaluated once per edge.
    """
    area, grads = mesh._geometry
    edge_of, mid, _ = mesh._edges
    gx, gy = grad_g(mid[:, 0], mid[:, 1])
    n = mid.shape[0]
    gg = np.stack([np.broadcast_to(gx, n), np.broadcast_to(gy, n)], axis=-1)[edge_of]
    weights = np.einsum("tqd,tid->tqi", gg, grads) * (area / 3.0)[:, None, None]
    return _edge_scatter(mesh, weights)


def load_vector(mesh: TriMesh, f, t_a, t_b) -> np.ndarray:
    """<f-bar, phi_p> for the time-average of f over (t_a, t_b).

    The time average uses 2-point Gauss (exact through cubics in t); space
    uses the degree-2 edge-midpoint rule, so f is evaluated once per edge.
    f is f(x1, x2, t) vectorised in the spatial arguments, or a plain
    constant.  Arrays of interval ends give one row per interval from a
    single pass over the mesh; for a constant f the rows are one read-only
    row broadcast.
    """
    t_a, t_b = np.broadcast_arrays(np.asarray(t_a, dtype=float),
                                   np.asarray(t_b, dtype=float))
    if not np.all(t_a < t_b):
        raise ConfigurationError("load_vector requires t_a < t_b")
    _, mid, _ = mesh._edges
    x1, x2 = mid[:, 0], mid[:, 1]
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
    rhs = (mesh._load @ fbar.T).T
    if not callable(f):
        # every interval has the same row: a read-only view, not copies
        return np.broadcast_to(rhs[0], t_a.shape + (mesh.n_dofs,))
    return rhs.reshape(t_a.shape + (mesh.n_dofs,))


def phi_integrals(mesh: TriMesh) -> np.ndarray:
    """Integrals of the interior nodal basis functions: the load of f = 1,
    which the edge-midpoint rule integrates exactly."""
    return mesh._load @ np.ones(mesh._load.shape[1])


def eval_structured(n_div: int, interior_coeffs: np.ndarray,
                    x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Evaluate a P1 function on the structured mesh at arbitrary points."""
    vals = np.zeros((n_div + 1, n_div + 1))
    vals[1:-1, 1:-1] = np.asarray(interior_coeffs).reshape(n_div - 1, n_div - 1)
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
