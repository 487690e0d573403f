"""Reference computations that tests compare the package against.

None of these is on a run's path: the example initial profile, whose
gradient is the package's default initial data, is what the tests
interpolate and differentiate; the Ritz projection by a sparse direct
solve is the oracle of criterion 4 and of the stepper's initial level, the
figure of merit evaluated from the points is the oracle of the FFT-based
CBC search (criterion 8), and the dump reader checks the binary files that
``fracuq solve --dump-fields`` writes.  The table of every basis function
at every point is the plain form of what the package reduces in blocks of
modes or as a product of per-coordinate sine tables.  The affine parts of
the stiffness set-up from the basis at every element midpoint, and the
lattice points built one column at a time, are the plain forms of what the
package computes once per edge and for all columns at once; both must give
the same bits.  Trial division by the schoolbook polynomial remainder is the
oracle of the irreducibility test, which the package runs on digit rows.
The generator of the uniform-mesh weights is the oracle of criterion 6,
and the weight row of one level and the values of an exponential sum are
the plain forms of what the stepper reads from its weight tables.
"""

import struct

import numpy as np
import scipy.sparse.linalg as spla

from fracuq.cli import DUMP_MAGIC
from fracuq.errors import ConfigurationError
from fracuq.fem import StiffnessAssembler, _dof_scatter, _element_geometry
from fracuq.qmc import (_digits, _effective_weights, _laurent_digits, check_rule,
                        classical_points, kernel_values)
from fracuq.tfrac import GradedTimeMesh, _diagonal_weight, _pair_weights


def example_initial(x1, x2):
    """Initial profile 144 x1^2 (1-x1) x2^2 (1-x2), normalised so its
    average over the unit square is 1; its gradient is
    ``fracuq.estimator.example_initial_gradient``."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return 144.0 * x1 ** 2 * (1.0 - x1) * x2 ** 2 * (1.0 - x2)


def g_uniform(j, alpha):
    """Toeplitz generator g_j = (j+1)^e - 2 j^e + (j-1)^e, e = 2 - alpha, of
    the uniform-mesh weights w_nj = w_nn g_{n-j}, with g_0 = 1.

    For j >= 2 the second difference is taken as j^e (expm1(e log1p(1/j)) +
    expm1(e log1p(-1/j))), free of the cancellation between the three powers.
    """
    j = np.asarray(j, dtype=float)
    e = 2.0 - alpha
    far = np.maximum(j, 2.0)
    smooth = far ** e * (np.expm1(e * np.log1p(1.0 / far)) + np.expm1(e * np.log1p(-1.0 / far)))
    return np.where(j >= 2.0, smooth,
                    (j + 1.0) ** e - 2.0 * j ** e + np.maximum(j - 1.0, 0.0) ** e)


def history_weights(tmesh: GradedTimeMesh, alpha: float, n: int) -> np.ndarray:
    """Convolution weight row (w_n1, ..., w_nn) of the scheme.

    The diagonal is w_{3-a}(tau_n)/tau_n^2; the rest is the one-row case of
    :func:`_pair_weights`, the kernel :func:`weight_matrix` uses.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if not 1 <= n <= tmesh.n_steps:
        raise ConfigurationError(f"n={n} outside 1..{tmesh.n_steps}")
    tau_n = tmesh.dt[n - 1: n]     # an array, as in weight_matrix, for the same bits
    row = np.empty(n)
    row[n - 1:] = _diagonal_weight(tau_n, alpha)
    row[: n - 1] = _pair_weights(tmesh, alpha, np.full(n - 1, n), np.arange(1, n))
    return row


def exp_sum_values(kernel, t) -> np.ndarray:
    """sum_i w_i exp(-s_i t) of an :class:`ExpSumKernel` at the times t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.exp(-np.outer(t, kernel.nodes)) @ kernel.weights


def ritz_projection(mesh, field, y, grad_g, assembler=None) -> np.ndarray:
    """Coefficients of the energy projection R_h g onto the interior P1 space,
    for initial data g with gradient ``grad_g`` (an ``assembler`` passed in
    must have been built with the same ``grad_g``)."""
    if assembler is None:
        assembler = StiffnessAssembler(mesh, field, grad_g)
    D = assembler.matrix(y)
    return spla.spsolve(D.tocsc(), assembler.ritz_rhs(y))


def basis_values(field, x1, x2) -> np.ndarray:
    """Values of all basis functions of ``field`` at the given points,
    shape (z, npts), C order."""
    return np.ascontiguousarray(field.basis_rows(x1, x2)(0, len(field)))


def element_midpoints(mesh) -> np.ndarray:
    """Edge midpoints of every element, (nt, 3, 2): midpoint q is opposite vertex q."""
    v = mesh.vertices[mesh.triangles]
    return 0.5 * (v[:, [1, 2, 0]] + v[:, [2, 0, 1]])


def element_midpoint_parts(mesh, field, grad_g):
    """psibar, r0 and R of :class:`StiffnessAssembler` from the basis table
    at the 3 nt element midpoints, with columns (t, q), in one piece."""
    nt = mesh.n_triangles
    mid = element_midpoints(mesh)
    x1, x2 = mid[:, :, 0].ravel(), mid[:, :, 1].ravel()
    psi = basis_values(field, x1, x2)
    q = psi.T.reshape(nt, 3, psi.shape[0])
    psibar = ((q[:, 0] + q[:, 1] + q[:, 2]) / 3.0).T
    area, grads = _element_geometry(mesh)
    gx, gy = grad_g(mid[:, :, 0], mid[:, :, 1])
    gg = np.stack([np.broadcast_to(gx, mid.shape[:2]),
                   np.broadcast_to(gy, mid.shape[:2])], axis=-1)
    weights = np.einsum("tqd,tid->tqi", gg, grads) * (area / 3.0)[:, None, None]
    scatter = _dof_scatter(mesh, weights)
    return psibar, scatter @ field.kappa0(x1, x2), (scatter @ psi.T).T


def poly_mod(a, q, b) -> list:
    """Remainder of a by q over GF(b), coefficient lists lowest degree first,
    by schoolbook long division; trailing zeros are trimmed."""
    r = list(a)
    inv = pow(q[-1], -1, b)
    while len(r) >= len(q):
        factor = r[-1] * inv % b
        shift = len(r) - len(q)
        for i, c in enumerate(q):
            r[shift + i] = (r[shift + i] - factor * c) % b
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def classical_points_by_column(b, m, dim, p, gen) -> np.ndarray:
    """Mantissas of :func:`classical_points`, one column at a time: the
    Laurent digits of g_c / P, their Hankel matrix, and an integer product
    with the index digits."""
    check_rule(b, m, 1, p, gen)
    n = b ** m
    j = np.arange(n, dtype=np.int64)
    jdig = np.empty((m, n), dtype=np.int64)
    for r in range(m):
        jdig[r] = (j // b ** r) % b
    weights = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
    mant = np.empty((n, dim), dtype=np.int64)
    for c, g in enumerate(gen):
        u = _laurent_digits(_digits(g.to_int(), b, m), p, 2 * m - 1)
        hankel = np.array([[u[t + r] for r in range(m)] for t in range(m)], dtype=np.int64)
        mant[:, c] = weights @ ((hankel @ jdig) % b)
    return mant


def figure_of_merit(b, m, beta, p, gen, gammas) -> float:
    """Weighted worst-case figure of merit, evaluated directly from the points.

    E = (1/N) sum_{n=1}^{N-1} prod_c (1 + W_c psi(x_{n,c})), the n = 0 point
    being common to every rule.  Lower is better.
    """
    dim = len(gen)
    ps = classical_points(b, m, dim, p, gen)
    kern, _ = kernel_values(b, m, beta)
    w = _effective_weights(dim, beta, b, gammas)
    vals = kern[ps.mantissas[1:]]  # (N-1, dim)
    return float(np.sum(np.prod(1.0 + w[None, :] * vals, axis=1))) / ps.n_points


def read_field_dump(path) -> np.ndarray:
    """The (levels, dofs) array of a file written by ``cli.write_field_dump``."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != DUMP_MAGIC:
            raise ConfigurationError(f"{path} is not a coefficient dump")
        d, levels, _ = struct.unpack("<III", header[4:])
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != d * levels:
        raise ConfigurationError(f"{path}: truncated payload")
    return payload.reshape(levels, d).copy()
