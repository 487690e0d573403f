"""Second-order time stepping for the Caputo subdiffusion problem.

Levels t_n = (n tau)^gamma concentrate steps near t = 0.  Each step solves
(w_nn M + D/2) V^n = F^n - D U^{n-1} - sum_{j<n} w_nj M V^j and the
convolution weights come from exact antiderivative differences of the
fractional kernel, evaluated in cancellation-safe form.  An optional
exponential-sum surrogate accelerates the history sum.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack
from scipy.special import gamma as gamma_fn

from .errors import ConfigurationError, SolverError, ToleranceError
from .fem import (StiffnessAssembler, assemble_mass, band_ordered, load_vector,
                  phi_integrals)

__all__ = [
    "GradedTimeMesh",
    "graded_mesh",
    "history_weights",
    "weight_matrix",
    "g_uniform",
    "SolutionTrajectory",
    "TrajectorySolver",
    "solve_trajectory",
    "ExpSumKernel",
    "exp_sum_kernel",
    "fast_history_apply",
    "l2J_norm",
]


@dataclass(frozen=True)
class GradedTimeMesh:
    """Time levels t_n = (n tau)^gamma with tau = T^(1/gamma) / n_steps."""

    T: float
    n_steps: int
    gamma: float
    tau: float
    t: np.ndarray
    dt: np.ndarray


def graded_mesh(T: float, n_steps: int, gamma: float) -> GradedTimeMesh:
    if T <= 0 or n_steps < 1 or gamma < 1:
        raise ConfigurationError("need T > 0, n_steps >= 1, gamma >= 1")
    tau = T ** (1.0 / gamma) / n_steps
    t = (np.arange(n_steps + 1) * tau) ** gamma
    return GradedTimeMesh(T=T, n_steps=n_steps, gamma=float(gamma), tau=tau,
                          t=t, dt=np.diff(t))


def _omega3(t, alpha: float):
    """Riemann-Liouville kernel antiderivative w_{3-a}(t) = t^(2-a)/Gamma(3-a)."""
    return np.asarray(t) ** (2.0 - alpha) / gamma_fn(3.0 - alpha)


def _diagonal_weight(tau, alpha: float):
    """w_nn = w_{3-a}(tau_n) / tau_n^2, elementwise."""
    return _omega3(tau, alpha) / tau ** 2


def _omega3_diff(base, gap, alpha: float):
    """w_{3-a}(base+gap) - w_{3-a}(base) for arrays of one shape, stable when gap << base."""
    g23 = gamma_fn(3.0 - alpha)
    out = np.empty_like(base)
    zero = base <= 0
    out[zero] = gap[zero] ** (2.0 - alpha) / g23
    nz = ~zero
    b = base[nz]
    out[nz] = b ** (2.0 - alpha) * np.expm1((2.0 - alpha) * np.log1p(gap[nz] / b)) / g23
    return out


def _omega2_diff(x, gap, alpha: float):
    """w_{2-a}(x+gap) - w_{2-a}(x), stable when gap << x (requires x > 0)."""
    e = 1.0 - alpha
    return x ** e * np.expm1(e * np.log1p(gap / x)) / gamma_fn(2.0 - alpha)


# Gauss-Legendre rules for the far-history integral, with the largest ratio
# delta / base each one serves.  The integrand's branch point lies base away
# from [0, delta], so m nodes err by about (4 base / delta)^(-2m): every rule
# stays below 1e-18 relative up to its ratio.
_GL_RATIO = np.array([1e-4, 1e-3, 1e-2, 5e-2, 0.15, 0.5])
_GL_RULES = [np.polynomial.legendre.leggauss(m) for m in (2, 3, 4, 6, 8, 12)]


def _far_weight_integral(base, delta, tau, alpha: float, rule):
    """int_0^delta w_{2-a}(base+s+tau) - w_{2-a}(base+s) ds by Gauss-Legendre.

    Equals the second mixed difference of w_{3-a} over the rectangle, but
    without the cancellation that formula suffers when delta << base.  The
    integrand is analytic on [0, delta] once base >= 2 delta; ``rule`` is
    the (nodes, weights) pair to use.  The nodes are summed in order, not
    by a BLAS product, so a value does not depend on its neighbours.
    """
    nodes, weights = rule
    s = 0.5 * delta * (nodes[:, None] + 1.0)
    vals = _omega2_diff(base + s, tau, alpha)
    return 0.5 * delta * (weights[:, None] * vals).sum(axis=0)


def _pair_weights(tmesh: GradedTimeMesh, alpha: float, n: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
    """Off-diagonal weights w_nj for equal-length arrays of pairs 1 <= j < n.

    The double integral of w_{1-a}(t-s) over I_n x I_j telescopes into four
    w_{3-a} values, grouped here so each first-level difference spans the
    larger gap tau_n.  Far pairs (short I_j seen from a distant I_n,
    base_lo >= 2 tau_j) switch to a quadrature of the equivalent single
    integral, which stays fully accurate where the four-term formula
    cancels; each takes the fewest Gauss nodes its ratio tau_j / base_lo
    allows.  On a uniform mesh the weights are Toeplitz, w_nj = w_nn g_{n-j}.
    """
    t, dt = tmesh.t, tmesh.dt
    tau_n = dt[n - 1]
    if tmesh.gamma == 1.0:
        return _diagonal_weight(tau_n, alpha) * g_uniform(n - j, alpha)
    tau_j = dt[j - 1]
    base_lo = t[n - 1] - t[j]          # gap to the right end of I_j
    far = base_lo >= 2.0 * tau_j
    num = np.empty(n.shape)
    near = ~far
    n_near, gap = n[near], tau_n[near]
    base_hi = t[n_near - 1] - t[j[near] - 1]      # gap to the left end of I_j
    num[near] = (_omega3_diff(base_hi, gap, alpha)
                 - _omega3_diff(base_lo[near], gap, alpha))
    far = np.flatnonzero(far)
    order = np.searchsorted(_GL_RATIO, tau_j[far] / base_lo[far])
    for r, rule in enumerate(_GL_RULES):
        idx = far[order == r]
        num[idx] = _far_weight_integral(base_lo[idx], tau_j[idx], tau_n[idx],
                                        alpha, rule)
    return num / (tau_n * tau_j)


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


# pairs per call of _pair_weights in weight_matrix: enough to amortise the
# numpy calls, few enough that the temporaries (up to 12 values per pair)
# stay small; blocks of 32k pairs raised the peak RSS of a long-history run
_PAIR_BLOCK = 4096


def weight_matrix(tmesh: GradedTimeMesh, alpha: float) -> np.ndarray:
    """Lower-triangular weights W[n, j] = w_nj for 1 <= j <= n <= n_steps.

    The off-diagonal pairs are taken in row-major order, _PAIR_BLOCK at a
    time, through the kernel of :func:`history_weights`.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    nt = tmesh.n_steps
    W = np.zeros((nt + 1, nt + 1))
    levels = np.arange(1, nt + 1)
    W[levels, levels] = _diagonal_weight(tmesh.dt, alpha)
    # row n holds the n - 1 pairs that follow the first (n - 1)(n - 2) / 2
    first = (levels - 1) * (levels - 2) // 2
    total = nt * (nt - 1) // 2
    for p0 in range(0, total, _PAIR_BLOCK):
        p = np.arange(p0, min(p0 + _PAIR_BLOCK, total))
        n = np.searchsorted(first, p, side="right")
        j = p - first[n - 1] + 1
        W[n, j] = _pair_weights(tmesh, alpha, n, j)
    return W


def g_uniform(j, alpha: float):
    """Toeplitz generator of the uniform-mesh weights."""
    j = np.asarray(j, dtype=float)
    e = 2.0 - alpha
    return (j + 1.0) ** e - 2.0 * j ** e + np.maximum(j - 1.0, 0.0) ** e


# ---------------------------------------------------------------------------
# exponential-sum surrogate of the kernel w_{1-a}(t) = t^(-a)/Gamma(1-a)

@dataclass(frozen=True)
class ExpSumKernel:
    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    t_min: float
    t_max: float
    rel_err: float

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.exp(-np.outer(t, self.nodes)) @ self.weights


def exp_sum_kernel(alpha: float, t_min: float, t_max: float, eps: float,
                   max_terms: int = 4000) -> ExpSumKernel:
    """Approximate w_{1-a}(t) by sum_i w_i exp(-s_i t), uniformly relative on
    [t_min, t_max].

    Trapezoidal discretisation of t^(-a) = sin(pi a)/pi * int e^(a x)
    exp(-t e^x) dx after s = e^x; the step is halved and the window widened
    until a geometric check grid meets eps/2.
    """
    if eps <= 0 or not 0 < alpha < 1 or not 0 < t_min < t_max:
        raise ConfigurationError("invalid exponential-sum parameters")
    # Gamma(a) Gamma(1-a) = pi / sin(pi a) turns the Laplace-integral
    # representation of t^(-a) into the kernel w_{1-a} with this prefactor
    pref = math.sin(math.pi * alpha) / math.pi
    # check grid: ~24 points per decade of t
    n_check = max(48, int(24 * math.log10(t_max / t_min)) + 2)
    tc = np.geomspace(t_min, t_max, n_check)
    target = tc ** (-alpha) / gamma_fn(1.0 - alpha)
    h = 1.0
    pad = 2.0
    while True:
        x_lo = (math.log(eps * alpha / 8.0) + math.log(t_max) * alpha) / alpha - pad
        x_hi = math.log((math.log(8.0 / eps) + 40.0) / t_min) + pad
        x = np.arange(x_lo, x_hi + h, h)
        if x.size > max_terms:
            raise ToleranceError(
                f"exponential sum needs more than {max_terms} terms for eps={eps}")
        nodes = np.exp(x)
        weights = pref * h * nodes ** alpha
        approx = np.exp(-np.outer(tc, nodes)) @ weights
        rel = float(np.max(np.abs(approx - target) / target))
        if rel <= 0.5 * eps:
            return ExpSumKernel(alpha=alpha, nodes=nodes, weights=weights,
                                t_min=t_min, t_max=t_max, rel_err=rel)
        h *= 0.5
        pad += 1.0


def _em1_over(x):
    """(1 - exp(-x)) / x, accurate near 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-8
    out[small] = 1.0 - 0.5 * x[small]
    out[~small] = -np.expm1(-x[~small]) / x[~small]
    return out


def fast_history_apply(tmesh: GradedTimeMesh, alpha: float, n: int,
                       mv_history: np.ndarray, eps: float,
                       kernel: ExpSumKernel | None = None) -> np.ndarray:
    """History sum sum_{j<n} w_nj * mv_history[j-1] via the exponential sum.

    The adjacent term j = n-1 (where t - s can vanish) is added directly;
    the far field uses the surrogate, valid because its gaps are at least
    one time step.  With n <= 2 there is no far field and the result is the
    exact direct sum.
    """
    mv = np.asarray(mv_history, dtype=float)
    if mv.shape[0] < n - 1:
        raise ConfigurationError("history array shorter than n-1 entries")
    row = history_weights(tmesh, alpha, n)
    if n <= 2:
        return row[: n - 1] @ mv[: n - 1] if n > 1 else np.zeros(mv.shape[-1])
    if kernel is None:
        kernel = exp_sum_kernel(alpha, float(tmesh.dt.min()), tmesh.T, eps)
    s, w = kernel.nodes, kernel.weights
    t, dt = tmesh.t, tmesh.dt
    tau_n = dt[n - 1]
    a_n = _em1_over(s * tau_n)
    j = np.arange(1, n - 1)
    beta = _em1_over(np.outer(s, dt[j - 1]))                  # (K, n-2)
    decay = np.exp(-np.outer(s, t[n - 1] - t[j]))             # (K, n-2)
    far = (w * a_n) @ ((beta * decay) @ mv[: n - 2])
    return far + row[n - 2] * mv[n - 2]


# ---------------------------------------------------------------------------
# trajectory solver

@dataclass
class SolutionTrajectory:
    """Per-level P1 coefficients, piecewise linear in time between levels."""

    tmesh: GradedTimeMesh
    u: np.ndarray  # (n_steps + 1, d_h)

    def functional_series(self, weights: np.ndarray) -> np.ndarray:
        return self.u @ weights


def _pcg(A, b, precond_solve, mass, tol, maxiter=1000):
    """Conjugate gradients on the k independent systems of a block-diagonal A.

    b has shape (k, d), row j the right-hand side of block j; A and the
    block-diagonal mass act on the flattened rows and precond_solve on
    (d, k) columns.  Each row stops once its residual has dropped by tol in
    the M-norm and is then frozen by a zero step.
    """
    k, d = b.shape

    def dot(u, v):
        return np.einsum("kd,kd->k", u, v)

    def m_norm(r):
        return np.sqrt(np.maximum(dot(r, (mass @ r.ravel()).reshape(k, d)), 0.0))

    x = np.zeros_like(b)
    r = b.copy()
    norm0 = m_norm(r)
    active = norm0 > 0.0
    z = precond_solve(r.T).T
    p = z.copy()
    rz = dot(r, z)
    for _ in range(maxiter):
        if not active.any():
            return x
        Ap = (A @ p.ravel()).reshape(k, d)
        step = np.divide(rz, dot(p, Ap), out=np.zeros(k), where=active)
        x += step[:, None] * p
        r -= step[:, None] * Ap
        active &= m_norm(r) > tol * norm0
        z = precond_solve(r.T).T
        rz_new = dot(r, z)
        beta = np.divide(rz_new, rz, out=np.zeros(k), where=active)
        p = z + beta[:, None] * p
        rz = rz_new
    if active.any():
        res = float(np.max(m_norm(r)[active] / norm0[active]))
        raise SolverError(f"PCG did not converge: relative M-norm residual {res:.3e}")
    return x


def _block_diag(indptr, indices, data) -> sp.csc_matrix:
    """Block-diagonal CSC matrix of k blocks sharing one d x d pattern.

    data has shape (k, nnz), row j the data of block j; unknowns are
    ordered block by block.
    """
    k, nnz = data.shape
    d = indptr.size - 1
    starts = nnz * np.arange(k)[:, None]
    ptr = np.append((indptr[:-1] + starts).ravel(), k * nnz)
    idx = (indices + d * np.arange(k)[:, None]).ravel()
    return sp.csc_matrix((data.ravel(), idx, ptr), shape=(k * d, k * d))


def _capsule_address(name: str) -> int:
    """Address of the LAPACK routine ``name`` in scipy's Cython LAPACK table."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


# dpbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb, info), called through ctypes and
# not through scipy's f2py wrapper (get_lapack_funcs): that wrapper holds the
# GIL for the whole factorization, so chunks stepped on worker threads would
# run one at a time.  A CFUNCTYPE call releases the GIL.
_INT_P = ctypes.POINTER(ctypes.c_int)
_DPBSV = ctypes.CFUNCTYPE(None, ctypes.c_char_p, _INT_P, _INT_P, _INT_P,
                          ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P,
                          _INT_P)(_capsule_address("dpbsv"))


class _BandCholesky:
    """In-place LAPACK ``dpbsv`` on one preallocated band matrix and vector.

    ``band`` holds a symmetric positive definite matrix A in LAPACK lower
    band storage, shape (n, kd + 1) in C order with band[j, i - j] =
    A[i, j] for j <= i <= j + kd.  Each call overwrites ``band`` with the
    Cholesky factor and ``rhs`` (shape (n,)) with the solution.  Lower, not
    upper, storage: the upper variant runs through a strided ``dsyr`` that
    threaded OpenBLAS makes many times slower.
    """

    def __init__(self, band: np.ndarray, rhs: np.ndarray):
        n, ldab = band.shape
        if not (band.dtype == rhs.dtype == np.float64 and rhs.shape == (n,)
                and band.flags.c_contiguous and rhs.flags.c_contiguous):
            raise ValueError("band solve needs C-contiguous float64 (n, kd+1) and (n,) arrays")
        self.band, self.rhs = band, rhs      # keeps the buffers behind the pointers alive
        self.info = ctypes.c_int()
        n_, kd, nrhs, ld, ldb = (ctypes.c_int(v) for v in (n, ldab - 1, 1, ldab, max(n, 1)))
        self._args = (b"L", ctypes.byref(n_), ctypes.byref(kd), ctypes.byref(nrhs),
                      band.ctypes.data, ctypes.byref(ld), rhs.ctypes.data,
                      ctypes.byref(ldb), ctypes.byref(self.info))

    def __call__(self) -> bool:
        """Factor and solve; False if the matrix is not positive definite."""
        _DPBSV(*self._args)
        return self.info.value == 0


class TrajectorySolver:
    """Solves trajectories for many parameter vectors over shared discretisations.

    Everything independent of y (mass matrix, convolution weights, loads,
    functional weights, the affine parts of the stiffness matrix and the
    Ritz right-hand side, preconditioners at y = 0) is precomputed once;
    the object is then read-only and may be shared across worker threads.

    The solver numbers the dofs in reverse Cuthill-McKee order
    (:func:`band_ordered`), so every level matrix w_nn M + D(y)/2 is a band
    matrix.  A block of k parameter vectors is stepped together: each level
    makes one band Cholesky factor-and-solve of the k stacked blocks, so the
    per-step cost of the Python layer is shared by k samples.  ``mass``,
    ``assembler`` and ``loads`` are in that band numbering; ``phi`` and
    :meth:`solve` use the numbering of ``mesh``.
    """

    def __init__(self, mesh, field, tmesh: GradedTimeMesh, alpha: float,
                 f, g, grad_g, method: str = "auto", fast_history: bool = False,
                 fast_eps: float = 1e-8, cg_tol: float = 1e-10):
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")
        self.mesh = mesh
        self.field = field
        self.tmesh = tmesh
        self.alpha = alpha
        self.g = g
        self.grad_g = grad_g
        band_mesh = band_ordered(mesh)
        inner = mesh.interior_index >= 0
        # _dof[i]: band position of dof i of ``mesh``
        self._dof = np.empty(mesh.n_dofs, dtype=np.int64)
        self._dof[mesh.interior_index[inner]] = band_mesh.interior_index[inner]
        self.mass = assemble_mass(band_mesh)
        self.assembler = StiffnessAssembler(band_mesh, field, grad_g)
        self.weights = weight_matrix(tmesh, alpha)
        t = tmesh.t
        self.loads = load_vector(band_mesh, f, t[:-1], t[1:])
        self._phi = phi_integrals(band_mesh)
        self.phi = self._phi[self._dof]
        # where the lower triangle of the shared CSC pattern lands in LAPACK
        # lower band storage, flattened (column, offset below the diagonal)
        asm = self.assembler
        d = self.mass.shape[0]
        col = np.repeat(np.arange(d), np.diff(asm.indptr))
        offset = asm.indices - col
        self._lower = offset >= 0
        self._kd = int(offset.max(initial=0))
        self._band_slot = col[self._lower] * (self._kd + 1) + offset[self._lower]
        self._mass_band = np.zeros((d, self._kd + 1))
        self._mass_band.ravel()[self._band_slot] = self.mass.data[self._lower]
        if method == "auto":
            method = "pcg" if d > 4000 else "direct"
        if method not in ("direct", "pcg"):
            raise ConfigurationError(f"unknown solver method {method!r}")
        self.method = method
        self.cg_tol = cg_tol
        self.fast_history = fast_history
        self.kernel = None
        if fast_history and tmesh.n_steps >= 3:
            self.kernel = exp_sum_kernel(alpha, float(tmesh.dt.min()), tmesh.T, fast_eps)
        if method == "pcg":
            self._build_preconditioners()

    def _build_preconditioners(self):
        """Sparse factors of w_nn(tau-hat) M + D(0)/2 on a decade grid of steps."""
        d0 = self.assembler.matrix(np.zeros(0))
        dt = self.tmesh.dt
        lo = math.floor(math.log10(dt.min()))
        hi = math.ceil(math.log10(dt.max()))
        self._precond_taus = np.array([10.0 ** l for l in range(lo, hi + 1)])
        self._precond = []
        for th in self._precond_taus:
            s0 = float(_omega3(th, self.alpha)) / th ** 2 * self.mass + 0.5 * d0
            self._precond.append(spla.splu(s0.tocsc()))

    def _march(self, Y: np.ndarray, keep_u: bool):
        """Step the k rows of Y (shape (k, z)) through every level together.

        Returns the functional values, shape (k, n_steps + 1), and with
        ``keep_u`` the band-numbered coefficients, shape (n_steps + 1, k, d).
        A band factorization that fails (a level matrix that is not
        positive definite, or not finite) makes every value of the block
        NaN, so the caller sees non-finite samples and never averages them.
        """
        tmesh, asm = self.tmesh, self.assembler
        nt = tmesh.n_steps
        k = Y.shape[0]
        d = self.mass.shape[0]
        direct = self.method == "direct"
        d_data = asm.matrix_data(Y)
        D = _block_diag(asm.indptr, asm.indices, d_data)
        M = _block_diag(asm.indptr, asm.indices,
                        np.broadcast_to(self.mass.data, (k, self.mass.nnz)))
        # the k blocks of D(y) stacked in lower band storage, (k, d, kd + 1)
        band = np.zeros((k, d, self._kd + 1))
        band.reshape(k, -1)[:, self._band_slot] = d_data[:, self._lower]
        half_d = 0.5 * band
        # x is the right-hand side going into each band solve and the
        # solution coming out of it
        x = asm.ritz_rhs(Y, self.grad_g).ravel()
        cholesky = _BandCholesky(band.reshape(k * d, self._kd + 1), x)
        if not cholesky():
            x.fill(np.nan)
        u = x.copy()
        if not direct:
            S = D.copy()
            half_data = 0.5 * D.data
        values = np.empty((k, nt + 1))
        values[:, 0] = u.reshape(k, d) @ self._phi
        us = np.empty((nt + 1, k * d)) if keep_u else None
        if keep_u:
            us[0] = u
        mv = np.empty((nt, k * d))
        W = self.weights
        fast = self.kernel is not None
        if fast:
            s, kw = self.kernel.nodes, self.kernel.weights
            H = np.zeros((s.size, k * d))
        for n in range(1, nt + 1):
            tau_n = tmesh.dt[n - 1]
            np.subtract(self.loads[n - 1], (D @ u).reshape(k, d), out=x.reshape(k, d))
            if n > 1 and fast:
                x -= (kw * _em1_over(s * tau_n)) @ H + W[n, n - 1] * mv[n - 2]
            elif n > 1:
                x -= W[n, 1:n] @ mv[: n - 1]
            if direct:
                np.multiply(self._mass_band, W[n, n], out=band)
                band += half_d
                if not cholesky():
                    x.fill(np.nan)
                v = x
            else:
                np.multiply(M.data, W[n, n], out=S.data)
                S.data += half_data
                j = int(np.argmin(np.abs(self._precond_taus - tau_n)))
                v = _pcg(S, x.reshape(k, d), self._precond[j].solve, M,
                         self.cg_tol).ravel()
            u += v
            values[:, n] = u.reshape(k, d) @ self._phi
            if keep_u:
                us[n] = u
            mv[n - 1] = M @ v
            if fast and n >= 2:
                # fold V^{n-1} into the far field and decay to the next level
                beta = _em1_over(s * tmesh.dt[n - 2])
                H = np.exp(-s * tau_n)[:, None] * (H + beta[:, None] * mv[n - 2])
        return values, (us.reshape(nt + 1, k, d) if keep_u else None)

    def solve(self, y) -> SolutionTrajectory:
        """Trajectory for one parameter vector, every level's coefficients kept."""
        _, u = self._march(np.asarray(y, dtype=float)[None, :], keep_u=True)
        if not np.all(np.isfinite(u)):
            raise SolverError("non-finite solution values")
        return SolutionTrajectory(tmesh=self.tmesh, u=u[:, 0][:, self._dof])

    def functional_series(self, y) -> np.ndarray:
        """L(u_h(t_n, y)) at every level.

        Shape (n_steps + 1,) for one parameter vector, or (k, n_steps + 1)
        for a (k, z) block of them stepped together.
        """
        y = np.asarray(y, dtype=float)
        values, _ = self._march(np.atleast_2d(y), keep_u=False)
        return values[0] if y.ndim == 1 else values


def solve_trajectory(field, y, mesh, tmesh: GradedTimeMesh, alpha: float,
                     f, g, grad_g, **kwargs) -> SolutionTrajectory:
    solver = TrajectorySolver(mesh, field, tmesh, alpha, f, g, grad_g, **kwargs)
    return solver.solve(np.asarray(y, dtype=float))


def l2J_norm(series: np.ndarray, tmesh: GradedTimeMesh, mass=None) -> float:
    """L2-in-time norm of the piecewise-linear reconstruction of the series.

    For scalars this is (sum_n tau_n (a^2 + ab + b^2)/3)^(1/2); for per-level
    coefficient vectors the spatial norm is taken in the mass inner product
    (or the Euclidean one when mass is None).
    """
    series = np.asarray(series, dtype=float)
    if series.shape[0] != tmesh.n_steps + 1:
        raise ConfigurationError("series must have one entry per time level")
    if series.ndim == 1:
        q = series * series
        c = series[:-1] * series[1:]
    else:
        ms = (mass @ series.T).T if mass is not None else series
        q = np.einsum("nd,nd->n", series, ms)
        c = np.einsum("nd,nd->n", series[:-1], ms[1:])
    val = np.sum(tmesh.dt * (q[:-1] + c + q[1:]) / 3.0)
    return math.sqrt(max(val, 0.0))
