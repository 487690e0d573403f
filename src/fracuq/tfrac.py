"""Second-order time stepping for the Caputo subdiffusion problem.

Levels t_n = (n tau)^gamma concentrate steps near t = 0.  Each step solves
(w_nn M + D/2) V^n = F^n - D U^{n-1} - sum_{j<n} w_nj M V^j and the
convolution weights come from exact antiderivative differences of the
fractional kernel, evaluated in cancellation-safe form.  An optional
exponential-sum surrogate takes the history sum without the n^2 weights.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack, solve_triangular
from scipy.linalg.blas import dger as _dger
from scipy.special import exprel, gamma as gamma_fn

from .errors import ConfigurationError, SolverError, ToleranceError
from .fem import (StiffnessAssembler, assemble_mass, band_ordered, load_vector,
                  phi_integrals)

__all__ = [
    "check_alpha",
    "check_time_grid",
    "GradedTimeMesh",
    "graded_mesh",
    "weight_matrix",
    "TrajectorySolver",
    "ExpSumKernel",
    "exp_sum_kernel",
    "l2J_norm",
]


@dataclass(frozen=True)
class GradedTimeMesh:
    """Time levels t_n = (n tau)^gamma with tau = T^(1/gamma) / n_steps."""

    T: float
    n_steps: int
    t: np.ndarray
    dt: np.ndarray


def check_alpha(alpha: float) -> None:
    """Refuse a fractional order outside (0, 1): the one check of alpha."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")


def check_time_grid(T: float, n_steps: int, gamma: float) -> None:
    """The one check of T, n_steps and the grading gamma; the first, shortest
    step tau_1 = T n_steps^-gamma must square to a normal float, as w_11
    divides by it (at T = 1: 2 gamma log10(n_steps) <= 307.65)."""
    if n_steps < 1 or not 0.0 < T < math.inf:
        raise ConfigurationError("n_steps must be >= 1 and T a positive finite number")
    if not 1.0 <= gamma < math.inf:
        raise ConfigurationError(f"time grading gamma = {gamma} must lie in [1, inf)")
    room = math.log(T) - 0.5 * math.log(np.finfo(float).tiny)   # ln of the largest n_steps^gamma
    if gamma * math.log(n_steps) > room:
        fix = (f"set time.gamma <= {math.floor(100.0 * room / math.log(n_steps)) / 100.0:g}"
               if room >= math.log(n_steps) else "raise T")
        raise ConfigurationError(f"time grading gamma = {gamma:.6g} with n_steps = {n_steps} and "
                                 f"T = {T:.6g} makes the first step's square underflow; {fix}")


def graded_mesh(T: float, n_steps: int, gamma: float) -> GradedTimeMesh:
    check_time_grid(T, n_steps, gamma)
    tau = T ** (1.0 / gamma) / n_steps
    t = (np.arange(n_steps + 1) * tau) ** gamma
    return GradedTimeMesh(T=T, n_steps=n_steps, t=t, dt=np.diff(t))


def _diagonal_weight(tau, alpha: float):
    """w_nn = w_{3-a}(tau_n) / tau_n^2, elementwise, with the Riemann-Liouville
    kernel antiderivative w_{3-a}(t) = t^(2-a)/Gamma(3-a)."""
    return tau ** (2.0 - alpha) / gamma_fn(3.0 - alpha) / tau ** 2


def _omega3_diff(base, gap, alpha: float):
    """w_{3-a}(base+gap) - w_{3-a}(base) for arrays of one shape, stable when gap << base."""
    g23 = gamma_fn(3.0 - alpha)
    out = np.empty_like(base)
    nz = base > 0
    out[~nz] = gap[~nz] ** (2.0 - alpha) / g23
    b = base[nz]
    out[nz] = b ** (2.0 - alpha) * np.expm1((2.0 - alpha) * np.log1p(gap[nz] / b)) / g23
    return out


# Gauss-Legendre rules for the far-history integral, with the largest ratio
# delta / base each one serves.  The integrand's branch point lies base away
# from [0, delta], so m nodes err by about (4 base / delta)^(-2m): every rule
# stays below 1e-18 relative up to its ratio.
_GL_RATIO = np.array([1e-4, 1e-3, 1e-2, 5e-2, 0.15, 0.5])
_GL_RULES = [np.polynomial.legendre.leggauss(m) for m in (2, 3, 4, 6, 8, 12)]


def _far_weight_integral(base, delta, tau, alpha: float, rule):
    """int_0^delta w_{2-a}(base+s+tau) - w_{2-a}(base+s) ds by Gauss-Legendre.

    Equals the second mixed difference of w_{3-a} over the rectangle, but
    without the cancellation that formula suffers when delta << base; the
    integrand, with w_{2-a}(t) = t^(1-a)/Gamma(2-a), is taken in the same
    expm1/log1p form.  It is analytic on [0, delta] once base >= 2 delta;
    ``rule`` is the (nodes, weights) pair to use.  The nodes are summed in
    order, not by a BLAS product, so a value does not depend on its
    neighbours.
    """
    nodes, weights = rule
    x = base + 0.5 * delta * (nodes[:, None] + 1.0)
    e = 1.0 - alpha
    vals = x ** e * np.expm1(e * np.log1p(tau / x)) / gamma_fn(2.0 - alpha)
    return 0.5 * delta * (weights[:, None] * vals).sum(axis=0)


def _pair_weights(tmesh: GradedTimeMesh, alpha: float, n: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
    """Off-diagonal weights w_nj for equal-length arrays of pairs 1 <= j < n.

    The double integral of w_{1-a}(t-s) over I_n x I_j telescopes into four
    w_{3-a} values, grouped here so each first-level difference spans the
    smaller gap (across the larger they cancel to 2^gamma eps for the pair
    (2, 1)).  Far pairs (short I_j seen from a distant I_n, base_lo >=
    2 tau_j) switch to a quadrature of the equivalent single integral,
    which stays fully accurate where the four-term formula cancels; each
    takes the fewest Gauss nodes its ratio tau_j / base_lo allows.  A
    uniform mesh takes the same path.
    """
    t, tau_n, tau_j = tmesh.t, tmesh.dt[n - 1], tmesh.dt[j - 1]
    base_lo = t[n - 1] - t[j]          # gap to the right end of I_j
    far = base_lo >= 2.0 * tau_j
    num = np.empty(n.shape)
    near = ~far
    small, big = np.sort([tau_j[near], tau_n[near]], axis=0)
    num[near] = (_omega3_diff(base_lo[near] + big, small, alpha)
                 - _omega3_diff(base_lo[near], small, alpha))
    far = np.flatnonzero(far)
    order = np.searchsorted(_GL_RATIO, tau_j[far] / base_lo[far])
    for r, rule in enumerate(_GL_RULES):
        idx = far[order == r]
        num[idx] = _far_weight_integral(base_lo[idx], tau_j[idx], tau_n[idx],
                                        alpha, rule)
    return num / (tau_n * tau_j)


# pairs per call of _pair_weights in weight_matrix: enough to amortise the
# numpy calls, few enough that the temporaries (up to 12 values per pair)
# stay small; blocks of 32k pairs raised the peak RSS of a long-history run
_PAIR_BLOCK = 4096


def weight_matrix(tmesh: GradedTimeMesh, alpha: float) -> np.ndarray:
    """Lower-triangular weights W[n, j] = w_nj for 1 <= j <= n <= n_steps.

    The off-diagonal pairs are taken in row-major order, _PAIR_BLOCK at a
    time, through :func:`_pair_weights`.
    """
    check_alpha(alpha)
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


# ---------------------------------------------------------------------------
# exponential-sum surrogate of the kernel w_{1-a}(t) = t^(-a)/Gamma(1-a)

@dataclass(frozen=True)
class ExpSumKernel:
    nodes: np.ndarray
    weights: np.ndarray
    rel_err: float


def exp_sum_kernel(alpha: float, t_min: float, t_max: float, eps: float,
                   max_terms: int = 4000) -> ExpSumKernel:
    """Approximate w_{1-a}(t) by sum_i w_i exp(-s_i t), uniformly relative on
    [t_min, t_max].

    Trapezoidal discretisation of t^(-a) = sin(pi a)/pi * int e^(a x)
    exp(-t e^x) dx after s = e^x.  The step shrinks by a tenth and the
    window widens by a quarter on each side until a geometric check grid
    meets eps/2: the error falls by about an order of magnitude per 0.05 of
    step near h = 0.5, so halving the step would land far below target
    with twice the terms.
    """
    check_alpha(alpha)
    if eps <= 0 or not 0 < t_min < t_max:
        raise ConfigurationError("invalid exponential-sum parameters")
    # Gamma(a) Gamma(1-a) = pi / sin(pi a) turns the Laplace-integral
    # representation of t^(-a) into the kernel w_{1-a} with this prefactor
    pref = math.sin(math.pi * alpha) / math.pi
    # check grid: ~24 points per decade of t
    n_check = max(48, int(24 * math.log10(t_max / t_min)) + 2)
    tc = np.geomspace(t_min, t_max, n_check)
    target = tc ** (-alpha) / gamma_fn(1.0 - alpha)
    h = 1.0
    pad = 1.0
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
            return ExpSumKernel(nodes=nodes, weights=weights, rel_err=rel)
        h *= 0.9
        pad += 0.25


# ---------------------------------------------------------------------------
# trajectory solver

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
    band storage, float64 (n, kd + 1) in C order with band[j, i - j] =
    A[i, j] for j <= i <= j + kd.  Each call overwrites ``band`` with the
    Cholesky factor and ``rhs`` (shape (n,)) with the solution.  Lower, not
    upper, storage: the upper variant runs through a strided ``dsyr`` that
    threaded OpenBLAS makes many times slower.
    """

    def __init__(self, band: np.ndarray, rhs: np.ndarray):
        n, ldab = band.shape
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


# levels per block of the direct history sum: the increments older than a
# block enter all its levels through one matrix product, which reads them
# once per block and not once per level
_LEVEL_BLOCK = 32


class _DirectHistory:
    """History sums sum_{j<n} w_nj M V^j of one chunk, with every weight of W.

    record(n, mx) takes in M V^n; subtract(n, x) removes the history of
    level n from x.  :class:`_ExpSumHistory` has the same two methods.
    """

    def __init__(self, W: np.ndarray, size: int):
        nt = W.shape[0] - 1
        self.W = W
        self.mv = np.empty((nt, size))
        # far[i]: the history of level b0 + i from the increments before
        # its block of _LEVEL_BLOCK levels b0, b0 + 1, ...
        self.far = np.empty((min(_LEVEL_BLOCK, nt), size))

    def subtract(self, n: int, x: np.ndarray) -> None:
        if n == 1:
            return
        W, mv, far = self.W, self.mv, self.far
        # one product per block adds the older increments to all its
        # levels; each level adds the increments of its own block
        b0 = n - (n - 1) % _LEVEL_BLOCK
        hist = W[n, b0:n] @ mv[b0 - 1: n - 1]
        if b0 > 1:
            if n == b0:
                rows = W[b0: b0 + _LEVEL_BLOCK, 1:b0]
                np.matmul(rows, mv[: b0 - 1], out=far[: rows.shape[0]])
            hist += far[n - b0]
        x -= hist

    def record(self, n: int, mx: np.ndarray) -> None:
        self.mv[n - 1] = mx


class _ExpSumHistory:
    """History sums through the kernel's exponential sum; state O(terms k d).

    H carries the terms j < n - 1 as exponential modes (their gaps t - s
    are at least one step) and the adjacent term j = n - 1, where t - s can
    vanish, is added directly with its weight w_sub[n - 2] = w_{n,n-1}.
    H is updated in place, so a level allocates nothing of its size.
    """

    def __init__(self, kernel: ExpSumKernel, dt: np.ndarray, w_sub: np.ndarray, size: int):
        self.s, self.kw = kernel.nodes, kernel.weights
        self.dt, self.w_sub = dt, w_sub
        self.H = np.zeros((self.s.size, size))
        self.last = np.empty(size)

    def subtract(self, n: int, x: np.ndarray) -> None:
        if n > 1:
            x -= ((self.kw * exprel(-self.s * self.dt[n - 1])) @ self.H
                  + self.w_sub[n - 2] * self.last)

    def record(self, n: int, mx: np.ndarray) -> None:
        if n >= 2:
            # fold V^{n-1} into the far field, H += beta last^T as one
            # rank-one update of H's transpose, then decay to the next level
            s, dt = self.s, self.dt
            _dger(1.0, self.last, exprel(-s * dt[n - 2]), a=self.H.T, overwrite_a=1)
            self.H *= np.exp(-s * dt[n - 1])[:, None]
        self.last[:] = mx


class _BandLevels:
    """Level solves of one chunk in LAPACK band storage: each level writes
    w_nn M + D/2 for its k blocks and makes one ``dpbsv`` for all of them.

    The stepper drives it, as it drives :class:`_ModalLevels`, through six
    calls on flat (k d,) coefficient vectors: ``initial`` solves D U^0 = r,
    ``residual`` gives F^n - D U^{n-1} in the object's own buffer x,
    ``solve`` turns that x, less the history, into V^n in place, ``mass``
    gives M V^n for the history and ``functional`` the values L(U).
    ``nodal`` maps stored coefficients back to the band numbering.  A
    factorization that fails (a matrix that is not positive definite, or
    not finite) makes the whole chunk NaN.
    """

    def __init__(self, solver: "TrajectorySolver", d_data: np.ndarray):
        asm = solver.assembler
        self.solver = solver
        k = d_data.shape[0]
        self.shape = (k, solver.mass.shape[0])
        self.D = _block_diag(asm.indptr, asm.indices, d_data)
        # the k blocks of D(y) stacked in lower band storage, (k, d, kd + 1)
        self.band = np.zeros(self.shape + (solver._kd + 1,))
        self.band.reshape(k, -1)[:, solver._band_slot] = d_data[:, solver._lower]
        self.half_d = 0.5 * self.band
        # x is the right-hand side going into each band solve and the
        # solution coming out of it
        self.x = np.empty(self.band.shape[0] * self.band.shape[1])
        self._cholesky = _BandCholesky(self.band.reshape(self.x.size, solver._kd + 1),
                                       self.x)

    def _solve(self) -> None:
        if not self._cholesky():
            self.x.fill(np.nan)

    def initial(self, rhs: np.ndarray) -> np.ndarray:
        self.x[:] = rhs.ravel()
        self._solve()
        return self.x.copy()

    def residual(self, n: int, u: np.ndarray) -> np.ndarray:
        np.subtract(self.solver.loads[n - 1], (self.D @ u).reshape(self.shape),
                    out=self.x.reshape(self.shape))
        return self.x

    def solve(self, n: int, x: np.ndarray) -> None:
        np.multiply(self.solver._mass_band, self.solver._w_diag[n - 1], out=self.band)
        self.band += self.half_d
        self._solve()

    def mass(self, x: np.ndarray) -> np.ndarray:
        return (self.solver.mass @ x.reshape(self.shape).T).T.ravel()

    def functional(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(self.shape) @ self.solver._phi

    def nodal(self, us: np.ndarray) -> np.ndarray:
        return us


class _ModalLevels:
    """Level solves of one chunk in the eigenbasis of each (D(y_i), M).

    With D V = M V diag(lam) and V^T M V = I, found from M = L L^T and the
    symmetric eigenproblem of L^-1 D L^-T, coefficients c with U = V c turn
    D U into lam c, M U into c and every level matrix into the diagonal
    w_nn + lam / 2.  A level is then a few elementwise operations on k d
    numbers, against a band write, a ``dpbsv`` and two sparse products on
    the band path; the set-up costs one dense d x d eigendecomposition per
    sample.  Same calls as :class:`_BandLevels`.  A chunk with an
    eigenvalue that is not positive and finite, or a D that is not finite
    (which is not handed to ``eigh``: numpy versions differ in whether it
    then raises or returns NaN), is NaN as a whole, as a failed band
    factorization is.
    """

    def __init__(self, solver: "TrajectorySolver", d_data: np.ndarray):
        asm = solver.assembler
        self.solver = solver
        k, d = self.shape = (d_data.shape[0], solver.mass.shape[0])
        lam = np.full(self.shape, np.nan)
        V = np.zeros((k, d, d))
        if np.all(np.isfinite(d_data)):
            L_inv = solve_triangular(np.linalg.cholesky(solver.mass.toarray()),
                                     np.eye(d), lower=True)
            # one sample at a time, so that the set-up holds V and a few
            # d x d arrays, never k of each
            D = np.zeros((d, d))
            for i in range(k):
                D[asm.indices, solver._pattern_col] = d_data[i]
                lam[i], Q = np.linalg.eigh(L_inv @ D @ L_inv.T)
                np.matmul(L_inv.T, Q, out=V[i])
            if not np.all(np.isfinite(lam) & (lam > 0.0)):
                lam.fill(np.nan)
        # flat (k d,) like the coefficients, as are the loads below
        self.lam, self.V = lam.ravel(), V
        self.half_lam = 0.5 * self.lam
        self.phi = solver._phi @ V
        # V^T F^n per sample; one product for all levels when the load is
        # one row broadcast over the levels (a constant f)
        loads = solver.loads
        self._load = (loads[0] @ V).ravel() if loads.strides[0] == 0 else None
        self.x = np.empty(k * d)

    def initial(self, rhs: np.ndarray) -> np.ndarray:
        return np.matmul(rhs[:, None, :], self.V).ravel() / self.lam

    def residual(self, n: int, u: np.ndarray) -> np.ndarray:
        load = self._load
        if load is None:
            load = (self.solver.loads[n - 1] @ self.V).ravel()
        np.multiply(self.lam, u, out=self.x)
        np.subtract(load, self.x, out=self.x)
        return self.x

    def solve(self, n: int, x: np.ndarray) -> None:
        x /= self.half_lam + self.solver._w_diag[n - 1]

    def mass(self, x: np.ndarray) -> np.ndarray:
        return x

    def functional(self, u: np.ndarray) -> np.ndarray:
        return np.einsum("kd,kd->k", self.phi, u.reshape(self.shape))

    def nodal(self, us: np.ndarray) -> np.ndarray:
        """U^n = V c^n for coefficients of shape (n_levels, k, d)."""
        return np.einsum("kij,nkj->nki", self.V, us)


def _level_solver(d: int, n_steps: int) -> type:
    """The level solver for d dofs and n_steps levels.

    The modal one pays a dense eigendecomposition per sample, O(d^3), to
    make every level O(d); the band one pays a band factorization and
    Python calls at every level.  The two break even at about as many
    levels as dofs (the README gives the measured crossover).
    """
    return _ModalLevels if n_steps >= d else _BandLevels


class TrajectorySolver:
    """Solves trajectories for many parameter vectors over shared discretisations.

    Everything independent of y (mass matrix, convolution weights, loads,
    functional weights, the affine parts of the stiffness matrix and the
    Ritz right-hand side) is precomputed once; the object is then read-only
    and may be shared across worker threads.

    The solver numbers the dofs in reverse Cuthill-McKee order
    (:func:`band_ordered`), so every level matrix w_nn M + D(y)/2 is a band
    matrix.  A block of k parameter vectors is stepped together, so the
    per-step cost of the Python layer is shared by k samples.  Each level
    makes one band Cholesky factor-and-solve of the k stacked blocks
    (:class:`_BandLevels`) or, where the levels outnumber the dofs, one
    division per mode in each sample's eigenbasis (:class:`_ModalLevels`).
    ``mass``, ``assembler`` and ``loads`` are in the band numbering;
    ``phi`` and :meth:`solve` use the numbering of ``mesh``.  The stepping
    starts from the Ritz projection of the initial data, which needs only
    their gradient ``grad_g``.
    """

    # the one linear solver; traced benchmark runs record it as their label
    method = "direct"

    def __init__(self, mesh, field, tmesh: GradedTimeMesh, alpha: float,
                 f, grad_g, fast_history: bool = False, fast_eps: float = 1e-8):
        self.tmesh = tmesh
        band_mesh = band_ordered(mesh)
        inner = mesh.interior_index >= 0
        # _dof[i]: band position of dof i of ``mesh``
        self._dof = np.empty(mesh.n_dofs, dtype=np.int64)
        self._dof[mesh.interior_index[inner]] = band_mesh.interior_index[inner]
        self.mass = assemble_mass(band_mesh)
        self.assembler = StiffnessAssembler(band_mesh, field, grad_g)
        nt = tmesh.n_steps
        self._w_diag = _diagonal_weight(tmesh.dt, alpha)
        # H is read only once a level has an increment older than the
        # adjacent one (n >= 3), so shorter runs keep the direct sum, which
        # reads all of W; the exponential sum reads only w_{n,n-1}
        if fast_history and nt >= 3:
            kernel = exp_sum_kernel(alpha, float(tmesh.dt.min()), tmesh.T, fast_eps)
            sub = np.arange(2, nt + 1)
            self._history = partial(_ExpSumHistory, kernel, tmesh.dt,
                                    _pair_weights(tmesh, alpha, sub, sub - 1))
        else:
            self._history = partial(_DirectHistory, weight_matrix(tmesh, alpha))
        t = tmesh.t
        self.loads = load_vector(band_mesh, f, t[:-1], t[1:])
        self._phi = phi_integrals(band_mesh)
        self.phi = self._phi[self._dof]
        # where the lower triangle of the shared CSC pattern lands in LAPACK
        # lower band storage, flattened (column, offset below the diagonal)
        asm = self.assembler
        d = self.mass.shape[0]
        self._pattern_col = np.repeat(np.arange(d), np.diff(asm.indptr))
        offset = asm.indices - self._pattern_col
        self._lower = offset >= 0
        self._kd = int(offset.max(initial=0))
        self._band_slot = self._pattern_col[self._lower] * (self._kd + 1) + offset[self._lower]
        self._mass_band = np.zeros((d, self._kd + 1))
        self._mass_band.ravel()[self._band_slot] = self.mass.data[self._lower]
        self._levels = _level_solver(d, nt)

    def _march(self, Y: np.ndarray, keep_u: bool):
        """Step the k rows of Y (shape (k, z)) through every level together.

        Returns the functional values, shape (k, n_steps + 1), and with
        ``keep_u`` the band-numbered coefficients, shape (n_steps + 1, k, d).
        A level solve that fails makes every value of the block NaN, and so
        does a row whose element-averaged diffusivity is not positive
        everywhere: the caller sees non-finite samples and never averages
        them.
        """
        asm = self.assembler
        nt = self.tmesh.n_steps
        k = Y.shape[0]
        d = self.mass.shape[0]
        kbar = asm.element_kappa(Y)
        ill_posed = ~np.all(kbar > 0.0, axis=1)
        levels = self._levels(self, asm.matrix_data(kbar))
        u = levels.initial(asm.ritz_rhs(Y))
        values = np.empty((k, nt + 1))
        values[:, 0] = levels.functional(u)
        us = np.empty((nt + 1, k * d)) if keep_u else None
        if keep_u:
            us[0] = u
        history = self._history(k * d)
        for n in range(1, nt + 1):
            x = levels.residual(n, u)
            history.subtract(n, x)
            levels.solve(n, x)
            u += x
            values[:, n] = levels.functional(u)
            if keep_u:
                us[n] = u
            history.record(n, levels.mass(x))
        values[ill_posed] = np.nan
        if keep_u:
            us = levels.nodal(us.reshape(nt + 1, k, d))
            us[:, ill_posed] = np.nan
        return values, us

    def solve(self, y) -> np.ndarray:
        """Coefficients of the trajectory of one parameter vector at every
        level, shape (n_steps + 1, d), in the dof numbering of ``mesh``."""
        _, u = self._march(np.asarray(y, dtype=float)[None, :], keep_u=True)
        if not np.all(np.isfinite(u)):
            raise SolverError("non-finite solution values")
        return u[:, 0][:, self._dof]

    def functional_series(self, y) -> np.ndarray:
        """L(u_h(t_n, y)) at every level.

        Shape (n_steps + 1,) for one parameter vector, or (k, n_steps + 1)
        for a (k, z) block of them stepped together.
        """
        y = np.asarray(y, dtype=float)
        values, _ = self._march(np.atleast_2d(y), keep_u=False)
        return values[0] if y.ndim == 1 else values


def l2J_norm(series: np.ndarray, tmesh: GradedTimeMesh, mass=None) -> float:
    """L2-in-time norm of the piecewise-linear reconstruction of the series.

    For scalars this is (sum_n tau_n (a^2 + ab + b^2)/3)^(1/2); for per-level
    coefficient vectors the spatial norm is taken in the mass inner product
    (or the Euclidean one when mass is None).
    """
    series = np.asarray(series, dtype=float)
    if series.shape[0] != tmesh.n_steps + 1:
        raise ConfigurationError("series must have one entry per time level")
    s = series.reshape(series.shape[0], -1)      # a scalar is a vector of one entry
    ms = s if mass is None else (mass @ s.T).T
    q = np.einsum("nd,nd->n", s, ms)
    c = np.einsum("nd,nd->n", s[:-1], ms[1:])
    val = np.sum(tmesh.dt * (q[:-1] + c + q[1:]) / 3.0)
    return math.sqrt(max(val, 0.0))
