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
    "fast_history_kernel",
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
    """The one check of T, n_steps and the grading gamma.  The weights divide
    by products of two steps, so the longest, at most T, must square to a
    finite float, and the first, shortest step tau_1 = T n_steps^-gamma to a
    normal one (at T = 1: 2 gamma log10(n_steps) <= 307.65)."""
    if n_steps < 1 or not (0.0 < T and T * T < math.inf):
        raise ConfigurationError("n_steps must be >= 1 and T a positive finite number with a "
                                 f"finite square (n_steps = {n_steps}, T = {T:.6g})")
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
    e = 2.0 - alpha
    out = gap ** e                     # the value at base = 0
    nz = np.flatnonzero(base)
    out[nz] = base[nz] ** e * np.expm1(e * np.log1p(gap[nz] / base[nz]))
    return out / gamma_fn(3.0 - alpha)


def _far_series(q, L, alpha: float, degree: int):
    """sum_{k <= degree} a_k q^k expm1((e - 2k) L) elementwise, e = 1 - a, with
    a_0 = 1 / Gamma(2-a) and a_k = a_{k-1} (e-2k+2)(e-2k+1) / (2k (2k+1)).

    With u = exp(-2L) the k-th expm1 is (1 + E) u^k - 1, E = expm1(e L): the
    sum is E A(q u) + q (u - 1) A[q, q u], A(x) = sum a_k x^k, both parts by
    Horner's rule.  Every a_k past a_0 is negative, so neither part cancels;
    e - (2k - 2) keeps e's digits as alpha -> 1, where e - 2k + 2 would not.
    """
    e = 1.0 - alpha
    a = [1.0 / gamma_fn(2.0 - alpha)]
    for k in range(1, degree + 1):
        a.append(a[-1] * (e - (2 * k - 2)) * (e - (2 * k - 1)) / ((2 * k) * (2 * k + 1)))
    qg = q * np.expm1(-2.0 * L)
    qu = q + qg
    p = a[degree] * qu + a[degree - 1]       # A(q u) ...
    d = a[degree] * q + p                    # ... and A[q, q u] beside it
    for ak in a[degree - 2: 0: -1]:
        p *= qu
        p += ak
        d *= q
        d += p
    return (p * qu + a[0]) * np.expm1(e * L) + qg * d


def _pair_weights(alpha: float, base, tau_n, tau_j) -> np.ndarray:
    """Off-diagonal weights w_nj of pairs 1 <= j < n, elementwise over arrays
    of their gap base = t_{n-1} - t_j and their steps tau_n and tau_j.

    The double integral of w_{1-a}(t-s) over I_n x I_j telescopes into four
    w_{3-a} values, grouped here so each first-level difference spans the
    smaller gap (across the larger they cancel to 2^gamma eps for the pair
    (2, 1)).  Far pairs (base >= 2 tau_j), where those cancel, take the
    single integral of w_{2-a}(x + tau_n) - w_{2-a}(x) over I_j expanded
    about its midpoint c = base + tau_j / 2: c^e tau_j sum_k a_k q^k
    expm1((e - 2k) L), q = (tau_j / 2c)^2 <= 1/25, L = log1p(tau_n / c): degree 4
    truncates below 1e-17 relative up to tau_j / base = 0.05, degree 10 up to 0.5.
    """
    h = 0.5 * tau_j
    c = base + h
    q = np.square(h / c)
    L = np.log1p(tau_n / c)
    w = _far_series(q, L, alpha, 4)
    wide = np.flatnonzero(tau_j > 0.05 * base)
    w[wide] = _far_series(q[wide], L[wide], alpha, 10)
    w *= c ** (1.0 - alpha) / tau_n
    near = wide[base[wide] < 2.0 * tau_j[wide]]
    b, tn, tj = base[near], tau_n[near], tau_j[near]
    small, big = np.minimum(tj, tn), np.maximum(tj, tn)
    w[near] = (_omega3_diff(b + big, small, alpha) - _omega3_diff(b, small, alpha)) / (tn * tj)
    return w


# pairs per call of _pair_weights: enough to amortise numpy's calls, few enough to stay in cache
_PAIR_BLOCK = 16384


def weight_matrix(tmesh: GradedTimeMesh, alpha: float) -> np.ndarray:
    """Lower-triangular weights W[n, j] = w_nj for 1 <= j <= n <= n_steps.

    The off-diagonal pairs go through :func:`_pair_weights` in blocks of
    whole rows, at most _PAIR_BLOCK pairs each, in row-major order.
    """
    check_alpha(alpha)
    nt, t, dt = tmesh.n_steps, tmesh.t, tmesh.dt
    W = np.zeros((nt + 1, nt + 1))
    np.fill_diagonal(W[1:, 1:], _diagonal_weight(dt, alpha))
    below = np.tri(nt, nt, -1, dtype=bool)      # below[n - 1, j - 1]: j < n
    r0 = 1
    while r0 < nt:
        # rows n = r0 + 1 .. r1 hold n - 1 pairs each, (r1 (r1-1) - r0 (r0-1)) / 2 in all
        r1 = min(nt, max(r0 + 1, (1 + math.isqrt(1 + 4 * r0 * (r0 - 1) + 8 * _PAIR_BLOCK)) // 2))
        rows, m = np.arange(r0, r1), below[r0:r1, : r1 - 1]
        tau_n = np.repeat(dt[r0:r1], rows)
        tau_j = np.broadcast_to(dt[: r1 - 1], m.shape)[m]
        base = np.repeat(t[r0:r1], rows) - np.broadcast_to(t[1:r1], m.shape)[m]
        W[r0 + 1: r1 + 1, 1:r1][m] = _pair_weights(alpha, base, tau_n, tau_j)
        r0 = r1
    return W


# ---------------------------------------------------------------------------
# exponential-sum surrogate of the kernel w_{1-a}(t) = t^(-a)/Gamma(1-a)

@dataclass(frozen=True)
class ExpSumKernel:
    nodes: np.ndarray
    weights: np.ndarray
    rel_err: float


# the term budget of exp_sum_kernel: check and every run refuse a sum that
# needs more (ToleranceError)
_MAX_EXP_TERMS = 4000


def exp_sum_kernel(alpha: float, t_min: float, t_max: float, eps: float) -> ExpSumKernel:
    """Approximate w_{1-a}(t) by sum_i w_i exp(-s_i t), uniformly relative on
    [t_min, t_max].

    Trapezoidal rule for t^(-a) = sin(pi a)/pi * int s^(a-1) exp(-t s) ds
    after s = exp(x - e^(-x) - ln t_max): the left tail exp(-a e^(-x))
    decays double-exponentially, so the term count grows only like ln(1/a),
    and a node whose s underflows to 0 stays, as a constant term, so the
    count does not depend on t_max.  The step shrinks by a tenth and the
    window widens by a quarter on each side until a geometric check grid
    meets eps/2: the error falls by about a decade per 0.05 of step near
    h = 0.5, so halving the step would land far below target.
    """
    check_alpha(alpha)
    if not 0 < eps < 1 or not 0 < t_min < t_max:
        raise ConfigurationError("invalid exponential-sum parameters")
    # Gamma(a) Gamma(1-a) = pi / sin(pi a) turns the Laplace-integral
    # representation of t^(-a) into the kernel w_{1-a} with this prefactor
    pref = math.sin(math.pi * alpha) / math.pi
    # check grid: ~24 points per decade of t
    n_check = max(48, int(24 * math.log10(t_max / t_min)) + 2)
    tc = np.geomspace(t_min, t_max, n_check)
    target = tc ** (-alpha) / gamma_fn(1.0 - alpha)
    log_t_max = math.log(t_max)
    h = 1.0
    pad = 1.0
    while True:
        x_lo = -math.log(math.log(8.0 / (eps * alpha)) / alpha) - pad
        x_hi = math.log(math.log(8.0 / eps) + 40.0) + log_t_max - math.log(t_min) + pad
        x = np.arange(x_lo, x_hi + h, h)
        if x.size > _MAX_EXP_TERMS:
            raise ToleranceError(
                f"exponential sum needs more than {_MAX_EXP_TERMS} terms for eps={eps}")
        log_s = x - np.exp(-x) - log_t_max
        nodes = np.exp(log_s)
        weights = pref * h * np.exp(alpha * log_s) * (1.0 + np.exp(-x))
        approx = np.exp(-np.outer(tc, nodes)) @ weights
        rel = float(np.max(np.abs(approx - target) / target))
        if rel <= 0.5 * eps:
            return ExpSumKernel(nodes=nodes, weights=weights, rel_err=rel)
        h *= 0.9
        pad += 0.25


def fast_history_kernel(tmesh: GradedTimeMesh, alpha: float, eps: float) -> ExpSumKernel | None:
    """The exponential sum fast history steps tmesh with, or None below 3
    levels: H is first read at n = 3, so shorter runs keep the direct sum."""
    if tmesh.n_steps < 3:
        return None
    return exp_sum_kernel(alpha, float(tmesh.dt.min()), tmesh.T, eps)


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
    factorization that fails (a matrix that is not positive definite)
    makes the whole chunk NaN.
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
    eigenvalue that is not positive is NaN as a whole, as a failed band
    factorization is.
    """

    def __init__(self, solver: "TrajectorySolver", d_data: np.ndarray):
        asm = solver.assembler
        self.solver = solver
        k, d = self.shape = (d_data.shape[0], solver.mass.shape[0])
        lam = np.empty(self.shape)
        V = np.empty((k, d, d))
        L_inv = solve_triangular(np.linalg.cholesky(solver.mass.toarray()),
                                 np.eye(d), lower=True)
        # one sample at a time, so that the set-up holds V and a few d x d
        # arrays, never k of each
        D = np.zeros((d, d))
        for i in range(k):
            D[asm.indices, solver._pattern_col] = d_data[i]
            lam[i], Q = np.linalg.eigh(L_inv @ D @ L_inv.T)
            np.matmul(L_inv.T, Q, out=V[i])
        if not np.all(lam > 0.0):
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


def _well_posed(kbar: np.ndarray) -> np.ndarray:
    """Whether the element averages of kappa along kbar's last axis are all
    positive and finite: the one test a sample must pass to be stepped."""
    return np.all((kbar > 0.0) & (kbar < math.inf), axis=-1)


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
    functional weights, the field's sine maps) is precomputed once; each
    chunk of samples evaluates its own kappa on the worker thread that steps
    it.  The object is read-only and may be shared across worker threads.

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

    # kept only as the label that traced benchmark runs record, on either
    # level solver, until they record the one each run used (ROADMAP item 4)
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
        kernel = fast_history_kernel(tmesh, alpha, fast_eps) if fast_history else None
        if kernel is not None:
            w_sub = _pair_weights(alpha, np.zeros(nt - 1), tmesh.dt[1:], tmesh.dt[:-1])
            self._history = partial(_ExpSumHistory, kernel, tmesh.dt, w_sub)
        else:
            self._history = partial(_DirectHistory, weight_matrix(tmesh, alpha))
        self.loads = load_vector(band_mesh, f, tmesh.t[:-1], tmesh.t[1:])
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
        """Step the well-posed rows of Y (shape (k, z)) through every level together.

        Returns the functional values, shape (k, n_steps + 1), and with
        ``keep_u`` the band-numbered coefficients, shape (n_steps + 1, k, d).
        This is where a sample's fate is decided: a row that
        :func:`_well_posed` refuses is never handed to a level solver, its
        values (and coefficients) are NaN, and the other rows are stepped
        without it.  A level solve that fails makes every stepped row NaN.
        """
        asm = self.assembler
        nt = self.tmesh.n_steps
        d = self.mass.shape[0]
        kbar, rhs = asm.parts(Y)
        ok = _well_posed(kbar)
        values = np.full((Y.shape[0], nt + 1), np.nan)
        kept = np.full((nt + 1, Y.shape[0], d), np.nan) if keep_u else None
        if not ok.any():
            return values, kept
        k = np.count_nonzero(ok)
        levels = self._levels(self, asm.matrix_data(kbar[ok]))
        u = levels.initial(rhs[ok])
        stepped = np.empty((k, nt + 1))
        stepped[:, 0] = levels.functional(u)
        us = np.empty((nt + 1, k * d)) if keep_u else None
        if keep_u:
            us[0] = u
        history = self._history(k * d)
        for n in range(1, nt + 1):
            x = levels.residual(n, u)
            history.subtract(n, x)
            levels.solve(n, x)
            u += x
            stepped[:, n] = levels.functional(u)
            if keep_u:
                us[n] = u
            history.record(n, levels.mass(x))
        values[ok] = stepped
        if keep_u:
            kept[:, ok] = levels.nodal(us.reshape(nt + 1, k, d))
        return values, kept

    def failure_reason(self, y) -> str:
        """Why the parameter vector y gave non-finite values: the element
        averages that :func:`_well_posed` refuses, or a failed level solve."""
        kbar = self.assembler.parts(y)[0]
        if _well_posed(kbar):
            return "non-finite solution values"
        if not np.all(np.isfinite(kbar)):
            return "non-finite element-averaged diffusivity"
        return f"element-averaged diffusivity <= 0 (min {kbar.min():.2g})"

    def solve(self, y) -> np.ndarray:
        """Coefficients of the trajectory of one parameter vector at every
        level, shape (n_steps + 1, d), in the dof numbering of ``mesh``."""
        _, u = self._march(np.asarray(y, dtype=float)[None, :], keep_u=True)
        if not np.all(np.isfinite(u)):
            raise SolverError(self.failure_reason(y))
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
