"""Parametric diffusivity fields on the unit square.

A field is kappa(x, y) = kappa0(x) + sum_j y_j psi_j(x) with parameters
y_j in [-1/2, 1/2].  The basis functions handled here are products of
sines, psi(x) = a * sin(k pi x1) * sin(l pi x2), which covers both the
built-in example field and user-supplied coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "SineRandomField",
    "BoundsReport",
    "zeta",
    "example_field_scale",
    "build_example_field",
    "build_sine_table_field",
    "verify_bounds",
]


def zeta(s: float, n_terms: int = 200) -> float:
    """Riemann zeta for s > 1 by partial sums plus an Euler-Maclaurin tail.

    Accurate to well below 1e-12 for s >= 2 with the default number of
    terms; the tail correction uses the integral term plus the first two
    Bernoulli corrections.
    """
    if s <= 1.0:
        raise ConfigurationError("zeta(s) requires s > 1")
    n = np.arange(1, n_terms, dtype=float)
    head = float(np.sum(n ** (-s)))
    x = float(n_terms)
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s) + s * x ** (-s - 1.0) / 12.0 \
        - s * (s + 1.0) * (s + 2.0) * x ** (-s - 3.0) / 720.0
    return head + tail


def example_field_scale() -> float:
    """Normalisation constant of the example field (zeta(3) - zeta(4))."""
    return zeta(3.0) - zeta(4.0)


@dataclass(frozen=True)
class SineRandomField:
    """Random diffusivity with a sine-product basis.

    Attributes
    ----------
    kappa0_const, kappa0_xy : the mean field kappa0(x) = const + xy_coeff*x1*x2
    k, l : integer mode numbers per basis function
    amp : signed amplitude per basis function
    sup_norms : |amp| (the sine product attains +-1 in the open square)
    declared_bounds : (kappa_min, kappa_max) asserted positive bounds
    """

    kappa0_const: float
    kappa0_xy: float
    k: np.ndarray
    l: np.ndarray
    amp: np.ndarray
    declared_bounds: tuple[float, float]
    sup_norms: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sup_norms", np.abs(self.amp))

    def __len__(self) -> int:
        return self.amp.size

    def kappa0(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return self.kappa0_const + self.kappa0_xy * np.asarray(x1) * np.asarray(x2)

    def basis_values(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Values of all basis functions at the given points, shape (z, npts), C order."""
        return np.ascontiguousarray(self.basis_rows(x1, x2)(0, len(self)))

    def basis_rows(self, x1: np.ndarray, x2: np.ndarray):
        """Function (a, b) -> the values basis_values(x1, x2)[a:b].

        The sines are evaluated here, once per distinct (mode number,
        coordinate) pair; each call only gathers and multiplies its rows,
        so blocks of the table can be reduced without holding all of it.
        A block is Fortran-ordered: its transpose, indexed by point, is
        contiguous.
        """
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        sin1 = _sine_rows(self.k, x1, self.amp)
        sin2 = _sine_rows(self.l, x2)

        def rows(a: int, b: int) -> np.ndarray:
            out = sin1(a, b)
            out *= sin2(a, b)
            return out

        return rows


@dataclass
class BoundsReport:
    observed_min: float
    observed_max: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bounds(field: SineRandomField, grid_resolution: int = 64) -> BoundsReport:
    """Check the declared kappa bounds on a tensor grid of x-points.

    At each grid point the extremes over y are attained at y_j = +-1/2 with
    signs matched to psi_j(x), so the grid extremes are the observed range.
    Violations are reported, not raised.
    """
    if grid_resolution < 2:
        raise ConfigurationError("grid_resolution must be >= 2")
    g = np.linspace(0.0, 1.0, grid_resolution + 1)
    X1, X2 = np.meshgrid(g, g, indexing="ij")
    x1, x2 = X1.ravel(), X2.ravel()
    k0 = field.kappa0(x1, x2)
    psi = field.basis_values(x1, x2)  # (z, npts), empty rows for z = 0
    half_abs = 0.5 * np.sum(np.abs(psi), axis=0)
    lo = k0 - half_abs
    hi = k0 + half_abs

    kmin, kmax = field.declared_bounds
    violations = []
    bad_lo = np.flatnonzero(lo < kmin - 1e-14)
    bad_hi = np.flatnonzero(hi > kmax + 1e-14)
    for idx in bad_lo[:20]:
        signs = -np.sign(psi[:, idx])
        violations.append(((x1[idx], x2[idx]), 0.5 * signs, float(lo[idx])))
    for idx in bad_hi[:20]:
        signs = np.sign(psi[:, idx])
        violations.append(((x1[idx], x2[idx]), 0.5 * signs, float(hi[idx])))
    return BoundsReport(observed_min=float(lo.min()), observed_max=float(hi.max()),
                        violations=violations)


def _sine_rows(modes, x, scale=None):
    """Function (a, b) -> sin(m pi x) for m in modes[a:b], shape (b - a, len(x)).

    The sine is evaluated once per distinct (mode number, coordinate) pair,
    so z terms over q distinct numbers at points with g distinct
    coordinates cost q g sines.  Row i is multiplied by ``scale[i]`` on
    that small table, and each call gathers its rows from it into a new
    Fortran-ordered array.
    """
    m_uniq, m_inv = np.unique(modes, return_inverse=True)
    x_uniq, x_inv = np.unique(x, return_inverse=True)
    table = np.sin(np.pi * np.outer(x_uniq, m_uniq)).take(m_inv, axis=1)
    if scale is not None:
        table *= scale
    return lambda a, b: table[:, a:b].take(x_inv, axis=0).T


def _declare_bounds(kappa0_const, kappa0_xy, k, l, amp, resolution=128):
    """Numerical lower/upper bounds of kappa over x and worst-case y.

    On the tensor grid |amp_j sin(k_j pi x1) sin(l_j pi x2)| is a product of
    one table per coordinate; the terms are summed in index order, the same
    sum as evaluating every basis function at every grid point.
    """
    g = np.linspace(0.0, 1.0, resolution + 1)
    k0 = kappa0_const + kappa0_xy * g[:, None] * g[None, :]
    half_abs = np.zeros_like(k0)
    s1 = np.abs(_sine_rows(k, g, amp)(0, amp.size))
    s2 = np.abs(_sine_rows(l, g)(0, amp.size))
    for row1, row2 in zip(s1, s2):
        half_abs += row1[:, None] * row2[None, :]
    half_abs *= 0.5
    return float((k0 - half_abs).min()), float((k0 + half_abs).max())


def build_example_field(q: int, sort_by_norm: bool = False) -> SineRandomField:
    """Built-in field: kappa = (2 + x1 x2 + sum_j y_j psi~_j) / 10.

    The pre-scaled basis is psi~_{k,l} = sin(k pi x1) sin(l pi x2) /
    (M (k+l)^4) with M = zeta(3) - zeta(4), which normalises the sup-norm
    sum to exactly 1 (sum over the full lattice of 1/(k+l)^4 equals M), so
    the pre-scaled field stays in [2 - 1/2, 3 + 1/2] and the scaled one is
    uniformly positive.  Terms are indexed over l = 1..q and k = 1..q+1-l
    with k varying most rapidly, giving z = q(q+1)/2 of them.  With
    ``sort_by_norm`` the terms are reordered by nonincreasing amplitude
    (stable sort, so the default enumeration is preserved within ties).
    """
    if q < 1:
        raise ConfigurationError("q must be >= 1")
    M = example_field_scale()
    ks, ls = [], []
    for l in range(1, q + 1):
        for k in range(1, q + 2 - l):
            ks.append(k)
            ls.append(l)
    k = np.array(ks, dtype=np.int64)
    l = np.array(ls, dtype=np.int64)
    amp = 1.0 / (10.0 * M * (k + l).astype(float) ** 4)
    if sort_by_norm:
        order = np.argsort(-amp, kind="stable")
        k, l, amp = k[order], l[order], amp[order]
    bounds = _declare_bounds(0.2, 0.1, k, l, amp)
    return SineRandomField(
        kappa0_const=0.2,
        kappa0_xy=0.1,
        k=k,
        l=l,
        amp=amp,
        declared_bounds=bounds,
    )


def build_sine_table_field(kappa0_const: float, coeffs,
                           kappa0_xy: float = 0.0) -> SineRandomField:
    """Field from an explicit table of (k, l, amplitude) rows, in given order."""
    rows = np.asarray(coeffs, dtype=float)
    if rows.size == 0:
        k = np.zeros(0, dtype=np.int64)
        l = np.zeros(0, dtype=np.int64)
        amp = np.zeros(0)
    else:
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ConfigurationError("coeffs must be rows of (k, l, amplitude)")
        k = rows[:, 0].astype(np.int64)
        l = rows[:, 1].astype(np.int64)
        amp = rows[:, 2].copy()
        if np.any(k < 1) or np.any(l < 1):
            raise ConfigurationError("mode numbers k, l must be >= 1")
    bounds = _declare_bounds(kappa0_const, kappa0_xy, k, l, amp)
    return SineRandomField(
        kappa0_const=kappa0_const,
        kappa0_xy=kappa0_xy,
        k=k,
        l=l,
        amp=amp,
        declared_bounds=bounds,
    )
