"""Parametric diffusivity fields on the unit square.

A field is kappa(x, y) = kappa0(x) + sum_j y_j psi_j(x) with parameters
y_j in [-1/2, 1/2].  The basis functions handled here are products of
sines, psi(x) = a * sin(k pi x1) * sin(l pi x2), which covers both the
built-in example field and user-supplied coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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

    @property
    def sup_norms(self) -> np.ndarray:
        return np.abs(self.amp)

    def __len__(self) -> int:
        return self.amp.size

    def kappa0(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return self.kappa0_const + self.kappa0_xy * np.asarray(x1) * np.asarray(x2)

    def sine_maps(self, x1: np.ndarray, x2: np.ndarray):
        """Sparse maps (Q, S) with sum_j y_j psi_j = S @ (Q @ y) at the points.

        With g1 distinct x1 and L distinct l, the (g1 L, z) map Q sums a_j y_j
        sin(k_j pi x1_g) over the terms j of each l (repeated (k, l) terms
        simply add), and the (npts, g1 L) map S sums those times sin(l pi
        x2_e) over l: g1 z + npts L products per y, not z npts.
        """
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        z, npts = len(self), x2.size
        g_uniq, g_of = np.unique(x1, return_inverse=True)
        l_uniq, l_of = np.unique(self.l, return_inverse=True)
        n_l, g1 = l_uniq.size, g_uniq.size
        # the index arrays are built in scipy's own index type, never converted
        index = np.int32 if max(g1 * z, npts * n_l) < 2 ** 31 else np.int64
        # column j of Q holds a_j sin(k_j pi x1_g) in row g L + l_of[j]
        a_sin1 = _sine_rows(self.k, g_uniq, self.amp)               # (z, g1)
        rows = np.arange(g1, dtype=index) * n_l + l_of[:, None].astype(index)
        Q = sp.csc_matrix((a_sin1.ravel(), rows.ravel(), np.arange(z + 1, dtype=index) * g1),
                          shape=(g1 * n_l, z))
        # row e of S holds sin(l pi x2_e) in column g_of[e] L + l
        sin2 = _sine_rows(l_uniq, x2)                               # (L, npts)
        cols = g_of.astype(index)[:, None] * n_l + np.arange(n_l, dtype=index)
        S = sp.csr_matrix((sin2.T.ravel(), cols.ravel(),
                           np.arange(npts + 1, dtype=index) * n_l),
                          shape=(npts, g1 * n_l))
        return Q, S


@dataclass
class BoundsReport:
    observed_min: float
    observed_max: float
    ok: bool


def verify_bounds(field: SineRandomField, grid_resolution: int = 64) -> BoundsReport:
    """Check the declared kappa bounds on a tensor grid of x-points.

    The observed range is that of :func:`_kappa_range` on the
    (grid_resolution + 1)^2 grid; a violation is reported, not raised.
    """
    if grid_resolution < 2:
        raise ConfigurationError("grid_resolution must be >= 2")
    lo, hi = _kappa_range(field.kappa0_const, field.kappa0_xy, field.k, field.l,
                          field.amp, grid_resolution)
    kmin, kmax = field.declared_bounds
    lo, hi = float(lo.min()), float(hi.max())
    return BoundsReport(observed_min=lo, observed_max=hi,
                        ok=lo >= kmin - 1e-14 and hi <= kmax + 1e-14)


def _sine_rows(modes, x, scale=None):
    """sin(m pi x) for m in modes, shape (len(modes), len(x)), Fortran-ordered.

    The sine is evaluated once per distinct (mode number, coordinate) pair,
    so z terms over q distinct numbers at points with g distinct
    coordinates cost q g sines.  Row i is multiplied by ``scale[i]`` on
    that small table, and the rows are then gathered from it.
    """
    m_uniq, m_inv = np.unique(modes, return_inverse=True)
    x_uniq, x_inv = np.unique(x, return_inverse=True)
    table = np.sin(np.pi * np.outer(x_uniq, m_uniq)).take(m_inv, axis=1)
    if scale is not None:
        table *= scale
    return table.take(x_inv, axis=0).T


def _kappa_range(kappa0_const, kappa0_xy, k, l, amp, resolution):
    """kappa0 -+ (1/2) sum_j |psi_j|, the extremes of kappa over y, at every
    point of the (resolution + 1)^2 tensor grid of the unit square.

    At each x the extremes are attained at y_j = +-1/2 with signs matched to
    psi_j(x).  On the grid |amp_j sin(k_j pi x1) sin(l_j pi x2)| is a
    product of one sine table per coordinate, so the sum over j is one
    matrix product of the two tables.
    """
    g = np.linspace(0.0, 1.0, resolution + 1)
    k0 = kappa0_const + kappa0_xy * g[:, None] * g[None, :]
    s1 = np.abs(_sine_rows(k, g, amp))
    s2 = np.abs(_sine_rows(l, g))
    half_abs = 0.5 * (s1.T @ s2)
    return k0 - half_abs, k0 + half_abs


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
    # l = 1..q has the q + 1 - l terms k = 1..q+1-l; a q too large to hold
    # fails at the first allocation of the z entries
    counts = np.arange(q, 0, -1, dtype=np.int64)
    l = np.repeat(np.arange(1, q + 1, dtype=np.int64), counts)
    k = np.arange(1, l.size + 1, dtype=np.int64) - (np.cumsum(counts) - counts)[l - 1]
    amp = 1.0 / (10.0 * M * (k + l).astype(float) ** 4)
    if sort_by_norm:
        order = np.argsort(-amp, kind="stable")
        k, l, amp = k[order], l[order], amp[order]
    return build_sine_table_field(0.2, np.column_stack([k, l, amp]), kappa0_xy=0.1)


def build_sine_table_field(kappa0_const: float, coeffs,
                           kappa0_xy: float = 0.0) -> SineRandomField:
    """Field from an explicit table of (k, l, amplitude) rows, in given order.

    The declared bounds are the range of :func:`_kappa_range` on the 129^2 grid.
    """
    rows = np.asarray(coeffs, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ConfigurationError("coeffs must be rows of (k, l, amplitude)")
    if not np.all((rows[:, :2] >= 1) & (rows[:, :2] % 1 == 0)):
        raise ConfigurationError("mode numbers k, l must be whole numbers >= 1")
    k = rows[:, 0].astype(np.int64)
    l = rows[:, 1].astype(np.int64)
    amp = rows[:, 2].copy()
    lo, hi = _kappa_range(kappa0_const, kappa0_xy, k, l, amp, 128)
    return SineRandomField(kappa0_const=kappa0_const, kappa0_xy=kappa0_xy, k=k, l=l,
                           amp=amp, declared_bounds=(float(lo.min()), float(hi.max())))
