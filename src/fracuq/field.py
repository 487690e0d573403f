"""Parametric diffusivity fields on the unit square.

A field is kappa(x, y) = kappa0(x) + sum_j y_j psi_j(x) with parameters
y_j in [-1/2, 1/2].  The basis functions handled here are products of
sines, psi(x) = a * sin(k pi x1) * sin(l pi x2), which covers both the
built-in example field and user-supplied coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "SineRandomField",
    "BoundsReport",
    "zeta",
    "example_field_scale",
    "build_example_field",
    "build_sine_table_field",
    "evaluate_kappa",
    "tail_bound",
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
    summability_p : exponent p in (0, 1) claimed for the sup-norm sequence
    declared_bounds : (kappa_min, kappa_max) asserted positive bounds
    sorted_by_norm : whether sup_norms is nonincreasing
    """

    kappa0_const: float
    kappa0_xy: float
    k: np.ndarray
    l: np.ndarray
    amp: np.ndarray
    summability_p: float
    declared_bounds: tuple[float, float]
    sorted_by_norm: bool = False
    sup_norms: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sup_norms", np.abs(self.amp))

    def __len__(self) -> int:
        return self.amp.size

    def kappa0(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return self.kappa0_const + self.kappa0_xy * np.asarray(x1) * np.asarray(x2)

    def basis_values(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Values of all basis functions at the given points, shape (z, npts).

        The result is Fortran-ordered, so its transpose, indexed by point,
        is contiguous.
        """
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        out = _sine_rows(self.k, x1)
        out *= self.amp[:, None]
        out *= _sine_rows(self.l, x2)
        return out

    def kappa(self, x1: np.ndarray, x2: np.ndarray, y: np.ndarray) -> np.ndarray:
        """kappa(x, y) at arrays of points, truncated to len(y) basis terms."""
        y = np.asarray(y, dtype=float)
        if y.size > len(self):
            raise ConfigurationError(
                f"parameter vector has {y.size} entries but the basis has {len(self)}"
            )
        vals = self.kappa0(x1, x2)
        if y.size:
            psi = self.basis_values(x1, x2)[: y.size]
            vals = vals + y @ psi
        return vals

    def truncated(self, z: int) -> "SineRandomField":
        """Field with only the first z basis terms retained."""
        if not 0 <= z <= len(self):
            raise ConfigurationError(f"truncation z={z} outside [0, {len(self)}]")
        return SineRandomField(
            kappa0_const=self.kappa0_const,
            kappa0_xy=self.kappa0_xy,
            k=self.k[:z].copy(),
            l=self.l[:z].copy(),
            amp=self.amp[:z].copy(),
            summability_p=self.summability_p,
            declared_bounds=self.declared_bounds,
            sorted_by_norm=self.sorted_by_norm,
        )


def evaluate_kappa(field: SineRandomField, x, y) -> float:
    """kappa at a single point x = (x1, x2) for parameter vector y."""
    x1, x2 = float(x[0]), float(x[1])
    if not (0.0 <= x1 <= 1.0 and 0.0 <= x2 <= 1.0):
        raise DomainError(f"point {(x1, x2)} outside the closed unit square")
    return float(field.kappa(np.array([x1]), np.array([x2]), np.asarray(y, dtype=float))[0])


def tail_bound(field: SineRandomField, z: int) -> float:
    """Worst-case truncation error of kappa: half the sup-norm tail sum."""
    if not 0 <= z <= len(field):
        raise ConfigurationError(f"z={z} exceeds basis length {len(field)}")
    return 0.5 * float(np.sum(field.sup_norms[z:]))


@dataclass
class BoundsReport:
    observed_min: float
    observed_max: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bounds(field: SineRandomField, grid_resolution: int = 64,
                  sample_count: int = 16, rng_seed: int = 0) -> BoundsReport:
    """Check the declared kappa bounds on a tensor grid of x-points.

    At each grid point the extremes over y are attained at y_j = +-1/2 with
    signs matched to psi_j(x); additional random y samples are evaluated as
    a cross-check.  Violations are reported, not raised.
    """
    if grid_resolution < 2:
        raise ConfigurationError("grid_resolution must be >= 2")
    if sample_count < 1:
        raise ConfigurationError("sample_count must be >= 1")
    g = np.linspace(0.0, 1.0, grid_resolution + 1)
    X1, X2 = np.meshgrid(g, g, indexing="ij")
    x1, x2 = X1.ravel(), X2.ravel()
    k0 = field.kappa0(x1, x2)
    z = len(field)
    if z:
        psi = field.basis_values(x1, x2)  # (z, npts)
        half_abs = 0.5 * np.sum(np.abs(psi), axis=0)
    else:
        half_abs = np.zeros_like(k0)
    lo = k0 - half_abs
    hi = k0 + half_abs
    obs_min = float(lo.min())
    obs_max = float(hi.max())

    rng = np.random.default_rng(rng_seed)
    for _ in range(sample_count):
        y = rng.uniform(-0.5, 0.5, size=z)
        vals = field.kappa(x1, x2, y)
        obs_min = min(obs_min, float(vals.min()))
        obs_max = max(obs_max, float(vals.max()))

    kmin, kmax = field.declared_bounds
    violations = []
    bad_lo = np.flatnonzero(lo < kmin - 1e-14)
    bad_hi = np.flatnonzero(hi > kmax + 1e-14)
    for idx in bad_lo[:20]:
        signs = -np.sign(psi[:, idx]) if z else np.array([])
        violations.append(((x1[idx], x2[idx]), 0.5 * signs, float(lo[idx])))
    for idx in bad_hi[:20]:
        signs = np.sign(psi[:, idx]) if z else np.array([])
        violations.append(((x1[idx], x2[idx]), 0.5 * signs, float(hi[idx])))
    return BoundsReport(observed_min=obs_min, observed_max=obs_max, violations=violations)


def _sine_rows(modes, x):
    """sin(m pi x) for each mode number m, shape (len(modes), len(x)).

    Each distinct mode number is evaluated once and its row repeated, so z
    terms over q distinct numbers cost q rows of sines, not z.  The result
    is a new Fortran-ordered array.
    """
    uniq, inv = np.unique(modes, return_inverse=True)
    return np.sin(np.pi * np.outer(x, uniq))[:, inv].T


def _declare_bounds(kappa0_const, kappa0_xy, k, l, amp, resolution=128):
    """Numerical lower/upper bounds of kappa over x and worst-case y.

    On the tensor grid |amp_j sin(k_j pi x1) sin(l_j pi x2)| is a product of
    one table per coordinate; the terms are summed in index order, the same
    sum as evaluating every basis function at every grid point.
    """
    g = np.linspace(0.0, 1.0, resolution + 1)
    k0 = kappa0_const + kappa0_xy * g[:, None] * g[None, :]
    half_abs = np.zeros_like(k0)
    if amp.size:
        s1 = np.abs(amp[:, None] * _sine_rows(k, g))
        s2 = np.abs(_sine_rows(l, g))
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
        summability_p=0.55,
        declared_bounds=bounds,
        sorted_by_norm=sort_by_norm,
    )


def build_sine_table_field(kappa0_const: float, coeffs, kappa0_xy: float = 0.0,
                           summability_p: float = 0.55) -> SineRandomField:
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
    norms = np.abs(amp)
    bounds = _declare_bounds(kappa0_const, kappa0_xy, k, l, amp)
    return SineRandomField(
        kappa0_const=kappa0_const,
        kappa0_xy=kappa0_xy,
        k=k,
        l=l,
        amp=amp,
        summability_p=summability_p,
        declared_bounds=bounds,
        sorted_by_norm=bool(np.all(np.diff(norms) <= 0)),
    )
