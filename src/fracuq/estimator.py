"""Expected values of solution functionals by equal-weight QMC sampling.

Ties together the random field, the interlaced polynomial lattice points,
and the space-time solver: E_{z,N,h}(t_n) is the average of L(u_h(t_n, y))
over the N centered QMC points y in (-1/2, 1/2)^z, with one trajectory
solve per point.  Also provides the convergence-table, truncation-decay
and space-time refinement studies built on the same machinery.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, SolverError
from .fem import (TriMesh, assemble_mass, prolong_structured,
                  triangulate_unit_square)
from .field import SineRandomField
from .qmc import (SHIFT_MODES, InterlacedLatticeRule, PointSet, cbc_rule, check_rule,
                  shift_to_centered)
from .tfrac import (GradedTimeMesh, TrajectorySolver, check_alpha, check_time_grid,
                    graded_mesh, l2J_norm)

__all__ = [
    "RunConfig",
    "ExpectedValueSeries",
    "ConvergenceRow",
    "TruncationStudy",
    "RefinementStudy",
    "example_initial_gradient",
    "default_qmc_weights",
    "build_solver",
    "sample_points",
    "estimate",
    "convergence_table",
    "truncation_study",
    "spacetime_refinement_study",
]


def example_initial_gradient(x1, x2):
    """Gradient of the initial profile 144 x1^2 (1-x1) x2^2 (1-x2), whose
    average over the unit square is 1."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    gx = 144.0 * (2.0 * x1 - 3.0 * x1 ** 2) * x2 ** 2 * (1.0 - x2)
    gy = 144.0 * x1 ** 2 * (1.0 - x1) * (2.0 * x2 - 3.0 * x2 ** 2)
    return gx, gy


def default_qmc_weights(field: SineRandomField, z: int) -> np.ndarray:
    """Coordinate weights b_j = sqrt(2) ||psi_j|| / kappa_min for the CBC search,
    with kappa_min the field's declared lower bound (0.178 at q = 10)."""
    return math.sqrt(2.0) / field.declared_bounds[0] * field.sup_norms[:z]


@dataclass(frozen=True)
class RunConfig:
    """All ingredients of one estimation run, resolved once and then read-only.

    The spatial mesh is either a structured ``n_div`` subdivision of the
    unit square or an explicit :class:`TriMesh` given as ``mesh``;
    :attr:`space_mesh` is the mesh of either kind, built on first use.
    ``rule`` is a given generating vector, or None; :func:`sample_points`
    builds a CBC rule where none is given.  Construction validates the
    inputs (alpha, the time grid and b, m, beta by their one checks) and
    writes none of them: ``gamma``, ``n_div`` and ``mesh`` stay as given,
    and :attr:`grading` is ``gamma``, or the usual 2/alpha where it was
    left out, so ``dataclasses.replace`` works on a constructed config.
    The initial data enter only through their Ritz projection, which needs
    only ``grad_g``, by default the gradient of the example initial
    profile.  The field's declared lower bound must be positive.
    """

    alpha: float
    n_steps: int
    field: SineRandomField
    z: int
    m: int
    T: float = 1.0
    gamma: float | None = None
    n_div: int | None = None
    mesh: TriMesh | None = None
    b: int = 2
    beta: int = 3
    rule: InterlacedLatticeRule | None = None
    f: object = 1.0
    grad_g: object = example_initial_gradient
    fast_history: bool = False
    fast_eps: float = 1e-8
    threads: int = 1
    shift: str = "none"

    def __post_init__(self):
        check_alpha(self.alpha)
        check_time_grid(self.T, self.n_steps, self.grading)
        if not 0.0 < self.fast_eps < 1.0:
            raise ConfigurationError(f"fast_eps = {self.fast_eps} must lie in (0, 1)")
        if self.z < 0:
            raise ConfigurationError(f"truncation z = {self.z} must be >= 0")
        if self.z > len(self.field):
            raise ConfigurationError(
                f"truncation z={self.z} exceeds the field basis ({len(self.field)})")
        if (self.mesh is None) == (self.n_div is None):
            raise ConfigurationError("exactly one of n_div and mesh must be set")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if self.shift not in SHIFT_MODES:
            raise ConfigurationError(f"unknown shift mode {self.shift!r}")
        check_rule(self.b, self.m, self.beta)
        if not 0.0 < self.field.declared_bounds[0] < math.inf:
            raise DomainError(
                f"the field's declared lower bound {self.field.declared_bounds[0]:.6g} "
                "is not a positive finite number")
        rule = self.rule
        if rule is not None and not rule.serves(self.b, self.m, self.beta, self.z):
            raise ConfigurationError(
                f"generating vector (b, m, beta, z) = {(rule.b, rule.m, rule.beta, rule.z)} "
                f"does not serve {(self.b, self.m, self.beta, self.z)}")

    @functools.cached_property
    def space_mesh(self) -> TriMesh:
        """The mesh given, or the structured mesh of ``n_div``."""
        return self.mesh if self.mesh is not None else triangulate_unit_square(self.n_div)

    @property
    def grading(self) -> float:
        """The time-mesh grading: ``gamma`` as given, or 2/alpha."""
        return 2.0 / self.alpha if self.gamma is None else self.gamma

    @property
    def n_samples(self) -> int:
        return self.b ** self.m

    def time_mesh(self) -> GradedTimeMesh:
        return graded_mesh(self.T, self.n_steps, self.grading)

    def qmc_rule(self) -> InterlacedLatticeRule | None:
        """The given rule, or None; builds nothing."""
        return self.rule


@dataclass
class ExpectedValueSeries:
    """QMC mean and spread of L(u_h(t_n)) at every time level."""

    t: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    n_samples: int
    z: int


@dataclass
class ConvergenceRow:
    n_samples: int
    value_T: float
    err_T: float
    rate_T: float
    err_L2J: float
    rate_L2J: float


@dataclass
class TruncationStudy:
    z: np.ndarray
    err_T: np.ndarray
    z_ref: int
    slope: float


@dataclass
class RefinementStudy:
    n_div: list
    n_steps: list
    errors: np.ndarray      # L2(J, Omega) error per coarse level vs finest
    ratios: np.ndarray      # consecutive error ratios
    orders: np.ndarray      # log2 of the ratios


def build_solver(config: RunConfig) -> TrajectorySolver:
    return TrajectorySolver(
        config.space_mesh, config.field, config.time_mesh(), config.alpha,
        config.f, config.grad_g, fast_history=config.fast_history, fast_eps=config.fast_eps)


def sample_points(config: RunConfig, m: int | None = None,
                  z: int | None = None) -> np.ndarray:
    """Centered QMC points of N = b^m points in z coordinates, shape (N, z);
    m and z default to the config's.

    The points come from config.rule when it has b^m points and covers z
    coordinates, and otherwise from a CBC rule with the default weights.
    Plain centering (x - 1/2) by default, so point 0 is the corner
    (-1/2, ..., -1/2); ``shift="digital-half"`` additionally applies a
    deterministic digital shift that moves point 0 to the centre, useful
    for fields whose diffusivity degrades near the parameter-box corner.

    m = 0 is the single-point rule: just the origin of [0,1)^z; z = 0 (a
    deterministic field) repeats the empty parameter vector N times.
    """
    m = config.m if m is None else m
    z = config.z if z is None else z
    if z == 0:
        return np.zeros((config.b ** m, 0))
    if m == 0:
        return shift_to_centered(PointSet(np.zeros((1, z), dtype=np.int64), config.b, 1),
                                 config.shift)
    rule = config.rule
    if rule is None or not rule.serves(config.b, m, config.beta, z):
        rule = cbc_rule(config.b, m, config.beta, z, default_qmc_weights(config.field, z))
    return rule.centered_points(shift=config.shift)[:, :z]


# a chunk holds up to 4096 unknowns (samples x dofs), or up to 8 samples
# where that is more: small problems step many samples together, and large
# ones share each level's Python calls among 8
_CHUNK_DOFS = 4096
_CHUNK_SAMPLES = 8


def _chunks(n: int, d: int) -> list[tuple[int, int]]:
    """Fixed ranges of consecutive samples stepped together, for n samples of d dofs.

    Samples of at most 4096 unknowns in all are one range.  More are cut
    into an even number of near-equal ranges of at most max(8, 4096 // d)
    samples, with boundaries floor(i n / count), so that two workers split
    them evenly.  A mesh without interior dofs counts as d = 1.  The ranges
    depend on n and d only, never on the thread count.
    """
    d = max(d, 1)
    count = 1
    if n * d > _CHUNK_DOFS:
        count = math.ceil(n / max(_CHUNK_SAMPLES, _CHUNK_DOFS // d))
        count += count % 2
    bounds = [i * n // count for i in range(count + 1)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def _functional_samples(solver: TrajectorySolver, points: np.ndarray,
                        threads: int) -> np.ndarray:
    """L(u_h(t_n, y_j)) for every sample, shape (N, n_steps + 1).

    Each fixed chunk of :func:`_chunks` is stepped once and writes its own
    preallocated rows, so the results and the later reduction order are
    independent of the thread count.  The stepper never steps an ill-posed
    sample, so a bad sample spoils no other; the samples with non-finite
    values fail the run, named with :meth:`TrajectorySolver.failure_reason`.
    An error a chunk raises keeps its own code.  Points without coordinates
    (z = 0) are all the same deterministic problem: one trajectory is
    stepped and its row fills every sample.
    """
    n = points.shape[0]
    if points.shape[1] == 0 and n > 1:
        row = _functional_samples(solver, points[:1], threads)
        return np.repeat(row, n, axis=0)
    out = np.empty((n, solver.tmesh.n_steps + 1))

    def work(chunk):
        a, b = chunk
        out[a:b] = solver.functional_series(points[a:b])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, _chunks(n, solver.mass.shape[0])))
    bad = np.flatnonzero(~np.all(np.isfinite(out), axis=1))
    if bad.size:
        detail = "; ".join(f"sample {j}: {solver.failure_reason(points[j])}" for j in bad[:5])
        raise SolverError(f"{bad.size} of {n} trajectory solves failed ({detail})")
    return out


def _reduce_series(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight mean and unbiased std over the sample axis (fixed order).

    Identical rows, as a deterministic field (z = 0) gives, reduce to that
    row and a zero spread exactly; summing n copies would leave rounding in
    both.
    """
    n = values.shape[0]
    if np.all(values == values[0]):
        return values[0].copy(), np.zeros(values.shape[1])
    mean = np.sum(values, axis=0) / n
    std = np.sqrt(np.sum((values - mean) ** 2, axis=0) / (n - 1))
    return mean, std


def estimate(config: RunConfig) -> ExpectedValueSeries:
    """QMC estimate of E(L(u(t_n))) with per-level standard deviations."""
    solver = build_solver(config)
    points = sample_points(config)
    values = _functional_samples(solver, points, config.threads)
    mean, std = _reduce_series(values)
    return ExpectedValueSeries(t=solver.tmesh.t.copy(), mean=mean, std=std,
                               n_samples=points.shape[0], z=config.z)


def _rate(err_prev: float, err_cur: float, factor: float) -> float:
    if err_prev > 0.0 and err_cur > 0.0:
        return math.log(err_prev / err_cur) / math.log(factor)
    return math.nan


def _distinct(values: list, name: str) -> list:
    """The values, refused where one is listed twice: its rows or fit would repeat."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigurationError(f"{name} = {repeated[0]} is listed more than once")
    return values


def convergence_table(config: RunConfig, N_list, N_ref: int) -> list[ConvergenceRow]:
    """Errors and observed rates of the N-point estimates against an
    N_ref-point reference sharing the same mesh, time grid and truncation."""
    N_list = _distinct([int(n) for n in N_list], "sample count N")
    if not N_list or min(N_list) < 1:
        raise ConfigurationError("the sample counts N must be a nonempty list of N >= 1")
    if N_ref <= max(N_list):
        raise ConfigurationError("N_ref must exceed every entry of N_list")
    solver = build_solver(config)
    tmesh = solver.tmesh
    sizes = sorted(set(N_list + [N_ref]))
    point_sets = []
    for n in sizes:
        m = round(math.log(n) / math.log(config.b))
        if config.b ** m != n:
            raise ConfigurationError(f"N={n} is not a power of the base b={config.b}")
        point_sets.append(sample_points(config, m=m))
    # every point set in one pass, so the chunks keep all workers busy
    values = _functional_samples(solver, np.concatenate(point_sets), config.threads)
    bounds = np.cumsum([0] + sizes)
    series = {n: _reduce_series(values[a:b])[0]
              for n, a, b in zip(sizes, bounds[:-1], bounds[1:])}
    ref = series[N_ref]
    rows = []
    prev = None
    for n in sorted(N_list):
        mean = series[n]
        err_T = abs(mean[-1] - ref[-1])
        err_J = l2J_norm(mean - ref, tmesh)
        if prev is None:
            rate_T = rate_J = math.nan
        else:
            factor = n / prev.n_samples
            rate_T = _rate(prev.err_T, err_T, factor)
            rate_J = _rate(prev.err_L2J, err_J, factor)
        prev = ConvergenceRow(n_samples=n, value_T=float(mean[-1]), err_T=err_T,
                              rate_T=rate_T, err_L2J=err_J, rate_L2J=rate_J)
        rows.append(prev)
    return rows


def truncation_study(config: RunConfig, z_list, z_ref: int) -> TruncationStudy:
    """Decay of |E_{z,N,h}(T) - E_{z_ref,N,h}(T)| as the truncation grows.

    A single point set in z_ref coordinates is used throughout; smaller z
    simply drops the trailing coordinates, so the comparison isolates the
    truncation error.  z = 0, the mean field alone, has an error but no
    logarithm, so it stays out of the fitted slope.
    """
    z_list = _distinct(sorted(int(z) for z in z_list), "truncation z")
    if not z_list or z_list[0] < 0:
        raise ConfigurationError("the truncations z must be a nonempty list of z >= 0")
    if z_ref <= max(z_list):
        raise ConfigurationError("z_ref must exceed every entry of z_list")
    if z_ref > len(config.field):
        raise ConfigurationError("z_ref exceeds the field basis length")
    points = sample_points(config, z=z_ref)
    solver = build_solver(config)
    values_T = {}
    for z in z_list + [z_ref]:
        values = _functional_samples(solver, points[:, :z], config.threads)
        values_T[z] = float(_reduce_series(values)[0][-1])
    ref = values_T[z_ref]
    err = np.array([abs(values_T[z] - ref) for z in z_list])
    zs = np.array(z_list)
    fit = (err > 0) & (zs > 0)
    if np.count_nonzero(fit) >= 2:
        slope = float(np.polyfit(np.log(zs[fit]), np.log(err[fit]), 1)[0])
    else:
        slope = math.nan
    return TruncationStudy(z=zs, err_T=err, z_ref=z_ref, slope=slope)


def _interp_levels(t_fine: np.ndarray, t_coarse: np.ndarray,
                   u_coarse: np.ndarray) -> np.ndarray:
    """Piecewise-linear-in-time values of a coarse trajectory at fine levels."""
    idx = np.searchsorted(t_coarse, t_fine, side="left")
    idx = np.clip(idx, 1, t_coarse.size - 1)
    t0 = t_coarse[idx - 1]
    t1 = t_coarse[idx]
    w = np.clip((t_fine - t0) / (t1 - t0), 0.0, 1.0)
    return (1.0 - w)[:, None] * u_coarse[idx - 1] + w[:, None] * u_coarse[idx]


def spacetime_refinement_study(config: RunConfig, levels: int = 3,
                               y=None) -> RefinementStudy:
    """L2(J, Omega) errors under simultaneous halving of h and the time step.

    The deterministic trajectory (default y = 0) is solved on ``levels``
    nested structured meshes, doubling n_div and n_steps per level; the
    finest level is the reference.  Coarse solutions are prolonged exactly
    onto the fine P1 space and interpolated in time (the graded levels are
    nested under doubling), so the reported error is purely discretisation.
    """
    if config.n_div is None:
        raise ConfigurationError("the refinement study requires a structured n_div mesh")
    if levels < 2:
        raise ConfigurationError("need at least two levels")
    if y is None:
        y = np.zeros(0)
    y = np.asarray(y, dtype=float)
    n_divs = [config.n_div * 2 ** i for i in range(levels)]
    n_steps = [config.n_steps * 2 ** i for i in range(levels)]
    trajectories = []
    for nd, nt in zip(n_divs, n_steps):
        level = replace(config, n_div=nd, n_steps=nt)
        solver = build_solver(level)
        trajectories.append((level.space_mesh, solver.tmesh, solver.solve(y)))
    fine_mesh, fine_tmesh, u_ref = trajectories[-1]
    mass_fine = assemble_mass(fine_mesh)
    errors = []
    for i in range(levels - 1):
        mesh_i, tmesh_i, u_i = trajectories[i]
        in_space = np.stack([
            prolong_structured(row, n_divs[i], n_divs[-1]) for row in u_i])
        on_fine = _interp_levels(fine_tmesh.t, tmesh_i.t, in_space)
        errors.append(l2J_norm(u_ref - on_fine, fine_tmesh, mass=mass_fine))
    errors = np.array(errors)
    ratios = errors[:-1] / errors[1:] if errors.size > 1 else np.zeros(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(ratios) if ratios.size else np.zeros(0)
    return RefinementStudy(n_div=n_divs[:-1], n_steps=n_steps[:-1],
                           errors=errors, ratios=ratios, orders=orders)
