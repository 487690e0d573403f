"""End-to-end acceptance checks.

Each test prints one `criterion NN: PASS/FAIL` line (visible with
``pytest -s`` or in captured output) and then asserts.  The paper-scale
reference reproduction (criterion 2) takes several minutes and is skipped
unless the environment variable FRACUQ_PAPER_SCALE=1 is set.
"""

import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fracuq.cli import main
from fracuq.errors import ConfigurationError
from fracuq.estimator import (RunConfig, estimate, example_initial_gradient,
                              spacetime_refinement_study, truncation_study)
from fracuq.fem import (StiffnessAssembler, assemble_mass, load_vector,
                        triangulate_unit_square)
from fracuq.field import build_example_field
from fracuq.qmc import (GFPoly, PointSet, cbc_construct, classical_points,
                        default_modulus, interlace)
from fracuq.tfrac import (TrajectorySolver, graded_mesh, l2J_norm,
                          weight_matrix)
from oracles import figure_of_merit, g_uniform, history_weights, ritz_projection

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def report(num, ok, detail=""):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# criteria 1 and 11 share one pair of desk-scale convergence-table runs

DESK_CONFIG = {
    "model": {"alpha": 0.5, "T": 1.0},
    "field": {"type": "example", "q": 10},
    "space": {"n_div": 24},
    "time": {"n_steps": 50, "gamma": 4.0},
    "qmc": {"m": 9, "beta": 3},
}


def read_table_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return rows


@pytest.fixture(scope="session")
def desk_tables(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    cfg = dict(DESK_CONFIG)
    cfg["output"] = {"prefix": "desk"}
    cfg_path = base / "desk.json"
    cfg_path.write_text(json.dumps(cfg))
    paths = {}
    for threads in (8, 1):
        out = str(base / f"threads{threads}")
        code = main(["table", "--config", str(cfg_path), "--N", "16,32,64,128",
                     "--Nref", "512", "--threads", str(threads), "--out", out])
        assert code == 0
        paths[threads] = os.path.join(out, "desk-table.csv")
    return paths


def test_criterion_01_qmc_rates(desk_tables):
    rows = read_table_csv(desk_tables[8])
    rates = []
    for row in rows[1:]:
        rates.append(("N=" + row["N"], float(row["rate_T"]), float(row["rate_L2J"])))
    ok = all(1.6 <= r <= 2.4 and 1.6 <= rj <= 2.4 for _, r, rj in rates)
    detail = "; ".join(f"{n}: rate_T={r:.3f} rate_L2J={rj:.3f}"
                       for n, r, rj in rates)
    report(1, ok, detail)


def test_criterion_02_reference_value_paper_scale():
    if os.environ.get("FRACUQ_PAPER_SCALE") != "1":
        print("criterion  2: SKIP  (set FRACUQ_PAPER_SCALE=1 for the "
              "minutes-scale reference run)", flush=True)
        pytest.skip("paper-scale run disabled")
    field = build_example_field(22)
    cfg = RunConfig(alpha=0.5, n_steps=150, field=field, z=253, m=9,
                    gamma=4.0, n_div=53, beta=3, threads=8)
    series = estimate(cfg)
    value = float(series.mean[-1])
    # agreement to three significant digits: the value must round to 0.257
    ok = f"{value:.3g}" == f"{0.2573:.3g}"
    report(2, ok, f"E(T) = {value:.7f} (reference 0.2573 to 3 digits)")


def test_criterion_03_spacetime_order():
    # error of each level is measured against that level with (n_div, n_steps)
    # doubled twice; halving h and tau together must shrink it ~4x
    field = build_example_field(10)
    errors = []
    for level in range(3):
        cfg = RunConfig(alpha=0.5, n_steps=6 * 2 ** level, field=field, z=55,
                        m=0, gamma=4.0, n_div=6 * 2 ** level, beta=3)
        study = spacetime_refinement_study(cfg, levels=3, y=np.zeros(55))
        errors.append(study.errors[0])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    ok = bool(np.all((ratios >= 3.2) & (ratios <= 4.8)))
    report(3, ok, "error ratios per (h, tau) halving: "
           + ", ".join(f"{r:.2f}" for r in ratios))


def crank_nicolson_trajectory(mesh, field, y, tau, n_steps, f, grad_g):
    """Independent Crank-Nicolson Galerkin reference solver."""
    M = assemble_mass(mesh)
    asm = StiffnessAssembler(mesh, field, grad_g)
    D = asm.matrix(y)
    u = ritz_projection(mesh, field, y, grad_g, assembler=asm)
    out = [u]
    lu = spla.splu((M / tau + 0.5 * D).tocsc())
    for n in range(1, n_steps + 1):
        rhs = load_vector(mesh, f, (n - 1) * tau, n * tau) - D @ u
        u = u + lu.solve(rhs)
        out.append(u)
    return np.array(out)


def test_criterion_04_crank_nicolson_degeneration():
    alpha = 1.0 - 1e-6
    field = build_example_field(10)
    mesh = triangulate_unit_square(16)
    tmesh = graded_mesh(1.0, 40, 1.0)
    rng = np.random.default_rng(4)
    y = rng.uniform(-0.5, 0.5, size=55)
    solver = TrajectorySolver(mesh, field, tmesh, alpha, 1.0, example_initial_gradient)
    u = solver.solve(y)
    ref = crank_nicolson_trajectory(mesh, field, y, tmesh.dt[0], 40, 1.0,
                                    example_initial_gradient)
    mass = assemble_mass(mesh)
    rel = l2J_norm(u - ref, tmesh, mass=mass) / l2J_norm(ref, tmesh, mass=mass)
    report(4, rel <= 1e-4, f"relative L2(J,Omega) deviation = {rel:.3e}")


def quadrature_weight(tmesh, alpha, n, j, digits=30):
    """w_nj from the defining double integral, inner layer analytic, outer
    layer by adaptive tanh-sinh quadrature in ``digits``-digit arithmetic
    (the kernel has an algebraic endpoint singularity for j close to n).

    The outer variable runs over [0, 1] and the integrand is divided by
    tau_n tau_j, so the quadrature's absolute tolerance is one relative to
    w_nj even where tau_n tau_j is tiny.  The inner layer cancels to about
    tau_j / (t_n - t_{j-1}), at worst n_steps^-gamma: steep gradings need
    about gamma log10(n_steps) more digits.
    """
    t = tmesh.t
    with mpmath.workdps(digits):
        a = 1 - mpmath.mpf(alpha)
        g2 = mpmath.gamma(2 - mpmath.mpf(alpha))
        tj0, tj1 = mpmath.mpf(t[j - 1]), mpmath.mpf(t[j])
        tn0, tn1 = mpmath.mpf(t[n - 1]), mpmath.mpf(t[n])

        def inner(u):
            tt = tn0 + (tn1 - tn0) * u
            hi = (tt - tj0) ** a
            lo = (tt - tj1) ** a if tt > tj1 else mpmath.mpf(0)
            return (hi - lo) / (g2 * (tj1 - tj0))

        return float(mpmath.quad(inner, [0, 1]))


def test_criterion_05_weight_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    positive = True
    for _ in range(50):
        alpha = rng.uniform(0.05, 0.95)
        gamma = rng.uniform(1.0, 6.0)
        nt = int(rng.integers(2, 21))
        tmesh = graded_mesh(float(rng.uniform(0.5, 2.0)), nt, gamma)
        positive &= all(np.all(history_weights(tmesh, alpha, n) > 0)
                        for n in range(1, nt + 1))
        for n in {nt, int(rng.integers(1, nt + 1))}:
            row = history_weights(tmesh, alpha, n)
            for j in range(1, n + 1):
                oracle = quadrature_weight(tmesh, alpha, n, j)
                worst = max(worst, abs(row[j - 1] - oracle) / abs(oracle))
    ok = positive and worst <= 1e-9
    report(5, ok, f"worst relative deviation = {worst:.3e}, all weights positive")


@pytest.mark.parametrize("alpha", [0.05, 0.95])
@pytest.mark.parametrize("gamma", [1.5, 4.0, 6.0])
def test_weight_oracle_at_run_sizes(alpha, gamma):
    """Criterion 5's oracle and tolerance at the step counts runs use.

    For each level n, j runs over the ends of the range and both sides of
    the switch from the four-term formula (near) to the quadrature of the
    single integral (far, base_lo >= 2 dt_j).
    """
    tmesh = graded_mesh(1.0, 400, gamma)
    t, dt = tmesh.t, tmesh.dt
    worst = 0.0
    for n in (50, 150, 400):
        j = np.arange(1, n)
        far = j[t[n - 1] - t[j] >= 2.0 * dt[j - 1]]
        assert far.size and far[-1] < n - 1, "both sides of the switch must be present"
        last_far = int(far[-1])
        row = history_weights(tmesh, alpha, n)
        for jj in {1, last_far // 2, last_far, last_far + 1, n - 1, n}:
            oracle = quadrature_weight(tmesh, alpha, n, jj)
            worst = max(worst, abs(row[jj - 1] - oracle) / abs(oracle))
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"


def largest_grading(n_steps):
    """The largest gamma that check_time_grid accepts at T = 1."""
    return -0.5 * math.log(sys.float_info.min) / math.log(n_steps)


@pytest.mark.parametrize("alpha, gamma, n_steps",
                         [(a, 2.0 / a, n) for a in (0.025, 0.05, 0.1) for n in (50, 400)]
                         + [(a, largest_grading(n), n) for a in (0.011, 0.95) for n in (50, 400)])
def test_weight_oracle_at_steep_gradings(alpha, gamma, n_steps):
    """Criterion 5's tolerance at the default gradings 2/alpha of small
    alpha and at the largest grading accepted.

    The pairs are the first levels, whose step ratios grow like 2^gamma,
    and both sides of the near/far switch of the last level.  The oracle
    of a pair works in 30 + log10((t_n - t_{j-1}) / tau_j) digits, the
    digits its inner layer cancels (at 30 digits it gives 39.5 for the
    pair (3, 1) at gamma 80, whose weight is 280.7).  A grading the time
    grid refuses must be refused by the mesh as well.
    """
    if gamma > largest_grading(n_steps):
        with pytest.raises(ConfigurationError, match="time.gamma"):
            graded_mesh(1.0, n_steps, gamma)
        return
    tmesh = graded_mesh(1.0, n_steps, gamma)
    t, dt = tmesh.t, tmesh.dt
    j = np.arange(1, n_steps)
    last_far = int(j[t[-2] - t[j] >= 2.0 * dt[j - 1]][-1])
    pairs = {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)}
    pairs |= {(n_steps, jj) for jj in (last_far, last_far + 1, n_steps - 1, n_steps)}
    W = weight_matrix(tmesh, alpha)
    worst = 0.0
    for n, jj in pairs:
        digits = int(30 + math.log10((t[n] - t[jj - 1]) / dt[jj - 1]))
        oracle = quadrature_weight(tmesh, alpha, n, jj, digits)
        worst = max(worst, abs(W[n, jj] - oracle) / oracle)
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"


def test_largest_grading_is_the_time_grid_limit():
    for n_steps in (2, 50, 400):
        gamma = largest_grading(n_steps)
        tau_1 = graded_mesh(1.0, n_steps, gamma * (1.0 - 1e-12)).dt[0]
        assert tau_1 ** 2 >= sys.float_info.min
        with pytest.raises(ConfigurationError, match="time.gamma"):
            graded_mesh(1.0, n_steps, gamma * (1.0 + 1e-9))


@pytest.mark.parametrize("alpha", [0.05, 0.95])
@pytest.mark.parametrize("gamma", [1.5, 4.0, 6.0])
def test_weight_matrix_oracle_at_run_sizes(alpha, gamma):
    """Criterion 5's oracle and tolerance on the W the stepper uses.

    The pairs are those of test_weight_oracle_at_run_sizes, plus, for each
    bin of the far pairs' ratio tau_j / base_lo (upper edges 1e-4 to 0.5,
    a spread over the far pairs' whole range), the pair of the 400-step
    mesh with the largest ratio in the bin.
    """
    tmesh = graded_mesh(1.0, 400, gamma)
    t, dt = tmesh.t, tmesh.dt
    W = weight_matrix(tmesh, alpha)
    pairs = set()
    for n in (50, 150, 400):
        j = np.arange(1, n)
        last_far = int(j[t[n - 1] - t[j] >= 2.0 * dt[j - 1]][-1])
        pairs |= {(n, jj) for jj in (1, last_far // 2, last_far, last_far + 1, n - 1, n)}
    n, j = np.tril_indices(401, -1)
    n, j = n[j >= 1], j[j >= 1]
    base_lo = t[n - 1] - t[j]
    far = base_lo >= 2.0 * dt[j - 1]
    n, j, ratio = n[far], j[far], dt[j[far] - 1] / base_lo[far]
    rule = np.searchsorted([1e-4, 1e-3, 1e-2, 5e-2, 0.15, 0.5], ratio)
    for r in np.unique(rule):
        worst_pair = np.flatnonzero(rule == r)[np.argmax(ratio[rule == r])]
        pairs.add((int(n[worst_pair]), int(j[worst_pair])))
    assert np.unique(rule).size >= 4, "the far pairs must span several bins"
    worst = 0.0
    for nn, jj in sorted(pairs):
        oracle = quadrature_weight(tmesh, alpha, nn, jj)
        worst = max(worst, abs(W[nn, jj] - oracle) / abs(oracle))
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"


def test_criterion_06_uniform_mesh_identity():
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        tmesh = graded_mesh(1.0, 30, 1.0)
        wnn = history_weights(tmesh, alpha, 1)[0]
        for n in (2, 17, 30):
            row = history_weights(tmesh, alpha, n)
            ref = wnn * g_uniform(n - np.arange(1, n + 1), alpha)
            worst = max(worst, float(np.max(np.abs(row - ref) / np.abs(ref))))
    report(6, worst <= 1e-12, f"worst relative deviation = {worst:.3e}")


def test_criterion_07_point_set_properties():
    grid_ok = True
    for m in range(1, 5):
        n = 2 ** m
        p = default_modulus(2, m)
        for g_int in range(1, n):
            ps = classical_points(2, m, 1, p, [GFPoly.from_int(g_int, 2)])
            grid_ok &= sorted(ps.values[:, 0]) == [k / n for k in range(n)]
    inject_ok = True
    for beta, m in itertools.product((2, 3), (1, 2, 3)):
        tuples = list(itertools.product(range(2 ** m), repeat=beta))
        raw = PointSet(np.array(tuples, dtype=np.int64), 2, m)
        out = interlace(raw, beta)
        inject_ok &= len(set(out.mantissas[:, 0].tolist())) == len(tuples)
    from fracuq.qmc import cbc_rule
    rule = cbc_rule(2, 5, 3, 4, [2.0 ** -j for j in range(4)])
    pts = rule.points().values
    mean_ok = float(np.sum(np.ones(pts.shape[0])) / pts.shape[0]) == 1.0
    ok = grid_ok and inject_ok and mean_ok
    report(7, ok, f"columns are full grids: {grid_ok}; interlacing injective: "
           f"{inject_ok}; mean of 1 is exactly 1: {mean_ok}")


def test_criterion_08_cbc_oracle():
    worst = 0.0
    for m in (2, 4, 6):
        b = 2
        gammas = [1.0, 0.4, 0.16]
        beta = 3
        p = default_modulus(b, m)
        gen = cbc_construct(b, m, 3, beta, gammas)
        prefix = []
        for c in range(3):
            best = min(figure_of_merit(b, m, beta, p,
                                       prefix + [GFPoly.from_int(v, b)], gammas)
                       for v in range(1, b ** m))
            got = figure_of_merit(b, m, beta, p, prefix + [gen[c]], gammas)
            worst = max(worst, abs(got - best) / best)
            prefix.append(gen[c])
    report(8, worst <= 1e-10, f"worst CBC-vs-exhaustive merit gap = {worst:.3e}")


def test_criterion_09_truncation_decay():
    field = build_example_field(10)
    cfg = RunConfig(alpha=0.5, n_steps=32, field=field, z=55, m=7,
                    gamma=4.0, n_div=16, beta=3, threads=8)
    study = truncation_study(cfg, [3, 6, 10, 15, 21, 28], 55)
    ok = study.slope <= -0.7
    report(9, ok, f"log-log truncation slope = {study.slope:.3f} "
           f"(target <= -1.0 +/- 0.3)")


def test_criterion_10_fast_history():
    field = build_example_field(6)
    mesh = triangulate_unit_square(8)
    tmesh = graded_mesh(1.0, 400, 4.0)
    args = (mesh, field, tmesh, 0.5, 1.0, example_initial_gradient)
    y = np.full(len(field), 0.25)
    t0 = time.perf_counter()
    direct = TrajectorySolver(*args).functional_series(y)
    t_direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = TrajectorySolver(*args, fast_history=True,
                            fast_eps=1e-8).functional_series(y)
    t_fast = time.perf_counter() - t0
    rel = float(abs(fast[-1] - direct[-1]) / abs(direct[-1]))
    speedup = t_direct / t_fast
    report(10, rel <= 1e-7,
           f"relative final-value deviation = {rel:.3e}; "
           f"speedup at N_t=400 = {speedup:.2f}x (informational)")


def test_criterion_11_thread_determinism(desk_tables):
    one = Path(desk_tables[1]).read_bytes()
    eight = Path(desk_tables[8]).read_bytes()
    ok = one == eight
    report(11, ok, f"table CSV bytes identical across 1 and 8 threads: {ok}")
