"""Command-line front end.

Subcommands: mesh, points, solve, estimate, table, truncation, refine,
check.  Runs are driven by a single JSON configuration with sections
``model``, ``field``, ``space``, ``time``, ``qmc``, ``estimator`` and
``output``; repeatable ``--set section.key=value`` overrides are applied
after the file is parsed, and every config-driven run writes a
resolved-config echo file with the effective settings.

Exit status: 0 on success, 1 on domain/configuration errors, 2 on usage
errors; all failures print a single ``error[CODE]: message`` line.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import struct
import sys

import numpy as np

from .errors import ConfigurationError, FracUQError, UsageError
from .estimator import (RunConfig, build_solver, convergence_table, estimate,
                        default_qmc_weights, sample_points,
                        spacetime_refinement_study, truncation_study)
from .fem import load_mesh, save_mesh, triangulate_unit_square
from .field import build_example_field, build_sine_table_field, verify_bounds
from .qmc import (InterlacedLatticeRule, cbc_rule, load_gen_vector,
                  save_gen_vector)

__all__ = ["main", "load_config", "write_field_dump", "read_field_dump"]

DUMP_MAGIC = b"FUQF"

DEFAULT_CONFIG = {
    "model": {"alpha": 0.5, "T": 1.0, "functional": "average"},
    "field": {"type": "example", "q": 10, "sort_by_norm": False, "z": None,
              "kappa0_const": None, "kappa0_xy": 0.0, "coeffs": None,
              "summability_p": 0.55},
    "space": {"n_div": 24, "mesh_path": None},
    "time": {"n_steps": 50, "gamma": None},
    "qmc": {"b": 2, "m": 5, "beta": 3, "genvec": None, "shift": "none"},
    "estimator": {"method": "auto", "fast_history": False, "fast_eps": 1e-8,
                  "cg_tol": 1e-10, "threads": None, "seed": 0},
    "output": {"dir": ".", "prefix": "run", "dump_fields": False,
               "gnuplot": True},
}


# ---------------------------------------------------------------------------
# configuration handling

def _merge_section(name, defaults, user):
    out = dict(defaults)
    for key, val in user.items():
        if key not in defaults:
            raise ConfigurationError(f"unknown key {name}.{key!r} in configuration")
        out[key] = val
    return out


def load_config(path: str, overrides=()) -> dict:
    """Parse a JSON config file, apply overrides, and fill defaults."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigurationError("config root must be a JSON object")
    cfg = {}
    for section, defaults in DEFAULT_CONFIG.items():
        sub = user.pop(section, {})
        if not isinstance(sub, dict):
            raise ConfigurationError(f"section {section!r} must be an object")
        cfg[section] = _merge_section(section, defaults, sub)
    if user:
        raise ConfigurationError(f"unknown config sections: {sorted(user)}")
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"override {item!r} is not of the form section.key=value")
        key, raw = item.split("=", 1)
        parts = key.split(".")
        if len(parts) != 2 or parts[0] not in cfg or parts[1] not in cfg[parts[0]]:
            raise ConfigurationError(f"unknown override key {key!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg[parts[0]][parts[1]] = value
    return cfg


def _num(cfg, section, key, kind):
    """cfg[section][key] converted by kind (int or float), or E_CONFIG."""
    raw = cfg[section][key]
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{section}.{key} = {raw!r} is not a valid {kind.__name__}") from exc


def _build_field(cfg):
    fcfg = cfg["field"]
    if fcfg["type"] == "example":
        field = build_example_field(_num(cfg, "field", "q", int),
                                    sort_by_norm=bool(fcfg["sort_by_norm"]))
    elif fcfg["type"] == "sine-table":
        if fcfg["coeffs"] is None or fcfg["kappa0_const"] is None:
            raise ConfigurationError("sine-table field needs kappa0_const and coeffs")
        try:
            field = build_sine_table_field(
                _num(cfg, "field", "kappa0_const", float), fcfg["coeffs"],
                kappa0_xy=_num(cfg, "field", "kappa0_xy", float),
                summability_p=_num(cfg, "field", "summability_p", float))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"field.coeffs is not a table of numbers: {exc}") from exc
    else:
        raise ConfigurationError(f"unknown field type {fcfg['type']!r}")
    return field, (len(field) if fcfg["z"] is None else _num(cfg, "field", "z", int))


def resolve_threads(cfg, cli_threads=None) -> int:
    if cli_threads is not None:
        return int(cli_threads)
    if cfg["estimator"]["threads"] is not None:
        return _num(cfg, "estimator", "threads", int)
    env = os.environ.get("FRACUQ_THREADS")
    try:
        return int(env) if env else 1
    except ValueError as exc:
        raise ConfigurationError(f"FRACUQ_THREADS = {env!r} is not a valid int") from exc


def build_run_config(cfg: dict, threads=None) -> RunConfig:
    field, z = _build_field(cfg)
    if cfg["model"]["functional"] != "average":
        raise ConfigurationError(f"unknown functional {cfg['model']['functional']!r}")
    space = cfg["space"]
    mesh = None
    n_div = None
    if space["mesh_path"] is not None:
        mesh = load_mesh(space["mesh_path"])
    else:
        n_div = _num(cfg, "space", "n_div", int)
    qmc = cfg["qmc"]
    rule = None
    if qmc["genvec"] is not None:
        rule = load_gen_vector(qmc["genvec"])
    est = cfg["estimator"]
    gamma = cfg["time"]["gamma"]
    return RunConfig(
        alpha=_num(cfg, "model", "alpha", float),
        T=_num(cfg, "model", "T", float),
        n_steps=_num(cfg, "time", "n_steps", int),
        gamma=None if gamma is None else _num(cfg, "time", "gamma", float),
        field=field, z=z,
        n_div=n_div, mesh=mesh,
        b=_num(cfg, "qmc", "b", int), m=_num(cfg, "qmc", "m", int),
        beta=_num(cfg, "qmc", "beta", int),
        rule=rule, shift=str(qmc["shift"]),
        method=str(est["method"]), fast_history=bool(est["fast_history"]),
        fast_eps=_num(cfg, "estimator", "fast_eps", float),
        cg_tol=_num(cfg, "estimator", "cg_tol", float),
        threads=resolve_threads(cfg, threads))


def _echo_resolved(cfg: dict, out_dir: str, threads: int) -> str:
    resolved = copy.deepcopy(cfg)
    resolved["estimator"]["threads"] = threads
    if resolved["time"]["gamma"] is None:
        resolved["time"]["gamma"] = 2.0 / float(resolved["model"]["alpha"])
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{cfg['output']['prefix']}-resolved-config.json")
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# artifact writers

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_field_dump(path: str, u: np.ndarray) -> None:
    """Binary per-level coefficient dump: 16-byte header, float64 LE payload."""
    u = np.ascontiguousarray(u, dtype="<f8")
    if u.ndim != 2:
        raise ConfigurationError("field dump expects a (levels, dofs) array")
    header = DUMP_MAGIC + struct.pack("<III", u.shape[1], u.shape[0], 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(u.tobytes())


def read_field_dump(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != DUMP_MAGIC:
            raise ConfigurationError(f"{path} is not a coefficient dump")
        d, levels, _ = struct.unpack("<III", header[4:])
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != d * levels:
        raise ConfigurationError(f"{path}: truncated payload")
    return payload.reshape(levels, d).copy()


_GNUPLOT_SERIES = """\
set datafile separator ','
set key autotitle columnhead
set xlabel 't'
set ylabel 'E[L(u(t))]'
plot '{csv}' using 2:5:6 with filledcurves fc rgb '#cccccc' title '3-sigma band', \\
     '' using 2:3 with lines lw 2 title 'mean'
"""


def _emit_gnuplot(out_dir, prefix, csv_name):
    path = os.path.join(out_dir, f"{prefix}-series.gp")
    with open(path, "w") as fh:
        fh.write(_GNUPLOT_SERIES.format(csv=csv_name))
    return path


# ---------------------------------------------------------------------------
# subcommands

def cmd_mesh(args) -> int:
    mesh = triangulate_unit_square(args.ndiv)
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles, {mesh.n_dofs} interior dofs")
    return 0


def cmd_points(args) -> int:
    if os.path.exists(args.genvec):
        rule = load_gen_vector(args.genvec)
        if (rule.b, rule.m, rule.beta) != (args.b, args.m, args.beta) or rule.z < args.z:
            raise ConfigurationError(
                f"generating vector {args.genvec} is for (b={rule.b}, m={rule.m}, "
                f"beta={rule.beta}, z={rule.z})")
    else:
        gammas = 1.0 / np.arange(1, args.z + 1, dtype=float) ** 2
        rule = cbc_rule(args.b, args.m, args.beta, args.z, gammas)
        save_gen_vector(rule, args.genvec)
        print(f"wrote generating vector {args.genvec}")
    pts = rule.points().values[:, : args.z]
    rows = [[j] + list(p) for j, p in enumerate(pts)]
    header = ["j"] + [f"x{c + 1}" for c in range(args.z)]
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"wrote {pts.shape[0]} points to {args.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.set or ())
    run = build_run_config(cfg, threads=args.threads)
    out_dir = args.out or cfg["output"]["dir"]
    prefix = cfg["output"]["prefix"]
    os.makedirs(out_dir, exist_ok=True)
    _echo_resolved(cfg, out_dir, run.threads)
    if args.y:
        try:
            y = np.array([float(v) for v in args.y.split(",")])
        except ValueError as exc:
            raise UsageError("--y expects a comma-separated list of numbers") from exc
        if y.size > run.z:
            raise ConfigurationError(f"--y has {y.size} entries but z = {run.z}")
        if np.any(np.abs(y) > 0.5):
            raise ConfigurationError("--y entries must lie in [-1/2, 1/2]")
    else:
        y = np.zeros(0)
    solver = build_solver(run)
    traj = solver.solve(y)
    values = traj.functional_series(solver.phi)
    csv_path = os.path.join(out_dir, f"{prefix}-trajectory.csv")
    rows = [(n, traj.tmesh.t[n], values[n]) for n in range(values.size)]
    _write_csv(csv_path, ["n", "t", "value"], rows)
    print(f"wrote {csv_path}; L(u(T)) = {_fmt(values[-1])}")
    if args.dump_fields or cfg["output"]["dump_fields"]:
        dump = args.dump_fields or os.path.join(out_dir, f"{prefix}-fields.bin")
        write_field_dump(dump, traj.u)
        print(f"wrote {dump}")
    return 0


def cmd_estimate(args) -> int:
    cfg = load_config(args.config, args.set or ())
    run = build_run_config(cfg, threads=args.threads)
    out_dir = args.out or cfg["output"]["dir"]
    prefix = cfg["output"]["prefix"]
    os.makedirs(out_dir, exist_ok=True)
    _echo_resolved(cfg, out_dir, run.threads)
    series = estimate(run)
    csv_name = f"{prefix}-series.csv"
    csv_path = os.path.join(out_dir, csv_name)
    rows = [(n, series.t[n], series.mean[n], series.std[n],
             series.mean[n] - 3.0 * series.std[n],
             series.mean[n] + 3.0 * series.std[n])
            for n in range(series.t.size)]
    _write_csv(csv_path, ["n", "t", "mean", "std", "lo3sig", "hi3sig"], rows)
    print(f"wrote {csv_path}; N = {series.n_samples}, z = {series.z}, "
          f"E[L(u(T))] = {_fmt(series.mean[-1])}")
    if cfg["output"]["gnuplot"]:
        print(f"wrote {_emit_gnuplot(out_dir, prefix, csv_name)}")
    return 0


def _parse_int_list(text: str, label: str):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"--{label} expects a comma-separated integer list") from exc


def cmd_table(args) -> int:
    cfg = load_config(args.config, args.set or ())
    run = build_run_config(cfg, threads=args.threads)
    out_dir = args.out or cfg["output"]["dir"]
    prefix = cfg["output"]["prefix"]
    os.makedirs(out_dir, exist_ok=True)
    _echo_resolved(cfg, out_dir, run.threads)
    n_list = _parse_int_list(args.N, "N")
    rows = convergence_table(run, n_list, args.Nref)
    csv_path = os.path.join(out_dir, f"{prefix}-table.csv")
    _write_csv(csv_path,
               ["N", "value_T", "err_T", "rate_T", "err_L2J", "rate_L2J"],
               [(r.n_samples, r.value_T, r.err_T, r.rate_T, r.err_L2J, r.rate_L2J)
                for r in rows])
    print(f"wrote {csv_path}")
    for r in rows:
        print(f"N={r.n_samples:6d}  value(T)={r.value_T:.10f}  err(T)={r.err_T:.3e}"
              f"  rate={r.rate_T:5.3f}  errL2J={r.err_L2J:.3e}  rate={r.rate_L2J:5.3f}")
    return 0


def cmd_truncation(args) -> int:
    cfg = load_config(args.config, args.set or ())
    run = build_run_config(cfg, threads=args.threads)
    out_dir = args.out or cfg["output"]["dir"]
    prefix = cfg["output"]["prefix"]
    os.makedirs(out_dir, exist_ok=True)
    _echo_resolved(cfg, out_dir, run.threads)
    z_list = _parse_int_list(args.z, "z")
    study = truncation_study(run, z_list, args.zref)
    csv_path = os.path.join(out_dir, f"{prefix}-truncation.csv")
    _write_csv(csv_path, ["z", "err_T"], list(zip(study.z, study.err_T)))
    print(f"wrote {csv_path}; fitted slope = {study.slope:.3f} "
          f"(reference z = {study.z_ref})")
    return 0


def cmd_refine(args) -> int:
    cfg = load_config(args.config, args.set or ())
    run = build_run_config(cfg, threads=args.threads)
    out_dir = args.out or cfg["output"]["dir"]
    prefix = cfg["output"]["prefix"]
    os.makedirs(out_dir, exist_ok=True)
    _echo_resolved(cfg, out_dir, run.threads)
    study = spacetime_refinement_study(run, levels=args.levels)
    csv_path = os.path.join(out_dir, f"{prefix}-refine.csv")
    rows = []
    for i, err in enumerate(study.errors):
        ratio = study.ratios[i - 1] if i >= 1 else math.nan
        order = study.orders[i - 1] if i >= 1 else math.nan
        rows.append((i, study.n_div[i], study.n_steps[i], err, ratio, order))
    _write_csv(csv_path, ["level", "n_div", "n_steps", "err_L2J", "ratio", "order"], rows)
    print(f"wrote {csv_path}")
    for row in rows:
        print(f"level {row[0]}: n_div={row[1]:4d} n_steps={row[2]:5d} "
              f"err={row[3]:.4e} ratio={row[4]:.3f}")
    return 0


def cmd_check(args) -> int:
    cfg = load_config(args.config, args.set or ())
    run = build_run_config(cfg, threads=args.threads)
    out_dir = args.out or cfg["output"]["dir"]
    _echo_resolved(cfg, out_dir, run.threads)
    mesh = run.space_mesh()
    seed = _num(cfg, "estimator", "seed", int)
    print(f"alpha = {run.alpha}")
    print(f"T = {run.T}")
    print(f"gamma = {run.gamma}")
    print(f"n_steps = {run.n_steps}")
    print(f"z = {run.z}")
    print(f"N = {run.n_samples} (b = {run.b}, m = {run.m}, beta = {run.beta})")
    print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_dofs} interior dofs, h = {mesh.h:.6g}")
    report = verify_bounds(run.field, grid_resolution=64, sample_count=8, rng_seed=seed)
    print(f"kappa observed range (seed {seed}): "
          f"[{report.observed_min:.6g}, {report.observed_max:.6g}]")
    print(f"declared bounds: [{run.field.declared_bounds[0]:.6g}, "
          f"{run.field.declared_bounds[1]:.6g}]")
    print(f"bounds check: {'ok' if report.ok else f'{len(report.violations)} violation(s)'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--config", required=True, help="JSON configuration file")
    sub.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                     help="override a configuration value")
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracuq",
                     description="QMC estimation of functionals of a "
                                 "time-fractional diffusion problem with "
                                 "random diffusivity")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mesh", help="write a structured unit-square mesh")
    p.add_argument("--ndiv", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh)

    p = subs.add_parser("points", help="generate interlaced lattice points")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta", type=int, default=3)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--genvec", required=True,
                   help="generating-vector file (built by CBC if missing)")
    p.add_argument("--out", default=None, help="points CSV (stdout if omitted)")
    p.set_defaults(func=cmd_points)

    p = subs.add_parser("solve", help="solve one trajectory (default y = 0)")
    _add_common(p)
    p.add_argument("--y", default=None, help="comma-separated parameter values")
    p.add_argument("--dump-fields", default=None,
                   help="write per-level coefficients to this binary file")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("estimate", help="QMC expected-value series")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("table", help="QMC convergence table")
    _add_common(p)
    p.add_argument("--N", required=True, help="comma-separated sample counts")
    p.add_argument("--Nref", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("truncation", help="truncation-dimension decay study")
    _add_common(p)
    p.add_argument("--z", required=True, help="comma-separated truncations")
    p.add_argument("--zref", type=int, required=True)
    p.set_defaults(func=cmd_truncation)

    p = subs.add_parser("refine", help="space-time refinement study")
    _add_common(p)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(func=cmd_refine)

    p = subs.add_parser("check", help="validate and summarise a configuration")
    _add_common(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except FracUQError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[E_USAGE]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
