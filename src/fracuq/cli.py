"""Command-line front end.

Subcommands: mesh, points, solve, estimate, table, truncation, refine,
check.  Runs are driven by a single JSON configuration with sections
``model``, ``field``, ``space``, ``time``, ``qmc``, ``estimator`` and
``output``; repeatable ``--set section.key=value`` overrides are applied
after the file is parsed, and every config-driven run writes a
resolved-config echo file with the effective settings.

Each subcommand only computes: it returns its files, as (writer, path,
args...) calls, and its stdout lines.  ``main`` checks the files' folders,
writes the files in order and prints the lines: a failed run writes no file.

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
from functools import partial

import numpy as np

from .errors import ConfigurationError, FracUQError, UsageError
from .estimator import (RunConfig, build_solver, convergence_table, estimate,
                        spacetime_refinement_study, truncation_study)
from .fem import load_mesh, save_mesh, triangulate_unit_square
from .field import build_example_field, build_sine_table_field, verify_bounds
from .qmc import cbc_rule, load_gen_vector, save_gen_vector
from .tfrac import fast_history_kernel

__all__ = ["main", "load_config", "write_field_dump"]

DUMP_MAGIC = b"FUQF"

DEFAULT_CONFIG = {
    "model": {"alpha": 0.5, "T": 1.0},
    "field": {"type": "example", "q": 10, "sort_by_norm": False, "z": None,
              "kappa0_const": None, "kappa0_xy": 0.0, "coeffs": None},
    "space": {"n_div": 24, "mesh_path": None},
    "time": {"n_steps": 50, "gamma": None},
    "qmc": {"b": 2, "m": 5, "beta": 3, "genvec": None, "shift": "none"},
    "estimator": {"fast_history": False, "fast_eps": 1e-8, "threads": None},
    "output": {"dir": ".", "prefix": "run", "dump_fields": False,
               "gnuplot": True},
}
# a key's kind is the type of its default, or for a null default the kind
# below; these keys, and space.n_div (null beside a mesh_path), may be null
NULL_DEFAULT_KINDS = {"field.z": int, "field.kappa0_const": float, "field.coeffs": list,
                      "space.mesh_path": str, "time.gamma": float, "qmc.genvec": str,
                      "estimator.threads": int}
NULLABLE = {*NULL_DEFAULT_KINDS, "space.n_div"}


# ---------------------------------------------------------------------------
# configuration handling

def _typed(name: str, value, default):
    """``value`` of the key ``name`` (section.key) as the key's kind, or E_CONFIG.

    A bool is never a number; a number may come as a numeric string, an int
    must be whole and a float finite.
    """
    kind = NULL_DEFAULT_KINDS.get(name, type(default))
    if value is None and name in NULLABLE:
        return None
    if kind not in (int, float):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if kind is float and math.isfinite(number):
            return number
        if kind is int and number.is_integer():
            return value if isinstance(value, int) else int(number)
    raise ConfigurationError(f"{name} = {value!r} is not a valid {kind.__name__}")


def load_config(path: str, overrides=()) -> dict:
    """Parse a JSON config file, apply overrides, fill defaults and give
    every value its key's kind."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigurationError("config root must be a JSON object")
    cfg = {section: dict(defaults) for section, defaults in DEFAULT_CONFIG.items()}
    for section, sub in user.items():
        if section not in cfg:
            raise ConfigurationError(f"unknown config section {section!r}")
        if not isinstance(sub, dict):
            raise ConfigurationError(f"section {section!r} must be an object")
        for key, value in sub.items():
            if key not in cfg[section]:
                raise ConfigurationError(f"unknown key {section}.{key!r} in configuration")
            cfg[section][key] = value
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
    cfg = {section: {key: _typed(f"{section}.{key}", value, DEFAULT_CONFIG[section][key])
                     for key, value in sub.items()} for section, sub in cfg.items()}
    prefix = cfg["output"]["prefix"]
    if not prefix or {"/", os.sep} & set(prefix):
        raise ConfigurationError(f"output.prefix = {prefix!r} must be a file name, not a path")
    return cfg


def _build_field(fcfg):
    kind = fcfg["type"]
    if kind not in ("example", "sine-table"):
        raise ConfigurationError(f"unknown field type {kind!r}")
    if kind == "sine-table" and (fcfg["coeffs"] is None or fcfg["kappa0_const"] is None):
        raise ConfigurationError("sine-table field needs kappa0_const and coeffs")
    try:
        field = (build_example_field(fcfg["q"], sort_by_norm=fcfg["sort_by_norm"])
                 if kind == "example" else
                 build_sine_table_field(fcfg["kappa0_const"], fcfg["coeffs"],
                                        kappa0_xy=fcfg["kappa0_xy"]))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"field.coeffs is not a table of numbers: {exc}") from exc
    except MemoryError as exc:
        key = (f"field.q = {fcfg['q']}" if kind == "example"
               else f"field.coeffs ({len(fcfg['coeffs'])} rows)")
        raise ConfigurationError(f"the field that {key} sets does not fit in memory") from exc
    return field, (len(field) if fcfg["z"] is None else fcfg["z"])


def build_run_config(cfg: dict, threads=None) -> RunConfig:
    """The run that a config sets; `threads` (--threads), else estimator.threads, else 1."""
    field, z = _build_field(cfg["field"])
    model, steps, qmc, est = cfg["model"], cfg["time"], cfg["qmc"], cfg["estimator"]
    if threads is None:
        threads = 1 if est["threads"] is None else est["threads"]
    mesh_path, genvec = cfg["space"]["mesh_path"], qmc["genvec"]
    return RunConfig(
        alpha=model["alpha"], T=model["T"],
        n_steps=steps["n_steps"], gamma=steps["gamma"],
        field=field, z=z,
        n_div=cfg["space"]["n_div"] if mesh_path is None else None,
        mesh=None if mesh_path is None else load_mesh(mesh_path),
        b=qmc["b"], m=qmc["m"], beta=qmc["beta"],
        rule=None if genvec is None else load_gen_vector(genvec), shift=qmc["shift"],
        fast_history=est["fast_history"], fast_eps=est["fast_eps"],
        threads=threads)


def _echo_resolved(path: str, cfg: dict, run: RunConfig) -> None:
    resolved = copy.deepcopy(cfg)
    resolved["estimator"]["threads"] = run.threads
    if resolved["time"]["gamma"] is None:
        resolved["time"]["gamma"] = run.grading
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# artifact writers

def _csv_lines(header, columns) -> list[str]:
    """The header line, then one line per row of the equal-length columns:
    an integer column prints its values with ``str``, any other column with
    ``format(v, ".17g")``, which gives back the same float64 on reading."""
    cells = [[str(v) for v in column.tolist()] if column.dtype.kind in "iu"
             else [format(v, ".17g") for v in column.tolist()]
             for column in map(np.asarray, columns)]
    return [",".join(header)] + [",".join(row) for row in zip(*cells)]


def _write_csv(path, header, columns):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(_csv_lines(header, columns)) + "\n")


def write_field_dump(path: str, u: np.ndarray) -> None:
    """Binary per-level coefficient dump.

    A 16-byte header (the magic ``FUQF``, then the dof count, the level
    count and a zero as little-endian uint32) is followed by the levels x
    dofs payload as little-endian float64, level by level.
    """
    u = np.ascontiguousarray(u, dtype="<f8")
    if u.ndim != 2:
        raise ConfigurationError("field dump expects a (levels, dofs) array")
    header = DUMP_MAGIC + struct.pack("<III", u.shape[1], u.shape[0], 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(u.tobytes())


_GNUPLOT_SERIES = """\
set datafile separator ','
set key autotitle columnhead
set xlabel 't'
set ylabel 'E[L(u(t))]'
plot '{csv}' using 2:5:6 with filledcurves fc rgb '#cccccc' title '3-sigma band', \\
     '' using 2:3 with lines lw 2 title 'mean'
"""


def _emit_gnuplot(path, csv_name):
    with open(path, "w") as fh:
        fh.write(_GNUPLOT_SERIES.format(csv=csv_name))


# ---------------------------------------------------------------------------
# subcommands

def _prepare(args):
    """Load and resolve the config of a config-driven command; returns (cfg,
    run, path, files), where ``path(kind)`` names the output ``<prefix>-<kind>``
    and ``files`` holds the resolved-config echo, which makes the output
    directory; ``args`` keeps ``run`` and that directory for ``main``."""
    cfg = load_config(args.config, args.set or ())
    run = args.run = build_run_config(cfg, threads=args.threads)
    out_dir = args.out_dir = args.out or cfg["output"]["dir"]

    def path(kind):
        return os.path.join(out_dir, f"{cfg['output']['prefix']}-{kind}")
    return cfg, run, path, [(_echo_resolved, path("resolved-config.json"), cfg, run)]


def cmd_mesh(args):
    mesh = triangulate_unit_square(args.ndiv)
    return [(partial(save_mesh, mesh), args.out)], [
        f"wrote {args.out}: {mesh.n_vertices} vertices, "
        f"{mesh.n_triangles} triangles, {mesh.n_dofs} interior dofs"]


def cmd_points(args):
    files, lines = [], []
    if os.path.exists(args.genvec):
        rule = load_gen_vector(args.genvec)
        if not rule.serves(args.b, args.m, args.beta, args.z):
            raise ConfigurationError(
                f"generating vector {args.genvec} is for (b={rule.b}, m={rule.m}, "
                f"beta={rule.beta}, z={rule.z})")
    else:
        gammas = 1.0 / np.arange(1, args.z + 1, dtype=float) ** 2
        rule = cbc_rule(args.b, args.m, args.beta, args.z, gammas)
        files.append((partial(save_gen_vector, rule), args.genvec))
        lines.append(f"wrote generating vector {args.genvec}")
    pts = rule.points().values[:, : args.z]
    header = ["j"] + [f"x{c + 1}" for c in range(args.z)]
    columns = [np.arange(pts.shape[0]), *pts.T]
    if args.out:
        files.append((_write_csv, args.out, header, columns))
        lines.append(f"wrote {pts.shape[0]} points to {args.out}")
    else:
        lines += _csv_lines(header, columns)
    return files, lines


def cmd_solve(args):
    cfg, run, path, files = _prepare(args)
    if args.y:
        try:
            y = np.array([float(v) for v in args.y.split(",")])
        except ValueError as exc:
            raise UsageError("--y expects a comma-separated list of numbers") from exc
        if y.size > run.z:
            raise ConfigurationError(f"--y has {y.size} entries but z = {run.z}")
        if not np.all(np.abs(y) <= 0.5):
            raise ConfigurationError("--y entries must lie in [-1/2, 1/2]")
    else:
        y = np.zeros(0)
    solver = build_solver(run)
    u = solver.solve(y)
    values = u @ solver.phi
    files.append((_write_csv, path("trajectory.csv"), ["n", "t", "value"],
                  [np.arange(values.size), solver.tmesh.t, values]))
    lines = [f"wrote {path('trajectory.csv')}; L(u(T)) = {values[-1]:.17g}"]
    if args.dump_fields or cfg["output"]["dump_fields"]:
        dump = args.dump_fields or path("fields.bin")
        files.append((write_field_dump, dump, u))
        lines.append(f"wrote {dump}")
    return files, lines


def cmd_estimate(args):
    cfg, run, path, files = _prepare(args)
    series = estimate(run)
    mean, spread = series.mean, 3.0 * series.std
    files.append((_write_csv, path("series.csv"), ["n", "t", "mean", "std", "lo3sig", "hi3sig"],
                  [np.arange(mean.size), series.t, mean, series.std, mean - spread, mean + spread]))
    lines = [f"wrote {path('series.csv')}; N = {series.n_samples}, z = {series.z}, "
             f"E[L(u(T))] = {mean[-1]:.17g}"]
    if cfg["output"]["gnuplot"]:
        files.append((_emit_gnuplot, path("series.gp"), f"{cfg['output']['prefix']}-series.csv"))
        lines.append(f"wrote {path('series.gp')}")
    return files, lines


def _parse_int_list(text: str, label: str):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"--{label} expects a comma-separated integer list") from exc


def cmd_table(args):
    _, run, path, files = _prepare(args)
    # the table's fields are the CSV's columns, in order
    table = vars(convergence_table(run, _parse_int_list(args.N, "N"), args.Nref))
    files.append((_write_csv, path("table.csv"), list(table), list(table.values())))
    return files, [f"wrote {path('table.csv')}"] + [
        f"N={n:6d}  value(T)={value:.10f}  err(T)={err_T:.3e}"
        f"  rate={rate_T:5.3f}  errL2J={err_J:.3e}  rate={rate_J:5.3f}"
        for n, value, err_T, rate_T, err_J, rate_J in zip(*(c.tolist() for c in table.values()))]


def cmd_truncation(args):
    _, run, path, files = _prepare(args)
    study = truncation_study(run, _parse_int_list(args.z, "z"), args.zref)
    files.append((_write_csv, path("truncation.csv"), ["z", "err_T"], [study.z, study.err_T]))
    return files, [f"wrote {path('truncation.csv')}; fitted slope = {study.slope:.3f} "
                   f"(reference z = {study.z_ref})"]


def cmd_refine(args):
    _, run, path, files = _prepare(args)
    study = spacetime_refinement_study(run, levels=args.levels)
    columns = [np.arange(study.errors.size), study.n_div, study.n_steps,
               study.errors, study.ratios, study.orders]
    files.append((_write_csv, path("refine.csv"),
                  ["level", "n_div", "n_steps", "err_L2J", "ratio", "order"], columns))
    return files, [f"wrote {path('refine.csv')}"] + [
        f"level {level}: n_div={n_div:4d} n_steps={n_steps:5d} err={err:.4e} ratio={ratio:.3f}"
        for level, n_div, n_steps, err, ratio, _ in zip(*(c.tolist() for c in columns))]


def cmd_check(args):
    _, run, _, files = _prepare(args)
    mesh = run.space_mesh
    lines = [f"alpha = {run.alpha}", f"T = {run.T}", f"gamma = {run.grading}",
             f"n_steps = {run.n_steps}"]
    if run.fast_history:
        # the kernel the solver builds, so that check refuses one a run cannot build
        kernel = fast_history_kernel(run.time_mesh(), run.alpha, run.fast_eps)
        lines.append(f"exponential sum: {0 if kernel is None else kernel.nodes.size} terms")
    lines += [f"z = {run.z}",
              f"N = {run.n_samples} (b = {run.b}, m = {run.m}, beta = {run.beta})",
              f"mesh: {mesh.n_vertices} vertices, {mesh.n_dofs} interior dofs, h = {mesh.h:.6g}"]
    # the solver evaluates kappa at the vertices and edge midpoints of the
    # structured mesh, all on the (2 n_div + 1)^2 grid; for a loaded mesh,
    # 127 intervals share only the corners with the 129^2 declaring grid
    resolution = 2 * run.n_div if run.n_div is not None else 127
    report = verify_bounds(run.field, grid_resolution=resolution)
    lo, hi = run.field.declared_bounds
    return files, lines + [
        f"kappa observed range on the {resolution + 1}^2 grid: "
        f"[{report.observed_min:.6g}, {report.observed_max:.6g}]",
        f"declared bounds: [{lo:.6g}, {hi:.6g}]",
        f"bounds check: {'ok' if report.ok else 'observed range exceeds the declared bounds'}"]


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
    args = None
    try:
        args = parser.parse_args(argv)
        files, lines = args.func(args)
        made = os.path.normpath(getattr(args, "out_dir", os.curdir))   # by the echo
        for _, path, *_ in files:
            folder = os.path.dirname(path) or os.curdir
            if not os.path.isdir(folder) and os.path.normpath(folder) != made:
                raise UsageError(f"cannot write {path}: no directory {folder}")
        for write, *params in files:
            write(*params)
        print("\n".join(lines))
        sys.stdout.flush()    # a closed stdout pipe shows here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # a reader that stops early (``| head``) is no failure; with stdout on devnull
        # the interpreter's last flush reports nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, OSError) as exc:
        print(f"error[E_USAGE]: {exc}", file=sys.stderr)
        return 2
    except FracUQError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the direct history's weight matrix grows as n_steps^2, fast_history's state does not;
        # the hint waits for the run's configuration, which a failed field build never makes
        run = getattr(args, "run", None)
        what = "the command's input" if run is None else (
            f"the run (n_steps = {run.n_steps}, {run.space_mesh.n_dofs} dofs, N = {run.n_samples})")
        hint = "" if run is None else "; long histories fit with estimator.fast_history=true"
        print(f"error[E_CONFIG]: {what} does not fit in memory: {exc}{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
