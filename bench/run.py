"""fracuq benchmark: one workload, one seed, one measured run.

Usage, from the repository root:

    python3 bench/run.py --workload desk-table --seed 0 --seconds 30 --trace 0

The seed only chooses the inputs (see workloads.draw_alpha); the program
receives the generated config JSON.  Each command runs in a fresh
interpreter started by child.py, with OPENBLAS/OMP/MKL_NUM_THREADS=1 so BLAS
threads never run beside the estimator's ``--threads``.

``--trace 0`` reports the end-to-end metrics: medians over repeated runs of
the command through ``fracuq.cli.main`` with ``--threads 2`` and
``--threads 1`` (alternating which goes first) for ``--seconds`` seconds,
plus the median of several set-ups.  ``--trace 1`` is a separate run that
wraps each module's entry points (spans.py) and reports per-layer numbers
and the tracing overhead; end-to-end numbers never come from it.

Every command's CSV goes through outcheck.check_csv and must be byte-identical
to the other runs of the same seed.  A run that raises, exits non-zero or
fails the check counts in ``failed``.  The last stdout line is the JSON
result; the line before it (``detail ...``) records the seed, the config,
versions, CPU count, thread count of each timing and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from outcheck import check_csv
from spans import LAYERS, layer_metrics
from workloads import BENCH_DIR, WORKLOADS, Workload

ROOT = BENCH_DIR.parent
THREADS = 2
SETUP_REPS = 5
MIN_PAIRS = 3
RUN_LIMIT_S = 165   # children still running this long after the start are killed
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_1t_s": "s",
    "parallel_eff": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "field.build_s": "s",
    "qmc.cbc_s": "s",
    "qmc.points_s": "s",
    "qmc.rules_built": "count",
    "fem.mesh_s": "s",
    "fem.mass_s": "s",
    "fem.assemble_s": "s",
    "fem.ritz_s": "s",
    "fem.assemble_calls": "count",
    "tfrac.init_s": "s",
    "tfrac.weights_s": "s",
    "tfrac.solve_s": "s",
    "tfrac.solve_ms_p50": "ms",
    "tfrac.solves": "count",
    "tfrac.step_us": "us",
    "tfrac.factorizations": "count",
    "tfrac.history_flops": "flop",
    "estimator.busy_frac": "ratio",
    "estimator.solves": "count",
    "estimator.unique_frac": "ratio",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


class NoResult(Exception):
    """Too few runs succeeded to compute the metrics."""


class Run:
    """One workload at one seed: its working directory and measured processes."""

    def __init__(self, workload: Workload, seed: int, out_root: Path | None = None):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = (out_root or ROOT / ".benchout") / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = workload.config(seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.pinned = workload.pinned_path.read_text() if seed == 0 else None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
        self.env.pop("FRACUQ_THREADS", None)
        self.attempted = 0
        self.failures = []
        self.reference_csv = None
        self.versions = None
        self._n = 0

    def _child(self, req: dict, label: str) -> dict | None:
        """Run child.py; None (and a recorded failure) unless it succeeded."""
        self.attempted += 1
        result = self.work / f"{label}.json"
        req = dict(req, src=str(ROOT / "src"), result=str(result))
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), json.dumps(req)],
                                  cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label}: still running {RUN_LIMIT_S} s after the start")
            return None
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: exit {proc.returncode} {tail[0]}")
            return None
        out = json.loads(result.read_text())
        self.versions = self.versions or out["env"]
        return out

    def setup(self) -> list[float]:
        out = self._child({"mode": "setup", "config": str(self.config_path),
                           "reps": SETUP_REPS, "threads": THREADS}, "setup")
        return out["setup_s"] if out else []

    def command(self, threads: int, trace: bool = False) -> dict | None:
        """One checked command run; None if it failed (recorded in failures)."""
        self._n += 1
        label = f"{self._n:03d}-t{threads}" + ("-traced" if trace else "")
        out_dir = self.work / label
        req = {"mode": "cmd", "trace": trace, "out": str(out_dir),
               "spans": str(self.work / f"{label}-spans.json"),
               "run_id": f"{self.workload.name}-seed{self.seed}-{label}",
               "argv": self.workload.cli_args(str(self.config_path), str(out_dir), threads)}
        out = self._child(req, label)
        if out is None:
            return None
        problems = ([f"exit status {out['rc']}"] if out["rc"] != 0
                    else self.check(out_dir / self.workload.csv_name))
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:5]))
            return None
        if trace:
            out["trace"] = json.loads(Path(req["spans"]).read_text())
        return out

    def check(self, csv_path: Path) -> list[str]:
        try:
            data = csv_path.read_bytes()
        except OSError as exc:
            return [f"no output: {exc}"]
        problems = check_csv(data.decode(), self.workload.header, self.workload.n_rows,
                             self.pinned)
        if not problems:
            if self.reference_csv is None:
                self.reference_csv = data
            elif data != self.reference_csv:
                problems.append("CSV bytes differ from an earlier run of this seed")
        return problems


def _loop(start: float, seconds: float, min_rounds: int, body) -> None:
    """Call body(i) for min_rounds rounds, then while another round still
    fits in `seconds` counted from `start`."""
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= min_rounds and elapsed + elapsed / i > seconds:
            break
        body(i)
        i += 1


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and the samples behind them."""
    start = time.monotonic()
    setup = run.setup()
    walls = {1: [], 2: []}
    rss = []

    def pair(i):
        for threads in ((2, 1) if i % 2 == 0 else (1, 2)):
            out = run.command(threads)
            if out:
                walls[threads].append(out["wall_s"])
                if threads == THREADS:
                    rss.append(out["peak_rss_mb"])

    _loop(start, seconds, MIN_PAIRS, pair)
    if not (setup and walls[1] and walls[2]):
        raise NoResult("; ".join(run.failures))
    wall, wall_1t = statistics.median(walls[2]), statistics.median(walls[1])
    metrics = {"wall_s": wall, "wall_1t_s": wall_1t,
               "parallel_eff": wall_1t / (2.0 * wall),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(rss)}
    samples = {"wall_s": {"threads": 2, "values": walls[2]},
               "wall_1t_s": {"threads": 1, "values": walls[1]},
               "setup_s": {"threads": 1, "values": setup},
               "peak_rss_mb": {"threads": 2, "values": rss}}
    return metrics, samples


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced runs) and tracing overhead."""
    start = time.monotonic()
    plain, traced, layers = [], [], []
    labels = {}

    def cycle(i):
        for trace in ((False, True) if i % 2 == 0 else (True, False)):
            out = run.command(THREADS, trace=trace)
            if out and trace:
                traced.append(out["wall_s"])
                layers.append(layer_metrics(out["trace"], THREADS))
                labels.update(out["trace"]["labels"])
            elif out:
                plain.append(out["wall_s"])
        if i == 0:
            run.command(1)   # output must match the 2-thread bytes

    _loop(start, seconds, 1, cycle)
    if not (plain and traced):
        raise NoResult("; ".join(run.failures))
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in PER_LAYER_UNITS if name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"traced_wall_s": {"threads": 2, "values": traced},
               "untraced_wall_s": {"threads": 2, "values": plain},
               "tfrac.method": labels.get("tfrac.method")}
    return metrics, samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            out_root: Path | None = None) -> tuple[dict, dict]:
    """Measure one run; returns (result line, detail record)."""
    run = Run(workload, seed, out_root)
    if trace:
        values, samples = measure_traced(run, seconds)
        units = PER_LAYER_UNITS
    else:
        values, samples = measure(run, seconds)
        units = END_TO_END_UNITS
    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    detail = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "config": run.config,
              "failed_frac": failed / run.attempted, "failures": run.failures,
              "samples": samples,
              "env": dict(run.versions or {}, nproc=len(os.sched_getaffinity(0)),
                          cpu_count=os.cpu_count(), estimator_threads=THREADS,
                          git_commit=git_commit())}
    (run.work / "result.json").write_text(json.dumps({"result": result, "detail": detail},
                                                     indent=2))
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracuq" / "__init__.py").is_file():
        print(f"error: no fracuq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = execute(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    except NoResult as exc:
        print(f"error: no successful run to measure: {exc}", file=sys.stderr)
        return 1
    print(f"workload {detail['workload']}  seed {args.seed}  "
          f"alpha {detail['config']['model']['alpha']!r}  trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:24s} {m['value']:<14.6g} {m['unit']}")
    if args.trace:
        print(f"  {'tfrac.method':24s} {detail['samples']['tfrac.method']}")
    print(f"  {'failed_frac':24s} {detail['failed_frac']:<14.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
