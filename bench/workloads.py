"""Benchmark workloads and the seeded input generator.

Each workload is one ``fracuq`` command on one problem.  The program only
ever sees the config JSON written by :meth:`Workload.config` plus the
command-line arguments of :meth:`Workload.cli_args`; everything not set
here keeps the CLI default (in particular no ``estimator.method`` and no
``fast_history``, so the workloads survive removal of those options).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PINNED_DIR = BENCH_DIR / "pinned"

GAMMA = 4.0
ALPHA_SEED0 = 0.5
ALPHA_RANGE = (0.4, 0.6)

SERIES_HEADER = ["n", "t", "mean", "std", "lo3sig", "hi3sig"]
TABLE_HEADER = ["N", "value_T", "err_T", "rate_T", "err_L2J", "rate_L2J"]


def draw_alpha(seed: int) -> float:
    """Seed 0 is the paper's alpha = 1/2; any other seed draws from ALPHA_RANGE."""
    if seed == 0:
        return ALPHA_SEED0
    return random.Random(seed).uniform(*ALPHA_RANGE)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "estimate" or "table"
    q: int                  # example field: z = q (q + 1) / 2
    n_div: int
    n_steps: int
    m: int | None = None    # estimate: N = 2^m samples (None keeps the default)
    table_N: tuple = ()
    table_Nref: int = 0

    @property
    def csv_name(self) -> str:
        kind = "table" if self.command == "table" else "series"
        return f"{self.name}-{kind}.csv"

    @property
    def header(self) -> list[str]:
        return TABLE_HEADER if self.command == "table" else SERIES_HEADER

    @property
    def n_rows(self) -> int:
        return len(self.table_N) if self.command == "table" else self.n_steps + 1

    @property
    def pinned_path(self) -> Path:
        """Seed-0 output of the reference commit; seed-0 runs must match it."""
        return PINNED_DIR / f"{self.name}.csv"

    def config(self, seed: int) -> dict:
        qmc = {"beta": 3}
        if self.m is not None:
            qmc["m"] = self.m
        return {
            "model": {"alpha": draw_alpha(seed)},
            "field": {"type": "example", "q": self.q},
            "space": {"n_div": self.n_div},
            "time": {"n_steps": self.n_steps, "gamma": GAMMA},
            "qmc": qmc,
            "output": {"prefix": self.name},
        }

    def cli_args(self, config_path: str, out_dir: str, threads: int) -> list[str]:
        args = [self.command, "--config", config_path, "--threads", str(threads),
                "--out", out_dir]
        if self.command == "table":
            args += ["--N", ",".join(str(n) for n in self.table_N),
                     "--Nref", str(self.table_Nref)]
        return args


# Why each workload is here (BENCHMARK.json carries the same one-liners):
#   desk-table:   the paper's QMC convergence experiment; per-step LU
#                 refactorization dominates, and it is the only workload that
#                 builds several rules and solves separate point sets per N.
#   paper-scale:  criterion-2 shape with the largest d and z; the only one
#                 where set-up, per-sample assembly and memory matter.
#   long-history: tiny linear algebra, 400 steps; per-step Python overhead,
#                 the O(n_steps^2) history sum and the GIL dominate.
# Mesh, time grid and field are those of the problems named; only the sample
# counts N are cut, so that at least three pairs of 2- and 1-thread commands
# fit into one 42 s run.
WORKLOADS = {
    w.name: w for w in (
        Workload("desk-table", "table", q=10, n_div=24, n_steps=50,
                 table_N=(8, 16), table_Nref=32),
        Workload("paper-scale", "estimate", q=22, n_div=53, n_steps=150, m=1),
        Workload("long-history", "estimate", q=6, n_div=8, n_steps=400, m=4),
    )
}
