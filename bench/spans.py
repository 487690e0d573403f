"""Spans around the calls into each fracuq module, for the traced run.

:func:`install` replaces public functions at the name each caller looks
them up under (``estimator`` imports ``cbc_rule`` by name, so the wrapper
goes into ``fracuq.estimator``, not ``fracuq.qmc``).  Spans are kept in
memory as (id, name, start, end, parent) and written out once the command
has finished; :func:`layer_metrics` turns a written trace into the
per-layer numbers.  A span's layer is the prefix of its name.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("field", "qmc", "fem", "tfrac", "estimator", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self.labels = {}
        self.y_digests = set()
        self._ids = itertools.count(1)
        self._main_stack = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span was caused by whatever the main
            # thread has open: it blocks in the executor until the work ends.
            caller = stack or self._main_stack
            parent = caller[-1][0] if caller else None
            sid = next(self._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
        return traced

    def count_inside(self, name: str, inside: str, fn):
        """Count calls of fn made while the thread's innermost span is `inside`."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._innermost() == inside:
                self.count(name)
            return fn(*args, **kwargs)
        return counted

    def document(self) -> dict:
        return {"run_id": self.run_id, "counts": dict(self.counts),
                "labels": dict(self.labels), "unique_y": len(self.y_digests),
                "spans": [list(s) for s in sorted(self.spans)]}


def install(tracer: Tracer) -> None:
    """Wrap fracuq's public entry points for the rest of this process."""
    import numpy as np
    import scipy.sparse.linalg as spla

    from fracuq import cli, estimator, fem, qmc, tfrac

    targets = [
        (cli, "load_config", "cli.config"),
        (cli, "build_run_config", "cli.config"),
        (cli, "_echo_resolved", "cli.write"),
        (cli, "_write_csv", "cli.write"),
        (cli, "_emit_gnuplot", "cli.write"),
        (cli, "build_example_field", "field.build"),
        (cli, "estimate", "estimator.estimate"),
        (cli, "convergence_table", "estimator.convergence_table"),
        (estimator, "build_solver", "estimator.build_solver"),
        (estimator, "cbc_rule", "qmc.cbc"),
        (qmc.InterlacedLatticeRule, "centered_points", "qmc.points"),
        (estimator, "triangulate_unit_square", "fem.mesh"),
        (tfrac, "assemble_mass", "fem.mass"),
        (tfrac, "load_vector", "fem.load"),
        (tfrac, "phi_integrals", "fem.phi"),
        (fem.StiffnessAssembler, "__init__", "fem.assembler"),
        (fem.StiffnessAssembler, "matrix", "fem.assemble"),
        (fem.StiffnessAssembler, "ritz_rhs", "fem.ritz"),
        (tfrac, "weight_matrix", "tfrac.weights"),
        (tfrac.TrajectorySolver, "solve", "tfrac.solve"),
    ]
    for owner, attr, name in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    solver_init = tfrac.TrajectorySolver.__init__

    def init(solver, *args, **kwargs):
        solver_init(solver, *args, **kwargs)
        tracer.labels.update({"tfrac.method": solver.method,
                              "d": solver.mass.shape[0],
                              "n_steps": solver.tmesh.n_steps})

    tfrac.TrajectorySolver.__init__ = tracer.wrap("tfrac.init", init)

    series = tfrac.TrajectorySolver.functional_series

    def functional_series(solver, y):
        tracer.count("estimator.solves")
        tracer.y_digests.add(np.asarray(y, dtype=float).tobytes())
        return series(solver, y)

    tfrac.TrajectorySolver.functional_series = functional_series
    for attr in ("spsolve", "splu"):
        setattr(spla, attr, tracer.count_inside("tfrac.factorizations", "tfrac.solve",
                                                getattr(spla, attr)))


def union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(doc: dict, threads: int) -> dict:
    """Per-layer numbers from one written trace (values only; units live in run.py)."""
    spans = [tuple(s) for s in doc["spans"]]
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_time = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    by_name = defaultdict(list)
    for sid, name, start, end, _ in spans:
        inner = [(max(a, start), min(b, end)) for a, b in children[sid]]
        self_time[name] += (end - start) - union_length(inner)
        total[name] += end - start
        calls[name] += 1
        by_name[name].append((start, end))
    counts, labels = doc["counts"], doc["labels"]

    solves = calls["tfrac.solve"]
    solve_s = total["tfrac.solve"]
    n_steps = labels.get("n_steps", 0)
    d = labels.get("d", 0)
    est_solves = counts.get("estimator.solves", 0)
    solve_union = union_length(by_name["tfrac.solve"])
    out = {
        "field.build_s": total["field.build"],
        "qmc.cbc_s": total["qmc.cbc"],
        "qmc.points_s": total["qmc.points"],
        "qmc.rules_built": calls["qmc.cbc"],
        "fem.mesh_s": total["fem.mesh"],
        "fem.mass_s": total["fem.mass"],
        "fem.assemble_s": total["fem.assemble"],
        "fem.ritz_s": total["fem.ritz"],
        "fem.assemble_calls": calls["fem.assemble"],
        "tfrac.init_s": total["tfrac.init"],
        "tfrac.weights_s": total["tfrac.weights"],
        "tfrac.solve_s": solve_s,
        "tfrac.solve_ms_p50": (1e3 * statistics.median(b - a for a, b in by_name["tfrac.solve"])
                               if solves else 0.0),
        "tfrac.solves": solves,
        "tfrac.step_us": 1e6 * solve_s / (solves * n_steps) if solves else 0.0,
        "tfrac.factorizations": counts.get("tfrac.factorizations", 0),
        # computed, not measured: the direct history sum W[n, 1:n] @ mv[:n-1]
        # is 2 d (n - 1) flops at level n
        "tfrac.history_flops": solves * d * n_steps * (n_steps - 1),
        "estimator.busy_frac": solve_s / (threads * solve_union) if solve_union else 0.0,
        "estimator.solves": est_solves,
        "estimator.unique_frac": doc["unique_y"] / est_solves if est_solves else 0.0,
        "cli.config_s": self_time["cli.config"],
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": doc["bytes_written"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_time.items()
                                     if k.startswith(layer + "."))
    return out
