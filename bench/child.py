"""One measured process of the benchmark (started by run.py, never by hand).

Usage: python3 child.py '<request JSON>'

Every timing is taken in a fresh interpreter after numpy, scipy and fracuq
are imported.  Modes:

``setup``  time load_config, build_run_config, RunConfig.qmc_rule,
           sample_points and build_solver together, ``reps`` times.
``cmd``    time one ``fracuq.cli.main(argv)`` call; with ``trace`` the
           module entry points are wrapped first and the spans are written
           to ``spans`` when the command has finished.

The result (timings, peak RSS of this process, versions) goes to the JSON
file named by ``result``.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def run_setup(req: dict, cli, estimator) -> dict:
    times = []
    for _ in range(req["reps"]):
        t0 = time.perf_counter()
        cfg = cli.load_config(req["config"])
        run = cli.build_run_config(cfg, threads=req["threads"])
        run.qmc_rule()
        estimator.sample_points(run)
        estimator.build_solver(run)
        times.append(time.perf_counter() - t0)
    return {"setup_s": times}


def run_cmd(req: dict, cli) -> dict:
    main = cli.main
    tracer = None
    if req["trace"]:
        import spans
        tracer = spans.Tracer(req["run_id"])
        spans.install(tracer)
        main = tracer.wrap("cli.main", main)
    t0 = time.perf_counter()
    rc = main(req["argv"])
    wall = time.perf_counter() - t0
    if tracer is not None:
        doc = tracer.document()
        doc["bytes_written"] = sum(p.stat().st_size for p in Path(req["out"]).iterdir())
        Path(req["spans"]).write_text(json.dumps(doc))
    return {"rc": rc, "wall_s": wall}


def main() -> int:
    req = json.loads(sys.argv[1])
    import numpy
    import scipy

    import fracuq
    from fracuq import cli, estimator

    src = Path(req["src"]).resolve()
    if src not in Path(fracuq.__file__).resolve().parents:
        print(f"fracuq imported from {fracuq.__file__}, not from {src}", file=sys.stderr)
        return 3
    if req["mode"] == "setup":
        result = run_setup(req, cli, estimator)
    else:
        result = run_cmd(req, cli)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "fracuq": fracuq.__version__,
                     "blas_threads": {k: os.environ.get(k) for k in
                                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}}
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
