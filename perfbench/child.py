"""One lab run in a fresh process, timed from outside the package.

Run by ``run.py`` with ``PYTHONPATH=src`` and BLAS pinned to one thread::

    python3 perfbench/child.py --mode run --subcommand sandwich \
        --config CONFIG.json --out OUT_DIR [--spans SPANS.json]

``--mode probe`` stops once the config is loaded (a set-up sample) and
reports the environment and the workload's sizes; ``--mode run`` times
``pipeline.run``; ``--mode trace`` does the same with every layer wrapped by
:class:`tracer.Tracer`.  The last stdout line is one JSON object.  The
``config_loaded`` stamp is ``time.monotonic()``, a clock shared by all
processes of the machine, so the parent can subtract its spawn stamp.
"""

import argparse
import json
import os
import resource
import sys
import time
import warnings

from polaron_effmass import pipeline
from polaron_effmass.config import load_config


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    """Machine, library and thread settings this child ran under."""
    import importlib.util
    import platform

    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        kind = _read(f"{base}/index{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/index{index}/size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def sizes(cfg, subcommand: str) -> dict:
    """Fiber and coupled dims and the *computed* CSR size of the coupled
    operator (kron of the grid kernel with I_F plus one interaction block
    per grid point, float64 values and int32 indices)."""
    from polaron_effmass.operators import FiberTemplate

    specs = [cfg.spec]
    if subcommand == "converge":
        specs = [s for _, s in pipeline._variant_specs(cfg.spec)]
    fiber_dim = coupled_dim = 0
    csr_mb = 0.0
    for spec in specs:
        template = FiberTemplate(spec)
        n_q = cfg.egrid.size
        dim = n_q * template.dim
        nnz = n_q * template.interaction.nnz + n_q * n_q * template.dim
        fiber_dim = max(fiber_dim, template.dim)
        coupled_dim = max(coupled_dim, dim)
        csr_mb = max(csr_mb, (12 * nnz + 4 * (dim + 1) + 8 * dim) / 1e6)
    if subcommand == "oracle-check":
        return {"fiber_dim": fiber_dim, "coupled_dim": 0,
                "coupled_csr_mb_computed": 0.0}
    return {"fiber_dim": fiber_dim, "coupled_dim": coupled_dim,
            "coupled_csr_mb_computed": round(csr_mb, 3)}


def trace_summary(tracer, report: dict) -> dict:
    out = tracer.summary()
    out["dispersion_stage_solves"] = tracer.under(
        "dispersion.fiber_solve", "pipeline.dispersion_stage")
    out["davidson_in_coupled"] = tracer.under(
        "eigensolve.davidson", "staticmass.coupled_ground")
    out["max_fiber_dim"] = tracer.max_attr("eigensolve.pair", "dim")
    out["max_coupled_dim"] = tracer.max_attr("operators.coupled_assemble",
                                             "dim")
    out["coupled_stored_mb"] = tracer.max_attr("operators.coupled_assemble",
                                               "stored_mb")
    out["report_fiber_solves"] = report.get("dispersion", {}).get(
        "fiber_solves")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("probe", "run", "trace"),
                        required=True)
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    result = {"config_loaded": time.monotonic()}
    if args.mode == "probe":
        result["env"] = environment()
        result["sizes"] = sizes(cfg, args.subcommand)
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer().install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w0, c0 = time.perf_counter(), time.process_time()
        passed = pipeline.run(args.subcommand, cfg, out_dir=args.out)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    result.update({
        "passed": passed,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "accuracy_warnings": sum(
            1 for w in caught if w.category.__name__ == "AccuracyWarning"),
    })
    if tracer is not None:
        with open(os.path.join(args.out, "report.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        result["trace"] = trace_summary(tracer, report)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
