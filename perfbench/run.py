"""Outside-in benchmark of the certified lab runs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sandwich_g01_scaled --seed 0 \
        --seconds 20 --trace 0

Each workload run is a fresh child process (``child.py``) that calls
``load_config`` and ``pipeline.run`` from ``PYTHONPATH=src`` with BLAS pinned
to one thread.  ``--trace 0`` repeats the run until ``--seconds`` have passed
(at least ``MIN_RUNS`` times) and reports the end-to-end metrics as medians;
``--trace 1`` makes one plain and one traced run and reports the per-layer
metrics.  Every run's answer is checked against ``reference.json``.  The last
stdout line is one JSON object; the lines before it give the environment,
the workload sizes and every metric by name with its unit.  The exit code is
0 only when every run was correct.  README.md documents the workloads,
metrics and baseline.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")

MIN_RUNS = 2
SETUP_PROBES = 2
PROBES_PER_RUN = 2
RUN_BUDGET_S = 170.0          # a benchmark invocation must end within 180 s
LAST_START_S = 30.0           # no new run with less of the budget left
PINNED_THREADS = "1"
REL_GAP_MAX = 2e-2
ORACLE_TOL = 1e-8


def same_seed(seed: int) -> int:
    return seed


# oracle-check draws its random instances from the program seed in this
# order (pipeline.run_oracle_check); the cost of the pure-Python dense route
# grows as n^2, so sum(n^2) over the instances sets the workload's size
ORACLE_INSTANCES = 50
ORACLE_DIMS = range(20, 501)
ORACLE_SIZE_TOL = 0.02


def _oracle_size(program_seed: int) -> int:
    import numpy as np

    rng = np.random.default_rng(program_seed + 12345)
    total = 0
    for _ in range(ORACLE_INSTANCES):
        n = int(rng.integers(ORACLE_DIMS.start, ORACLE_DIMS.stop))
        rng.uniform(0.02, 0.2)
        rng.random((n, n))
        rng.standard_normal((n, n))
        rng.standard_normal(n)
        total += n * n
    return total


def oracle_seed(seed: int) -> int:
    """The first program seed from ``1000 * seed`` on whose instances have
    sum(n^2) within ORACLE_SIZE_TOL of its expectation.

    Unfiltered, sum(n^2) varies by 20% (quartile spread) from seed to seed,
    which would swamp any change in speed; filtered, the seed still changes
    every instance but not the total size.
    """
    target = ORACLE_INSTANCES * sum(n * n for n in ORACLE_DIMS) / len(
        ORACLE_DIMS)
    program_seed = 1000 * seed
    while abs(_oracle_size(program_seed) / target - 1.0) > ORACLE_SIZE_TOL:
        program_seed += 1
    return program_seed


def oracle_size_drift(report: dict, program_seed: int) -> list:
    """Fail when the instances the program drew are not the ones
    ``_oracle_size`` predicts, so the seed filter cannot drift silently."""
    got = sum(c["dim"] ** 2 for c in report["oracles"]["checks"]
              if c["name"].startswith("lanczos_vs_dense_"))
    want = _oracle_size(program_seed)
    if got != want:
        return [f"oracle instances have sum(n^2) {got}, the seed filter "
                f"predicts {want}; update _oracle_size to the program's "
                "draws"]
    return []


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "sandwich_g01_scaled": {"subcommand": "sandwich",
                            "coupled_ground_calls": 5,
                            "program_seed": same_seed},
    "converge_small_scaled": {"subcommand": "converge",
                              "coupled_ground_calls": 20,
                              "program_seed": same_seed},
    "oracle": {"subcommand": "oracle-check", "coupled_ground_calls": 0,
               "program_seed": oracle_seed},
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    return env


def spawn(mode: str, subcommand: str, config: str, out: str,
          timeout: float, spans: str | None = None) -> dict:
    """Run child.py once; return its JSON result plus ``setup_s``."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--subcommand", subcommand, "--config", config, "--out", out]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["config_loaded"] - spawned
    return result


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def sig6(x: float) -> float:
    return float(f"{x:.6g}")


def check_report(subcommand: str, report: dict, ref: dict) -> list:
    """Reasons this report is wrong; empty when the answer is certified."""
    bad = []
    if report.get("pass") is not True:
        bad.append("report.pass is not true")
    if subcommand == "sandwich":
        got = {"M_dyn": report["mass_comparison"]["M_dyn"],
               "M_stat": report["mass_comparison"]["M_stat"],
               "e0": report["static_mass"]["e0"]}
        for key, value in got.items():
            if sig6(value) != ref[key]:
                bad.append(f"{key} {value!r} != reference {ref[key]!r}")
        if not report["mass_comparison"]["rel_gap"] <= REL_GAP_MAX:
            bad.append(f"rel_gap {report['mass_comparison']['rel_gap']!r}")
        verdict = report["verdict"]
        if not verdict["worst_margin"] >= -verdict["ordering_tol"]:
            bad.append(f"worst sandwich margin {verdict['worst_margin']!r}")
    elif subcommand == "converge":
        conv = report["convergence"]
        if conv["passed"] is not True:
            bad.append("convergence.passed is not true")
        rows = {row["variant"]: row for row in conv["table"]}
        if sorted(rows) != sorted(ref):
            bad.append(f"variants {sorted(rows)} != {sorted(ref)}")
        for name, row in rows.items():
            for key in ("M_dyn", "M_stat"):
                if name in ref and sig6(row[key]) != ref[name][key]:
                    bad.append(f"{name}.{key} {row[key]!r} != reference "
                               f"{ref[name][key]!r}")
            if not (row["stable"] and row["sandwich_pass"]
                    and row["mass_pass"] and row["rel_gap"] <= REL_GAP_MAX):
                bad.append(f"variant {name} not stable and passing")
    elif subcommand == "oracle-check":
        checks = report["oracles"]["checks"]
        if len(checks) != ref["n_checks"]:
            bad.append(f"{len(checks)} oracle checks, expected "
                       f"{ref['n_checks']}")
        worst = max(c["max_diff"] for c in checks)
        if not all(c["passed"] for c in checks) or not worst <= ORACLE_TOL:
            bad.append(f"oracle checks fail (worst diff {worst!r})")
    return bad


# ---------------------------------------------------------------------------
# one benchmark invocation
# ---------------------------------------------------------------------------

def seeded_config(workload: str, config_path: str, seed: int) -> str:
    with open(config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.setdefault("run", {})["seed"] = seed
    os.makedirs(os.path.join(WORK, workload), exist_ok=True)
    path = os.path.join(WORK, workload, f"config-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
    return path


class Invocation:
    """State of one ``run.py`` call on one workload."""

    def __init__(self, workload: str, seed: int, reference: dict | None,
                 config_path: str | None = None, spec: dict | None = None):
        self.workload = workload
        self.spec = spec or WORKLOADS[workload]
        self.subcommand = self.spec["subcommand"]
        self.reference = reference
        self.program_seed = self.spec["program_seed"](seed)
        self.config = seeded_config(
            workload, config_path or os.path.join(
                HERE, "workloads", f"{workload}.json"), self.program_seed)
        self.out = os.path.join(WORK, workload, "out")
        self.started = time.monotonic()
        self.lines: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def probe(self) -> dict:
        return spawn("probe", self.subcommand, self.config, self.out,
                     self.remaining())

    def one_run(self, mode: str) -> dict | None:
        """One checked workload run; None when it failed."""
        self.attempted += 1
        spans = os.path.join(WORK, self.workload, "spans.json")
        try:
            result = spawn(mode, self.subcommand, self.config, self.out,
                           self.remaining(), spans if mode == "trace" else None)
            with open(os.path.join(self.out, "report.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            bad = check_report(self.subcommand, report, self.reference)
            if self.subcommand == "oracle-check":
                bad += oracle_size_drift(report, self.program_seed)
        except (ChildFailed, OSError, KeyError, ValueError) as exc:
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failures.append(f"{mode} run {self.attempted}: "
                                 + "; ".join(bad))
            return None
        return result

    def say(self, text: str):
        self.lines.append(text)


def _metric_line(name, value, unit, note=""):
    return f"  {name:34s} {value!r:>24} {unit:6s} {note}".rstrip()


def end_to_end(inv: Invocation, seconds: float, first_setup: float) -> dict:
    setups = [first_setup] + [inv.probe()["setup_s"]
                              for _ in range(SETUP_PROBES - 1)]
    runs = []
    t0 = time.monotonic()
    while inv.attempted < MIN_RUNS or time.monotonic() - t0 < seconds:
        if inv.remaining() < LAST_START_S:
            break
        result = inv.one_run("run")
        if result is not None:
            runs.append(result)
            setups.append(result["setup_s"])
        # set-up samples spread through the invocation, not bunched at
        # its start, so a slow spell of the host weighs less on the median
        setups += [inv.probe()["setup_s"] for _ in range(PROBES_PER_RUN)]
    metrics = {}
    if runs:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in runs)
    metrics["setup_s"] = statistics.median(setups)
    inv.say(f"end-to-end ({len(runs)} correct of {inv.attempted} runs, "
            f"{len(setups)} set-up samples; medians)")
    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        if name in metrics:
            samples = ([r[name] for r in runs] if name != "setup_s"
                       else setups)
            inv.say(_metric_line(name, metrics[name], END_TO_END_UNITS[name],
                                 "samples " + " ".join(
                                     f"{v:.4g}" for v in samples)))
    fail_frac = (inv.attempted - len(runs)) / inv.attempted
    inv.say(_metric_line("fail_frac", fail_frac, "ratio"))
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def layer_metrics(trace: dict, traced_wall: float, plain_wall: float,
                  warnings_seen: int) -> dict:
    """Per-layer metrics of one traced run; `_s` values are self times."""
    calls, self_s = trace["calls"], trace["self_s"]
    counts, sums = trace["counts"], trace["sums"]

    def n(span):
        return calls.get(span, 0)

    def s(*spans):
        return sum(self_s.get(span, 0.0) for span in spans)

    requests = counts.get("fiber_requests", 0)
    solves = n("dispersion.fiber_solve")
    matvec_s = sum(v for k, v in sums.items() if k.endswith("_matvec_s"))
    self_sum = sum(self_s.values()) + matvec_s
    out = {
        "operators.template_builds": (n("operators.template"), "count"),
        "operators.template_s": (s("operators.template"), "s"),
        "operators.coupled_assembles": (n("operators.coupled_assemble"),
                                        "count"),
        "operators.coupled_assemble_s": (s("operators.coupled_assemble"), "s"),
        "operators.coupled_stored_mb": (trace["coupled_stored_mb"] or 0.0,
                                        "MB"),
        "operators.fiber_matvecs": (counts.get("fiber_matvecs", 0), "count"),
        "operators.fiber_matvec_s": (sums.get("fiber_matvec_s", 0.0), "s"),
        "operators.fiber_matvec_gflop": (
            sums.get("fiber_matvec_flop", 0.0) / 1e9, "GFLOP"),
        "operators.coupled_matvecs": (counts.get("coupled_matvecs", 0),
                                      "count"),
        "operators.coupled_matvec_s": (sums.get("coupled_matvec_s", 0.0), "s"),
        "operators.coupled_matvec_gflop": (
            sums.get("coupled_matvec_flop", 0.0) / 1e9, "GFLOP"),
        "operators.coupled_matvec_gb": (
            sums.get("coupled_matvec_bytes", 0.0) / 1e9, "GB"),
        "eigensolve.lanczos_calls": (n("eigensolve.lanczos"), "count"),
        "eigensolve.lanczos_s": (s("eigensolve.lanczos"), "s"),
        "eigensolve.lanczos_iterations": (
            counts.get("lanczos_iterations", 0), "count"),
        "eigensolve.lanczos_restarts": (counts.get("lanczos_restarts", 0),
                                        "count"),
        "eigensolve.lanczos_matvecs": (counts.get("lanczos_matvecs", 0),
                                       "count"),
        "eigensolve.pair_calls": (n("eigensolve.pair"), "count"),
        "eigensolve.davidson_calls": (n("eigensolve.davidson"), "count"),
        "eigensolve.davidson_s": (s("eigensolve.davidson"), "s"),
        "eigensolve.davidson_iterations": (
            counts.get("davidson_iterations", 0), "count"),
        "eigensolve.davidson_matvecs": (counts.get("davidson_matvecs", 0),
                                        "count"),
        "eigensolve.dense_calls": (n("eigensolve.dense"), "count"),
        "eigensolve.dense_s": (s("eigensolve.dense"), "s"),
        "eigensolve.dense_dim_sum": (counts.get("dense_dim_sum", 0), "count"),
        "dispersion.fiber_requests": (requests, "count"),
        "dispersion.fiber_solves": (solves, "count"),
        "dispersion.fiber_solve_s": (s("dispersion.fiber_solve"), "s"),
        "dispersion.fiber_reuse_ratio": (
            1.0 - solves / requests if requests else 0.0, "ratio"),
        "staticmass.coupled_ground_calls": (n("staticmass.coupled_ground"),
                                            "count"),
        "staticmass.coupled_ground_s": (s("staticmass.coupled_ground"), "s"),
        "staticmass.davidson_retries": (
            trace["davidson_in_coupled"] - n("staticmass.coupled_ground"),
            "count"),
        "staticmass.inversion_s": (
            s("staticmass.extrapolate", "staticmass.inversion",
              "staticmass.schrodinger"), "s"),
        "staticmass.schrodinger_solves": (n("staticmass.schrodinger"),
                                          "count"),
        "trialstate.ustar_calls": (n("trialstate.ustar"), "count"),
        "trialstate.ustar_s": (s("trialstate.ustar", "trialstate.evaluation"),
                               "s"),
        "trialstate.ustar_evaluations": (n("trialstate.evaluation"), "count"),
        "bounds.l1_calls": (n("bounds.l1"), "count"),
        "bounds.l1_s": (s("bounds.l1"), "s"),
        "bounds.l2_calls": (n("bounds.l2"), "count"),
        "bounds.l2_s": (s("bounds.l2"), "s"),
        "pipeline.dispersion_stage_s": (s("pipeline.dispersion_stage"), "s"),
        "pipeline.static_stage_s": (s("pipeline.static_stage"), "s"),
        "pipeline.sandwich_stage_s": (s("pipeline.sandwich_stage"), "s"),
        "pipeline.oracle_stage_s": (s("pipeline.oracle_stage"), "s"),
        "pipeline.converge_stage_s": (s("pipeline.converge_stage"), "s"),
        "pipeline.write_s": (s("pipeline.run"), "s"),
        "pipeline.accuracy_warnings": (warnings_seen, "count"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
    }
    return out


RUN_SPAN_COVER = 0.99        # share of the traced wall inside pipeline.run
SELF_SUM_RTOL = 1e-6


def accounting_problems(trace: dict, self_sum: float,
                        traced_wall: float) -> list:
    """Reasons the traced time is not accounted for exactly once.

    The one root span must be ``pipeline.run`` and cover nearly all of the
    traced wall time (else the wrappers missed the call the child timed);
    the self times plus matvec times must add up to that span (else a
    matvec ran outside every span, or time was charged twice); and no self
    time may be negative (a child charged to the wrong parent).
    """
    problems = []
    roots = trace["roots"]
    if [name for name, _ in roots] != ["pipeline.run"]:
        return [f"root spans {[name for name, _ in roots]} != "
                "['pipeline.run']"]
    run_s = roots[0][1]
    if not RUN_SPAN_COVER * traced_wall <= run_s <= traced_wall:
        problems.append(f"pipeline.run span {run_s!r} s does not cover the "
                        f"traced wall {traced_wall!r} s")
    if abs(self_sum - run_s) > SELF_SUM_RTOL * run_s:
        problems.append(f"self times sum to {self_sum!r} s, not the "
                        f"pipeline.run span's {run_s!r} s")
    if trace["min_self_s"] < -SELF_SUM_RTOL:
        problems.append(f"negative self time {trace['min_self_s']!r} s")
    return problems


def per_layer(inv: Invocation) -> dict:
    plain = inv.one_run("run")
    traced = inv.one_run("trace") if plain is not None else None
    if traced is None:
        return {}
    trace = traced["trace"]
    layers = layer_metrics(trace, traced["wall_s"], plain["wall_s"],
                           traced["accuracy_warnings"])
    # the trace must agree with what the program reports itself
    expected = inv.spec["coupled_ground_calls"]
    got = layers["staticmass.coupled_ground_calls"][0]
    problems = []
    if got != expected:
        problems.append(f"coupled_ground calls {got} != {expected}")
    if (trace["report_fiber_solves"] is not None
            and trace["dispersion_stage_solves"]
            != trace["report_fiber_solves"]):
        problems.append(f"dispersion-stage fiber solves "
                        f"{trace['dispersion_stage_solves']} != report "
                        f"{trace['report_fiber_solves']}")
    problems += accounting_problems(trace, layers["trace.self_sum_s"][0],
                                    traced["wall_s"])
    if problems:
        inv.failures.append("trace consistency: " + "; ".join(problems))
    inv.say(f"per-layer (one traced run; `_s` are self times; plain run "
            f"wall {plain['wall_s']!r} s, traced {traced['wall_s']!r} s)")
    inv.say(f"  sizes seen: max fiber dim {trace['max_fiber_dim']}, "
            f"max coupled dim {trace['max_coupled_dim']}")
    for name, (value, unit) in layers.items():
        inv.say(_metric_line(name, value, unit))
    spans = os.path.join(WORK, inv.workload, "spans.json")
    inv.say(f"  spans written to {os.path.relpath(spans, ROOT)}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in layers.items()}


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(inv: Invocation, seconds: float, trace: bool) -> dict:
    """Run one invocation; return the final result object."""
    probe = inv.probe()
    inv.say("env " + json.dumps(dict(probe["env"], commit=commit(),
                                     program_seed=inv.program_seed)))
    inv.say("sizes " + json.dumps(probe["sizes"]))
    if trace:
        metrics = per_layer(inv)
    else:
        metrics = end_to_end(inv, seconds, probe["setup_s"])
    for failure in inv.failures:
        inv.say("FAILED " + failure)
    return {"correct": not inv.failures, "attempted": inv.attempted,
            "failed": len(inv.failures), "metrics": metrics}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "polaron_effmass")):
        print(f"no lab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    inv = Invocation(args.workload, args.seed,
                     load_reference()[args.workload])
    try:
        result = measure(inv, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print("\n".join(inv.lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
