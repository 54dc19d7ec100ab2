"""Fast self-test of the benchmark harness on the toy preset.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_harness.py

It drives the timed and the traced path end to end on ``sandwich`` with the
``toy`` preset (about a second per run) and checks that every metric named
in BENCHMARK.json comes out with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

TOY_CONFIG = os.path.join(run.ROOT, "src", "polaron_effmass", "presets",
                          "toy.json")
TOY = {"subcommand": "sandwich", "coupled_ground_calls": 5,
       "program_seed": run.same_seed}
# the toy headlines of docs/fixtures/toy.json
TOY_REFERENCE = {"M_dyn": 0.52051, "M_stat": 0.520477, "e0": -1.01335}


def _declared(kind: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _toy(reference=TOY_REFERENCE) -> run.Invocation:
    return run.Invocation("toy", 0, reference, config_path=TOY_CONFIG,
                          spec=TOY)


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_timed_path_reports_every_end_to_end_metric():
    inv = _toy()
    result = run.measure(inv, seconds=0, trace=False)
    assert result["correct"], inv.lines
    assert result["attempted"] == run.MIN_RUNS and result["failed"] == 0
    assert _units(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(inv.lines)
    assert "fail_frac" in text and '"L3"' in text and "coupled_dim" in text


def test_traced_path_reports_every_per_layer_metric():
    inv = _toy()
    result = run.measure(inv, seconds=0, trace=True)
    assert result["correct"], inv.lines
    assert _units(result) == _declared("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["staticmass.coupled_ground_calls"] == 5
    assert values["eigensolve.pair_calls"] == values["dispersion.fiber_solves"]
    assert values["trace.self_sum_s"] <= values["trace.wall_s"]
    assert values["dispersion.fiber_requests"] >= values[
        "dispersion.fiber_solves"]
    assert os.path.exists(os.path.join(run.WORK, "toy", "spans.json"))


def test_wrong_headline_fails_the_run():
    inv = _toy(dict(TOY_REFERENCE, M_stat=0.52))
    result = run.measure(inv, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_RUNS
    assert "wall_s" not in result["metrics"]


@pytest.mark.parametrize("subcommand,report,reference", [
    ("converge",
     {"pass": True, "convergence": {"passed": True, "table": [
         {"variant": "base", "M_dyn": 0.5, "M_stat": 0.5, "rel_gap": 0.0,
          "stable": False, "sandwich_pass": True, "mass_pass": True}]}},
     {"base": {"M_dyn": 0.5, "M_stat": 0.5}}),
    ("oracle-check",
     {"pass": True, "oracles": {"checks": [
         {"name": "a", "dim": 3, "max_diff": 2e-8, "passed": True}]}},
     {"n_checks": 1}),
    ("oracle-check",
     {"pass": True, "oracles": {"checks": [
         {"name": "a", "dim": 3, "max_diff": 0.0, "passed": True}]}},
     {"n_checks": 52}),
])
def test_gate_rejects(subcommand, report, reference):
    assert run.check_report(subcommand, report, reference)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("roots,self_sum,min_self", [
    ([], 1.0, 0.0),                                   # pipeline.run unwrapped
    ([("pipeline.run", 0.5)], 0.5, 0.0),              # wall not covered
    ([("pipeline.run", 1.0)], 1.2, 0.0),              # time outside spans
    ([("pipeline.run", 1.0)], 1.0, -0.1),             # negative self time
])
def test_accounting_rejects(roots, self_sum, min_self):
    trace = {"roots": roots, "min_self_s": min_self}
    assert run.accounting_problems(trace, self_sum, traced_wall=1.0)


def test_accounting_accepts_exact_split():
    trace = {"roots": [("pipeline.run", 0.999)], "min_self_s": 0.0}
    assert run.accounting_problems(trace, 0.999, traced_wall=1.0) == []


def test_oracle_size_drift_is_caught():
    report = {"oracles": {"checks": [
        {"name": "frame_no_potential", "dim": 45},
        {"name": "lanczos_vs_dense_00", "dim": 20}]}}
    assert run.oracle_size_drift(report, program_seed=0)
