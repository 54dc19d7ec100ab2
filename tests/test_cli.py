"""Command-line interface: exit codes, overrides, artifacts, console script."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polaron_effmass import bounds, dispersion, pipeline, staticmass
from polaron_effmass.cli import main
from polaron_effmass.config import load_config
from polaron_effmass.errors import ConfigError, SolverError

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write_config(tmp_path, data):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def test_validate_preset_ok(capsys):
    assert main(["validate", "--config", "free"]) == 0
    out = capsys.readouterr().out
    assert "validation OK" in out


def test_validate_warns_that_too_few_momenta_serve_oracle_check_only(capsys):
    # the oracle preset scans P = 0 alone: valid, but no mass can be fitted
    assert main(["validate", "--config", "oracle"]) == 0
    out = capsys.readouterr().out
    assert ("warning: run.P_list has 0 nonzero momenta, fewer than the 4 the "
            "dynamic-mass fit needs" in out)
    assert "serves oracle-check only" in out


def test_repeated_lambda_values_count_once(tmp_path, capsys, monkeypatch):
    # four entries but three distinct values: validate warns, and the static
    # stage refuses the config before it solves anything
    data = json.loads(Path(REPO_ROOT, "src", "polaron_effmass", "presets",
                           "toy.json").read_text())
    data["run"]["lambda_seq"] = [0.4, 0.4, 0.2, 0.1]
    path = _write_config(tmp_path, data)
    assert main(["validate", "--config", path]) == 0
    assert ("warning: fewer than 4 distinct lambda values"
            in capsys.readouterr().out)
    solves = []
    monkeypatch.setattr(pipeline, "coupled_ground",
                        lambda *args, **kwargs: solves.append(args))
    code = main(["staticmass", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "needs >= 4 distinct values" in capsys.readouterr().err
    assert solves == []


def test_unknown_subcommand_creates_no_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="unknown subcommand 'bogus'"):
        pipeline.run("bogus", load_config("toy"), out_dir=str(out))
    assert not out.exists()


def test_validate_reports_errors(tmp_path, capsys):
    data = json.loads(Path(REPO_ROOT, "src", "polaron_effmass", "presets",
                           "toy.json").read_text())
    data["run"]["P_list"] = [-0.2, 0.2]
    assert main(["validate", "--config", _write_config(tmp_path, data)]) == 2
    out = capsys.readouterr().out
    assert "error: run.P_list must contain P = 0" in out
    assert "validation FAILED" in out


def test_validate_rejects_dimension_two(tmp_path, capsys):
    data = json.loads(Path(REPO_ROOT, "src", "polaron_effmass", "presets",
                           "toy.json").read_text())
    data["model"]["dimension"] = 2
    assert main(["validate", "--config", _write_config(tmp_path, data)]) == 2
    assert "'model.dimension'" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["validate", "dispersion"])
def test_over_capacity_config_exits_2(tmp_path, capsys, subcommand):
    # Fock dimension C(24 + 12, 12) = 1,251,677,700 > BASIS_CAPACITY
    data = json.loads(Path(REPO_ROOT, "src", "polaron_effmass", "presets",
                           "small.json").read_text())
    data["model"]["n_max"] = 12
    data["model"]["mode_grid"]["uv_cutoff"] = 6.0
    argv = [subcommand, "--config", _write_config(tmp_path, data)]
    if subcommand == "dispersion":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    if subcommand == "validate":
        assert ("error: truncated Fock dimension 1251677700 exceeds capacity"
                in captured.out)
        assert "validation FAILED" in captured.out
    else:
        assert "configuration error:" in captured.err
        assert "1251677700 exceeds capacity" in captured.err
    assert "analysis failure" not in captured.err


def test_unknown_config_path_exits_2(capsys):
    assert main(["validate", "--config", "/nope/missing.json"]) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_schema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {}}', encoding="utf-8")
    assert main(["dispersion", "--config", str(path)]) == 2
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["validate", "sandwich"])
def test_non_numeric_list_entry_exits_2(tmp_path, capsys, subcommand):
    data = json.loads(Path(REPO_ROOT, "src", "polaron_effmass", "presets",
                           "toy.json").read_text())
    data["run"]["lambda_seq"][1] = "a"
    args = [subcommand, "--config", _write_config(tmp_path, data)]
    if subcommand != "validate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert ("configuration error: config key 'run.lambda_seq[1]' must be a "
            "number" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_list_entry_exits_2(tmp_path, capsys, literal):
    data = json.loads(Path(REPO_ROOT, "src", "polaron_effmass", "presets",
                           "toy.json").read_text())
    data["run"]["lambda_seq"][1] = float(literal.lower().replace("infinity",
                                                                 "inf"))
    path = _write_config(tmp_path, data)
    assert literal in Path(path).read_text(encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sandwich", "--config", path, "--out", str(out)]) == 2
    assert ("configuration error: config key 'run.lambda_seq[1]' must be "
            "finite" in capsys.readouterr().err)
    assert not out.exists()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# run subcommands
# ---------------------------------------------------------------------------

def test_dispersion_run_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["dispersion", "--config", "free", "--out", out,
                 "--seed", "123"])
    assert code == 0
    assert "dispersion: PASS" in capsys.readouterr().out
    report = json.loads(Path(out, "report.json").read_text())
    assert report["subcommand"] == "dispersion"
    assert report["pass"] is True
    assert report["seed"] == 123
    assert len(report["config_sha256"]) == 64
    assert Path(out, "dispersion.csv").exists()


@pytest.mark.parametrize("subcommand", ["dispersion", "staticmass",
                                        "sandwich", "converge"])
def test_too_few_momenta_for_the_mass_fit_exits_1(tmp_path, capsys,
                                                  subcommand):
    # the oracle preset scans P = 0 alone: no sample to fit a mass to
    code = main([subcommand, "--config", "oracle", "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "analysis failure: need >= 4 nonzero samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand, preset", [("sandwich", "toy"),
                                                ("converge", "free")])
def test_fiber_telemetry_counts_every_fiber_solve(tmp_path, monkeypatch,
                                                  subcommand, preset):
    # the static stage solves most fibers after the scan's counts are
    # written, in batches, and converge solves them again for every variant;
    # every result of every batch counts its own work
    pairs = []

    def recording(*args, **kwargs):
        batch = true_lowest_two(*args, **kwargs)
        pairs.extend(batch)
        return batch

    true_lowest_two = dispersion.lowest_two
    monkeypatch.setattr(dispersion, "lowest_two", recording)
    out = str(tmp_path / "out")
    assert main([subcommand, "--config", preset, "--out", out]) == 0
    report = json.loads(Path(out, "report.json").read_text())
    assert report["telemetry"]["fiber"] == {
        "solves": len(pairs),
        "iterations": sum(p.iterations for p in pairs),
        "matvecs": sum(p.matvecs for p in pairs),
        "restarts": sum(p.restarts for p in pairs)}
    if subcommand == "sandwich":
        assert report["dispersion"]["fiber_solves"] < len(pairs)


def test_converge_fails_on_any_failed_chain_verdict(monkeypatch):
    # an L_T above U_G fails the chain's enclosure check, which none of the
    # converge table's verdict columns reads
    real = pipeline.coupled_ground

    def temple_above_upper(*args, **kwargs):
        res = real(*args, **kwargs)
        res.temple = res.upper + 1.0
        return res

    monkeypatch.setattr(pipeline, "coupled_ground", temple_above_upper)
    cfg = load_config("toy")
    _, _, chained = pipeline._chain(cfg, "sandwich", {})
    assert not chained
    passed, block, _ = pipeline.run_converge(cfg)
    assert not passed and not block["convergence"]["passed"]


def test_unreachable_tolerance_exits_3(tmp_path, capsys, monkeypatch):
    # a coupled solve that never reaches its tolerance gives up after its
    # one attempt
    calls = []

    def stalled(op, **kwargs):
        calls.append(kwargs)
        raise SolverError("stalled", best_value=0.0, best_residual=1.0)

    monkeypatch.setattr(staticmass, "davidson_ground", stalled)
    code = main(["staticmass", "--config", "toy",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "solver failure:" in capsys.readouterr().err
    attempt, = calls
    # it starts from the unit Galerkin vector Z y0, with the coarse
    # correction
    assert np.linalg.norm(attempt["start"]()) == pytest.approx(1.0)
    assert callable(attempt["correction"])


def test_unverified_floor_exits_3(tmp_path, capsys, monkeypatch):
    # a dense eigenvalue 1e-6 too high cannot be verified as a floor of L1
    true_ground = bounds.dense_ground
    monkeypatch.setattr(bounds, "dense_ground",
                        lambda A: true_ground(A) + 1e-6)
    code = main(["sandwich", "--config", "free",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "positive definite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# docs-tables subcommand
# ---------------------------------------------------------------------------

def test_docs_tables_in_sync(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["docs-tables"]) == 0
    assert "in sync" in capsys.readouterr().out


def test_docs_tables_drift_exits_1(tmp_path, capsys):
    docs = tmp_path / "docs"
    shutil.copytree(REPO_ROOT / "docs", docs)
    ref = docs / "reference.md"
    ref.write_text(ref.read_text().replace("`run.electron_grid.dq`",
                                           "`run.electron_grid.dq_old`"))
    assert main(["docs-tables", "--docs-dir", str(docs)]) == 1
    assert "analysis failure:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# declared console script
# ---------------------------------------------------------------------------

def _console_script_command():
    """Command that starts the ``polaron-effmass`` console script.

    An installed script on PATH is run as it is.  From a checkout with no
    install, the ``[project.scripts]`` target is read from pyproject.toml and
    run with the current interpreter, as the wrapper pip generates would; a
    wrong target then fails the same way an installed script would.
    """
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    exe = shutil.which("polaron-effmass")
    if exe:
        return [exe], env
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["polaron-effmass"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], env


def test_console_script_validate():
    cmd, env = _console_script_command()
    proc = subprocess.run(cmd + ["validate", "--config", "free"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "validation OK" in proc.stdout
