"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Every test registers one summary line (criterion N PASS/FAIL) through the
session recorder in conftest; the pytest outcome and the summary line agree
by construction because the recorded verdict is asserted afterwards.
"""

import json
import math
import resource
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polaron_effmass import dispersion
from polaron_effmass.config import load_config
from polaron_effmass.dispersion import (FiberCache, fit_dynamic_mass,
                                        perturbative_mass, scan_dispersion)
from polaron_effmass.docsgen import _REPORT_DOC, trim_report
from polaron_effmass.model import (ConstantDispersion, ModelSpec,
                                   PoschlTeller, PowerLawCoupling)
from polaron_effmass.operators import ElectronGrid, FiberTemplate
from polaron_effmass.pipeline import run
from polaron_effmass.staticmass import invert_E, schrodinger_energy
from scaling import scaled_comparison_pair

POT = PoschlTeller(depth=2.0)
EGRID = ElectronGrid(dq=0.25, q_max=6.0)


def _run(subcommand, preset, out_path):
    cfg = load_config(preset)
    t0 = time.perf_counter()
    ok = run(subcommand, cfg, out_dir=str(out_path))
    elapsed = time.perf_counter() - t0
    report = json.loads((out_path / "report.json").read_text())
    return SimpleNamespace(report=report, out=Path(out_path),
                           elapsed=elapsed, ok=ok)


@pytest.fixture(scope="session")
def accept_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def free_sandwich(accept_root):
    return _run("sandwich", "free", accept_root / "free")


@pytest.fixture(scope="session")
def toy_sandwich(accept_root):
    return _run("sandwich", "toy", accept_root / "toy")


@pytest.fixture(scope="session")
def toy_sandwich_repeat(accept_root):
    return _run("sandwich", "toy", accept_root / "toy_repeat")


@pytest.fixture(scope="session")
def g01_sandwich(accept_root):
    return _run("sandwich", "powerlaw_g01", accept_root / "g01")


@pytest.fixture(scope="session")
def g03_sandwich(accept_root):
    return _run("sandwich", "powerlaw_g03", accept_root / "g03")


@pytest.fixture(scope="session")
def oracle_run(accept_root):
    return _run("oracle-check", "oracle", accept_root / "oracle")


@pytest.fixture(scope="session")
def sandwich_runs(free_sandwich, toy_sandwich, g01_sandwich, g03_sandwich):
    return {"free": free_sandwich, "toy": toy_sandwich,
            "powerlaw_g01": g01_sandwich, "powerlaw_g03": g03_sandwich}


@pytest.fixture(scope="session")
def converge_runs(accept_root):
    return {name: _run("converge", name, accept_root / f"conv_{name}")
            for name in ("free", "toy", "small")}


def _csv_rows(path, columns=None):
    """The rows of a CSV artifact, its first `columns` columns if given."""
    usecols = None if columns is None else range(columns)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=usecols)


# ---------------------------------------------------------------------------
# criterion 1: the decoupled model reproduces the bare mass, fast
# ---------------------------------------------------------------------------

def test_criterion_01_free_model_bare_mass(free_sandwich, acceptance_recorder):
    r = free_sandwich.report
    m = r["mass_comparison"]
    ok = (free_sandwich.ok and r["pass"]
          and free_sandwich.elapsed < 10.0
          and abs(m["M_dyn"] - 0.5) <= 1e-6
          and abs(m["M_stat"] - 0.5) <= 1e-5)
    acceptance_recorder(
        1, "decoupled model reproduces the bare mass",
        ok, f"|M_dyn-0.5|={abs(m['M_dyn'] - 0.5):.1e} "
            f"|M_stat-0.5|={abs(m['M_stat'] - 0.5):.1e} "
            f"in {free_sandwich.elapsed:.1f}s (limits 1e-6, 1e-5, 10s)")
    assert free_sandwich.ok and r["pass"]
    assert free_sandwich.elapsed < 10.0
    assert m["M_dyn"] == pytest.approx(0.5, abs=1e-6)
    assert m["M_stat"] == pytest.approx(0.5, abs=1e-5)


# ---------------------------------------------------------------------------
# criterion 2: dynamic/static agreement at production couplings
# ---------------------------------------------------------------------------

def test_criterion_02_mass_agreement_production(g01_sandwich, g03_sandwich,
                                                acceptance_recorder):
    gaps = {}
    ok = True
    for tag, res in (("g01", g01_sandwich), ("g03", g03_sandwich)):
        m = res.report["mass_comparison"]
        gaps[tag] = m["rel_gap"]
        ok = (ok and res.ok and res.report["pass"] and m["pass"]
              and m["rel_gap"] <= 0.02 and m["tolerance"] == 0.02
              and res.elapsed < 600.0)
    acceptance_recorder(
        2, "dynamic and static masses agree at production couplings", ok,
        f"rel_gap g01={gaps['g01']:.2e} g03={gaps['g03']:.2e} (limit 2e-2)")
    for res in (g01_sandwich, g03_sandwich):
        m = res.report["mass_comparison"]
        assert res.ok and res.report["pass"] and m["pass"]
        assert m["rel_gap"] <= 0.02
        assert res.elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 3: two-sided ordering L2 <= L1 <= e <= U* at every lambda
# ---------------------------------------------------------------------------

def test_criterion_03_sandwich_ordering(sandwich_runs, acceptance_recorder):
    tol = 1e-8
    worst = math.inf
    n_rows = 0
    ok = True
    for res in sandwich_runs.values():
        verdict = res.report["verdict"]
        ok = ok and verdict["pass"] and verdict["ordering_tol"] == tol
        for lam, l2, l1, e, u_star, _ in _csv_rows(res.out / "sandwich.csv",
                                                   columns=6):
            margins = (l1 - l2 + tol, e - l1, u_star - e + tol)
            worst = min(worst, *margins)
            n_rows += 1
            ok = ok and min(margins) >= 0.0
    acceptance_recorder(
        3, "sandwich ordering holds at every coupling scale", ok,
        f"{n_rows} rows over {len(sandwich_runs)} presets, "
        f"worst margin {worst:.2e}")
    assert ok
    assert worst >= 0.0


# ---------------------------------------------------------------------------
# criterion 4: variational ceilings dominate the scanned curve
# ---------------------------------------------------------------------------

def test_criterion_04_ceilings(sandwich_runs, acceptance_recorder):
    worst = math.inf
    ok = True
    for res in sandwich_runs.values():
        c = res.report["dispersion"]["ceilings"]
        worst = min(worst, c["one_phonon_margin"], c["parabola_margin"])
        ok = (ok and c["passed"] and c["violations"] == []
              and c["one_phonon_margin"] >= -1e-9
              and c["parabola_margin"] >= -1e-9)
    acceptance_recorder(
        4, "variational ceilings dominate every scanned energy", ok,
        f"worst ceiling margin {worst:.2e} (floor -1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: quasi-parabolic certificate holds on an independent re-sweep
# ---------------------------------------------------------------------------

def test_criterion_05_certificate_resweep(sandwich_runs, acceptance_recorder):
    slack = 1e-9
    worst = math.inf
    ok = True
    for res in sandwich_runs.values():
        d = res.report["dispersion"]
        c_min = d["certificate"]["C_min"]
        mass = d["mass_fit"]["M_dyn"]
        ok = ok and math.isfinite(c_min) and c_min >= 0.0
        rows = _csv_rows(res.out / "dispersion.csv")
        P, E = rows[:, 0], rows[:, 1]
        lhs = E - d["E0"]
        rhs = P**2 / (2.0 * mass * (1.0 + c_min * P**2))
        margin = float(np.min(lhs - rhs))
        worst = min(worst, margin)
        ok = ok and margin >= -slack
    acceptance_recorder(
        5, "quasi-parabolic certificate survives an independent re-sweep",
        ok, f"worst re-sweep margin {worst:.2e} (slack 1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: frame-equivalence and solver oracles
# ---------------------------------------------------------------------------

def test_criterion_06_oracle_suite(oracle_run, acceptance_recorder):
    o = oracle_run.report["oracles"]
    diffs = [c["max_diff"] for c in o["checks"]]
    ok = (oracle_run.ok and o["passed"] and o["tolerance"] == 1e-8
          and len(o["checks"]) == 52
          and max(diffs) <= 1e-8
          and all(c["passed"] for c in o["checks"])
          and o["worst_random_diff"] <= 1e-8)
    acceptance_recorder(
        6, "frame and solver oracles agree", ok,
        f"{len(o['checks'])} checks, worst diff {max(diffs):.2e} "
        f"(limit 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: weak-coupling limit approaches the perturbative mass
# ---------------------------------------------------------------------------

def test_criterion_07_perturbative_window(acceptance_recorder, monkeypatch):
    monkeypatch.setattr(dispersion, "_FIBER_TOL", 1e-11)
    P_list = np.round(np.arange(-0.45, 0.4501, 0.05), 10)
    deltas = {}
    for g in (0.1, 0.05):
        spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                         coupling=PowerLawCoupling(g=g, s=1.0),
                         dk=0.25, uv_cutoff=1.5, ir_cutoff=0.125, n_max=3)
        template = FiberTemplate(spec)
        cache = FiberCache(template, seed=0)
        curve = scan_dispersion(cache, P_list)
        fit = fit_dynamic_mass(curve.nodes.P, curve.nodes.energy - curve.e0)
        m_pt = perturbative_mass(template, P_list, P_fit=fit.window)
        deltas[g] = abs(fit.mass - m_pt)
    factor = deltas[0.1] / deltas[0.05]
    # the residual is quartic in g, so halving g should shrink it ~16x
    ok = 10.0 <= factor <= 24.0 and deltas[0.05] < deltas[0.1] < 1e-3
    acceptance_recorder(
        7, "mass defect shrinks quartically toward the perturbative value",
        ok, f"shrink factor {factor:.1f} for g 0.1 -> 0.05 (window [10, 24])")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: the static-mass chain against the closed-form well
# ---------------------------------------------------------------------------

def test_criterion_08_static_chain(acceptance_recorder):
    ref = schrodinger_energy(0.5, POT, EGRID)
    ok = abs(ref + 1.0) <= 1e-4

    masses = (0.5, 0.75, 1.0, 1.5)
    curve = [schrodinger_energy(m, POT, EGRID) for m in masses]
    ok = ok and all(a - b > 1e-6 for a, b in zip(curve, curve[1:]))

    worst_scaling = 0.0
    for lam in (0.4, 0.2, 0.1):
        left, right = scaled_comparison_pair(0.5, POT, lam, EGRID)
        worst_scaling = max(worst_scaling, abs(left - right) / abs(right))
    ok = ok and worst_scaling <= 1e-8

    worst_invert = 0.0
    for mass in (0.8, 1.3, 2.5):
        target = schrodinger_energy(mass, POT, EGRID)
        back = invert_E(target, POT, EGRID)
        worst_invert = max(worst_invert, abs(back - mass) / mass)
    ok = ok and worst_invert <= 1e-5

    acceptance_recorder(
        8, "comparison-energy chain matches the closed-form well", ok,
        f"E(1/2)={ref:.6f} (target -1 +- 1e-4), scaling err "
        f"{worst_scaling:.1e}, inversion err {worst_invert:.1e}")
    assert abs(ref + 1.0) <= 1e-4
    assert worst_scaling <= 1e-8
    assert worst_invert <= 1e-5
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: verdicts are stable under truncation changes
# ---------------------------------------------------------------------------

def test_criterion_09_truncation_stability(converge_runs,
                                           acceptance_recorder):
    ok = True
    n_variants = 0
    for name, res in converge_runs.items():
        conv = res.report["convergence"]
        ok = ok and res.ok and conv["passed"]
        labels = {row["variant"] for row in conv["table"]}
        ok = ok and {"base", "n_max+1", "dk/2"} <= labels
        for row in conv["table"]:
            n_variants += 1
            ok = ok and row["stable"] and row["sandwich_pass"] \
                and row["mass_pass"] and row["ceilings_pass"]
    acceptance_recorder(
        9, "verdicts stable under n_max +- 1 and halved mode spacing", ok,
        f"{n_variants} truncation variants over {len(converge_runs)} models")
    assert ok


def test_converge_base_row_is_the_sandwich_run(converge_runs, toy_sandwich):
    # converge runs each variant through the sandwich chain, so its base
    # truncation reads exactly the numbers and verdicts of the sandwich run
    base, = [row for row in converge_runs["toy"].report["convergence"]["table"]
             if row["variant"] == "base"]
    mass = toy_sandwich.report["mass_comparison"]
    for key in ("M_dyn", "M_stat", "rel_gap"):
        assert base[key] == mass[key], key
    assert base["mass_pass"] == mass["pass"]
    assert base["sandwich_pass"] == toy_sandwich.report["verdict"]["pass"]


# ---------------------------------------------------------------------------
# criterion 10: identical runs produce byte-identical artifacts
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(toy_sandwich, toy_sandwich_repeat,
                                  acceptance_recorder):
    names = ("dispersion.csv", "staticmass.csv", "trialstate.csv",
             "sandwich.csv")
    same = {n: (toy_sandwich.out / n).read_bytes()
            == (toy_sandwich_repeat.out / n).read_bytes() for n in names}
    r1 = dict(toy_sandwich.report)
    r2 = dict(toy_sandwich_repeat.report)
    for key in ("timings_seconds", "peak_rss_mb"):
        r1.pop(key, None)
        r2.pop(key, None)
    ok = all(same.values()) and r1 == r2
    acceptance_recorder(
        10, "repeated runs are byte-identical", ok,
        f"{sum(same.values())}/{len(names)} CSVs identical, "
        f"reports match: {r1 == r2}")
    assert same == {n: True for n in names}
    assert r1 == r2


# ---------------------------------------------------------------------------
# the docs fixtures are the code's output, not a stale copy
# ---------------------------------------------------------------------------

DOCS_FIXTURES = Path(__file__).resolve().parents[1] / "docs" / "fixtures"


@pytest.mark.parametrize("preset,run_fixture", [
    ("free", "free_sandwich"), ("toy", "toy_sandwich"),
    ("oracle", "oracle_run")])
def test_docs_fixture_matches_the_session_run(preset, run_fixture, request):
    fresh = trim_report(request.getfixturevalue(run_fixture).report, preset)
    frozen = json.loads((DOCS_FIXTURES / f"{preset}.json").read_text())
    assert {k: v for k, v in fresh.items() if k != "metrics"} \
        == {k: v for k, v in frozen.items() if k != "metrics"}
    assert sorted(fresh["metrics"]) == sorted(frozen["metrics"])
    for name, value in frozen["metrics"].items():
        assert fresh["metrics"][name] == value, name


# ---------------------------------------------------------------------------
# the report keys and their documentation stay in step
# ---------------------------------------------------------------------------

def _written_keys(report, documented):
    """Each top-level key with a row of its own, else each `block.key`."""
    keys = set()
    for top, value in report.items():
        if top in documented or not isinstance(value, dict):
            keys.add(top)
        else:
            keys |= {f"{top}.{key}" for key in value}
    return keys


def test_report_keys_match_their_docs(free_sandwich, toy_sandwich,
                                      oracle_run, converge_runs):
    documented = {key.strip("`") for key, _ in _REPORT_DOC}
    runs = [free_sandwich, toy_sandwich, oracle_run, *converge_runs.values()]
    written = set().union(*(_written_keys(r.report, documented)
                            for r in runs))
    assert sorted(written - documented) == []
    assert sorted(documented - written) == []


# ---------------------------------------------------------------------------
# the Galerkin bound, the Temple enclosure and peak memory in the report
# ---------------------------------------------------------------------------

def _csv_column(path, name):
    """One column of a CSV artifact as strings, by its header name."""
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(name)
    return [line.split(",")[i] for line in lines[1:]]


@pytest.mark.parametrize("run_fixture", ["free_sandwich", "toy_sandwich",
                                         "g01_sandwich", "g03_sandwich"])
def test_the_report_certifies_e_below_the_galerkin_bound(run_fixture,
                                                         request):
    res = request.getfixturevalue(run_fixture)
    report, tol = res.report, res.report["verdict"]["ordering_tol"]
    e = report["static_mass"]["e_values"]
    upper = report["upper_bound"]
    enclosure = report["enclosure"]
    assert upper["e_below_galerkin"] and upper["galerkin_below_U_star"]
    assert enclosure["L_T_below_U_G"] and enclosure["L_T_below_U_star"]
    for lam, e_val, u_g, u_star, row in zip(
            upper["lambda_seq"], e, upper["galerkin"], upper["U_star"],
            enclosure["rows"]):
        assert e_val <= u_g + tol and u_g <= u_star + tol
        assert row["lam"] == lam
        if lam <= 0.2:
            assert row["L_T"] is not None, row["note"]
        if row["L_T"] is None:
            assert row["note"] and row["width"] is None
            continue
        assert row["note"] == enclosure["premise"]
        assert row["L_T"] <= e_val
        assert row["width"] == e_val - row["L_T"]
        assert row["width"] <= enclosure["target_width"] * max(1.0, abs(e_val))
    # the CSVs carry the same floors and Galerkin bounds
    temple = [("" if row["L_T"] is None else repr(row["L_T"]))
              for row in enclosure["rows"]]
    for name in ("staticmass.csv", "sandwich.csv"):
        got = _csv_column(res.out / name, "L_T")
        assert [g if g == "" else repr(float(g)) for g in got] == temple
    assert [float(x) for x in _csv_column(res.out / "trialstate.csv",
                                          "U_G")] == upper["galerkin"]
    # peak memory, measured as the benchmark harness measures it
    assert 0.0 < report["peak_rss_mb"] <= resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
