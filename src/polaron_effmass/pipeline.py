"""Experiment stages: dispersion scan, static-mass chain, sandwich, oracles.

Each stage is a pure function from a validated config (plus upstream stage
state) to a JSON-ready report block and CSV rows; :func:`run` dispatches a
subcommand, times the stages, folds their verdicts, and writes every
artifact in one final sequential pass.

Determinism contract: identical config + seed produce byte-identical CSV
files.  Everything runs in one thread: each fiber solve depends only on its
momentum and the seed, each coupled lam solve starts from that lam's fibers
alone (not from its neighbor's result), and all floats are printed through
one fixed format.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .bounds import (C_BETA, ORDERING_TOL, SandwichRow, momentum_lower_bound,
                     sandwich_report, split_lower_bound, suggest_c_eps)
from .config import ExperimentConfig
from .dispersion import (FiberCache, certify_quasi_parabolic, check_ceilings,
                         estimate_Pc, fit_dynamic_mass, perturbative_mass,
                         scan_dispersion)
from .eigensolve import dense_ground, dense_spectrum, ground_state
from .errors import AccuracyWarning, ConfigError
from .model import TAIL_TOL, ModelSpec, fourier_tail_fraction
from .operators import (FiberTemplate, assemble_direct_tensor,
                        assemble_llp_ring)
from .staticmass import (coupled_ground, extrapolate_static_mass,
                         _fit_quadratic_in_lambda)
from .trialstate import minimize_upper_bound

__all__ = ["run", "stage_dispersion", "stage_static", "stage_sandwich",
           "run_oracle_check", "run_converge", "write_csv", "FMT",
           "CSV_HEADERS"]

FMT = "%.17g"

# Largest relative gap |M_dyn - M_stat| / M_dyn at which the masses agree.
MASS_REL_TOL = 0.02

# one source of truth for artifact columns (docsgen renders this table)
CSV_HEADERS = {
    "dispersion.csv": "P,E,gap,residual",
    "staticmass.csv": "lambda,e_lambda,lower_bound,upper_bound,residual",
    "trialstate.csv": "lambda,f_params,U_lambda",
    "sandwich.csv": "lambda,L2,L1,e,U_star,margin_min",
    "oracle.csv": "check,dim,max_diff,passed",
    "converge.csv": "variant,n_max,dk,M_dyn,M_stat,rel_gap,sandwich_pass,"
                    "mass_pass",
}


def _fmt(x) -> str:
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return FMT % x
    return str(x)


def write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

@dataclass
class DispersionState:
    cache: FiberCache
    curve: object
    p_c: float
    fit: object
    certificate: object


def stage_dispersion(cfg: ExperimentConfig) -> tuple:
    """Scan E(P), fit the dynamic mass, certify the curve."""
    if not cfg.P_list:
        raise ConfigError("run.P_list is required for this subcommand")
    template = FiberTemplate(cfg.spec)
    cache = FiberCache(template, seed=cfg.seed)
    curve = scan_dispersion(cache, cfg.P_list)
    p_c = estimate_Pc(curve)
    fit = fit_dynamic_mass(curve, P_c=p_c)
    cert = certify_quasi_parabolic(curve, fit.mass)
    ceilings = check_ceilings(curve, template)
    m_pt = perturbative_mass(template, cfg.P_list, P_fit=fit.window)
    block = {
        "E0": curve.e0,
        "P_c": p_c,
        "parity_max_diff": curve.parity_max_diff,
        "mass_fit": {
            "M_dyn": fit.mass,
            "quartic_coeff": fit.quartic,
            "window": fit.window,
            "rms": fit.rms,
            "mass_half_window": fit.mass_half_window,
            "window_sensitivity": fit.window_sensitivity,
            "n_samples": fit.n_samples,
        },
        "certificate": {
            "C_min": cert.c_min,
            "worst_P": cert.worst_P,
            "margin": cert.margin,
            "passed": True,
        },
        "ceilings": {
            "one_phonon_margin": ceilings.one_phonon_margin,
            "parabola_margin": ceilings.parabola_margin,
            "violations": list(ceilings.violations),
            "passed": ceilings.passed,
        },
        "perturbative_mass": m_pt,
        "fiber_solves": cache.solves(),
        "fiber_iterations": cache.work("iterations"),
        "fiber_matvecs": cache.work("matvecs"),
    }
    rows = [(s.P, s.energy, s.gap, s.residual) for s in curve.samples]
    state = DispersionState(cache, curve, p_c, fit, cert)
    return state, block, rows


@dataclass
class StaticState:
    e_rows: list                 # (lam, e, L1, U*, residual)
    u_results: list
    extrapolation: object


def stage_static(cfg: ExperimentConfig, dstate: DispersionState) -> tuple:
    """e(lam) per lam with its certified bounds, then the lam -> 0 mass."""
    if cfg.potential is None:
        raise ConfigError(
            "the static-mass stage needs a potential; set potential.type"
        )
    if len(cfg.lambda_seq) < 4:
        raise ConfigError("run.lambda_seq needs >= 4 values to extrapolate")
    lams = sorted(set(cfg.lambda_seq), reverse=True)
    e0 = dstate.curve.e0
    # the kernel's tail depends on the grid alone, not on lam: check it once
    tail = fourier_tail_fraction(cfg.potential, 2.0 * cfg.egrid.q_max)
    if tail > TAIL_TOL:
        warnings.warn(
            f"potential transform carries {tail:.2e} of its weight beyond "
            f"the grid's maximum momentum transfer {2.0 * cfg.egrid.q_max:g}; "
            "the kernel quadrature may be under-resolved",
            AccuracyWarning,
        )

    e_rows, u_results, solves = [], [], []
    for lam in lams:
        res = coupled_ground(dstate.cache, cfg.potential, cfg.egrid, lam,
                             e0=e0, seed=cfg.seed)
        l1 = momentum_lower_bound(lam, cfg.egrid, cfg.potential, e0,
                                  cache=dstate.cache)
        ub = minimize_upper_bound(lam, dstate.cache, res.galerkin, cfg.egrid,
                                  p_c=dstate.p_c)
        e_rows.append((lam, res.value, l1, ub.value, res.residual))
        u_results.append(ub)
        solves.append(res)

    extrap = extrapolate_static_mass(
        [r[0] for r in e_rows], [r[1] for r in e_rows], cfg.potential,
        cfg.egrid)

    u_vals = np.array([u.value for u in u_results])
    u_coef, _, _ = _fit_quadratic_in_lambda(np.array(lams), u_vals)
    tol = ORDERING_TOL
    consistent = all(r[2] - tol <= r[1] <= r[3] + tol for r in e_rows)
    block = {
        "static_mass": {
            "e0": extrap.e0,
            "e0_err": extrap.e0_err,
            "M_stat": extrap.mass,
            "M_stat_err": extrap.mass_err,
            "lambda_seq": list(extrap.lambdas),
            "e_values": list(extrap.e_values),
            "davidson_iterations": [r.iterations for r in solves],
            "davidson_matvecs": [r.matvecs for r in solves],
            "fit_coeffs": list(extrap.coeffs),
            "fit_rms": extrap.fit_rms,
            "drop_largest_shift": extrap.drop_shift,
            "rejected": extrap.rejected,
            "reason": extrap.reason,
        },
        "upper_bound": {
            "lambda_seq": list(lams),
            "U_star": [u.value for u in u_results],
            "extrapolated": float(u_coef[0]),
            "radius": [u.radius for u in u_results],
            "boundary_hit": [u.boundary_hit for u in u_results],
        },
        "bounds_consistent": consistent,
    }
    return StaticState(e_rows, u_results, extrap), block


def stage_sandwich(cfg: ExperimentConfig, dstate: DispersionState,
                   sstate: StaticState) -> tuple:
    """Split lower bound per lam and the ordering verdict."""
    lam_max = max(r[0] for r in sstate.e_rows)
    c_eps = suggest_c_eps(dstate.fit.mass, dstate.certificate.c_min,
                          cfg.potential.sup_norm(), lam_max)
    rows, l2_blocks = [], []
    for lam, e_val, l1, u_star, _res in sstate.e_rows:
        l2 = split_lower_bound(lam, cfg.potential, cfg.egrid,
                               mass=dstate.fit.mass,
                               c_min=dstate.certificate.c_min,
                               p_c=dstate.p_c, c_eps=c_eps)
        rows.append(SandwichRow(lam=lam, l2=l2.value, l1=l1, e=e_val,
                                u_star=u_star))
        l2_blocks.append({
            "lam": lam, "L2": l2.value,
            "operator_branch": l2.operator_branch,
            "scalar_branch": l2.scalar_branch,
            "eps": l2.eps, "beta": l2.beta,
        })
    report = sandwich_report(rows)
    block = {
        "split_bound": {"c_eps": c_eps, "c_beta": C_BETA,
                        "rows": l2_blocks},
        "verdict": {
            "pass": report.passed,
            "worst_margin": report.margin_min,
            "worst_lambda": report.worst_lam,
            "worst_pair": report.worst_pair,
            "ordering_tol": report.ordering_tol,
        },
    }
    csv_rows = [
        (r.lam, r.l2, r.l1, r.e, r.u_star,
         min(r.l1 - r.l2, r.e - r.l1, r.u_star - r.e))
        for r in report.rows
    ]
    return report, block, csv_rows


def _fiber_telemetry(caches) -> dict:
    """Fiber solves and their solver work summed over `caches`: every
    fiber solve of the run, whichever stage asked for it."""
    return {"solves": sum(c.solves() for c in caches),
            **{key: sum(c.work(key) for c in caches)
               for key in ("iterations", "matvecs", "restarts")}}


def _mass_verdict(m_dyn: float, extrap) -> tuple:
    """(|M_dyn - M_stat| / M_dyn, whether the masses agree)."""
    rel_gap = (abs(m_dyn - extrap.mass) / m_dyn
               if not math.isnan(extrap.mass) else math.inf)
    return rel_gap, (not extrap.rejected) and rel_gap <= MASS_REL_TOL


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

_ORACLE_DENSE_LIMIT = 1000
_ORACLE_RANDOM_INSTANCES = 50
_ORACLE_TOL = 1e-8


def run_oracle_check(cfg: ExperimentConfig) -> tuple:
    """Frame-equivalence and solver cross-checks, run inline.

    1.  The translation-covariant frame (electron momentum blocks) and the
        direct position-space tensor assembly describe the same operator on
        commensurate grids; full sorted spectra must agree.
    2.  The iterative ground-state solver (Lanczos) must reproduce the
        dense LAPACK eigenvalue on a seeded batch of random sparse
        symmetric instances.
    """
    template = FiberTemplate(cfg.spec)
    dim = cfg.egrid.size * template.dim
    if dim > _ORACLE_DENSE_LIMIT:
        raise ConfigError(
            f"oracle-check needs grid_size * fock_dim <= {_ORACLE_DENSE_LIMIT}"
            f", got {dim}; use a smaller preset"
        )
    checks = []
    for label, pot in (("frame_no_potential", None),
                       ("frame_with_potential", cfg.potential)):
        ring = assemble_llp_ring(template, pot, cfg.egrid)
        direct = assemble_direct_tensor(template, pot, cfg.egrid)
        s1 = dense_spectrum(ring.to_dense())
        s2 = dense_spectrum(direct.to_dense())
        diff = float(np.max(np.abs(s1 - s2)))
        checks.append((label, dim, diff, diff <= _ORACLE_TOL))

    rng = np.random.default_rng(cfg.seed + 12345)
    worst = 0.0
    for i in range(_ORACLE_RANDOM_INSTANCES):
        n = int(rng.integers(20, 501))
        density = float(rng.uniform(0.02, 0.2))
        mask = rng.random((n, n)) < density
        a = rng.standard_normal((n, n)) * mask
        a = 0.5 * (a + a.T)
        a[np.diag_indices(n)] += rng.standard_normal(n)
        dense_val = dense_ground(a)
        lanczos_val = ground_state(a, tol=1e-11, seed=cfg.seed + i).value
        diff = abs(dense_val - lanczos_val)
        worst = max(worst, diff)
        checks.append((f"lanczos_vs_dense_{i:02d}", n, diff,
                       diff <= _ORACLE_TOL))
    passed = all(ok for (_, _, _, ok) in checks)
    block = {
        "oracles": {
            "checks": [
                {"name": name, "dim": d, "max_diff": diff, "passed": ok}
                for (name, d, diff, ok) in checks
            ],
            "worst_random_diff": worst,
            "tolerance": _ORACLE_TOL,
            "passed": passed,
        }
    }
    csv_rows = [(name, d, diff, ok) for (name, d, diff, ok) in checks]
    return passed, block, csv_rows


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def _variant_specs(spec: ModelSpec):
    yield "base", spec
    if spec.n_max > 1:
        yield "n_max-1", replace(spec, n_max=spec.n_max - 1)
    yield "n_max+1", replace(spec, n_max=spec.n_max + 1)
    yield "dk/2", replace(spec, dk=spec.dk / 2.0)


def run_converge(cfg: ExperimentConfig) -> tuple:
    """Re-run the headline numbers at perturbed truncation parameters.

    Verdicts (sandwich ordering, mass agreement) must not change between
    the base truncation and n_max +- 1 or half the mode spacing; the masses
    themselves may drift within their tolerances.
    """
    rows, table, caches = [], [], []
    base_verdicts = None
    for label, spec in _variant_specs(cfg.spec):
        vcfg = replace(cfg, spec=spec)
        dstate, dblock, _ = stage_dispersion(vcfg)
        sstate, sblock = stage_static(vcfg, dstate)
        report, wblock, _ = stage_sandwich(vcfg, dstate, sstate)
        caches.append(dstate.cache)
        m_dyn = dstate.fit.mass
        extrap = sstate.extrapolation
        rel_gap, mass_ok = _mass_verdict(m_dyn, extrap)
        verdicts = (report.passed, mass_ok, dblock["ceilings"]["passed"])
        if base_verdicts is None:
            base_verdicts = verdicts
        rows.append((label, spec.n_max, spec.dk, m_dyn, extrap.mass, rel_gap,
                     report.passed, mass_ok))
        table.append({
            "variant": label, "n_max": spec.n_max, "dk": spec.dk,
            "M_dyn": m_dyn, "M_stat": extrap.mass, "rel_gap": rel_gap,
            "sandwich_pass": report.passed, "mass_pass": mass_ok,
            "ceilings_pass": dblock["ceilings"]["passed"],
            "stable": verdicts == base_verdicts,
        })
    passed = all(t["stable"] for t in table) and base_verdicts[0] \
        and base_verdicts[1] and base_verdicts[2]
    block = {"convergence": {"table": table, "passed": passed},
             "telemetry": {"fiber": _fiber_telemetry(caches)}}
    return passed, block, rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def run(subcommand: str, cfg: ExperimentConfig, out_dir: str | None = None
        ) -> bool:
    """Execute a subcommand; write report.json + CSVs; return overall pass."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = {
        "package_version": __version__,
        "subcommand": subcommand,
        "config": cfg.raw,
        "config_sha256": _config_hash(cfg.raw),
        "seed": cfg.seed,
    }
    timings: dict = {}
    csvs: dict = {}
    passed = True

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out_ = fn(*args)
        timings[name] = round(time.perf_counter() - t0, 3)
        return out_

    if subcommand in ("dispersion", "staticmass", "sandwich"):
        dstate, dblock, drows = timed("dispersion", stage_dispersion, cfg)
        report["dispersion"] = dblock
        csvs["dispersion.csv"] = drows
        passed = dblock["ceilings"]["passed"]

    if subcommand in ("staticmass", "sandwich"):
        sstate, sblock = timed("staticmass", stage_static, cfg, dstate)
        report.update(sblock)
        csvs["staticmass.csv"] = sstate.e_rows
        csvs["trialstate.csv"] = [
            (r[0], f"radius={FMT % u.radius};type=bump", r[3])
            for r, u in zip(sstate.e_rows, sstate.u_results)]
        extrap = sstate.extrapolation
        m_dyn = dstate.fit.mass
        rel_gap, mass_ok = _mass_verdict(m_dyn, extrap)
        report["mass_comparison"] = {
            "M_dyn": m_dyn,
            "M_stat": extrap.mass,
            "rel_gap": rel_gap,
            "tolerance": MASS_REL_TOL,
            "pass": mass_ok,
        }
        passed = passed and mass_ok and sblock["bounds_consistent"]

    if subcommand == "sandwich":
        sreport, wblock, wrows = timed("sandwich", stage_sandwich, cfg,
                                       dstate, sstate)
        report.update(wblock)
        csvs["sandwich.csv"] = wrows
        passed = passed and sreport.passed

    if subcommand == "oracle-check":
        ok, oblock, orows = timed("oracle_check", run_oracle_check, cfg)
        report.update(oblock)
        csvs["oracle.csv"] = orows
        passed = ok

    if subcommand == "converge":
        ok, cblock, crows = timed("converge", run_converge, cfg)
        report.update(cblock)
        csvs["converge.csv"] = crows
        passed = ok

    if subcommand not in ("dispersion", "staticmass", "sandwich",
                          "oracle-check", "converge"):
        raise ConfigError(f"unknown subcommand {subcommand!r}")

    if subcommand in ("dispersion", "staticmass", "sandwich"):
        # after every stage, so the static stage's fiber solves count too
        report["telemetry"] = {"fiber": _fiber_telemetry([dstate.cache])}
    report["timings_seconds"] = timings
    report["pass"] = bool(passed)
    # all artifact writes happen here, sequentially
    for name, rows in csvs.items():
        write_csv(os.path.join(out, name), CSV_HEADERS[name], rows)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return bool(passed)
