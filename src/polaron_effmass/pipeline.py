"""Experiment stages: dispersion scan, static-mass chain, sandwich, oracles.

Each stage is a pure function from a validated config (plus upstream stage
state) to a JSON-ready report block and CSV rows.  The dispersion, static
and sandwich stages form one chain, which runs up to the subcommand's stage
and folds their verdicts once; `dispersion`, `staticmass` and `sandwich`
run it once, and `converge` once per truncation variant, reading its
verdicts from the blocks.  :func:`run` dispatches a subcommand, times the
stages, and writes every artifact in one final sequential pass.

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
import resource
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
from .eigensolve import (dense_ground, dense_spectrum, ground_state,
                         verified_floor)
from .errors import AccuracyWarning, ConfigError
from .model import TAIL_TOL, ModelSpec, fourier_tail_fraction
from .operators import (FiberTemplate, assemble_direct_tensor,
                        assemble_llp_ring, potential_kernel)
from .staticmass import (_TARGET_WIDTH, PREMISE, coupled_ground,
                         extrapolate_static_mass, _fit_quadratic_in_lambda)
from .trialstate import envelope, minimize_upper_bound

__all__ = ["run", "stage_dispersion", "stage_static", "stage_sandwich",
           "run_oracle_check", "run_converge", "write_csv", "FMT",
           "CSV_HEADERS"]

FMT = "%.17g"

# Largest relative gap |M_dyn - M_stat| / M_dyn at which the masses agree.
MASS_REL_TOL = 0.02

# one source of truth for artifact columns (docsgen renders this table)
CSV_HEADERS = {
    "dispersion.csv": "P,E,gap,residual",
    "staticmass.csv": "lambda,e_lambda,lower_bound,upper_bound,residual,L_T",
    "trialstate.csv": "lambda,f_params,U_lambda,U_G",
    "sandwich.csv": "lambda,L2,L1,e,U_star,margin_min,L_T",
    "oracle.csv": "check,dim,max_diff,passed",
    "converge.csv": "variant,n_max,dk,M_dyn,M_stat,rel_gap,sandwich_pass,"
                    "mass_pass",
}


def _fmt(x) -> str:
    if x is None:
        return ""
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
    """What the later stages read of the dispersion stage.  The scanned
    curve itself, with a vector per momentum, ends with the stage: only
    its E0 is read after it."""

    cache: FiberCache
    e0: float
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
    nodes = curve.nodes
    fit = fit_dynamic_mass(nodes.P, nodes.energy - curve.e0, P_c=p_c)
    cert = certify_quasi_parabolic(curve, fit.mass)
    ceilings = check_ceilings(curve, template)
    m_pt = perturbative_mass(template, cfg.P_list, P_fit=fit.window)
    block = {
        "E0": curve.e0,
        "P_c": p_c,
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
        "fiber_restarts": cache.work("restarts"),
    }
    rows = list(zip(nodes.P, nodes.energy, nodes.gap, nodes.residual))
    state = DispersionState(cache, curve.e0, p_c, fit, cert)
    return state, block, rows


def stage_static(cfg: ExperimentConfig, dstate: DispersionState) -> tuple:
    """e(lam) per lam with its certified bounds, then the lam -> 0 mass and
    its comparison with M_dyn: the report block, the staticmass.csv rows and
    the trialstate.csv rows.  The kernel, its verified floor and U*'s
    envelope at M_dyn are built once and each lam's fiber nodes are fetched
    once, for the coupled solve, L1 and U* alike.  The nodes go to the
    solve alone, which drops their vectors before its Davidson run; L1
    reads the levels it returns.  The Galerkin bound U_G
    and the Temple floor L_T are checked against the other bounds apart
    from the sandwich ordering."""
    if cfg.potential is None:
        raise ConfigError(
            "the static-mass stage needs a potential; set potential.type"
        )
    lams = sorted(set(cfg.lambda_seq), reverse=True)
    if len(lams) < 4:
        raise ConfigError(
            "run.lambda_seq needs >= 4 distinct values to extrapolate")
    e0 = dstate.e0
    # the kernel's tail depends on the grid alone, not on lam: check it once
    tail = fourier_tail_fraction(cfg.potential, 2.0 * cfg.egrid.q_max)
    if tail > TAIL_TOL:
        warnings.warn(
            f"potential transform carries {tail:.2e} of its weight beyond "
            f"the grid's maximum momentum transfer {2.0 * cfg.egrid.q_max:g}; "
            "the kernel quadrature may be under-resolved",
            AccuracyWarning,
        )

    kernel = potential_kernel(cfg.potential, cfg.egrid)
    k_min = verified_floor(kernel, dense_ground(kernel))
    m_dyn = dstate.fit.mass
    weights = envelope(cfg.potential, cfg.egrid, m_dyn)
    cache = dstate.cache
    e_rows, solves = [], []
    for lam in lams:
        # no name holds the nodes here, so the solve frees their vectors
        res = coupled_ground(cache.template,
                             cache.pairs(lam * cfg.egrid.points), kernel,
                             k_min, cfg.egrid, lam, e0, seed=cfg.seed)
        l1 = momentum_lower_bound(lam, kernel, res.fibers, e0)
        u_star = minimize_upper_bound(lam, res.galerkin, weights)
        e_rows.append((lam, res.value, l1, u_star, res.residual,
                       res.temple))
        # the vector is not reported: free it before the next lam
        res.vector = None
        solves.append(res)

    extrap = extrapolate_static_mass(
        [r[0] for r in e_rows], [r[1] for r in e_rows], cfg.potential,
        cfg.egrid)

    u_vals = [r[3] for r in e_rows]
    u_coef, _, _ = _fit_quadratic_in_lambda(np.array(lams), np.array(u_vals))
    tol = ORDERING_TOL
    consistent = all(r[2] - tol <= r[1] <= r[3] + tol for r in e_rows)
    floors = [(res.temple, res.upper, u)
              for res, u in zip(solves, u_vals) if res.temple is not None]
    rel_gap = (abs(m_dyn - extrap.mass) / m_dyn
               if not math.isnan(extrap.mass) else math.inf)
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
            "coupled_dim": {"full": solves[0].full_dim,
                            "even": solves[0].dim},
            "fit_coeffs": list(extrap.coeffs),
            "fit_rms": extrap.fit_rms,
            "drop_largest_shift": extrap.drop_shift,
            "rejected": extrap.rejected,
            "reason": extrap.reason,
        },
        "upper_bound": {
            "lambda_seq": list(lams),
            "U_star": u_vals,
            "extrapolated": float(u_coef[0]),
            "envelope_mass": m_dyn,
            "galerkin": [r.upper for r in solves],
            "e_below_galerkin": all(r.value <= r.upper + tol for r in solves),
            "galerkin_below_U_star": all(
                r.upper <= u + tol for r, u in zip(solves, u_vals)),
        },
        "enclosure": {
            "target_width": _TARGET_WIDTH,
            "premise": PREMISE,
            "rows": [{
                "lam": lam, "rho": r.enclosure.rho, "eta": r.enclosure.eta,
                "b": r.enclosure.b, "c": r.enclosure.c,
                "lambda2": r.enclosure.lambda2, "r_star": r.r_star,
                "L_T": r.temple,
                "width": None if r.temple is None else r.value - r.temple,
                "note": r.note,
            } for lam, r in zip(lams, solves)],
            "L_T_below_U_G": all(t <= g + tol for t, g, _ in floors),
            "L_T_below_U_star": all(t <= u + tol for t, _, u in floors),
        },
        "bounds_consistent": consistent,
        "mass_comparison": {
            "M_dyn": m_dyn,
            "M_stat": extrap.mass,
            "rel_gap": rel_gap,
            "tolerance": MASS_REL_TOL,
            "pass": (not extrap.rejected) and rel_gap <= MASS_REL_TOL,
        },
    }
    profile = f"type=schroedinger;mass={FMT % m_dyn}"
    trial_rows = [(r[0], profile, r[3], res.upper)
                  for r, res in zip(e_rows, solves)]
    return block, e_rows, trial_rows


def stage_sandwich(cfg: ExperimentConfig, dstate: DispersionState,
                   static_rows: list) -> tuple:
    """Split lower bound per lam and the ordering verdict, from the
    staticmass.csv rows (lam, e, L1, U*, residual, L_T)."""
    lam_max = max(r[0] for r in static_rows)
    c_eps = suggest_c_eps(dstate.fit.mass, dstate.certificate.c_min,
                          cfg.potential.sup_norm(), lam_max)
    rows, l2_blocks = [], []
    for lam, e_val, l1, u_star, _res, _l_t in static_rows:
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
    temple = {row[0]: row[5] for row in static_rows}
    csv_rows = [
        (r.lam, r.l2, r.l1, r.e, r.u_star,
         min(r.l1 - r.l2, r.e - r.l1, r.u_star - r.e), temple[r.lam])
        for r in report.rows
    ]
    return block, csv_rows


def _timed(stats: dict, name: str, fn, *args):
    """fn(*args); its seconds and the peak RSS after it (MB, the harness's
    formula) go to stats' "timings_seconds" and "peak_rss_mb_by_stage"."""
    t0 = time.perf_counter()
    out = fn(*args)
    seconds = round(time.perf_counter() - t0, 3)
    stats.setdefault("timings_seconds", {})[name] = seconds
    stats.setdefault("peak_rss_mb_by_stage", {})[name] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    return out


def _chain(cfg: ExperimentConfig, last: str, stats: dict) -> tuple:
    """Dispersion, then static, then sandwich, up to the stage `last`.

    Returns the report blocks, the CSV rows by file name and the folded
    verdict.  The blocks end with the fiber telemetry, taken after every
    stage so that the static stage's fiber solves count too.
    """
    dstate, dblock, drows = _timed(stats, "dispersion", stage_dispersion, cfg)
    report = {"dispersion": dblock}
    csvs = {"dispersion.csv": drows}
    passed = dblock["ceilings"]["passed"]
    if last != "dispersion":
        sblock, srows, trows = _timed(stats, "staticmass", stage_static,
                                      cfg, dstate)
        report.update(sblock)
        csvs.update({"staticmass.csv": srows, "trialstate.csv": trows})
        upper, enclosure = sblock["upper_bound"], sblock["enclosure"]
        passed = (passed and sblock["mass_comparison"]["pass"]
                  and sblock["bounds_consistent"]
                  and upper["e_below_galerkin"]
                  and upper["galerkin_below_U_star"]
                  and enclosure["L_T_below_U_G"]
                  and enclosure["L_T_below_U_star"])
    if last == "sandwich":
        wblock, wrows = _timed(stats, "sandwich", stage_sandwich, cfg,
                               dstate, srows)
        report.update(wblock)
        csvs["sandwich.csv"] = wrows
        passed = passed and wblock["verdict"]["pass"]
    cache = dstate.cache
    report["telemetry"] = {"fiber": {
        "solves": cache.solves(),
        **{key: cache.work(key)
           for key in ("iterations", "matvecs", "restarts")}}}
    return report, csvs, passed


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

_ORACLE_DENSE_LIMIT = 1000
_ORACLE_RANDOM_INSTANCES = 50
_ORACLE_TOL = 1e-8


def _oracle_instance(rng) -> np.ndarray:
    """The next random sparse symmetric oracle instance drawn from `rng`,
    symmetrized in place over blocks of 32 rows: no second float matrix."""
    n = int(rng.integers(20, 501))
    density = float(rng.uniform(0.02, 0.2))
    a = np.empty((n, n))    # perfbench replays these draws in order
    mask = rng.random(out=a) < density
    np.multiply(rng.standard_normal(out=a), mask, out=a)
    del mask
    for i in range(0, n, 32):
        a[i:i + 32, i:] += a[i:, i:i + 32].T    # numpy copies the overlap
        a[i + 32:, i:i + 32] = a[i:i + 32, i + 32:].T
    a *= 0.5
    a[np.diag_indices(n)] += rng.standard_normal(n)
    return a


def run_oracle_check(cfg: ExperimentConfig) -> tuple:
    """Frame-equivalence and solver cross-checks, run inline.

    1.  The translation-covariant frame (electron momentum blocks) and the
        direct position-space tensor assembly describe the same operator on
        commensurate grids; full sorted spectra must agree.
    2.  The iterative ground-state solver (Lanczos) must reproduce the
        dense LAPACK eigenvalue on a seeded batch of random sparse
        symmetric instances.  Lanczos runs first: the dense solve then
        works in the instance's own storage, which it destroys.
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
        s2 = dense_spectrum(direct)
        diff = float(np.max(np.abs(s1 - s2)))
        checks.append((label, dim, diff, diff <= _ORACLE_TOL))

    rng = np.random.default_rng(cfg.seed + 12345)
    worst = 0.0
    for i in range(_ORACLE_RANDOM_INSTANCES):
        a = _oracle_instance(rng)
        lanczos_val = ground_state(a, tol=1e-11, seed=cfg.seed + i).value
        dense_val = dense_ground(a, overwrite=True)
        diff = abs(dense_val - lanczos_val)
        worst = max(worst, diff)
        checks.append((f"lanczos_vs_dense_{i:02d}", len(a), diff,
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
    return passed, block, list(checks)


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
    themselves may drift within their tolerances.  Each variant runs the
    sandwich chain, and passes only if the chain's whole verdict does; the
    fiber telemetry is summed over the variants.
    """
    table, fiber, passed = [], [], True
    for label, spec in _variant_specs(cfg.spec):
        report, _, ok = _chain(replace(cfg, spec=spec), "sandwich", {})
        passed = passed and ok
        fiber.append(report["telemetry"]["fiber"])
        mass = report["mass_comparison"]
        table.append({
            "variant": label, "n_max": spec.n_max, "dk": spec.dk,
            "M_dyn": mass["M_dyn"], "M_stat": mass["M_stat"],
            "rel_gap": mass["rel_gap"],
            "sandwich_pass": report["verdict"]["pass"],
            "mass_pass": mass["pass"],
            "ceilings_pass": report["dispersion"]["ceilings"]["passed"],
        })
    verdicts = [(t["sandwich_pass"], t["mass_pass"], t["ceilings_pass"])
                for t in table]
    for t, v in zip(table, verdicts):
        t["stable"] = v == verdicts[0]
    rows = [tuple(t[key] for key in CSV_HEADERS["converge.csv"].split(","))
            for t in table]
    block = {"convergence": {"table": table, "passed": passed},
             "telemetry": {"fiber": {key: sum(f[key] for f in fiber)
                                     for key in fiber[0]}}}
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
    if subcommand not in ("dispersion", "staticmass", "sandwich",
                          "oracle-check", "converge"):
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report = {
        "package_version": __version__,
        "subcommand": subcommand,
        "config": cfg.raw,
        "config_sha256": _config_hash(cfg.raw),
        "seed": cfg.seed,
    }
    stats: dict = {}
    if subcommand == "oracle-check":
        passed, block, rows = _timed(stats, "oracle_check",
                                     run_oracle_check, cfg)
        csvs = {"oracle.csv": rows}
    elif subcommand == "converge":
        passed, block, rows = _timed(stats, "converge", run_converge, cfg)
        csvs = {"converge.csv": rows}
    else:
        block, csvs, passed = _chain(cfg, subcommand, stats)
    report.update(block)
    report.update(stats)
    report["peak_rss_mb"] = max(stats["peak_rss_mb_by_stage"].values())
    report["pass"] = bool(passed)
    # all artifact writes happen here, sequentially
    for name, rows in csvs.items():
        write_csv(os.path.join(out, name), CSV_HEADERS[name], rows)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return bool(passed)
