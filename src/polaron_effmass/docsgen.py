"""Markdown reference generation backed by the config schema and frozen runs.

``generate_reference_tables`` renders ``docs/reference.md`` from three
machine-readable sources: the key tables the config parser enforces, the
artifact column headers the pipeline writes, and trimmed run fixtures under
``docs/fixtures/``.  In check mode the rendered text must match the committed
file section by section, so a schema change or a renumbered fixture fails the
build with the drifted section named instead of silently stale docs.
"""

from __future__ import annotations

import json
import os

from . import config as _config
from .config import PRESET_NAMES, load_config
from .errors import DocsDriftError
from .pipeline import CSV_HEADERS

__all__ = ["generate_reference_tables", "render_reference", "trim_report",
           "FIXTURE_NAMES"]

FIXTURE_NAMES = ("free", "toy", "oracle")

_TYPE_NAMES = {int: "integer", float: "number", str: "string",
               list: "list", dict: "object"}

# ---------------------------------------------------------------------------
# configuration keys
# ---------------------------------------------------------------------------

_CONFIG_DOC = {
    "<top>.model": "Model definition block (required).",
    "<top>.potential": "External potential block (required; type \"none\" "
                       "for the translation-invariant model).",
    "<top>.run": "Run control: seed, output directory, scan lists, electron "
                 "grid.",
    "model.dimension": "Spatial dimension; must be 1 (the lab is "
                       "one-dimensional).",
    "model.n_max": "Largest total field occupation kept in the truncated "
                   "basis.",
    "model.mode_grid": "Field-mode lattice block.",
    "model.dispersion": "Field dispersion relation block.",
    "model.coupling": "Mode coupling amplitude block.",
    "model.mode_grid.dk": "Mode lattice spacing.",
    "model.mode_grid.uv_cutoff": "Largest mode magnitude kept.",
    "model.mode_grid.ir_cutoff": "Smallest mode magnitude kept (default 0; "
                                 "singular couplings need a positive value).",
    "model.dispersion[constant].type": "Selects the flat dispersion "
                                       "omega(k) = omega0.",
    "model.dispersion[constant].omega0": "Constant mode frequency "
                                         "(default 1, must be positive).",
    "model.coupling[zero].type": "No coupling; the field decouples and the "
                                 "dispersion is exactly parabolic.",
    "model.coupling[constant].type": "Selects the flat coupling v(k) = g.",
    "model.coupling[constant].g": "Uniform coupling amplitude.",
    "model.coupling[powerlaw].type": "Selects v(k) = g |k|^(-s).",
    "model.coupling[powerlaw].g": "Overall coupling amplitude.",
    "model.coupling[powerlaw].s": "Power-law exponent (default 1; grids "
                                  "must keep |k| away from zero when s > 0).",
    "potential[none].type": "No external potential; only the dispersion "
                            "stage is available.",
    "potential[poschl_teller].type": "Selects V(x) = -depth sech^2(x).",
    "potential[poschl_teller].depth": "Well depth (positive number).",
    "potential[gaussian_well].type": "Selects V(x) = -depth "
                                     "exp(-|x|^2 / (2 width^2)).",
    "potential[gaussian_well].depth": "Well depth (positive number).",
    "potential[gaussian_well].width": "Gaussian width (default 1).",
    "run.seed": "Base seed for every stochastic choice (default 0).",
    "run.out": "Output directory for reports and CSV artifacts "
               "(default \"out\").",
    "run.P_list": "Total momenta scanned for the dispersion curve; must "
                  "contain 0 and should straddle it symmetrically.",
    "run.lambda_seq": "Decreasing positive scaling parameters for the "
                      "small-coupling sequence (default 0.4, 0.28, 0.2, "
                      "0.14, 0.1).",
    "run.electron_grid": "Uniform electron momentum grid block "
                         "(default dq 0.25, q_max 6).",
    "run.electron_grid.dq": "Electron momentum grid spacing.",
    "run.electron_grid.q_max": "Electron momentum grid half-width.",
}

_CONFIG_SECTIONS = (
    ("<top>", _config._TOP_KEYS),
    ("model", _config._MODEL_KEYS),
    ("model.mode_grid", _config._MODE_GRID_KEYS),
    ("run", _config._RUN_KEYS),
    ("run.electron_grid", _config._EGRID_KEYS),
)

_VARIANT_SECTIONS = (
    ("model.dispersion", _config._DISPERSION_VARIANTS),
    ("model.coupling", _config._COUPLING_VARIANTS),
    ("potential", _config._POTENTIAL_VARIANTS),
)


def _doc_for(path: str, key: str) -> str:
    full = f"{path}.{key}"
    try:
        return _CONFIG_DOC[full]
    except KeyError:
        raise DocsDriftError(
            f"no description for config key '{full}'") from None


def _config_rows():
    """One table row per parser key; every _CONFIG_DOC entry must be used."""
    rows = []
    for path, keys in _CONFIG_SECTIONS:
        for key, (required, typ) in keys.items():
            rows.append((f"`{path}.{key}`", "yes" if required else "no",
                         _TYPE_NAMES[typ], _doc_for(path, key)))
        if path == "model.mode_grid":
            for vpath, variants in _VARIANT_SECTIONS:
                for kind in variants:
                    for key, (required, typ) in variants[kind].items():
                        tagged = f"{vpath}[{kind}]"
                        rows.append((f"`{tagged}.{key}`",
                                     "yes" if required else "no",
                                     _TYPE_NAMES[typ],
                                     _doc_for(tagged, key)))
    documented = {row[0].strip("`") for row in rows}
    for full in _CONFIG_DOC:
        if full not in documented:
            raise DocsDriftError(
                f"description for unknown config key '{full}'")
    return rows


def _cell(value) -> str:
    return str(value).replace("|", "\\|")


def _table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_cell(c) for c in row) + " |")
    return "\n".join(lines)


def _section_config() -> str:
    intro = ("Every key the JSON config parser accepts.  Unknown keys are "
             "rejected with the offending path; bracketed names such as "
             "`model.coupling[powerlaw]` list the keys available once that "
             "`type` is selected.")
    table = _table(("Key", "Required", "Type", "Meaning"), _config_rows())
    return intro + "\n\n" + table


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_PRESET_DOC = {
    "free": "Zero coupling; the dispersion is exactly parabolic and both "
            "masses must equal the bare mass.",
    "toy": "Two-mode constant coupling; runs the full pipeline in about a "
           "second.",
    "small": "Twelve-mode power-law coupling; small but structurally "
             "nontrivial.",
    "powerlaw_g01": "Twenty-mode power-law coupling at g = 0.1; the weak "
                    "branch of the coupling-strength comparison.",
    "powerlaw_g03": "Twenty-mode power-law coupling at g = 0.3; the "
                    "stronger production run.",
    "oracle": "Tiny commensurate model sized for the exact cross-check "
              "suite.",
}


def _section_presets() -> str:
    rows = []
    for name in PRESET_NAMES:
        if name not in _PRESET_DOC:
            raise DocsDriftError(f"no description for preset '{name}'")
        cfg = load_config(name)
        grid = cfg.spec.mode_grid()
        rows.append((f"`{name}`", grid.size, cfg.spec.n_max,
                     cfg.spec.fock_dimension(grid),
                     cfg.raw["model"]["coupling"]["type"],
                     cfg.raw["potential"]["type"],
                     _PRESET_DOC[name]))
    intro = ("Bundled configurations, usable wherever a config path is "
             "expected (`polaron-effmass sandwich --config toy`).  Mode and "
             "basis sizes are computed from the shipped files.")
    table = _table(("Preset", "Modes", "n_max", "Fock dim", "Coupling",
                    "Potential", "Purpose"), rows)
    return intro + "\n\n" + table


# ---------------------------------------------------------------------------
# report keys
# ---------------------------------------------------------------------------

_REPORT_DOC = (
    ("`subcommand`", "Pipeline entry point that produced the report."),
    ("`pass`", "Overall verdict folded over every enabled check."),
    ("`seed`", "Seed actually used after CLI overrides."),
    ("`package_version`", "Version of the installed package."),
    ("`config`", "Echo of the parsed configuration."),
    ("`config_sha256`", "SHA-256 of the canonical JSON form of the echo."),
    ("`timings_seconds`", "Wall-clock seconds per pipeline stage."),
    ("`peak_rss_mb`", "Peak resident memory of the process in MB when the "
                      "last stage ends (`ru_maxrss` KiB times 1024 / 1e6)."),
    ("`peak_rss_mb_by_stage`", "Peak resident memory of the process in MB "
                               "after each stage of `timings_seconds`, so "
                               "the stage that set the peak shows."),
    ("`dispersion.E0`", "Fiber ground energy at total momentum 0."),
    ("`dispersion.P_c`", "Estimated half-width of the momentum window on "
                         "which the dispersion stays quasi-parabolic."),
    ("`dispersion.mass_fit`", "Windowed curvature fit: `M_dyn`, "
                              "`quartic_coeff`, `window`, `rms`, "
                              "`mass_half_window`, `window_sensitivity`, "
                              "`n_samples`."),
    ("`dispersion.certificate`", "Strict-convexity certificate over the "
                                 "window: `C_min`, `worst_P`, `margin`, "
                                 "`passed`."),
    ("`dispersion.ceilings`", "One-excitation and parabola ceiling checks: "
                              "`one_phonon_margin`, `parabola_margin`, "
                              "`violations`, `passed`."),
    ("`dispersion.perturbative_mass`", "Second-order weak-coupling mass "
                                       "used as a cross-check."),
    ("`dispersion.fiber_solves`", "Number of distinct fiber "
                                  "diagonalizations the dispersion scan "
                                  "performed."),
    ("`dispersion.fiber_iterations`", "Davidson iterations summed over "
                                      "those fiber diagonalizations."),
    ("`dispersion.fiber_matvecs`", "Fiber-operator applications summed "
                                   "over those diagonalizations, including "
                                   "the residual checks."),
    ("`dispersion.fiber_restarts`", "Thick restarts of the Davidson search "
                                    "space summed over those "
                                    "diagonalizations."),
    ("`telemetry.fiber`", "Every fiber diagonalization of the run, the "
                          "scan's and the static stage's (summed over the "
                          "variants of `converge`): `solves`, and the "
                          "Davidson `iterations`, `matvecs` (with the "
                          "residual checks) and thick `restarts` summed "
                          "over them."),
    ("`static_mass.lambda_seq`", "Scaling parameters actually used, "
                                 "descending."),
    ("`static_mass.e_values`", "Coupled ground energies per scaling "
                               "parameter."),
    ("`static_mass.davidson_iterations`", "Davidson iterations of the "
                                          "coupled solve per scaling "
                                          "parameter."),
    ("`static_mass.davidson_matvecs`", "Coupled-operator applications of "
                                       "the coupled solve per scaling "
                                       "parameter."),
    ("`static_mass.coupled_dim`", "Dimension of the coupled problem: "
                                  "`full`, the grid times the Fock space, "
                                  "and `even`, the sector even under grid "
                                  "reversal times mode reflection that the "
                                  "solve runs in."),
    ("`static_mass.fit_coeffs`", "Quadratic fit coefficients "
                                 "[e0, c1, c2] in the scaling parameter."),
    ("`static_mass.fit_rms`", "Root-mean-square misfit of the quadratic "
                              "fit."),
    ("`static_mass.e0`", "Extrapolated limit energy."),
    ("`static_mass.e0_err`", "Uncertainty of the limit energy (covariance "
                             "and drop-one spread, whichever is larger)."),
    ("`static_mass.drop_largest_shift`", "Change of `e0` when the largest "
                                         "scaling parameter is dropped."),
    ("`static_mass.M_stat`", "Static mass: the mass whose reference ground "
                             "energy matches `e0`."),
    ("`static_mass.M_stat_err`", "Uncertainty propagated through the "
                                 "energy-to-mass inversion."),
    ("`static_mass.rejected`", "True when the extrapolation failed a "
                               "quality gate; `reason` says why."),
    ("`static_mass.reason`", "Empty string or the rejection reason."),
    ("`upper_bound.lambda_seq`", "Scaling parameters of the variational "
                                 "upper bounds."),
    ("`upper_bound.U_star`", "Variational upper bound per scaling "
                             "parameter: the fiber-Galerkin matrix's "
                             "quotient at the Schroedinger envelope."),
    ("`upper_bound.envelope_mass`", "Mass of the one-particle ground state "
                                    "that weights the fibers in `U_star`: "
                                    "the dynamic mass."),
    ("`upper_bound.extrapolated`", "Quadratic extrapolation of the upper "
                                   "bounds to zero coupling."),
    ("`upper_bound.galerkin`", "Galerkin upper bound `U_G` per scaling "
                               "parameter: the lowest eigenvalue of the "
                               "fiber-Galerkin matrix, at or below "
                               "`U_star`."),
    ("`upper_bound.e_below_galerkin`", "True when the coupled energy is at "
                                       "most `U_G` plus the ordering "
                                       "tolerance at every scale."),
    ("`upper_bound.galerkin_below_U_star`", "True when `U_G` is at most "
                                            "`U_star` plus the ordering "
                                            "tolerance at every scale."),
    ("`enclosure.rows`", "Per-scale certificate of the coupled energy: "
                         "`lam`, the fiber split's floor `rho` on the second "
                         "level with its parts `eta`, `b`, `c` and the "
                         "verified floor `lambda2` on the Galerkin matrix's "
                         "second eigenvalue, the stopping residual `r_star` "
                         "it allowed, Temple's floor `L_T`, the `width` "
                         "e - L_T, and a `note`: the premise, or why there "
                         "is no `L_T` (then `r_star`, `L_T` and `width` "
                         "are null)."),
    ("`enclosure.target_width`", "Width e - L_T, relative to "
                                 "max(1, |U_G|), that the stopping "
                                 "residual aims for."),
    ("`enclosure.premise`", "What every `L_T` assumes of the fiber "
                            "solves."),
    ("`enclosure.L_T_below_U_G`", "True when every `L_T` is at most `U_G` "
                                  "plus the ordering tolerance."),
    ("`enclosure.L_T_below_U_star`", "True when every `L_T` is at most "
                                     "`U_star` plus the ordering "
                                     "tolerance."),
    ("`split_bound.c_eps`", "Epsilon schedule scale actually used."),
    ("`split_bound.c_beta`", "Momentum-cut schedule scale actually used."),
    ("`split_bound.rows`", "Per-scale splitting bound: `lam`, `eps`, "
                           "`beta`, `operator_branch`, `scalar_branch`, "
                           "`L2` (the smaller of the two branches)."),
    ("`verdict.pass`", "True when the bound ordering holds at every "
                       "scale."),
    ("`verdict.worst_margin`", "Smallest ordering margin encountered."),
    ("`verdict.worst_lambda`", "Scale at which the smallest margin "
                               "occurred."),
    ("`verdict.worst_pair`", "Which adjacent pair of bounds attained the "
                             "smallest margin."),
    ("`verdict.ordering_tol`", "Additive slack applied to the certified "
                               "inequalities."),
    ("`mass_comparison.M_dyn`", "Dynamic mass from the dispersion "
                                "curvature."),
    ("`mass_comparison.M_stat`", "Static mass from the scaling limit."),
    ("`mass_comparison.rel_gap`", "Relative difference of the two masses."),
    ("`mass_comparison.tolerance`", "Accepted relative difference."),
    ("`mass_comparison.pass`", "True when the masses agree within "
                               "tolerance."),
    ("`bounds_consistent`", "True when lower bound <= coupled energy <= "
                            "upper bound at every scale."),
    ("`oracles.checks`", "Per-check rows: `name`, `dim`, `max_diff`, "
                         "`passed`."),
    ("`oracles.tolerance`", "Largest accepted deviation for the exact "
                            "cross-checks."),
    ("`oracles.worst_random_diff`", "Worst deviation over the randomized "
                                    "solver cross-checks."),
    ("`oracles.passed`", "True when every cross-check passed."),
    ("`convergence.table`", "Per-variant rows: `variant`, `n_max`, `dk`, "
                            "`M_dyn`, `M_stat`, `rel_gap`, "
                            "`sandwich_pass`, `mass_pass`, `ceilings_pass`, "
                            "`stable`."),
    ("`convergence.passed`", "True when every refinement variant "
                             "reproduces the base verdicts."),
)


def _section_report() -> str:
    intro = ("Keys of `report.json`.  Which blocks appear depends on the "
             "subcommand: `dispersion` writes the dispersion block, "
             "`staticmass` adds the static-mass, upper-bound and "
             "mass-comparison blocks, `sandwich` adds the splitting bound "
             "and the ordering verdict, `oracle-check` and `converge` "
             "write their own blocks.  Every subcommand but `oracle-check` "
             "writes the telemetry block.")
    table = _table(("Key", "Meaning"), _REPORT_DOC)
    return intro + "\n\n" + table


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

_CSV_DOC = {
    "dispersion.csv": "One row per scanned momentum: ground energy, "
                      "gap to the first excited level and the ground "
                      "pair's residual.",
    "staticmass.csv": "One row per scaling parameter: coupled energy, "
                      "certified lower bound, variational upper bound, "
                      "solver residual and Temple's floor `L_T` (empty "
                      "where there is none).",
    "trialstate.csv": "Trial envelope per scaling parameter (`key=value` "
                      "pairs separated by `;`: the Schroedinger ground "
                      "state and its mass), its bound and the Galerkin "
                      "bound `U_G`.",
    "sandwich.csv": "The two lower bounds, the coupled energy, the upper "
                    "bound, the smallest margin and Temple's floor `L_T` "
                    "(empty where there is none; not in the margin) per "
                    "scaling parameter.",
    "oracle.csv": "One row per exact cross-check.",
    "converge.csv": "One row per refinement variant of the truncation "
                    "study.",
}


def _section_csv() -> str:
    rows = []
    for name, header in CSV_HEADERS.items():
        if name not in _CSV_DOC:
            raise DocsDriftError(f"no description for artifact '{name}'")
        rows.append((f"`{name}`", f"`{header}`", _CSV_DOC[name]))
    intro = ("Column layout of every CSV artifact.  Floats are written "
             "with 17 significant digits and `\\n` line endings, so "
             "repeated runs of one configuration are byte-identical.")
    table = _table(("File", "Columns", "Content"), rows)
    return intro + "\n\n" + table


# ---------------------------------------------------------------------------
# frozen fixtures
# ---------------------------------------------------------------------------

# Magnitude below which a fixture float is rounding noise and is written
# as 0.0: the free preset's E0, rel_gap and worst margin and the oracle's
# random-instance differences sit below 1e-11, and their digits move
# with any change to the order of a floating-point sum.
_ROUNDING_LEVEL = 1e-10


def _sig(x):
    """Round floats to 6 significant digits for stable, readable fixtures.

    A float below _ROUNDING_LEVEL in magnitude becomes 0.0.
    """
    if isinstance(x, float):
        return 0.0 if abs(x) < _ROUNDING_LEVEL else float(f"{x:.6g}")
    return x


def trim_report(report: dict, preset: str) -> dict:
    """Reduce a full report to the stable scalars frozen under fixtures/."""
    out = {"preset": preset, "subcommand": report["subcommand"],
           "pass": report["pass"], "metrics": {}}
    metrics = out["metrics"]
    if "dispersion" in report:
        d = report["dispersion"]
        metrics["dispersion.E0"] = _sig(d["E0"])
        metrics["dispersion.P_c"] = _sig(d["P_c"])
        metrics["dispersion.M_dyn"] = _sig(d["mass_fit"]["M_dyn"])
        metrics["dispersion.perturbative_mass"] = _sig(
            d["perturbative_mass"])
    if "mass_comparison" in report:
        m = report["mass_comparison"]
        metrics["mass_comparison.M_dyn"] = _sig(m["M_dyn"])
        metrics["mass_comparison.M_stat"] = _sig(m["M_stat"])
        metrics["mass_comparison.rel_gap"] = _sig(m["rel_gap"])
        metrics["mass_comparison.pass"] = m["pass"]
    if "static_mass" in report:
        metrics["static_mass.e0"] = _sig(report["static_mass"]["e0"])
    if "verdict" in report:
        metrics["verdict.pass"] = report["verdict"]["pass"]
        metrics["verdict.worst_margin"] = _sig(
            report["verdict"]["worst_margin"])
    if "oracles" in report:
        o = report["oracles"]
        metrics["oracles.passed"] = o["passed"]
        metrics["oracles.n_checks"] = len(o["checks"])
        metrics["oracles.worst_random_diff"] = _sig(o["worst_random_diff"])
    return out


def _load_fixture(fixtures_dir: str, name: str) -> dict:
    path = os.path.join(fixtures_dir, name + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocsDriftError(f"missing docs fixture {path!r}: {exc}") from exc


def _section_fixtures(fixtures_dir: str) -> str:
    parts = [
        "Headline numbers of frozen preset runs (6 significant digits; "
        "a value below 1e-10 in magnitude is rounding noise and is written "
        "as 0.0), regenerated with the commands shown.  The test suite "
        "compares them with fresh runs of the same presets, so a mismatch "
        "means behavior changed."]
    for name in FIXTURE_NAMES:
        fix = _load_fixture(fixtures_dir, name)
        rows = [(f"`{k}`", v) for k, v in sorted(fix["metrics"].items())]
        cmd = fix["subcommand"]
        parts.append(
            f"### {fix['preset']} ({cmd})\n\n"
            f"`polaron-effmass {cmd} --config {fix['preset']}` — overall "
            f"pass: `{fix['pass']}`.\n\n"
            + _table(("Metric", "Value"), rows))
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# assembly and drift check
# ---------------------------------------------------------------------------

_HEADER = (
    "# polaron-effmass reference\n\n"
    "Generated file - do not edit by hand.  Regenerate with\n"
    "`polaron-effmass docs-tables --write`; the test suite runs the same\n"
    "generator in check mode and fails on any drift.\n")


def render_reference(docs_dir: str) -> str:
    fixtures_dir = os.path.join(docs_dir, "fixtures")
    sections = (
        ("Configuration keys", _section_config()),
        ("Presets", _section_presets()),
        ("Report keys", _section_report()),
        ("CSV artifacts", _section_csv()),
        ("Frozen run fixtures", _section_fixtures(fixtures_dir)),
    )
    body = "\n\n".join(f"## {title}\n\n{text}" for title, text in sections)
    return _HEADER + "\n" + body + "\n"


def _split_sections(text: str) -> dict:
    """Map '## title' -> body text, preserving everything in between."""
    out = {}
    current = "<preamble>"
    buf = []
    for line in text.splitlines():
        if line.startswith("## "):
            out[current] = "\n".join(buf)
            current = line[3:].strip()
            buf = []
        else:
            buf.append(line)
    out[current] = "\n".join(buf)
    return out


def generate_reference_tables(docs_dir: str, write: bool = False) -> str:
    """Render docs/reference.md; write it or verify it matches the file.

    Check mode raises DocsDriftError naming the first drifted section so
    the failure points at what changed.
    """
    text = render_reference(docs_dir)
    path = os.path.join(docs_dir, "reference.md")
    if write:
        os.makedirs(docs_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return text
    try:
        with open(path, "r", encoding="utf-8") as fh:
            on_disk = fh.read()
    except OSError as exc:
        raise DocsDriftError(f"missing reference file {path!r}") from exc
    if on_disk == text:
        return text
    fresh, stale = _split_sections(text), _split_sections(on_disk)
    for title in fresh:
        if title not in stale:
            raise DocsDriftError(f"section '{title}' is missing from "
                                 f"{path!r}; regenerate the docs")
        if stale[title] != fresh[title]:
            raise DocsDriftError(f"section '{title}' of {path!r} is stale; "
                                 f"regenerate the docs")
    extra = sorted(set(stale) - set(fresh))
    raise DocsDriftError(f"unexpected section(s) {extra} in {path!r}; "
                         f"regenerate the docs")
