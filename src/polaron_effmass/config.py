"""Experiment configuration: JSON schema, strict validation, object builders.

A config file has three blocks:

    model     -- dimension (always 1), n_max, mode grid, dispersion,
                 coupling
    potential -- the external well (or "none")
    run       -- seed, momentum list, lambda sequence, electron
                 grid, output directory

The numerical tolerances are constants of the modules that use them, not
config keys.

Validation is strict: unknown keys anywhere are hard errors naming the
full dotted path, as are missing required keys and out-of-range values.
:func:`validate_config` additionally reports physics-range diagnostics
(warnings) that do not block a run, e.g. when beta at the largest lam
reaches the estimated quasi-particle window so the split bound will fail
there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .bounds import C_BETA
from .model import (TAIL_TOL, ConstantCoupling, ConstantDispersion,
                    GaussianWell, ModelSpec, PoschlTeller, PowerLawCoupling,
                    ZeroCoupling, fourier_tail_fraction)
from .operators import ElectronGrid
from .staticmass import DEFAULT_LAMBDA_SEQ

__all__ = ["ExperimentConfig", "load_config", "parse_config",
           "validate_config", "preset_path", "PRESET_NAMES"]

_DISPERSION_VARIANTS = {
    "constant": {"type": (True, str), "omega0": (False, float)},
}
_COUPLING_VARIANTS = {
    "zero": {"type": (True, str)},
    "constant": {"type": (True, str), "g": (True, float)},
    "powerlaw": {"type": (True, str), "g": (True, float), "s": (False, float)},
}
_POTENTIAL_VARIANTS = {
    "none": {"type": (True, str)},
    "poschl_teller": {"type": (True, str), "depth": (True, float)},
    "gaussian_well": {"type": (True, str), "depth": (True, float),
                      "width": (False, float)},
}


def _require(block: dict, path: str, allowed: dict):
    """Check `block` against {key: (required, type_or_none)}; return a copy.
    A list must hold numbers.  A number must be finite: json reads NaN,
    Infinity and -Infinity as floats."""
    if not isinstance(block, dict):
        raise ConfigError(f"config section '{path}' must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown config key '{path}.{key}'")
    for key, (required, typ) in allowed.items():
        if key not in block:
            if required:
                raise ConfigError(f"missing required config key '{path}.{key}'")
            continue
        val = block[key]
        if typ is float:
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"config key '{path}.{key}' must be a number")
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"config key '{path}.{key}' must be finite")
        elif typ is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"config key '{path}.{key}' must be an integer")
        elif typ is str:
            if not isinstance(val, str):
                raise ConfigError(f"config key '{path}.{key}' must be a string")
        elif typ is list:
            if not isinstance(val, list):
                raise ConfigError(f"config key '{path}.{key}' must be a list")
            for i, e in enumerate(val):
                if not isinstance(e, (int, float)) or isinstance(e, bool):
                    raise ConfigError(
                        f"config key '{path}.{key}[{i}]' must be a number")
                if isinstance(e, float) and not math.isfinite(e):
                    raise ConfigError(
                        f"config key '{path}.{key}[{i}]' must be finite")
        elif typ is dict:
            if not isinstance(val, dict):
                raise ConfigError(f"config key '{path}.{key}' must be an object")
    return dict(block)


def _build_dispersion(block: dict):
    kind = block.get("type")
    if kind not in _DISPERSION_VARIANTS:
        raise ConfigError(
            "model.dispersion.type must be one of "
            f"{sorted(_DISPERSION_VARIANTS)}, got {kind!r}"
        )
    b = _require(block, "model.dispersion", _DISPERSION_VARIANTS[kind])
    return ConstantDispersion(omega0=float(b.get("omega0", 1.0)))


def _build_coupling(block: dict):
    kind = block.get("type")
    if kind not in _COUPLING_VARIANTS:
        raise ConfigError(
            "model.coupling.type must be one of "
            f"{sorted(_COUPLING_VARIANTS)}, got {kind!r}"
        )
    b = _require(block, "model.coupling", _COUPLING_VARIANTS[kind])
    if kind == "zero":
        return ZeroCoupling()
    if kind == "constant":
        return ConstantCoupling(g=float(b["g"]))
    return PowerLawCoupling(g=float(b["g"]), s=float(b.get("s", 1.0)))


def _build_potential(block: dict):
    kind = block.get("type")
    if kind not in _POTENTIAL_VARIANTS:
        raise ConfigError(
            f"potential.type must be one of {sorted(_POTENTIAL_VARIANTS)}, "
            f"got {kind!r}"
        )
    b = _require(block, "potential", _POTENTIAL_VARIANTS[kind])
    if kind == "none":
        return None
    if kind == "poschl_teller":
        return PoschlTeller(depth=float(b["depth"]))
    return GaussianWell(depth=float(b["depth"]),
                        width=float(b.get("width", 1.0)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the built model objects."""

    raw: dict
    spec: ModelSpec
    potential: object            # None for the potential-free model
    egrid: ElectronGrid
    P_list: tuple
    lambda_seq: tuple
    seed: int
    out_dir: str


_MODEL_KEYS = {
    "dimension": (True, int), "n_max": (True, int),
    "mode_grid": (True, dict), "dispersion": (True, dict),
    "coupling": (True, dict),
}
_MODE_GRID_KEYS = {
    "dk": (True, float), "uv_cutoff": (True, float),
    "ir_cutoff": (False, float),
}
_RUN_KEYS = {
    "seed": (False, int), "out": (False, str),
    "P_list": (False, list), "lambda_seq": (False, list),
    "electron_grid": (False, dict),
}
_EGRID_KEYS = {"dq": (True, float), "q_max": (True, float)}
_TOP_KEYS = {
    "model": (True, dict), "potential": (True, dict), "run": (False, dict),
}


def parse_config(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON object."""
    top = _require(data, "<top>", _TOP_KEYS)
    model = _require(top["model"], "model", _MODEL_KEYS)
    if model["dimension"] != 1:
        raise ConfigError(
            "config key 'model.dimension' must be 1 (the lab is "
            f"one-dimensional), got {model['dimension']}"
        )
    mode_grid = _require(model["mode_grid"], "model.mode_grid", _MODE_GRID_KEYS)
    dispersion = _build_dispersion(model["dispersion"])
    coupling = _build_coupling(model["coupling"])
    spec = ModelSpec(
        dispersion=dispersion,
        coupling=coupling,
        dk=float(mode_grid["dk"]),
        uv_cutoff=float(mode_grid["uv_cutoff"]),
        ir_cutoff=float(mode_grid.get("ir_cutoff", 0.0)),
        n_max=int(model["n_max"]),
    )
    potential = _build_potential(top["potential"])

    run = _require(top.get("run", {}), "run", _RUN_KEYS)

    eg = _require(run.get("electron_grid", {"dq": 0.25, "q_max": 6.0}),
                  "run.electron_grid", _EGRID_KEYS)
    egrid = ElectronGrid(float(eg["dq"]), float(eg["q_max"]))

    P_list = tuple(float(p) for p in run.get("P_list", ()))
    lambda_seq = tuple(float(l) for l in run.get("lambda_seq",
                                                 DEFAULT_LAMBDA_SEQ))
    if any(l <= 0 for l in lambda_seq):
        raise ConfigError("run.lambda_seq entries must be positive")
    seed = int(run.get("seed", 0))

    return ExperimentConfig(
        raw=data,
        spec=spec,
        potential=potential,
        egrid=egrid,
        P_list=P_list,
        lambda_seq=lambda_seq,
        seed=seed,
        out_dir=run.get("out", "out"),
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON config file (or a named preset)."""
    real = preset_path(path) if path in PRESET_NAMES else path
    try:
        with open(real, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)


def estimate_window(cfg: ExperimentConfig) -> float:
    """Cheap analytic window estimate: where the bare parabola first meets
    a one-phonon ceiling.

    At the bare mass 1/2 the parabola P^2 crosses the ceiling
    (P - k)^2 + omega(k) of a mode k > 0 at P = (k^2 + omega)/(2 k); the
    estimate is the minimum over those modes (inf when there is none).
    """
    grid = cfg.spec.mode_grid()
    mags = grid.magnitudes()
    omegas = np.asarray(cfg.spec.dispersion(mags), dtype=float)
    nz = mags > 0
    if not np.any(nz):
        return math.inf
    return float(np.min((mags[nz] ** 2 + omegas[nz]) / (2.0 * mags[nz])))


def validate_config(path_or_data) -> list:
    """Full schema check plus physics-range diagnostics.

    Returns a list of (severity, message) with severity "error" or
    "warning"; schema violations raise ConfigError instead (they carry the
    dotted key path).  A Fock dimension over BASIS_CAPACITY is an "error"
    note, and the diagnostics stop there.
    """
    if isinstance(path_or_data, dict):
        cfg = parse_config(path_or_data)
    else:
        cfg = load_config(path_or_data)
    notes = []
    grid = cfg.spec.mode_grid()
    try:
        fdim = cfg.spec.fock_dimension(grid)
    except CapacityError as exc:
        notes.append(("error", str(exc)))
        return notes
    notes.append(("info", f"{grid.size} field modes, Fock dimension {fdim}, "
                          f"electron grid {cfg.egrid.size} nodes"))
    p_c_est = estimate_window(cfg)
    if math.isfinite(p_c_est):
        notes.append(("info", f"estimated quasi-particle window: {p_c_est:.4g}"))
        beta_max = C_BETA * math.sqrt(max(cfg.lambda_seq))
        if beta_max >= p_c_est:
            notes.append((
                "warning",
                f"beta(lambda_max) = {beta_max:.4g} "
                f">= estimated window {p_c_est:.4g}; the split bound will "
                "fail at the largest lambda unless the measured window is "
                "wider"
            ))
    if cfg.potential is not None:
        tail = fourier_tail_fraction(cfg.potential, 2.0 * cfg.egrid.q_max)
        if tail > TAIL_TOL:
            notes.append((
                "warning",
                f"potential transform tail beyond 2 Q_max carries a fraction "
                f"{tail:.3e} > TAIL_TOL {TAIL_TOL:g}; enlarge q_max"
            ))
    if cfg.P_list:
        if 0.0 not in cfg.P_list:
            notes.append(("error", "run.P_list must contain P = 0"))
        nonzero = len({p for p in cfg.P_list if abs(p) > 1e-15})
        if nonzero < 4:
            notes.append((
                "warning",
                f"run.P_list has {nonzero} nonzero momenta, fewer than the 4 "
                "the dynamic-mass fit needs: dispersion, staticmass, sandwich "
                "and converge cannot fit a mass, so this config serves "
                "oracle-check only"))
        if len(cfg.P_list) >= 2 and p_c_est and math.isfinite(p_c_est):
            if max(abs(p) for p in cfg.P_list) > 2.0 * p_c_est:
                notes.append(("warning",
                              "run.P_list extends far beyond the estimated "
                              "window; fits ignore those samples"))
    if len(set(cfg.lambda_seq)) < 4:
        notes.append(("warning",
                      "fewer than 4 distinct lambda values: the static-mass "
                      "stage cannot extrapolate and refuses to run"))
    return notes


PRESET_NAMES = ("free", "toy", "small", "powerlaw_g01", "powerlaw_g03",
                "oracle")


def preset_path(name: str) -> str:
    """Filesystem path of a shipped preset config."""
    from importlib.resources import files
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; shipped presets: {', '.join(PRESET_NAMES)}"
        )
    return str(files("polaron_effmass").joinpath("presets", name + ".json"))
