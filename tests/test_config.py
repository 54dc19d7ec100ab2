"""Strict config parsing, schema errors, presets, physics diagnostics."""

import copy
import dataclasses
import json
import math
import re

import pytest

from polaron_effmass import config as config_module
from polaron_effmass.config import (PRESET_NAMES, estimate_window,
                                    load_config, parse_config, preset_path,
                                    validate_config)
from polaron_effmass.errors import ConfigError
from polaron_effmass.model import (ConstantDispersion, GaussianWell,
                                   ModelSpec, PoschlTeller, PowerLawCoupling,
                                   ZeroCoupling)
from polaron_effmass.staticmass import DEFAULT_LAMBDA_SEQ


def _base():
    return {
        "model": {
            "dimension": 1,
            "n_max": 2,
            "mode_grid": {"dk": 1.0, "uv_cutoff": 1.0, "ir_cutoff": 0.5},
            "dispersion": {"type": "constant", "omega0": 1.0},
            "coupling": {"type": "constant", "g": 0.2},
        },
        "potential": {"type": "poschl_teller", "depth": 2.0},
    }


def _mutated(**paths):
    data = copy.deepcopy(_base())
    for dotted, value in paths.items():
        keys = dotted.split("__")
        node = data
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return data


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_all_presets_parse_and_validate():
    for name in PRESET_NAMES:
        cfg = load_config(name)
        assert cfg.egrid.size >= 9
        assert all(l > 0 for l in cfg.lambda_seq)
        notes = validate_config(cfg.raw)
        assert [n for n in notes if n[0] == "error"] == []


def test_clean_presets_have_no_warnings():
    for name in ("free", "toy"):
        notes = validate_config(load_config(name).raw)
        assert [n for n in notes if n[0] == "warning"] == []


@pytest.mark.parametrize("name", ["free", "toy", "small", "powerlaw_g01",
                                  "powerlaw_g03"])
def test_static_presets_resolve_their_potential_tail(name):
    # every preset that builds a coupled operator keeps within TAIL_TOL
    notes = validate_config(load_config(name).raw)
    assert [n for n in notes if "tail" in n[1]] == []


def test_validate_notes_match_a_tight_tail_quadrature(monkeypatch,
                                                      tight_tail_fraction):
    # the presets, plus a grid too short for the Poschl-Teller tail (2e-6)
    raws = [load_config(name).raw for name in PRESET_NAMES]
    raws.append(_mutated(run__electron_grid={"dq": 0.25, "q_max": 5.0}))
    notes = [validate_config(raw) for raw in raws]
    assert any("2.041e-06 > TAIL_TOL" in message for _, message in notes[-1])
    monkeypatch.setattr(config_module, "fourier_tail_fraction",
                        tight_tail_fraction)
    assert [validate_config(raw) for raw in raws] == notes


def test_preset_path_rejects_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_path("gigantic")


# ---------------------------------------------------------------------------
# schema violations carry the dotted key path
# ---------------------------------------------------------------------------

def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config key '<top>.modle'"):
        parse_config(_mutated(modle={}))


def test_unknown_nested_key():
    with pytest.raises(ConfigError,
                       match="unknown config key 'model.mode_grid.dkk'"):
        parse_config(_mutated(model__mode_grid__dkk=0.5))


def test_unknown_variant_key():
    # width belongs to the gaussian well, not this potential
    with pytest.raises(ConfigError,
                       match="unknown config key 'potential.width'"):
        parse_config(_mutated(potential__width=1.0))


def test_missing_required_keys():
    with pytest.raises(ConfigError,
                       match="missing required config key 'model.mode_grid.dk'"):
        parse_config(_mutated(model__mode_grid__dk=...))
    with pytest.raises(ConfigError,
                       match="missing required config key '<top>.potential'"):
        parse_config(_mutated(potential=...))


@pytest.mark.parametrize("dimension", [0, 2, 3])
def test_dimension_other_than_one_is_rejected(dimension):
    with pytest.raises(ConfigError, match="'model.dimension'"):
        parse_config(_mutated(model__dimension=dimension))


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError,
                       match="'model.dimension' must be an integer"):
        parse_config(_mutated(model__dimension=1.5))
    with pytest.raises(ConfigError,
                       match="'model.mode_grid' must be an object"):
        parse_config(_mutated(model__mode_grid="fine"))
    with pytest.raises(ConfigError,
                       match="'model.dispersion.omega0' must be a number"):
        parse_config(_mutated(model__dispersion__omega0="one"))
    # booleans are not accepted where numbers are expected
    with pytest.raises(ConfigError,
                       match="'model.mode_grid.dk' must be a number"):
        parse_config(_mutated(model__mode_grid__dk=True))


def test_bad_variant_names_list_the_choices():
    for kind in ("quadratic", "tabulated"):
        with pytest.raises(ConfigError, match=r"model.dispersion.type must be "
                                              r"one of \['constant'\]"):
            parse_config(_mutated(model__dispersion__type=kind))
    with pytest.raises(ConfigError, match="model.coupling.type must be one of"):
        parse_config(_mutated(model__coupling__type="cubic"))
    with pytest.raises(ConfigError, match="potential.type must be one of"):
        parse_config(_mutated(potential={"type": "coulomb"}))
    with pytest.raises(ConfigError, match=r"potential.type must be one of "
                                          r"\['gaussian_well', 'none', "
                                          r"'poschl_teller'\]"):
        parse_config(_mutated(potential={"type": "soft_step", "depth": 1.0}))


def test_run_value_guards():
    with pytest.raises(ConfigError, match="lambda_seq entries must be positive"):
        parse_config(_mutated(run__lambda_seq=[0.4, 0.0]))
    with pytest.raises(ConfigError, match="unknown config key 'run.threads'"):
        parse_config(_mutated(run__threads=1))


@pytest.mark.parametrize("key", ["P_list", "lambda_seq"])
@pytest.mark.parametrize("entry", ["0.28", "a", [0.1], None, True])
def test_list_entries_must_be_numbers(key, entry):
    # a numeric string would pass a bare float(); the others would escape
    # as ValueError or TypeError instead of a config error
    with pytest.raises(ConfigError,
                       match=rf"'run\.{key}\[1\]' must be a number"):
        parse_config(_mutated(**{f"run__{key}": [0.4, entry, 0.1]}))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path, shown", [
    ("run__lambda_seq", "run.lambda_seq[1]"),
    ("run__P_list", "run.P_list[1]"),
    ("model__coupling__g", "model.coupling.g"),
    ("model__mode_grid__dk", "model.mode_grid.dk"),
    ("potential__depth", "potential.depth"),
    ("run__electron_grid__dq", "run.electron_grid.dq"),
])
def test_non_finite_numbers_name_the_key(path, shown, value):
    # json reads NaN and Infinity as floats; a list keeps its other entries
    if path.startswith("run__electron_grid"):
        value = {"dq": value, "q_max": 6.0}
        path = "run__electron_grid"
    elif path in ("run__lambda_seq", "run__P_list"):
        value = [0.4, value, 0.1]
    with pytest.raises(ConfigError, match=re.escape(f"'{shown}' must be finite")):
        parse_config(_mutated(**{path: value}))


def test_non_finite_literals_in_a_config_file_are_config_errors(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_mutated(run__lambda_seq=[0.4, math.nan, 0.2,
                                                         0.14, 0.1])),
                    encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    with pytest.raises(ConfigError, match=r"'run\.lambda_seq\[1\]' must be "
                                          "finite"):
        load_config(str(path))


# tolerances and trial knobs are module constants, not config keys
@pytest.mark.parametrize("path, value", [
    ("trial", {}), ("solver", {}),
    ("trial.profile", "bump"), ("trial.xatol", 1e-3),
    ("trial.radius_bounds", [0.5, 2.0]),
    ("solver.tol", 1e-9), ("solver.coupled_tol", 1e-9),
    ("solver.tail_tol", 1e-6),
    ("run.gap_threshold", 1e-3), ("run.fit_rms_tol", 1e-3),
    ("run.ordering_tol", 1e-8), ("run.c_eps", 2.0), ("run.c_beta", 1.0),
    ("run.P_fit", 0.3), ("run.mass_rel_tol", 0.02),
])
def test_removed_keys_are_unknown(path, value):
    # a key inside a removed block is reported as the block itself
    block = path.split(".")[0]
    shown = path if block == "run" else f"<top>.{block}"
    with pytest.raises(ConfigError, match=f"unknown config key '{shown}'"):
        parse_config(_mutated(**{path.replace(".", "__"): value}))


# ---------------------------------------------------------------------------
# builders and defaults
# ---------------------------------------------------------------------------

def test_defaults_of_minimal_config():
    cfg = parse_config(_base())
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "raw", "spec", "potential", "egrid", "P_list", "lambda_seq", "seed",
        "out_dir"]
    assert cfg.raw == _base()
    assert cfg.spec.n_max == 2 and cfg.spec.ir_cutoff == 0.5
    assert cfg.potential == PoschlTeller(depth=2.0)
    assert cfg.egrid.dq == 0.25 and cfg.egrid.q_max == 6.0
    assert cfg.egrid.size == 49
    assert cfg.lambda_seq == DEFAULT_LAMBDA_SEQ
    assert cfg.P_list == ()
    assert cfg.seed == 0 and cfg.out_dir == "out"


def test_builders_produce_the_right_objects():
    data = _mutated(
        model__coupling={"type": "powerlaw", "g": 0.1, "s": 0.5},
        potential={"type": "gaussian_well", "depth": 1.5, "width": 0.8},
    )
    cfg = parse_config(data)
    assert isinstance(cfg.spec.coupling, PowerLawCoupling)
    assert cfg.spec.coupling.g == 0.1 and cfg.spec.coupling.s == 0.5
    assert isinstance(cfg.potential, GaussianWell)
    assert cfg.potential.depth == 1.5 and cfg.potential.width == 0.8

    cfg2 = parse_config(_mutated(
        model__coupling={"type": "zero"},
        potential={"type": "gaussian_well", "depth": 1.0},
    ))
    assert isinstance(cfg2.spec.coupling, ZeroCoupling)
    assert cfg2.potential == GaussianWell(depth=1.0, width=1.0)

    cfg3 = parse_config(_mutated(potential={"type": "none"}))
    assert cfg3.potential is None
    assert isinstance(cfg3.spec.dispersion, ConstantDispersion)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def test_load_config_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_base()), encoding="utf-8")
    cfg = load_config(str(path))
    assert isinstance(cfg.potential, PoschlTeller)


def test_load_config_reports_json_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n  bad}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2, column 3"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/exp.json")


# ---------------------------------------------------------------------------
# physics diagnostics
# ---------------------------------------------------------------------------

def test_estimate_window_hand_values():
    # single mode |k| = 1, omega = 1: crossing at (1 + 1)/2 = 1
    assert estimate_window(parse_config(_base())) == pytest.approx(1.0)
    # modes 0.5 and 1.0: min(1.25/1, 2/2) = 1.0
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ZeroCoupling(), dk=0.5, uv_cutoff=1.0,
                     ir_cutoff=0.0, n_max=1)
    cfg = parse_config(_mutated(
        model__mode_grid={"dk": 0.5, "uv_cutoff": 1.0},
        model__coupling={"type": "zero"}, model__n_max=1))
    assert cfg.spec.mode_grid().size == spec.mode_grid().size
    assert estimate_window(cfg) == pytest.approx(1.0)


def test_estimate_window_no_nonzero_modes_is_infinite():
    cfg = parse_config(_mutated(
        model__mode_grid={"dk": 1.0, "uv_cutoff": 0.4},
        model__coupling={"type": "zero"}))
    assert math.isinf(estimate_window(cfg))


def test_validate_flags_missing_origin_in_P_list():
    notes = validate_config(_mutated(run__P_list=[-0.2, 0.2]))
    assert ("error", "run.P_list must contain P = 0") in notes


def test_validate_warns_on_short_lambda_sequence():
    notes = validate_config(_mutated(run__lambda_seq=[0.4, 0.2, 0.1]))
    assert any(s == "warning" and "fewer than 4" in m for s, m in notes)


def test_validate_warns_when_scaling_exceeds_window():
    notes = validate_config(_mutated(run__lambda_seq=[1.5, 1.2, 1.0, 0.8]))
    msgs = [m for s, m in notes if s == "warning"]
    assert any("split bound" in m for m in msgs)


def test_validate_reports_size_info():
    notes = validate_config(_base())
    assert notes[0][0] == "info"
    assert "field modes" in notes[0][1]
