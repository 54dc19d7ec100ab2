"""Reference-table generation, drift detection, and fixture trimming."""

import json
import shutil
from pathlib import Path

import pytest

from polaron_effmass import docsgen
from polaron_effmass.docsgen import (FIXTURE_NAMES, generate_reference_tables,
                                     render_reference, trim_report)
from polaron_effmass.errors import DocsDriftError

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs"
SECTION_TITLES = ("Configuration keys", "Presets", "Report keys",
                  "CSV artifacts", "Frozen run fixtures")


def _docs_copy(tmp_path):
    docs = tmp_path / "docs"
    shutil.copytree(DOCS, docs)
    return docs


def test_fixture_names_frozen():
    assert FIXTURE_NAMES == ("free", "toy", "oracle")


def test_committed_reference_is_in_sync():
    text = generate_reference_tables(str(DOCS), write=False)
    assert isinstance(text, str)


def test_render_contains_all_sections_and_key_rows():
    text = render_reference(str(DOCS))
    for title in SECTION_TITLES:
        assert f"## {title}" in text
    for needle in ("`model.mode_grid.dk`", "`run.lambda_seq`",
                   "`mass_comparison.rel_gap`", "`sandwich.csv`"):
        assert needle in text
    for name in FIXTURE_NAMES:
        assert f"### {name} (" in text


def test_write_mode_round_trips(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    shutil.copytree(DOCS / "fixtures", docs / "fixtures")
    generate_reference_tables(str(docs), write=True)
    assert (docs / "reference.md").exists()
    generate_reference_tables(str(docs), write=False)   # no drift


def test_missing_reference_file(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    shutil.copytree(DOCS / "fixtures", docs / "fixtures")
    with pytest.raises(DocsDriftError, match="missing reference file"):
        generate_reference_tables(str(docs), write=False)


def test_stale_section_is_named(tmp_path):
    docs = _docs_copy(tmp_path)
    ref = docs / "reference.md"
    ref.write_text(ref.read_text().replace("## Presets",
                                           "## Presets\n\nstray line"))
    with pytest.raises(DocsDriftError, match="section 'Presets'"):
        generate_reference_tables(str(docs), write=False)


def test_perturbed_fixture_is_caught(tmp_path):
    docs = _docs_copy(tmp_path)
    fix_path = docs / "fixtures" / "toy.json"
    fix = json.loads(fix_path.read_text())
    fix["metrics"]["mass_comparison.rel_gap"] = 0.5
    fix_path.write_text(json.dumps(fix))
    with pytest.raises(DocsDriftError, match="Frozen run fixtures"):
        generate_reference_tables(str(docs), write=False)


def test_missing_fixture_is_an_error(tmp_path):
    docs = _docs_copy(tmp_path)
    (docs / "fixtures" / "oracle.json").unlink()
    with pytest.raises(DocsDriftError, match="missing docs fixture"):
        generate_reference_tables(str(docs), write=False)


def test_extra_section_is_rejected(tmp_path):
    docs = _docs_copy(tmp_path)
    ref = docs / "reference.md"
    text = ref.read_text()
    if not text.endswith("\n"):
        text += "\n"
    ref.write_text(text + "## Bonus\n\nstray\n")
    with pytest.raises(DocsDriftError, match="unexpected section"):
        generate_reference_tables(str(docs), write=False)


def test_description_of_an_unknown_config_key_is_drift(monkeypatch):
    stale = dict(docsgen._CONFIG_DOC, **{"solver.tol": "Removed key."})
    monkeypatch.setattr(docsgen, "_CONFIG_DOC", stale)
    with pytest.raises(DocsDriftError,
                       match="description for unknown config key "
                             "'solver.tol'"):
        render_reference(str(DOCS))


def test_trim_report_selects_and_rounds():
    report = {
        "subcommand": "sandwich",
        "pass": True,
        "dispersion": {"E0": 0.123456789, "P_c": 0.7,
                       "mass_fit": {"M_dyn": 0.52050911},
                       "perturbative_mass": 0.520039},
        "mass_comparison": {"M_dyn": 0.52050911, "M_stat": 0.52047578,
                            "rel_gap": 6.40583e-05, "pass": True},
        "static_mass": {"e0": -1.01335492},
        "verdict": {"pass": True, "worst_margin": 0.000114118},
        "oracles": {"passed": True, "checks": [1, 2, 3],
                    "worst_random_diff": 4.79616e-14},
    }
    trim = trim_report(report, "toy")
    assert trim["preset"] == "toy"
    assert trim["subcommand"] == "sandwich"
    assert trim["pass"] is True
    m = trim["metrics"]
    assert m["dispersion.E0"] == 0.123457            # 6 significant digits
    assert m["dispersion.M_dyn"] == 0.520509
    assert m["mass_comparison.rel_gap"] == 6.40583e-05
    assert m["static_mass.e0"] == -1.01335
    assert m["oracles.n_checks"] == 3
    assert m["verdict.worst_margin"] == 0.000114118


def test_trim_report_skips_absent_blocks():
    trim = trim_report({"subcommand": "oracle-check", "pass": True,
                        "oracles": {"passed": True, "checks": [],
                                    "worst_random_diff": 0.0}}, "oracle")
    assert set(trim["metrics"]) == {"oracles.passed", "oracles.n_checks",
                                    "oracles.worst_random_diff"}
