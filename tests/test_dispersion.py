"""Dispersion scan, caching, curvature fit, certificates, ceilings."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polaron_effmass import dispersion
from polaron_effmass.dispersion import (DispersionCurve, FiberCache,
                                        FiberNodes, certify_quasi_parabolic,
                                        check_ceilings, estimate_Pc,
                                        fit_dynamic_mass, perturbative_mass,
                                        scan_dispersion)
from polaron_effmass.eigensolve import lowest_two
from polaron_effmass.errors import AnalysisError, DomainError
from polaron_effmass.model import ConstantDispersion, ModelSpec, ZeroCoupling
from polaron_effmass.operators import FiberTemplate


def _free_template():
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ZeroCoupling(), dk=0.5, uv_cutoff=1.0,
                     ir_cutoff=0.0, n_max=2)
    return FiberTemplate(spec)


def _synthetic(mass, quartic, P_values):
    """(P, E(P) - E0) of the dispersion P^2/(2 mass) + quartic P^4."""
    P = np.asarray(P_values, dtype=float)
    return P, P * P / (2 * mass) + quartic * P**4


def _curve(P, energy, gap=1.0):
    """A curve through (P, energy) pinned at E0 = 0, with the given gaps."""
    P = np.asarray(P, dtype=float)
    nodes = FiberNodes(P=P, energy=np.asarray(energy, dtype=float),
                       gap=np.broadcast_to(np.asarray(gap, float), P.shape),
                       residual=np.zeros(P.shape),
                       excited_residual=np.zeros(P.shape),
                       degenerate=np.zeros(P.shape, bool),
                       vectors=np.zeros((P.size, 0)))
    return DispersionCurve(nodes=nodes, e0=0.0)


# ---------------------------------------------------------------------------
# scanning and caching
# ---------------------------------------------------------------------------

def test_free_model_dispersion_is_exact_parabola(monkeypatch):
    monkeypatch.setattr(dispersion, "_FIBER_TOL", 1e-11)
    P_list = np.arange(-0.7, 0.7001, 0.1)
    curve = scan_dispersion(FiberCache(_free_template()), P_list)
    assert curve.e0 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(curve.nodes.energy, curve.nodes.P**2, atol=1e-10)
    # the first excited state is one field quantum away
    assert np.all(curve.nodes.gap > 0.5)


def test_scan_requires_origin():
    with pytest.raises(DomainError):
        scan_dispersion(FiberCache(_free_template()), [0.1, 0.2])


def test_cache_reuses_parity_and_counts_solves(toy_template):
    cache = FiberCache(toy_template, seed=0)
    plus = cache.pairs([0.3])
    solves_after_plus = cache.solves()
    minus = cache.pairs([-0.3])
    assert cache.solves() == solves_after_plus  # -P came from parity, free
    assert minus.energy[0] == pytest.approx(plus.energy[0], abs=1e-11)
    assert plus.vectors.shape == minus.vectors.shape
    assert np.linalg.norm(minus.vectors[0]) == pytest.approx(1.0, abs=1e-10)


def test_cache_parity_vector_matches_independent_solve(toy_template,
                                                      monkeypatch):
    monkeypatch.setattr(dispersion, "_FIBER_TOL", 1e-11)
    cache = FiberCache(toy_template, seed=0)
    v_minus = cache.pairs([-0.4]).vectors[0]
    fresh = FiberCache(toy_template, seed=4)
    w = fresh.pairs([-0.4]).vectors[0]
    # align signs before comparing: eigenvectors are defined up to sign
    if float(w @ v_minus) < 0:
        w = -w
    assert np.max(np.abs(w - v_minus)) < 1e-8


def test_cache_keeps_the_excited_residual_for_parity_images_too(toy_cache):
    # the coupled solve's enclosure floors each node's excited level with
    # it; the -P record carries the +P record's value, which is the same
    # residual because the mode reflection maps H(P) onto H(-P)
    template = toy_cache.template
    nodes = toy_cache.pairs([0.35, -0.35])
    pair, = lowest_two(template.operator([0.35]), tol=dispersion._FIBER_TOL,
                       seed=toy_cache.seed)
    assert nodes.excited_residual.tolist() == [pair.residuals[1]] * 2
    assert nodes.residual.tolist() == [pair.residuals[0]] * 2


def test_cache_pair_record_fields(toy_cache):
    nodes = toy_cache.pairs([0.0])
    assert nodes.P.tolist() == [0.0]
    for field in ("energy", "gap", "degenerate", "residual"):
        assert getattr(nodes, field).shape == (1,), field
    assert nodes.vectors.shape == (1, toy_cache.template.dim)
    pair, = lowest_two(toy_cache.template.operator([0.0]),
                       tol=dispersion._FIBER_TOL, seed=toy_cache.seed)
    assert nodes.energy[0] == pair.values[0]
    assert nodes.gap[0] == pytest.approx(pair.values[1] - pair.values[0])
    assert not nodes.degenerate[0]


class _CountingBatch:
    """Delegates to a batch of fibers and counts the vectors it applies."""

    def __init__(self, op):
        self.op, self.dim, self.calls = op, op.dim, 0

    def __len__(self):
        return len(self.op)

    def apply(self, members, X):
        self.calls += len(X)
        return self.op.apply(members, X)

    def diagonals(self):
        return self.op.diagonals()


def test_fiber_pair_reports_its_work(toy_template):
    op = _CountingBatch(toy_template.operator([0.0]))
    pair, = lowest_two(op, tol=dispersion._FIBER_TOL, seed=0)
    # every application, the two fresh residual matvecs included
    assert pair.matvecs == op.calls
    assert pair.iterations > 0
    cache = FiberCache(toy_template, seed=0)
    cache.pairs([0.0])
    assert (cache.work("iterations"), cache.work("matvecs"),
            cache.work("restarts")) == (pair.iterations, pair.matvecs,
                                        pair.restarts)
    cache.pairs([0.3])
    cache.pairs([-0.3])   # from parity: no solve, no work
    assert cache.solves() == 2
    plus, = lowest_two(toy_template.operator([0.3]),
                       tol=dispersion._FIBER_TOL, seed=0)
    assert cache.work("matvecs") == pair.matvecs + plus.matvecs
    assert cache.work("iterations") == pair.iterations + plus.iterations


@pytest.mark.parametrize("model", ["toy", "small", "small n_max-1"])
def test_a_batch_gives_the_records_of_single_requests(batch_templates, model,
                                                      rng):
    # +P and -P of the same momentum, -P alone, +P alone and 0, shuffled
    template = batch_templates[model]
    P = np.round(rng.uniform(0.05, 1.0, 12), 6)
    Ps = [0.0, *P[:8], *-P[4:]]
    rng.shuffle(Ps)
    batched = FiberCache(template, seed=0)
    nodes = batched.pairs(Ps)
    assert batched.solves() == 13        # 12 |P| and 0, in one batch
    assert np.array_equal(nodes.P, Ps)
    single = FiberCache(template, seed=0)
    for i, P in enumerate(Ps):
        ref = single.pairs([P])
        for field in ("energy", "gap", "residual", "degenerate", "vectors"):
            assert np.array_equal(getattr(nodes, field)[i],
                                  getattr(ref, field)[0]), (P, field)
    for key in ("iterations", "matvecs", "restarts"):
        assert batched.work(key) == single.work(key), key


@pytest.mark.parametrize("model", ["toy", "small", "small n_max-1"])
def test_a_fiber_gets_the_same_bits_alone_or_in_a_batch_of_20(batch_templates,
                                                              model, rng):
    template = batch_templates[model]
    Ps = rng.uniform(-1.1, 1.1, 20)
    batch = lowest_two(template.operator(Ps), tol=dispersion._FIBER_TOL,
                       seed=0)
    assert len({pair.iterations for pair in batch}) > 1  # members leave apart
    for P, pair in zip(Ps, batch):
        alone, = lowest_two(template.operator([P]), tol=dispersion._FIBER_TOL,
                            seed=0)
        for field in ("values", "residuals", "gap", "degenerate",
                      "iterations", "matvecs", "restarts"):
            assert getattr(pair, field) == getattr(alone, field), (P, field)
        for u, v in zip(pair.vectors, alone.vectors):
            assert np.array_equal(u, v), P


# ---------------------------------------------------------------------------
# curvature fit
# ---------------------------------------------------------------------------

def test_fit_recovers_synthetic_mass_and_quartic():
    P, dE = _synthetic(mass=0.7, quartic=-0.05,
                       P_values=np.arange(-0.8, 0.8001, 0.05))
    fit = fit_dynamic_mass(P, dE, P_fit=0.8)
    assert fit.mass == pytest.approx(0.7, rel=1e-10)
    assert fit.quartic == pytest.approx(-0.05, rel=1e-8)
    assert fit.rms < 1e-12
    assert fit.window == pytest.approx(0.8)
    assert fit.n_samples == 32  # origin excluded


def test_fit_window_defaults_inside_certified_region():
    P, dE = _synthetic(mass=0.5, quartic=0.0,
                       P_values=np.arange(-0.9, 0.9001, 0.05))
    fit = fit_dynamic_mass(P, dE, P_c=0.4)
    assert fit.window <= 0.2 + 1e-12
    assert fit.mass == pytest.approx(0.5, rel=1e-9)
    assert abs(fit.window_sensitivity) < 1e-9


def test_fit_rejects_concave_curves():
    P = np.arange(-0.5, 0.5001, 0.1)
    with pytest.raises(AnalysisError):
        fit_dynamic_mass(P, -P * P)


# ---------------------------------------------------------------------------
# certificates, ceilings, window estimate
# ---------------------------------------------------------------------------

def test_certificate_is_zero_for_exact_parabola():
    curve = _curve(*_synthetic(mass=0.5, quartic=0.0,
                               P_values=np.arange(-0.8, 0.8001, 0.1)))
    cert = certify_quasi_parabolic(curve, mass=0.5)
    assert cert.c_min == pytest.approx(0.0, abs=1e-12)
    assert cert.margin >= -1e-12


def test_certificate_detects_flattening():
    # E = P^2 - 0.3 P^4 bends below the parabola: C_min must be positive
    curve = _curve(*_synthetic(mass=0.5, quartic=-0.3,
                               P_values=np.arange(-0.8, 0.8001, 0.1)))
    cert = certify_quasi_parabolic(curve, mass=0.5)
    assert cert.c_min > 0.0
    # hand value at the worst sample: E >= E0 + P^2/(2m(1+CP^2)) solved for C
    P, E = 0.8, 0.8**2 - 0.3 * 0.8**4
    c_hand = (P * P / (2 * 0.5 * E) - 1.0) / (P * P)
    assert cert.c_min == pytest.approx(c_hand, rel=1e-9)
    assert cert.worst_P == pytest.approx(0.8)


def test_ceilings_hold_on_free_model():
    template = _free_template()
    curve = scan_dispersion(FiberCache(template), np.arange(-0.7, 0.7001, 0.1))
    report = check_ceilings(curve, template)
    assert report.passed
    assert report.one_phonon_margin >= -1e-9
    assert report.parabola_margin >= -1e-9
    assert report.violations == ()


def test_ceilings_hold_on_coupled_model(toy_template, toy_cache):
    curve = scan_dispersion(toy_cache, np.arange(-0.7, 0.7001, 0.1))
    report = check_ceilings(curve, toy_template)
    assert report.passed


def _ceilings_by_loop(curve, template):
    """(one-phonon margin, parabola margin, violations), sample by sample."""
    k, omg = template.grid.momenta, template.omegas
    inv2m = 1.0 / (2.0 * template.spec.mass)
    floor = -dispersion._CERTIFY_TOL * max(1.0, abs(curve.e0))
    one_ph = parab = math.inf
    violations = []
    for p, energy in zip(curve.nodes.P, curve.nodes.energy):
        m1 = float(np.min((p - k) ** 2 * inv2m + omg)) - energy
        m2 = curve.e0 + p * p * inv2m - energy
        one_ph, parab = min(one_ph, m1), min(parab, m2)
        violations += [(name, float(p), m) for name, m in
                       (("one_phonon", m1), ("parabola", m2)) if m < floor]
    return one_ph, parab, tuple(violations)


def test_ceilings_match_a_per_sample_loop(toy_template, toy_cache):
    curve = scan_dispersion(toy_cache, np.arange(-0.7, 0.7001, 0.1))
    # lift three samples over their ceilings so that violations show
    lifted = np.isin(np.round(curve.nodes.P, 9), [-0.5, 0.1, 0.6])
    raised = replace(curve, nodes=replace(
        curve.nodes, energy=curve.nodes.energy + np.where(lifted, 2.0, 0.0)))
    for c in (curve, raised):
        report = check_ceilings(c, toy_template)
        assert (report.one_phonon_margin, report.parabola_margin,
                report.violations) == _ceilings_by_loop(c, toy_template)
    assert {round(v[1], 9) for v in report.violations} == {-0.5, 0.1, 0.6}
    assert not report.passed


def test_estimate_pc_tracks_gap_closing():
    P = np.arange(-1.0, 1.0001, 0.1)
    curve = _curve(P, P * P, gap=np.where(np.abs(P) < 0.65, 1.0, 1e-6))
    assert dispersion.GAP_THRESHOLD == 1e-3
    assert estimate_Pc(curve) == pytest.approx(0.6)


def test_estimate_pc_needs_gap_at_origin():
    curve = _curve([0.0, 0.5], [0.0, 0.25], gap=[1e-9, 1.0])
    with pytest.raises(AnalysisError):
        estimate_Pc(curve)


# ---------------------------------------------------------------------------
# weak-coupling mass oracle
# ---------------------------------------------------------------------------

def test_perturbative_mass_is_bare_mass_without_coupling():
    template = _free_template()
    P_list = np.arange(-0.7, 0.7001, 0.05)
    assert perturbative_mass(template, P_list) == pytest.approx(0.5,
                                                                rel=1e-12)


def test_perturbative_mass_tracks_weak_coupling(toy_template, toy_cache):
    """At g = 0.2 the second-order mass agrees with the measured curvature
    to a few parts in 1e3 (the residual is fourth order)."""
    P_list = np.arange(-0.7, 0.7001, 0.05)
    curve = scan_dispersion(toy_cache, P_list)
    fit = fit_dynamic_mass(curve.nodes.P, curve.nodes.energy - curve.e0,
                           P_c=estimate_Pc(curve))
    m2 = perturbative_mass(toy_template, P_list, P_fit=fit.window)
    assert m2 == pytest.approx(fit.mass, rel=5e-3)
    assert m2 > 0.5  # coupling makes the composite object heavier
