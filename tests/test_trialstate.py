"""Variational upper bounds from dressed ground-state families.

The decisive oracle: with zero coupling every fiber ground state is the
vacuum, the Gram matrix is identically 1, and the bound reduces exactly to
the Rayleigh quotient of the one-particle comparison operator with the
profile vector -- computable independently with plain numpy.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from polaron_effmass import trialstate
from polaron_effmass.dispersion import FiberCache
from polaron_effmass.eigensolve import dense_ground
from polaron_effmass.errors import AnalysisError
from polaron_effmass.model import (ConstantDispersion, FourierBump,
                                   ModelSpec, PoschlTeller, ZeroCoupling)
from polaron_effmass.operators import (ElectronGrid, FiberTemplate,
                                       assemble_schrodinger,
                                       potential_kernel)
from polaron_effmass.staticmass import coupled_ground
from polaron_effmass.trialstate import (_bounded_brent, build_family,
                                        minimize_upper_bound, overlap_matrix,
                                        upper_bound)

POT = PoschlTeller(depth=2.0)
EGRID = ElectronGrid(dq=0.25, q_max=6.0)


@pytest.fixture(scope="module")
def free_cache():
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ZeroCoupling(), dk=0.5, uv_cutoff=1.0,
                     ir_cutoff=0.0, n_max=2)
    return FiberCache(FiberTemplate(spec), tol=1e-11, seed=0)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def test_family_structure(toy_cache):
    P = np.arange(-0.5, 0.5001, 0.1)
    family = build_family(toy_cache, P, gap_threshold=1e-3)
    assert family.size == len(np.unique(np.round(P, 12)))
    assert np.all(np.diff(family.momenta) > 0)
    assert np.allclose(np.linalg.norm(family.vectors, axis=1), 1.0,
                       atol=1e-10)
    assert np.all(family.gaps > 1e-3)
    # phase alignment keeps adjacent vectors close, not sign-flipped
    assert np.all(family.continuity < 0.5)
    i = family.index_of(0.3)
    assert family.momenta[i] == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(AnalysisError):
        family.index_of(0.123456)


def test_family_respects_window(toy_cache):
    with pytest.raises(AnalysisError):
        build_family(toy_cache, [0.0, 0.2, 0.9], p_c=0.5)


def test_overlap_matrix_properties(toy_cache):
    family = build_family(toy_cache, np.arange(-0.4, 0.4001, 0.1))
    g = overlap_matrix(family)
    assert np.allclose(g, g.T)
    assert np.allclose(np.diag(g), 1.0)
    assert np.max(np.abs(g)) <= 1.0 + 1e-10
    assert np.all(g > 0.5)  # smooth family, no sign flips


# ---------------------------------------------------------------------------
# zero-coupling reduction oracle
# ---------------------------------------------------------------------------

def test_upper_bound_reduces_to_rayleigh_quotient(free_cache):
    lam = 0.3
    profile = FourierBump(radius=2.0)
    nodes = lam * EGRID.points
    family = build_family(free_cache, nodes[np.abs(EGRID.points)
                                            <= 2.0 + 1e-12])
    res = upper_bound(lam, family, profile, POT, EGRID, e0=0.0)

    # independent route: Rayleigh quotient of q^2 + W with the profile vector
    q = EGRID.points
    a = np.array([profile.fhat(np.array([qi]))[0] for qi in q]) * math.sqrt(
        EGRID.dq)
    h = assemble_schrodinger(POT, EGRID, 0.5)
    expected = float(a @ h @ a) / float(a @ a)
    assert res.value == pytest.approx(expected, abs=1e-11)
    assert res.norm_sq == pytest.approx(float(a @ a), abs=1e-13)
    # and the bound property itself
    assert res.value >= dense_ground(h) - 1e-11


def test_upper_bound_term_decomposition(free_cache):
    lam = 0.25
    profile = FourierBump(radius=1.5)
    nodes = lam * EGRID.points
    family = build_family(free_cache, nodes[np.abs(EGRID.points)
                                            <= 1.5 + 1e-12])
    res = upper_bound(lam, family, profile, POT, EGRID, e0=0.0)
    assert res.value == pytest.approx(
        (res.fiber_term + res.potential_term) / res.norm_sq, abs=1e-13)
    assert res.fiber_term >= 0.0      # zero-coupling fibers sit at (lam q)^2
    assert res.potential_term < 0.0   # attractive well
    assert res.n_support >= 3


def test_upper_bound_needs_all_support_nodes(free_cache):
    lam = 0.3
    profile = FourierBump(radius=2.0)
    sparse_nodes = lam * np.array([-1.0, 0.0, 1.0])  # missing most support
    family = build_family(free_cache, sparse_nodes)
    with pytest.raises(AnalysisError):
        upper_bound(lam, family, profile, POT, EGRID, e0=0.0)


def test_precomputed_kernel_and_gram_give_same_answer(free_cache):
    lam = 0.3
    profile = FourierBump(radius=2.0)
    nodes = lam * EGRID.points
    family = build_family(free_cache, nodes[np.abs(EGRID.points)
                                            <= 2.0 + 1e-12])
    plain = upper_bound(lam, family, profile, POT, EGRID, e0=0.0)
    primed = upper_bound(lam, family, profile, POT, EGRID, e0=0.0,
                         kernel=potential_kernel(POT, EGRID),
                         gram=overlap_matrix(family))
    assert primed.value == plain.value


# ---------------------------------------------------------------------------
# coupled model: bound property
# ---------------------------------------------------------------------------

def test_upper_bound_dominates_coupled_ground(toy_cfg, toy_cache):
    e0 = toy_cache.energy(0.0)
    for lam in (0.4, 0.2):
        coupled = coupled_ground(toy_cache, toy_cfg.potential,
                                 toy_cfg.egrid, lam, e0, seed=0)
        mub = minimize_upper_bound(lam, toy_cache, toy_cfg.potential,
                                   toy_cfg.egrid, e0, p_c=0.7)
        assert mub.result.value >= coupled.value - 1e-9
        lo, hi = mub.radius_bounds
        assert lo <= mub.radius <= hi
        assert lam * hi <= 0.7 + 1e-9  # support stays inside the window


def test_minimize_upper_bound_reports_search(toy_cfg, toy_cache):
    e0 = toy_cache.energy(0.0)
    mub = minimize_upper_bound(0.4, toy_cache, toy_cfg.potential,
                               toy_cfg.egrid, e0, p_c=0.7)
    assert mub.n_evaluations > 3
    assert mub.family_size >= mub.result.n_support
    assert isinstance(mub.boundary_hit, bool)
    assert mub.result.profile_params == {"type": "bump",
                                         "radius": mub.radius}


# ---------------------------------------------------------------------------
# the bounded Brent port against scipy
# ---------------------------------------------------------------------------

def _scipy_bounded(func, lo, hi, xatol):
    ref = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    return float(ref.x), float(ref.fun), ref.nfev


@pytest.mark.parametrize("func, lo, hi, xatol", [
    (lambda x: (x - 1.3) ** 2 + 0.1 * math.cos(5.0 * x), 0.0, 3.0, 1e-5),
    (lambda x: x * x, 0.5, 2.0, 1e-3),           # minimum at the lower bound
    (lambda x: -math.exp(x), -1.0, 1.5, 1e-3),   # minimum at the upper bound
    (lambda x: 1.0, -2.0, 2.0, 1e-4),            # constant
    (lambda x: abs(x - 0.37), -1.0, 2.0, 1e-6),  # kink at the minimum
])
def test_bounded_brent_matches_scipy_bit_for_bit(func, lo, hi, xatol):
    assert _bounded_brent(func, lo, hi, xatol) == _scipy_bounded(func, lo, hi,
                                                                  xatol)


def test_bounded_brent_matches_scipy_on_the_toy_upper_bound(
        toy_cfg, toy_cache, monkeypatch):
    calls = []

    def recording(func, lo, hi, xatol):
        calls.append((func, lo, hi, xatol, _bounded_brent(func, lo, hi, xatol)))
        return calls[-1][-1]

    monkeypatch.setattr(trialstate, "_bounded_brent", recording)
    mub = minimize_upper_bound(0.4, toy_cache, toy_cfg.potential,
                               toy_cfg.egrid, toy_cache.energy(0.0), p_c=0.7)
    [(func, lo, hi, xatol, found)] = calls
    assert found == _scipy_bounded(func, lo, hi, xatol)
    assert (mub.radius, mub.n_evaluations) == (found[0], found[2] + 1)
