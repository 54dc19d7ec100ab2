"""The variational upper bound U* = a^T M a / a^T a on the Galerkin matrix.

The decisive oracle: with zero coupling every fiber ground state near P = 0
is the vacuum, Phi Phi^T is identically 1 there, and M reduces exactly to
the one-particle comparison operator -- assembled independently.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from polaron_effmass.dispersion import FiberCache
from polaron_effmass.eigensolve import dense_ground, verified_floor
from polaron_effmass.errors import AnalysisError, ConfigError
from polaron_effmass.model import (ConstantDispersion, ModelSpec,
                                   PoschlTeller, ZeroCoupling)
from polaron_effmass.operators import (ElectronGrid, FiberTemplate,
                                       assemble_schrodinger,
                                       potential_kernel)
from polaron_effmass.staticmass import coupled_ground, fiber_galerkin
from polaron_effmass.trialstate import (_golden_section, bump,
                                        minimize_upper_bound, upper_bound)

POT = PoschlTeller(depth=2.0)
EGRID = ElectronGrid(dq=0.25, q_max=6.0)


@pytest.fixture(scope="module")
def free_cache():
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ZeroCoupling(), dk=0.5, uv_cutoff=1.0,
                     ir_cutoff=0.0, n_max=2)
    return FiberCache(FiberTemplate(spec), seed=0)


# ---------------------------------------------------------------------------
# the bump profile
# ---------------------------------------------------------------------------

def test_bump_is_normalized_with_compact_support():
    assert bump(np.array([0.8, 1.0]), 0.8).tolist() == [0.0, 0.0]
    assert bump(np.array([0.0]), 0.8)[0] > 0.0
    norm, _ = quad(lambda p: bump(np.array([p]), 0.8)[0] ** 2,
                   -0.8, 0.8, limit=200)
    assert norm == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# zero-coupling reduction oracle
# ---------------------------------------------------------------------------

def test_upper_bound_reduces_to_rayleigh_quotient(free_cache):
    # the cheapest excitation, one phonon at k = 1 with omega 1, costs
    # (P - 1)^2 + 1 > P^2 for |P| < 1: there the fiber ground state is the
    # vacuum at energy P^2, and M is q^2 + W node for node
    lam = 0.3
    q = EGRID.points
    M = fiber_galerkin(free_cache.pairs(lam * q), potential_kernel(POT, EGRID),
                       lam, 0.0)
    h = assemble_schrodinger(POT, EGRID, 0.5)
    vacuum = np.abs(lam * q) < 1.0
    assert np.max(np.abs(M - h)[np.ix_(vacuum, vacuum)]) <= 1e-12

    # the bump of radius 2 lives on those nodes alone
    a = np.array([bump(np.array([qi]), 2.0)[0] for qi in q])
    assert np.all(a[~vacuum] == 0.0)
    expected = float(a @ h @ a) / float(a @ a)
    value = upper_bound(lam, M, 2.0, EGRID)
    assert value == pytest.approx(expected, abs=1e-12)
    # and the bound property itself
    assert value >= np.linalg.eigvalsh(h)[0] - 1e-12


# ---------------------------------------------------------------------------
# the Galerkin matrix on the coupled model
# ---------------------------------------------------------------------------

def test_galerkin_fibers_are_phase_aligned_in_the_window(toy_cfg, toy_cache):
    lam, p_c = 0.4, 0.7
    q = toy_cfg.egrid.points
    nodes, M = _galerkin(toy_cfg, toy_cache, lam)
    phi = nodes.vectors
    assert np.allclose(M, M.T, rtol=0.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(phi, axis=1), 1.0, atol=1e-10)
    inside = phi[np.abs(lam * q) < p_c]
    # phase alignment keeps adjacent vectors close, not sign-flipped
    assert np.all(np.linalg.norm(np.diff(inside, axis=0), axis=1) < 0.5)
    assert np.all(inside @ inside.T > 0.5)


def _galerkin(cfg, cache, lam):
    """The fibers at the nodes lam q_j of the config's grid, and the
    fiber-Galerkin matrix M of `lam` built from them."""
    nodes = cache.pairs(lam * cfg.egrid.points)
    return nodes, fiber_galerkin(
        nodes, potential_kernel(cfg.potential, cfg.egrid), lam,
        cache.pairs([0.0]).energy[0])


def _gap_closed_at(nodes, P, field, value):
    """`nodes`, except that the fiber at momentum P reports a degenerate or
    a too-small gap."""
    at = np.abs(nodes.P - P) < 1e-12
    return replace(nodes,
                   **{field: np.where(at, value, getattr(nodes, field))})


@pytest.mark.parametrize("field, value", [("degenerate", True),
                                          ("gap", 1e-4)])
def test_degenerate_node_inside_the_window_is_rejected(toy_cfg, toy_cache,
                                                       field, value):
    # at lam 0.4 and p_c 0.7 the radius reaches 1.75: the node q = 1 is
    # inside, q = 2.5 is not
    lam = 0.4
    nodes, M = _galerkin(toy_cfg, toy_cache, lam)
    inside = _gap_closed_at(nodes, lam * 1.0, field, value)
    with pytest.raises(AnalysisError, match=r"\(near-\)degenerate"):
        minimize_upper_bound(lam, inside, M, toy_cfg.egrid, p_c=0.7)
    outside = _gap_closed_at(nodes, lam * 2.5, field, value)
    mub = minimize_upper_bound(lam, outside, M, toy_cfg.egrid, p_c=0.7)
    assert math.isfinite(mub.value)


def test_empty_radius_range_is_a_config_error(toy_cfg, toy_cache):
    # p_c / lam = 0.25 lies below the smallest radius 3 dq = 0.75
    with pytest.raises(ConfigError, match="empty radius range"):
        minimize_upper_bound(0.4, *_galerkin(toy_cfg, toy_cache, 0.4),
                             toy_cfg.egrid, p_c=0.1)


# ---------------------------------------------------------------------------
# coupled model: bound property
# ---------------------------------------------------------------------------

def test_upper_bound_dominates_coupled_ground(toy_cfg, toy_cache):
    e0 = toy_cache.pairs([0.0]).energy[0]
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    k_min = verified_floor(kernel, dense_ground(kernel))
    for lam in (0.4, 0.2):
        nodes = toy_cache.pairs(lam * toy_cfg.egrid.points)
        coupled = coupled_ground(toy_cache.template, nodes, kernel, k_min,
                                 toy_cfg.egrid, lam, e0, seed=0)
        # the solve returns the M it built, bit for bit the one
        # fiber_galerkin builds from the same kernel and fibers
        M = coupled.galerkin
        assert np.array_equal(M, fiber_galerkin(nodes, kernel, lam, e0))
        mub = minimize_upper_bound(lam, nodes, M, toy_cfg.egrid, p_c=0.7)
        assert mub.value >= coupled.value - 1e-9
        assert 3.0 * toy_cfg.egrid.dq <= mub.radius
        assert lam * mub.radius < 0.7  # support stays inside the window
        # the lowest eigenvalue of M minimizes the same quotient over all
        # weights, so it lies below U*
        assert np.linalg.eigvalsh(M)[0] <= mub.value


def test_minimize_upper_bound_reports_search(toy_cfg, toy_cache):
    nodes, M = _galerkin(toy_cfg, toy_cache, 0.4)
    mub = minimize_upper_bound(0.4, nodes, M, toy_cfg.egrid, p_c=0.7)
    assert isinstance(mub.boundary_hit, bool)
    # the value is the quotient at the radius reported with it
    assert mub.value == upper_bound(0.4, M, mub.radius, toy_cfg.egrid)


# ---------------------------------------------------------------------------
# the golden-section radius search
# ---------------------------------------------------------------------------

def _interior(x):
    return (x - 1.3) ** 2 + 0.1 * math.cos(5.0 * x)


@pytest.mark.parametrize("func, lo, hi, xatol, minimizer", [
    (_interior, 0.0, 3.0, 1e-5,
     minimize_scalar(_interior, bounds=(0.0, 3.0), method="bounded",
                     options={"xatol": 1e-12}).x),
    (lambda x: x * x, 0.5, 2.0, 1e-3, 0.5),
    (lambda x: -math.exp(x), -1.0, 1.5, 1e-3, 1.5),
    (lambda x: 1.0, -2.0, 2.0, 1e-4, None),
    (lambda x: abs(x - 0.37), -1.0, 2.0, 1e-6, 0.37),
], ids=["interior", "lower_bound", "upper_bound", "constant", "kink"])
def test_golden_section_lands_within_xatol(func, lo, hi, xatol, minimizer):
    x = _golden_section(func, lo, hi, xatol)
    assert lo <= x <= hi
    if minimizer is not None:
        assert abs(x - minimizer) <= xatol


def test_upper_bound_is_no_worse_than_scipy_bounded_brent(toy_cfg, toy_cache):
    # scipy's bounded Brent search, the reference: U* may only be lower
    egrid = toy_cfg.egrid
    for lam in toy_cfg.lambda_seq:
        nodes, M = _galerkin(toy_cfg, toy_cache, lam)
        mub = minimize_upper_bound(lam, nodes, M, egrid, p_c=0.7)
        ref = minimize_scalar(
            lambda r: upper_bound(lam, M, float(r), egrid),
            bounds=(3.0 * egrid.dq, min(0.7 / lam * (1.0 - 1e-9), egrid.q_max)),
            method="bounded", options={"xatol": 1e-3})
        assert mub.value <= ref.fun + 1e-7
