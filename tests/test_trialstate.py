"""The variational upper bound U* = a^T M a / a^T a at the Schroedinger
envelope.

The decisive oracle: with zero coupling every fiber ground state near P = 0
is the vacuum, Phi Phi^T is identically 1 there, and M reduces exactly to
the one-particle comparison operator -- assembled independently -- whose
ground state is the envelope.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from polaron_effmass.dispersion import FiberCache
from polaron_effmass.eigensolve import dense_ground, verified_floor
from polaron_effmass.model import (ConstantDispersion, ModelSpec,
                                   PoschlTeller, ZeroCoupling)
from polaron_effmass.operators import (ElectronGrid, FiberTemplate,
                                       assemble_coupled_llp,
                                       assemble_schrodinger,
                                       potential_kernel)
from polaron_effmass.staticmass import coupled_ground, fiber_split
from polaron_effmass.trialstate import (envelope, minimize_upper_bound,
                                        upper_bound)

POT = PoschlTeller(depth=2.0)
EGRID = ElectronGrid(dq=0.25, q_max=6.0)
# any mass gives a bound; this one is near toy's dynamic mass
TOY_MASS = 0.52


@pytest.fixture(scope="module")
def free_cache():
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ZeroCoupling(), dk=0.5, uv_cutoff=1.0,
                     ir_cutoff=0.0, n_max=2)
    return FiberCache(FiberTemplate(spec), seed=0)


def _split(cfg, cache, lam):
    """The split (:func:`fiber_split`) at `lam` of the fibers at the nodes
    lam q_j of the config's grid."""
    return fiber_split(
        cache.template, cache.pairs(lam * cfg.egrid.points),
        potential_kernel(cfg.potential, cfg.egrid), lam,
        cache.pairs([0.0]).energy[0])


def _unit_rows(vectors):
    """The rows of `vectors` normalized, as :func:`fiber_split` takes them."""
    return vectors / np.sqrt(np.vecdot(vectors, vectors))[:, None]


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

def test_envelope_is_the_positive_comparison_ground_state():
    a = envelope(POT, EGRID, 0.5)
    h = assemble_schrodinger(potential_kernel(POT, EGRID), EGRID, 0.5)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-14)
    assert np.all(a > 0.0)
    assert np.allclose(a, a[::-1], rtol=0.0, atol=1e-12)
    energy = dense_ground(h)
    assert np.linalg.norm(h @ a - energy * a) <= 1e-12
    assert upper_bound(0.1, h, a) == pytest.approx(energy, abs=1e-13)


# ---------------------------------------------------------------------------
# zero-coupling reduction oracle
# ---------------------------------------------------------------------------

def test_upper_bound_reduces_to_rayleigh_quotient(free_cache):
    # the cheapest excitation, one phonon at k = 1 with omega 1, costs
    # (P - 1)^2 + 1 > P^2 for |P| < 1: there the fiber ground state is the
    # vacuum at energy P^2, and M is q^2 + W node for node.  At lam 0.1
    # every node |q| <= 6 is one of them, so U* is E(1/2) itself.
    lam = 0.1
    q = EGRID.points
    assert np.all(np.abs(lam * q) < 1.0)
    fg = fiber_split(free_cache.template, free_cache.pairs(lam * q),
                     potential_kernel(POT, EGRID), lam, 0.0)
    h = assemble_schrodinger(potential_kernel(POT, EGRID), EGRID, 0.5)
    assert np.max(np.abs(fg.matrix - h)) <= 1e-12
    value = minimize_upper_bound(lam, fg.matrix, envelope(POT, EGRID, 0.5))
    assert value == pytest.approx(dense_ground(h), abs=1e-12)


# ---------------------------------------------------------------------------
# the Galerkin matrix on the coupled model
# ---------------------------------------------------------------------------

def test_galerkin_fibers_are_phase_aligned_in_the_window(toy_cfg, toy_cache):
    lam, p_c = 0.4, 0.7
    q = toy_cfg.egrid.points
    fg = _split(toy_cfg, toy_cache, lam)
    phi = _unit_rows(toy_cache.pairs(lam * q).vectors)
    assert np.allclose(fg.matrix, fg.matrix.T, rtol=0.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(phi, axis=1), 1.0, atol=1e-10)
    inside = phi[np.abs(lam * q) < p_c]
    # phase alignment keeps adjacent vectors close, not sign-flipped
    assert np.all(np.linalg.norm(np.diff(inside, axis=0), axis=1) < 0.5)
    assert np.all(inside @ inside.T > 0.5)


@pytest.mark.parametrize("lam", [0.4, 0.1])
def test_u_star_is_the_quotient_of_its_explicit_trial_vector(toy_cfg,
                                                             toy_cache, lam,
                                                             unfold):
    egrid = toy_cfg.egrid
    fg = _split(toy_cfg, toy_cache, lam)
    a = envelope(toy_cfg.potential, egrid, TOY_MASS)
    u_star = minimize_upper_bound(lam, fg.matrix, a)
    # Z a, node j carrying a_j Phi_j, is even under J (x) R: its fold keeps
    # the nodes q_j >= 0, those past node 0 scaled by sqrt(2)
    X = a[:, None] * _unit_rows(toy_cache.pairs(lam * egrid.points).vectors)
    op = assemble_coupled_llp(toy_cache.template,
                              potential_kernel(toy_cfg.potential, egrid),
                              egrid, lam, toy_cache.pairs([0.0]).energy[0])
    rows = X[egrid.size // 2:].copy()
    rows[1:] *= math.sqrt(2.0)
    x = op.from_rows(rows)
    assert np.allclose(unfold(op, x), X.ravel(), rtol=0.0, atol=1e-14)
    quotient = float(x @ op.matvec(x)) / float(x @ x)
    assert u_star == pytest.approx(quotient, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# coupled model: bound property
# ---------------------------------------------------------------------------

def test_upper_bound_dominates_coupled_ground(toy_cfg, toy_cache):
    e0 = toy_cache.pairs([0.0]).energy[0]
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    k_min = verified_floor(kernel, dense_ground(kernel))
    a = envelope(toy_cfg.potential, toy_cfg.egrid, TOY_MASS)
    for lam in (0.4, 0.2):
        nodes = toy_cache.pairs(lam * toy_cfg.egrid.points)
        coupled = coupled_ground(toy_cache.template, nodes, kernel, k_min,
                                 toy_cfg.egrid, lam, e0, seed=0)
        # the solve returns the M of its fiber split, bit for bit the one
        # fiber_split builds from the same kernel and fibers
        M = coupled.galerkin
        assert np.array_equal(M, fiber_split(toy_cache.template, nodes,
                                             kernel, lam, e0).matrix)
        value = minimize_upper_bound(lam, M, a)
        assert value >= coupled.value - 1e-9
        # the lowest eigenvalue of M minimizes the same quotient over all
        # weights, so it lies below U*
        assert coupled.upper <= value


def _bump(q, radius):
    """(1 - (q/R)^2)^2 on |q| < R, 0 elsewhere: a compactly supported
    profile, tuned over R below as the reference."""
    u2 = (np.asarray(q, float) / radius) ** 2
    return np.where(u2 < 1.0, (1.0 - u2) ** 2, 0.0)


def test_upper_bound_is_no_worse_than_scipy_bounded_brent(toy_cfg, toy_cache):
    # scipy's bounded Brent search over a bump profile's radius, kept
    # inside the quasi-particle window, is the reference: U* may only be
    # lower
    egrid = toy_cfg.egrid
    a = envelope(toy_cfg.potential, egrid, TOY_MASS)
    for lam in toy_cfg.lambda_seq:
        fg = _split(toy_cfg, toy_cache, lam)
        ref = minimize_scalar(
            lambda r: upper_bound(lam, fg.matrix,
                                  _bump(egrid.points, float(r))),
            bounds=(3.0 * egrid.dq, min(0.7 / lam * (1.0 - 1e-9), egrid.q_max)),
            method="bounded", options={"xatol": 1e-3})
        assert minimize_upper_bound(lam, fg.matrix, a) <= ref.fun
