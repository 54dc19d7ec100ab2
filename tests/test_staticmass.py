"""Reference Schroedinger energies, inversion, coupled solves, extrapolation.

The closed-form ground energy of the sech^2 well anchors everything: for
depth 2 and particle mass m it is -l(m)^2/(2m) with
l(m) = (-1 + sqrt(1 + 16 m))/2, derived independently of the code.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polaron_effmass import staticmass
from polaron_effmass.config import load_config
from polaron_effmass.dispersion import FiberCache
from polaron_effmass.eigensolve import dense_ground
from polaron_effmass.errors import (AccuracyWarning, AnalysisError,
                                    BracketError, DomainError,
                                    NoBoundStateError)
from polaron_effmass.model import (TAIL_TOL, GaussianWell, PoschlTeller,
                                   fourier_tail_fraction)
from polaron_effmass.operators import (ElectronGrid, FiberTemplate,
                                       SymmetricOperator, assemble_coupled_llp,
                                       potential_kernel)
from polaron_effmass.pipeline import stage_dispersion, stage_static
from polaron_effmass.staticmass import (coupled_ground,
                                        extrapolate_static_mass, invert_E,
                                        schrodinger_energy)
from scaling import scaled_comparison_pair

POT = PoschlTeller(depth=2.0)
EGRID = ElectronGrid(dq=0.25, q_max=6.0)


def exact_energy(mass):
    """Closed-form ground energy of p^2/(2 mass) - 2 sech^2(x)."""
    ell = 0.5 * (-1.0 + math.sqrt(1.0 + 16.0 * mass))
    return -ell * ell / (2.0 * mass)


class RepulsiveGaussian:
    """Positive-definite stub used to exercise the no-bound-state path."""


    def values(self, x):
        return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

    def __call__(self, x):
        return self.values(x)

    def fourier(self, q):
        return np.exp(-0.5 * np.asarray(q, dtype=float) ** 2)

    def sup_norm(self):
        return 1.0


# ---------------------------------------------------------------------------
# reference energies
# ---------------------------------------------------------------------------

def test_reference_energy_hits_closed_form():
    res = schrodinger_energy(0.5, POT, EGRID)
    assert res == pytest.approx(-1.0, abs=1e-5)


@pytest.mark.parametrize("mass", [0.5, 0.75, 1.0, 1.5])
def test_reference_curve_matches_exact_formula(mass):
    res = schrodinger_energy(mass, POT, EGRID)
    assert res == pytest.approx(exact_energy(mass), rel=1e-5)


def test_curve_is_strictly_decreasing_in_mass():
    masses = np.array([0.5, 0.75, 1.0, 1.5])
    energies = [schrodinger_energy(m, POT, EGRID) for m in masses]
    assert np.all(np.diff(energies) < 0)


def test_no_bound_state_raises():
    with pytest.raises(NoBoundStateError):
        schrodinger_energy(0.5, RepulsiveGaussian(), EGRID)


def test_reference_energy_refuses_grids_beyond_the_dense_cap():
    egrid = ElectronGrid(dq=0.01, q_max=10.01)
    assert egrid.size == 2003
    with pytest.raises(DomainError, match="2000"):
        schrodinger_energy(0.5, POT, egrid)


# ---------------------------------------------------------------------------
# energy-to-mass inversion
# ---------------------------------------------------------------------------

def test_invert_roundtrips_through_the_curve():
    for mass in (0.8, 1.3, 2.5):
        target = schrodinger_energy(mass, POT, EGRID)
        back = invert_E(target, POT, EGRID)
        assert back == pytest.approx(mass, rel=1e-5)


def test_invert_returns_exact_endpoint():
    target = schrodinger_energy(0.5, POT, EGRID)
    assert invert_E(target, POT, EGRID) == 0.5


def test_invert_rejects_unreachable_targets(monkeypatch):
    shallow = schrodinger_energy(0.5, POT, EGRID)
    with pytest.raises(BracketError):
        invert_E(shallow + 0.2, POT, EGRID)  # above the lightest mass
    deep = schrodinger_energy(8.0, POT, EGRID)
    monkeypatch.setattr(staticmass, "_MAX_HI", 4.0)
    with pytest.raises(BracketError):
        invert_E(deep, POT, EGRID)  # expansion capped too early


def test_invert_expands_bracket_when_needed():
    heavy = schrodinger_energy(6.0, POT, EGRID)
    assert invert_E(heavy, POT, EGRID) == pytest.approx(6.0, rel=1e-5)


# ---------------------------------------------------------------------------
# scaling identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.4, 0.2, 0.1])
def test_scaling_identity_is_exact_on_matched_grids(lam):
    left, right = scaled_comparison_pair(0.5, POT, lam, EGRID)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-13)


def test_scaling_identity_for_gaussian_well():
    pot = GaussianWell(depth=1.0, width=1.0)
    left, right = scaled_comparison_pair(0.7, pot, 0.25, EGRID)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-13)


# ---------------------------------------------------------------------------
# coupled solves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_setup(fiber_matrix):
    """(cfg, cache, e0) of the dense-verifiable oracle preset."""
    cfg = load_config("oracle")
    cache = FiberCache(FiberTemplate(cfg.spec), seed=0)
    e0 = dense_ground(fiber_matrix(cache.template, 0.0))
    return cfg, cache, e0


def _dense_coupled_ground(cache, cfg, lam, e0):
    return np.linalg.eigvalsh(assemble_coupled_llp(
        cache.template, potential_kernel(cfg.potential, cfg.egrid),
        cfg.egrid, lam, e0).to_dense())[0]


def _coupled_ground(cfg, cache, lam, e0, seed, nodes=None):
    """coupled_ground at lam from the cache's fibers at the grid nodes, or
    from `nodes` in their place."""
    if nodes is None:
        nodes = cache.pairs(lam * cfg.egrid.points)
    return coupled_ground(cache.template, nodes,
                          potential_kernel(cfg.potential, cfg.egrid),
                          cfg.egrid, lam, e0, seed=seed)


def test_coupled_ground_matches_dense_oracle(oracle_setup, monkeypatch):
    monkeypatch.setattr(staticmass, "_COUPLED_TOL", 1e-10)
    cfg, cache, e0 = oracle_setup
    for lam in (0.4, 0.1):
        res = _coupled_ground(cfg, cache, lam, e0, seed=0)
        ref = _dense_coupled_ground(cache, cfg, lam, e0)
        assert res.value == pytest.approx(ref, abs=1e-9), lam
        assert res.residual <= 1e-9
        assert res.vector.shape == (cache.template.dim * cfg.egrid.size,)


def _sabotaged(nodes, how):
    """`nodes` with wrong ground vectors and right energies.

    "permuted" gives the node at P the vector of the node at -P, which
    reverses the rows of Phi; "scrambled" reverses each vector's Fock
    coordinates; "random" gives random unit vectors.
    """
    if how == "permuted":
        vectors = nodes.vectors[::-1]
    elif how == "scrambled":
        vectors = nodes.vectors[:, ::-1]
    else:
        vectors = np.random.default_rng(7).standard_normal(nodes.vectors.shape)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return replace(nodes, vectors=np.ascontiguousarray(vectors))


@pytest.mark.parametrize("how", ["permuted", "scrambled", "random"])
@pytest.mark.parametrize("lam", [0.4, 0.1])
def test_a_wrong_coarse_space_costs_iterations_not_accuracy(oracle_setup,
                                                            lam, how,
                                                            monkeypatch):
    # the coarse space only steers the search; Rayleigh-Ritz and the
    # residual test still decide e, so e must stay right
    monkeypatch.setattr(staticmass, "_COUPLED_TOL", 1e-10)
    cfg, cache, e0 = oracle_setup
    good = _coupled_ground(cfg, cache, lam, e0, seed=0)
    bad = _coupled_ground(cfg, cache, lam, e0, seed=0, nodes=_sabotaged(
        cache.pairs(lam * cfg.egrid.points), how))
    ref = _dense_coupled_ground(cache, cfg, lam, e0)
    assert bad.value == pytest.approx(ref, abs=1e-9)
    assert bad.residual <= 1e-9
    assert bad.iterations > good.iterations


def test_coupled_ground_is_deterministic(oracle_setup):
    cfg, cache, e0 = oracle_setup
    a = _coupled_ground(cfg, cache, 0.2, e0, seed=3)
    b = _coupled_ground(cfg, cache, 0.2, e0, seed=3)
    assert a.value == b.value
    assert np.array_equal(a.vector, b.vector)


def test_static_stage_warns_once_on_fat_kernel_tail(toy_cfg):
    # at q_max 5 the sech^2 transform keeps 2.04e-6 of its weight beyond
    # the grid's reach, over TAIL_TOL; the check runs once per stage, not
    # once per lam
    cfg = replace(toy_cfg, egrid=ElectronGrid(dq=0.25, q_max=5.0))
    dstate, _, _ = stage_dispersion(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stage_static(cfg, dstate)
    messages = [str(w.message) for w in caught
                if issubclass(w.category, AccuracyWarning)]
    assert messages == [
        "potential transform carries 2.04e-06 of its weight beyond the "
        "grid's maximum momentum transfer 10; the kernel quadrature may be "
        "under-resolved"]
    assert fourier_tail_fraction(cfg.potential, 10.0) > TAIL_TOL


def _dense_coupled_any_sign(template, kernel, egrid, lam, e0):
    """A(lam) as assemble_coupled_llp builds it, for a lam of either sign."""
    inv_l2 = 1.0 / (lam * lam)
    diff = lam * egrid.points[:, None] - template.field_momenta[None, :]
    kin = diff * diff / (2.0 * template.spec.mass)
    diag = ((kin + (template.frequency_sums - e0)[None, :]) * inv_l2).ravel()
    return SymmetricOperator(template.interaction * inv_l2, kernel,
                             diag).to_dense()


def test_coupled_operator_is_even_in_lambda(toy_cfg, toy_template):
    # e(lam) = e(-lam): reversing the grid (J), or reflecting the field
    # modes (R), maps A(-lam) onto A(lam) exactly, so the leading
    # correction to e0 is O(lam^2)
    lam, e0 = 0.3, -0.3
    egrid = toy_cfg.egrid
    kernel = potential_kernel(toy_cfg.potential, egrid)
    plus = _dense_coupled_any_sign(toy_template, kernel, egrid, lam, e0)
    assert np.array_equal(plus, assemble_coupled_llp(
        toy_template, kernel, egrid, lam, e0).to_dense())
    minus = _dense_coupled_any_sign(toy_template, kernel, egrid, -lam, e0)
    assert not np.array_equal(plus, minus)
    n_q, fdim = egrid.size, toy_template.dim
    grid_index = np.arange(n_q)[:, None] * fdim
    J = (grid_index[::-1] + np.arange(fdim)).ravel()
    R = (grid_index + toy_template.basis.permute_modes(
        toy_template.grid.parity_permutation())).ravel()
    assert np.array_equal(minus[np.ix_(J, J)], plus)
    assert np.array_equal(minus[np.ix_(R, R)], plus)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_extrapolation_recovers_planted_quadratic():
    mass_true = 0.8
    e_limit = schrodinger_energy(mass_true, POT, EGRID)
    lams = np.array([0.4, 0.28, 0.2, 0.14, 0.1])
    evals = e_limit + 0.3 * lams + 0.1 * lams**2
    res = extrapolate_static_mass(lams, evals, POT, EGRID)
    assert not res.rejected
    assert res.e0 == pytest.approx(e_limit, abs=1e-12)
    assert res.fit_rms < 1e-13
    assert res.mass == pytest.approx(mass_true, rel=1e-5)
    assert res.mass_err < 1e-6
    assert np.allclose(res.coeffs, [e_limit, 0.3, 0.1], atol=1e-10)


def test_extrapolation_flags_bad_fit_without_raising():
    rng = np.random.default_rng(5)
    lams = np.array([0.4, 0.28, 0.2, 0.14, 0.1])
    evals = -1.0 + 0.3 * lams + 0.05 * rng.standard_normal(5)
    res = extrapolate_static_mass(lams, evals, POT, EGRID)
    assert res.rejected
    assert "rms" in res.reason


def test_extrapolation_flags_unreachable_limit():
    lams = np.array([0.4, 0.28, 0.2, 0.14])
    evals = np.full(4, -0.2)  # shallower than any admissible mass
    res = extrapolate_static_mass(lams, evals, POT, EGRID)
    assert res.rejected
    assert "inversion" in res.reason
    assert math.isnan(res.mass)


def test_extrapolation_input_guards():
    with pytest.raises(AnalysisError):
        extrapolate_static_mass([0.4, 0.2, 0.1], [-1.0, -1.0, -1.0], POT,
                                EGRID)
    with pytest.raises(AnalysisError):
        extrapolate_static_mass([0.4, 0.4, 0.2, 0.1], np.full(4, -1.0), POT,
                                EGRID)
