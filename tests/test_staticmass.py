"""Reference Schroedinger energies, inversion, coupled solves, extrapolation.

The closed-form ground energy of the sech^2 well anchors everything: for
depth 2 and particle mass m it is -l(m)^2/(2m) with
l(m) = (-1 + sqrt(1 + 16 m))/2, derived independently of the code.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polaron_effmass import (bounds, eigensolve, pipeline, staticmass,
                             trialstate)
from polaron_effmass.config import load_config
from polaron_effmass.dispersion import FiberCache
from polaron_effmass.eigensolve import dense_ground, verified_floor
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
KERNEL = potential_kernel(POT, EGRID)


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
    res = schrodinger_energy(0.5, KERNEL, EGRID)
    assert res == pytest.approx(-1.0, abs=1e-5)


@pytest.mark.parametrize("mass", [0.5, 0.75, 1.0, 1.5])
def test_reference_curve_matches_exact_formula(mass):
    res = schrodinger_energy(mass, KERNEL, EGRID)
    assert res == pytest.approx(exact_energy(mass), rel=1e-5)


def test_curve_is_strictly_decreasing_in_mass():
    masses = np.array([0.5, 0.75, 1.0, 1.5])
    energies = [schrodinger_energy(m, KERNEL, EGRID) for m in masses]
    assert np.all(np.diff(energies) < 0)


def test_no_bound_state_raises():
    with pytest.raises(NoBoundStateError):
        schrodinger_energy(0.5, potential_kernel(RepulsiveGaussian(), EGRID),
                           EGRID)


def test_reference_energy_refuses_grids_beyond_the_dense_cap():
    egrid = ElectronGrid(dq=0.01, q_max=10.01)
    assert egrid.size == 2003
    with pytest.raises(DomainError, match="2000"):
        schrodinger_energy(0.5, potential_kernel(POT, egrid), egrid)


# ---------------------------------------------------------------------------
# energy-to-mass inversion
# ---------------------------------------------------------------------------

def test_invert_roundtrips_through_the_curve():
    # the pencil's root is exact to rounding, however heavy the mass; a
    # bisection to 1e-6 relative width is not
    for mass in (0.5000001, 0.8, 1.3, 2.5, 64.0, 1024.0):
        target = schrodinger_energy(mass, KERNEL, EGRID)
        back = invert_E(target, KERNEL, EGRID)
        assert back == pytest.approx(mass, rel=1e-12, abs=0.0)


def test_invert_returns_exact_endpoint():
    target = schrodinger_energy(0.5, KERNEL, EGRID)
    assert invert_E(target, KERNEL, EGRID) == 0.5
    assert invert_E(target + 5e-8, KERNEL, EGRID) == 0.5


def test_invert_rejects_unreachable_targets():
    shallow = schrodinger_energy(0.5, KERNEL, EGRID)
    with pytest.raises(BracketError, match="above"):
        invert_E(shallow + 0.2, KERNEL, EGRID)  # above the lightest mass
    floor = float(np.linalg.eigvalsh(KERNEL)[0])
    with pytest.raises(BracketError, match="lambda_min"):
        invert_E(floor - 1e-3, KERNEL, EGRID)  # below every mass


def test_invert_expands_bracket_when_needed():
    # a heavy mass lies far past the old bisection's first bracket; the
    # pencil needs no bracket and still returns it to rounding
    heavy = schrodinger_energy(6.0, KERNEL, EGRID)
    assert invert_E(heavy, KERNEL, EGRID) == pytest.approx(6.0, rel=1e-12,
                                                           abs=0.0)


def test_invert_confirms_the_root(monkeypatch):
    # a curve that the pencil does not describe fails the confirming E(m)
    def offset(mass, kernel, egrid):
        value = schrodinger_energy(mass, kernel, egrid)
        return value if mass == 0.5 else value + 1e-6

    target = schrodinger_energy(1.3, KERNEL, EGRID)
    monkeypatch.setattr(staticmass, "schrodinger_energy", offset)
    with pytest.raises(AnalysisError, match="misses"):
        invert_E(target, KERNEL, EGRID)


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
    cache = FiberCache(FiberTemplate(cfg.spec))
    e0 = dense_ground(fiber_matrix(cache.template, 0.0))
    return cfg, cache, e0


def _full_coupled(template, kernel, egrid, lam, e0):
    """A(lam) on the whole grid (x) Fock space, built without the fold, for
    a lam of either sign."""
    inv_l2 = 1.0 / (lam * lam)
    diff = lam * egrid.points[:, None] - template.field_momenta[None, :]
    kin = diff * diff / (2.0 * template.spec.mass)
    diag = ((kin + (template.frequency_sums - e0)[None, :]) * inv_l2).ravel()
    return SymmetricOperator(template.interaction * inv_l2, kernel, diag)


def _dense_coupled_ground(cache, cfg, lam, e0):
    return np.linalg.eigvalsh(_full_coupled(
        cache.template, potential_kernel(cfg.potential, cfg.egrid),
        cfg.egrid, lam, e0).to_dense())[0]


def _coupled_ground(cfg, cache, lam, e0, nodes=None):
    """coupled_ground at lam from the cache's fibers at the grid nodes, or
    from `nodes` in their place."""
    if nodes is None:
        nodes = cache.pairs(lam * cfg.egrid.points)
    kernel = potential_kernel(cfg.potential, cfg.egrid)
    return coupled_ground(cache.template, nodes, kernel,
                          verified_floor(kernel, dense_ground(kernel)),
                          cfg.egrid, lam, e0)


# Rounding of the dense reference eigenvalue (LAPACK on A(lam), whose
# largest entries at lam 0.1 are of order 1e3).
_DENSE_SLACK = 1e-12


def _assert_certified_or_converged(res, ref):
    """Where the enclosure certified e, L_T <= e <= theta with the target
    width; where it did not, the solve ran to the patched 1e-10."""
    if res.temple is None:
        assert res.residual <= 1e-9
    else:
        assert res.temple <= ref + _DENSE_SLACK
        assert ref <= res.value + _DENSE_SLACK
        assert res.value - res.temple <= 1e-9 * max(1.0, abs(ref))


def test_coupled_ground_matches_dense_oracle(oracle_setup, monkeypatch):
    monkeypatch.setattr(staticmass, "_COUPLED_TOL", 1e-10)
    cfg, cache, e0 = oracle_setup
    for lam in (0.4, 0.1):
        res = _coupled_ground(cfg, cache, lam, e0)
        ref = _dense_coupled_ground(cache, cfg, lam, e0)
        assert res.value == pytest.approx(ref, abs=1e-9), lam
        _assert_certified_or_converged(res, ref)
        assert res.vector.shape == (res.dim,)
        assert res.full_dim == cache.template.dim * cfg.egrid.size


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
    good = _coupled_ground(cfg, cache, lam, e0)
    bad = _coupled_ground(cfg, cache, lam, e0, nodes=_sabotaged(
        cache.pairs(lam * cfg.egrid.points), how))
    ref = _dense_coupled_ground(cache, cfg, lam, e0)
    assert bad.value == pytest.approx(ref, abs=1e-9)
    _assert_certified_or_converged(bad, ref)
    assert bad.iterations > good.iterations


@pytest.fixture(scope="module")
def certified_setups(oracle_setup, toy_cfg, toy_cache):
    """(cfg, cache, e0) of the oracle and toy presets."""
    return {"oracle": oracle_setup,
            "toy": (toy_cfg, toy_cache, toy_cache.pairs([0.0]).energy[0])}


@pytest.mark.parametrize("preset", ["oracle", "toy"])
@pytest.mark.parametrize("lam", [0.4, 0.1])
def test_temple_floor_brackets_the_dense_ground_energy(certified_setups,
                                                       preset, lam):
    cfg, cache, e0 = certified_setups[preset]
    res = _coupled_ground(cfg, cache, lam, e0)
    ref = _dense_coupled_ground(cache, cfg, lam, e0)
    assert res.temple is not None, res.note
    assert res.note == staticmass.PREMISE
    assert res.temple <= ref + _DENSE_SLACK
    assert ref <= res.value + _DENSE_SLACK
    assert res.value - res.temple <= 1e-9 * max(1.0, abs(ref))
    # the solve stopped at the residual the enclosure allowed, looser than
    # the fallback, from the Galerkin bound down
    assert staticmass._COUPLED_TOL < res.r_star
    assert res.residual <= res.r_star * 1.01
    assert res.value <= res.upper <= res.enclosure.rho


@pytest.mark.parametrize("how", ["scrambled", "random"])
@pytest.mark.parametrize("lam", [0.4, 0.1])
def test_sabotaged_fibers_get_no_temple_floor(oracle_setup, lam, how):
    # wrong vectors with right energies: the recomputed residuals open the
    # split's bound b so wide that rho falls below U_G
    cfg, cache, e0 = oracle_setup
    bad = _coupled_ground(cfg, cache, lam, e0, nodes=_sabotaged(
        cache.pairs(lam * cfg.egrid.points), how))
    assert bad.temple is None and bad.r_star is None
    assert bad.enclosure.rho <= bad.upper
    assert "not above U_G" in bad.note
    assert bad.residual <= staticmass._COUPLED_TOL * max(1.0, abs(bad.value))


def test_the_second_eigenvector_gets_no_temple_floor(toy_cfg, toy_cache):
    # the second eigenvector's quotient is lambda_2 >= rho, so Temple's
    # inequality does not apply to it; the first one's is certified, in the
    # full space and in the even sector, whose levels are levels of A
    lam = 0.4
    e0 = toy_cache.pairs([0.0]).energy[0]
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    res = _coupled_ground(toy_cfg, toy_cache, lam, e0)
    op = _full_coupled(toy_cache.template, kernel, toy_cfg.egrid, lam, e0)
    evals, vecs = np.linalg.eigh(op.to_dense())
    rho = res.enclosure.rho
    assert evals[0] < rho <= evals[1]
    floor, reason = staticmass.temple_floor(op, vecs[:, 1], rho)
    assert floor is None and "not below rho" in reason
    floor, reason = staticmass.temple_floor(op, vecs[:, 0], rho)
    assert reason == ""
    assert evals[0] - 1e-12 <= floor <= evals[0] + _DENSE_SLACK
    fold = assemble_coupled_llp(toy_cache.template, kernel, toy_cfg.egrid,
                                lam, e0)
    even, even_vecs = np.linalg.eigh(fold.to_dense())
    assert even[0] == pytest.approx(evals[0], abs=_DENSE_SLACK)
    assert rho <= evals[1] <= even[1] + _DENSE_SLACK
    floor, reason = staticmass.temple_floor(fold, even_vecs[:, 1], rho)
    assert floor is None and "not below rho" in reason
    floor, reason = staticmass.temple_floor(fold, even_vecs[:, 0], rho)
    assert reason == ""
    assert evals[0] - 1e-12 <= floor <= evals[0] + _DENSE_SLACK


@pytest.mark.parametrize("lambda2, c, b", [
    (0.013, 5.0, 1.06), (0.013, 116.0, 0.065), (2.0, 0.5, 0.3),
    (-0.2, -0.1, 0.7), (0.3, 0.3, 1e-3), (1.0, 2.0, 0.0), (2.0, 1.0, 0.0)])
def test_split_floor_matches_a_brute_force_eta_grid(lambda2, c, b):
    rho, eta = staticmass.split_floor(lambda2, c, b)

    def floor(etas):
        return np.minimum(lambda2 - etas, c - b * b / etas)

    # a geometric grid, then a fine one around its best point
    coarse = np.geomspace(1e-9, 1e3, 200_001)
    i = int(np.argmax(floor(coarse)))
    fine = np.linspace(coarse[max(i - 1, 0)], coarse[min(i + 1, 200_000)],
                       200_001)
    best = max(float(floor(coarse).max()), float(floor(fine).max()))
    # the closed form is the maximum: no grid point beats it, and the
    # grid's best lies within its resolution below it
    assert best <= rho + 1e-12
    assert rho <= best + 1e-7 * max(1.0, abs(rho))
    if b > 0.0:
        assert lambda2 - eta == pytest.approx(c - b * b / eta, abs=1e-12)
        assert rho <= min(lambda2 - eta, c - b * b / eta)


def test_coupled_ground_is_deterministic(oracle_setup):
    cfg, cache, e0 = oracle_setup
    a = _coupled_ground(cfg, cache, 0.2, e0)
    b = _coupled_ground(cfg, cache, 0.2, e0)
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


def test_the_coupled_solves_hold_no_dead_fiber_vectors(monkeypatch):
    # at the last coupled Davidson iteration of the static stage on
    # `small`, the traced memory besides the Davidson space V, A V, H holds
    # the operator, the coarse rows, the fiber cache and the template, but
    # no stack of the lam's node vectors (49 x 455 doubles, 0.18 MB), no
    # normalized copy of it for the fiber split (0.18 MB), no scanned
    # curve's vectors (0.13 MB) and no start vector (0.09 MB).  Measured:
    # 1.31 MB, and 1.88 MB while the stage held all four.
    cfg = load_config("small")
    fill_rows = eigensolve._fill_rows
    coupled = []

    def spy(H, V, AV, A, k0, k1):
        fill_rows(H, V, AV, A, k0, k1)
        if V.shape[-1] == 11_151:     # the even sector at lam 0.1
            coupled.append(tracemalloc.get_traced_memory()[0]
                           - V.nbytes - AV.nbytes - H.nbytes)

    monkeypatch.setattr(eigensolve, "_fill_rows", spy)
    tracemalloc.start()
    try:
        stage_static(cfg, stage_dispersion(cfg)[0])
    finally:
        tracemalloc.stop()
    assert coupled and coupled[-1] <= 1.40e6


def test_coupled_operator_is_even_in_lambda(toy_cfg, toy_template):
    # e(lam) = e(-lam): reversing the grid (J), or reflecting the field
    # modes (R), maps A(-lam) onto A(lam) exactly, so the leading
    # correction to e0 is O(lam^2); J (x) R maps A(lam) onto itself, which
    # the coupled solve's fold rests on
    lam, e0 = 0.3, -0.3
    egrid = toy_cfg.egrid
    kernel = potential_kernel(toy_cfg.potential, egrid)
    plus = _full_coupled(toy_template, kernel, egrid, lam, e0).to_dense()
    minus = _full_coupled(toy_template, kernel, egrid, -lam, e0).to_dense()
    assert not np.array_equal(plus, minus)
    n_q, fdim = egrid.size, toy_template.dim
    grid_index = np.arange(n_q)[:, None] * fdim
    J = (grid_index[::-1] + np.arange(fdim)).ravel()
    R = (grid_index + toy_template.basis.permute_modes(
        toy_template.grid.parity_permutation())).ravel()
    assert np.array_equal(minus[np.ix_(J, J)], plus)
    assert np.array_equal(minus[np.ix_(R, R)], plus)
    assert np.array_equal(plus[np.ix_(J[R], J[R])], plus)


def test_the_coupled_vector_is_full_length_and_even(toy_cfg, toy_cache,
                                                    unfold):
    # the solve runs in the even sector and returns y, whose E y covers
    # the whole grid, node -q_j the reflection of node q_j, and is an
    # eigenvector of the full-space A(lam) to the solve's residual
    lam = 0.4
    e0 = toy_cache.pairs([0.0]).energy[0]
    res = _coupled_ground(toy_cfg, toy_cache, lam, e0)
    template = toy_cache.template
    n_q, fdim = toy_cfg.egrid.size, template.dim
    assert res.dim == 688 < n_q * fdim
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    x = unfold(assemble_coupled_llp(template, kernel, toy_cfg.egrid, lam, e0),
               res.vector)
    assert x.shape == (res.full_dim,) == (n_q * fdim,)
    X = x.reshape(n_q, fdim)
    assert np.abs(X - X[::-1][:, template.reflection]).max() \
        <= 1e-14 * np.abs(X).max()
    A = _full_coupled(template, kernel, toy_cfg.egrid, lam, e0).to_dense()
    assert x @ x == pytest.approx(1.0, abs=1e-14)
    assert x @ A @ x == pytest.approx(res.value, abs=1e-12)
    assert np.linalg.norm(A @ x - res.value * x) <= 1.01 * res.residual + 1e-12


def test_a_coupled_solve_stores_half_a_coupled_space():
    # the even sector halves every stored coupled vector: the traced peak of
    # one solve on `small` (dim 22,295) stays below the 20 full-length
    # vectors of V and A V the full-space Davidson space held
    cfg = load_config("small")
    cache = FiberCache(FiberTemplate(cfg.spec))
    lam = 0.1
    e0 = cache.pairs([0.0]).energy[0]
    nodes = cache.pairs(lam * cfg.egrid.points)
    kernel = potential_kernel(cfg.potential, cfg.egrid)
    k_min = verified_floor(kernel, dense_ground(kernel))
    full = cfg.egrid.size * cache.template.dim
    assert full == 22_295
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = coupled_ground(cache.template, nodes, kernel, k_min, cfg.egrid,
                             lam, e0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.dim == 11_151
    assert res.temple is not None
    assert peak < 2 * 20 * 8 * full


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_extrapolation_recovers_planted_quadratic():
    mass_true = 0.8
    e_limit = schrodinger_energy(mass_true, KERNEL, EGRID)
    lams = np.array([0.4, 0.28, 0.2, 0.14, 0.1])
    evals = e_limit + 0.3 * lams + 0.1 * lams**2
    res = extrapolate_static_mass(lams, evals, KERNEL, EGRID)
    assert not res.rejected
    assert res.e0 == pytest.approx(e_limit, abs=1e-12)
    assert res.fit_rms < 1e-13
    assert res.mass == pytest.approx(mass_true, rel=1e-5)
    assert res.mass_err < 1e-6
    assert np.allclose(res.coeffs, [e_limit, 0.3, 0.1], atol=1e-10)


def test_mass_error_is_e0_error_over_the_hellmann_feynman_slope():
    lams = np.array([0.4, 0.28, 0.2, 0.14, 0.1])
    evals = (schrodinger_energy(1.3, KERNEL, EGRID) + 0.3 * lams
             + 0.1 * lams**2 + 1e-6 * np.array([1.0, -2.0, 0.0, 2.0, -1.0]))
    res = extrapolate_static_mass(lams, evals, KERNEL, EGRID)
    assert not res.rejected and res.e0_err > 0.0
    h = 1e-3 * res.mass
    central = (schrodinger_energy(res.mass + h, KERNEL, EGRID)
               - schrodinger_energy(res.mass - h, KERNEL, EGRID)) / (2.0 * h)
    slope = res.e0_err / res.mass_err
    assert slope == pytest.approx(abs(central), rel=1e-5)
    assert res.mass == invert_E(res.e0, KERNEL, EGRID)


def test_a_static_stage_builds_the_potential_kernel_once(monkeypatch,
                                                         toy_cfg):
    # the envelope, the coupled solves and the inversion read one kernel,
    # and over a whole sandwich chain the split bound reads it too; every
    # module that could build one is spied
    built = []

    def kernel_spy(*args):
        built.append(args)
        return potential_kernel(*args)

    for module in (pipeline, staticmass, trialstate, bounds):
        if hasattr(module, "potential_kernel"):
            monkeypatch.setattr(module, "potential_kernel", kernel_spy)
    _, csvs, _ = pipeline._chain(toy_cfg, "sandwich", {})
    assert len(csvs["sandwich.csv"]) == 5
    assert built == [(toy_cfg.potential, toy_cfg.egrid)]


def test_extrapolation_flags_bad_fit_without_raising():
    rng = np.random.default_rng(5)
    lams = np.array([0.4, 0.28, 0.2, 0.14, 0.1])
    evals = -1.0 + 0.3 * lams + 0.05 * rng.standard_normal(5)
    res = extrapolate_static_mass(lams, evals, KERNEL, EGRID)
    assert res.rejected
    assert "rms" in res.reason


def test_extrapolation_flags_unreachable_limit():
    lams = np.array([0.4, 0.28, 0.2, 0.14])
    evals = np.full(4, -0.2)  # shallower than any admissible mass
    res = extrapolate_static_mass(lams, evals, KERNEL, EGRID)
    assert res.rejected
    assert "inversion" in res.reason
    assert math.isnan(res.mass)


def test_extrapolation_input_guards():
    with pytest.raises(AnalysisError):
        extrapolate_static_mass([0.4, 0.2, 0.1], [-1.0, -1.0, -1.0], KERNEL,
                                EGRID)
    with pytest.raises(AnalysisError):
        extrapolate_static_mass([0.4, 0.4, 0.2, 0.1], np.full(4, -1.0),
                                KERNEL, EGRID)
