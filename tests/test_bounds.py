"""Lower bounds (momentum split and scaled-potential split) and the sandwich."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron_effmass import bounds
from polaron_effmass.bounds import (SandwichRow, momentum_lower_bound,
                                    sandwich_report, split_lower_bound,
                                    suggest_c_eps)
from polaron_effmass.dispersion import (FiberCache, certify_quasi_parabolic,
                                        fit_dynamic_mass, scan_dispersion)
from polaron_effmass.config import load_config
from polaron_effmass.eigensolve import (_U, dense_ground, rayleigh_bounds,
                                        verified_floor)
from polaron_effmass.errors import (AnalysisError, ConfigError, DomainError,
                                    SolverError)
from polaron_effmass.model import (ConstantDispersion, ModelSpec,
                                   PoschlTeller, ZeroCoupling)
from polaron_effmass.operators import (ElectronGrid, FiberTemplate,
                                       assemble_schrodinger, potential_kernel)
from polaron_effmass.staticmass import (coupled_ground, fiber_floors,
                                        fiber_split)

EGRID = ElectronGrid(dq=0.25, q_max=6.0)
WELL = PoschlTeller(depth=2.0)
WELL_KERNEL = potential_kernel(WELL, EGRID)


class _PositiveBump:
    """Repulsive stand-in used to exercise the sign guard."""


    def values(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x**2)

    def fourier(self, q):
        q = np.asarray(q, dtype=float)
        return np.exp(-q**2 / 4.0) / math.sqrt(2.0)

    def sup_norm(self):
        return 1.0


@pytest.fixture(scope="module")
def free_cache():
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ZeroCoupling(), dk=0.5, uv_cutoff=1.0,
                     ir_cutoff=0.0, n_max=2)
    template = FiberTemplate(spec)
    return FiberCache(template)


@pytest.fixture(scope="module")
def toy_ground(toy_cfg, toy_cache):
    """e(lam) for the small interacting model at two coupling scales."""
    e0 = toy_cache.pairs([0.0]).energy[0]
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    energies = {
        lam: coupled_ground(toy_cache.template,
                            toy_cache.pairs(lam * toy_cfg.egrid.points),
                            kernel, verified_floor(kernel, dense_ground(kernel)),
                            toy_cfg.egrid, lam, e0).value
        for lam in (0.4, 0.2)
    }
    return e0, energies


@pytest.fixture(scope="module")
def toy_certificate(toy_cfg, toy_cache):
    curve = scan_dispersion(toy_cache, toy_cfg.P_list)
    fit = fit_dynamic_mass(curve.nodes.P, curve.nodes.energy - curve.e0)
    cert = certify_quasi_parabolic(curve, fit.mass)
    return curve, fit, cert


# ---------------------------------------------------------------------------
# split-bound knobs
# ---------------------------------------------------------------------------

def test_suggest_c_eps_frozen_formula():
    # m_c = 0.5 * (1 + 0.2 * 1^2 * 0.4) = 0.54; 2 * 2 * 0.54 * 1.5 = 3.24
    assert (bounds.C_BETA, bounds._C_EPS_SAFETY) == (1.0, 2.0)
    got = suggest_c_eps(0.5, 0.2, 1.5, 0.4)
    assert got == pytest.approx(3.24, rel=1e-14)


def test_suggest_c_eps_scales_linearly_in_safety_and_sup_norm(monkeypatch):
    base = suggest_c_eps(0.5, 0.1, 1.0, 0.3)
    with monkeypatch.context() as m:
        m.setattr(bounds, "_C_EPS_SAFETY", 4.0)
        assert suggest_c_eps(0.5, 0.1, 1.0, 0.3) == pytest.approx(
            2.0 * base, rel=1e-14)
    assert suggest_c_eps(0.5, 0.1, 3.0, 0.3) == pytest.approx(
        3.0 * base, rel=1e-14)


# ---------------------------------------------------------------------------
# scaled-potential split bound
# ---------------------------------------------------------------------------

def test_split_bound_rejects_positive_potential():
    with pytest.raises(DomainError, match="nonpositive"):
        bump = _PositiveBump()
        split_lower_bound(0.2, bump, potential_kernel(bump, EGRID), EGRID,
                          mass=0.5, c_min=0.1, p_c=0.7, c_eps=4.0)


class _WellWithFarBumps:
    """Poschl-Teller well (depth 2) plus bumps 0.5 exp(-4 (x -+ 10)^2).

    Its positive part lies beyond |x| = q_max = 6 of EGRID but inside the
    box |x| <= pi / dq ~ 12.6 on which the grid's kernel acts.
    """

    def values(self, x):
        x = np.asarray(x, dtype=float)
        bumps = np.exp(-4.0 * (x - 10.0)**2) + np.exp(-4.0 * (x + 10.0)**2)
        return WELL.values(x) + 0.5 * bumps

    def fourier(self, q):
        q = np.asarray(q, dtype=float)
        bumps = (math.sqrt(math.pi) / 2.0 * np.exp(-q**2 / 16.0)
                 * 2.0 * np.cos(10.0 * q) / math.sqrt(2.0 * math.pi))
        return WELL.fourier(q) + 0.5 * bumps

    def sup_norm(self):
        return WELL.sup_norm()


def test_split_bound_sees_positive_part_beyond_q_max():
    with pytest.raises(DomainError, match="nonpositive"):
        pot = _WellWithFarBumps()
        split_lower_bound(0.2, pot, potential_kernel(pot, EGRID), EGRID,
                          mass=0.5, c_min=0.1, p_c=0.7, c_eps=4.0)


def test_split_bound_rejects_beta_at_window_edge():
    # beta = sqrt(0.5) ~ 0.707 reaches p_c = 0.7
    with pytest.raises(AnalysisError, match="window"):
        split_lower_bound(0.5, WELL, WELL_KERNEL, EGRID, mass=0.5,
                          c_min=0.1, p_c=0.7, c_eps=4.0)


def test_split_bound_guards():
    with pytest.raises(DomainError):
        split_lower_bound(0.0, WELL, WELL_KERNEL, EGRID, mass=0.5,
                          c_min=0.1, p_c=0.7, c_eps=4.0)
    with pytest.raises(ConfigError):
        split_lower_bound(0.2, WELL, WELL_KERNEL, EGRID, mass=0.5,
                          c_min=0.1, p_c=0.7, c_eps=0.0)


def test_split_bound_components_match_hand_assembly(monkeypatch):
    monkeypatch.setattr(bounds, "C_BETA", 0.9)
    lam, mass, c_min = 0.2, 0.52, 0.15
    res = split_lower_bound(lam, WELL, WELL_KERNEL, EGRID, mass=mass,
                            c_min=c_min, p_c=0.7, c_eps=5.0)
    eps = 5.0 * lam
    beta = 0.9 * math.sqrt(lam)
    m_c = mass * (1.0 + c_min * beta**2)
    assert res.eps == pytest.approx(eps, rel=1e-15)
    assert res.beta == pytest.approx(beta, rel=1e-15)
    h = assemble_schrodinger(WELL_KERNEL, EGRID, m_c, v_scale=1.0 + eps)
    assert res.operator_branch == pytest.approx(
        float(np.linalg.eigvalsh(h)[0]), abs=1e-11)
    scalar = beta**2 / (2.0 * lam**2 * m_c) - (1.0 + 1.0 / eps) * WELL.sup_norm()
    assert res.scalar_branch == pytest.approx(scalar, rel=1e-13)
    assert res.value == min(res.operator_branch, res.scalar_branch)


def test_split_bound_scalar_branch_grows_as_lam_shrinks():
    # with c_eps above the threshold the scalar branch must climb ~ 1/lam
    c_eps = suggest_c_eps(0.5, 0.1, WELL.sup_norm(), 0.4)
    res = [split_lower_bound(lam, WELL, WELL_KERNEL, EGRID, mass=0.5,
                             c_min=0.1, p_c=0.7, c_eps=c_eps)
           for lam in (0.4, 0.2, 0.1)]
    scalars = [r.scalar_branch for r in res]
    assert scalars[0] < scalars[1] < scalars[2]
    # eventually the operator branch is the binding one
    assert res[-1].value == res[-1].operator_branch


def test_split_bound_sits_below_coupled_energy(toy_cfg, toy_ground,
                                               toy_certificate):
    _, energies = toy_ground
    _, fit, cert = toy_certificate
    c_eps = suggest_c_eps(fit.mass, cert.c_min, toy_cfg.potential.sup_norm(),
                          0.4)
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    for lam, e in energies.items():
        res = split_lower_bound(lam, toy_cfg.potential, kernel, toy_cfg.egrid,
                                mass=fit.mass, c_min=cert.c_min, p_c=0.7,
                                c_eps=c_eps)
        assert res.value <= e + 1e-9


# ---------------------------------------------------------------------------
# momentum-decomposition bound
# ---------------------------------------------------------------------------

def _floors(template, nodes, lam=1.0, e0=0.0):
    """The fiber floors L1 reads at `nodes`, as the coupled solve's fiber
    split computes them (its kernel only enters the Galerkin matrix)."""
    n = len(nodes.P)
    return fiber_split(template, nodes, np.zeros((n, n)), lam, e0).floor


def test_momentum_bound_guards(toy_cache):
    with pytest.raises(DomainError):
        momentum_lower_bound(-0.1, WELL_KERNEL,
                             toy_cache.pairs([0.0]).energy, 0.0)


def test_momentum_bound_certified_below_coupled_energy(toy_cfg, toy_cache,
                                                       toy_ground):
    e0, energies = toy_ground
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    for lam, e in energies.items():
        nodes = toy_cache.pairs(lam * toy_cfg.egrid.points)
        floors = _floors(toy_cache.template, nodes)
        l1 = momentum_lower_bound(lam, kernel, floors, e0)
        assert np.max(nodes.residual) < 1e-7
        assert np.all(floors <= nodes.energy + 1e-12)
        assert l1 <= e + 1e-12


def _enclosed_quotients(template, nodes):
    """(lo, hi, r, sigma) of the nodes' vectors, from products taken here:
    the enclosure the fiber floors start from."""
    batch = template.operator(nodes.P)
    phi = nodes.vectors / np.sqrt(np.vecdot(nodes.vectors,
                                            nodes.vectors))[:, None]
    members = np.arange(len(phi))
    _, lo, hi, r = rayleigh_bounds(
        phi, batch.apply(members, phi),
        batch.absolute().apply(members, np.abs(phi)),
        int(np.diff(batch.interaction.indptr).max()) + 1)
    theta1 = nodes.energy + nodes.gap
    sigma = theta1 - nodes.excited_residual - 4.0 * _U * np.abs(theta1)
    return lo, hi, r, sigma


def test_davidson_fiber_floors_lie_below_the_dense_ground(davidson_template,
                                                          fiber_matrix):
    # dim 210 runs Davidson at the fiber tolerance 1e-6: each floor is
    # Temple's, below the dense ground energy, above the first-order
    # floor lo - r and within r^2 / gap of the quotient
    cache = FiberCache(davidson_template)
    nodes = cache.pairs(np.linspace(-0.6, 0.6, 7))
    assert davidson_template.dim > 128
    assert np.max(nodes.residual) > 1e-9      # a loose Davidson residual
    floors = _floors(davidson_template, nodes)
    lo, hi, r, sigma = _enclosed_quotients(davidson_template, nodes)
    assert np.array_equal(floors, fiber_floors(lo, hi, r, sigma))
    assert np.all(hi < sigma - r)
    for P, floor, low, res in zip(nodes.P, floors, lo, r):
        ground = np.linalg.eigvalsh(fiber_matrix(davidson_template, P))[0]
        assert low - res < floor <= ground, P
        assert ground - floor <= 1e-10, P


def test_a_quotient_near_the_second_level_falls_back_to_first_order():
    lo = np.array([-1.0, -1.0, 0.5])
    hi = lo + 1e-12
    r = np.array([1e-3, 0.2, 1e-6])
    sigma = np.array([-0.9, -0.85, 0.5 + 1e-6])
    floors = fiber_floors(lo, hi, r, sigma)
    # node 0 clears sigma - r: Temple's floor; nodes 1 and 2 do not
    assert hi[0] < sigma[0] - r[0]
    assert lo[0] - r[0] ** 2 / (sigma[0] - lo[0]) - 1e-15 <= floors[0]
    assert floors[0] < lo[0] - r[0] ** 2 / (sigma[0] - lo[0])
    for i in (1, 2):
        assert hi[i] >= sigma[i] - r[i]
        assert floors[i] < lo[i] - r[i]
        assert floors[i] >= lo[i] - r[i] - 4.0 * _U * abs(lo[i] - r[i])


@pytest.mark.parametrize("seed", range(4))
def test_a_perturbed_vector_never_floors_above_the_ground(seed, toy_cache,
                                                          fiber_matrix):
    # the dense ground vector pushed off to a residual of 1e-3: Temple's
    # floor falls below the ground energy, by about r^2 / gap
    template = toy_cache.template
    nodes = toy_cache.pairs([0.1 * seed])
    H = fiber_matrix(template, nodes.P[0])
    evals, vecs = np.linalg.eigh(H)
    g = vecs[:, 0]
    w = np.random.default_rng(seed).standard_normal(H.shape[0])
    w -= (w @ g) * g
    w /= np.linalg.norm(w)
    v = g + 1e-3 / np.linalg.norm(H @ w - evals[0] * w) * w
    perturbed = replace(nodes, vectors=(v / np.linalg.norm(v))[None])
    lo, hi, r, sigma = _enclosed_quotients(template, perturbed)
    assert r[0] == pytest.approx(1e-3, rel=0.05)
    assert hi[0] < sigma[0] - r[0]
    floor = _floors(template, perturbed)[0]
    assert floor <= evals[0]
    assert evals[0] - floor <= 2.0 * r[0] ** 2 / (evals[1] - evals[0])


def test_momentum_bound_zero_coupling_matches_schrodinger(free_cache):
    # with the field decoupled and lam * q_max small enough that the
    # zero-excitation sector carries every fiber ground, the bound
    # collapses to the bare-mass comparison operator
    e0 = free_cache.pairs([0.0]).energy[0]
    nodes = free_cache.pairs(0.15 * EGRID.points)
    l1 = momentum_lower_bound(0.15, WELL_KERNEL,
                              _floors(free_cache.template, nodes), e0)
    h = assemble_schrodinger(WELL_KERNEL, EGRID, 0.5)
    ground = float(np.linalg.eigvalsh(h)[0])
    assert l1 <= ground + 1e-12
    assert l1 == pytest.approx(ground, abs=1e-6)


# ---------------------------------------------------------------------------
# the floor of L1 and L2 holds in floating point
# ---------------------------------------------------------------------------

def _lowest_at_40_digits(A):
    with mpmath.workdps(40):
        return min(mpmath.eigsy(mpmath.matrix(A.tolist()),
                                eigvals_only=True))


def _l1_matrix_and_value(preset, lam, monkeypatch):
    """L1 at lam on a preset, and the matrix h it is the floor of."""
    cfg = load_config(preset)
    cache = FiberCache(FiberTemplate(cfg.spec))
    seen = []

    def spy(h, mu):
        seen.append(h.copy())
        return verified_floor(h, mu)

    monkeypatch.setattr(bounds, "verified_floor", spy)
    nodes = cache.pairs(lam * cfg.egrid.points)
    value = momentum_lower_bound(lam, potential_kernel(cfg.potential,
                                                      cfg.egrid),
                                 _floors(cache.template, nodes),
                                 cache.pairs([0.0]).energy[0])
    (h,) = seen
    return h, value


@pytest.mark.parametrize("source", ["free", "toy", "random"])
def test_certified_floor_lies_below_the_40_digit_eigenvalue(source,
                                                            monkeypatch):
    if source == "random":
        a = np.random.default_rng(49).standard_normal((49, 49))
        h = 0.5 * (a + a.T)
        value = verified_floor(h, dense_ground(h))
    else:
        h, value = _l1_matrix_and_value(source, 0.1, monkeypatch)
    exact = _lowest_at_40_digits(h)
    assert h.shape == (49, 49)
    assert mpmath.mpf(value) < exact
    assert exact - mpmath.mpf(value) < 1e-10     # a floor, not a guess


def test_l1_entries_lie_below_the_40_digit_fiber_floors(toy_cfg, toy_cache,
                                                        fiber_matrix,
                                                        monkeypatch):
    # every diagonal entry of the matrix L1 floors lies below
    # W_jj + (E0(lam q_j) - e0) / lam^2 at 40 digits, E0 the exact ground
    # energy of the stored fiber; the fiber at -P is the one at P with its
    # modes reflected, so the nodes q_j >= 0 cover every entry
    lam = 0.1
    template = toy_cache.template
    kernel = potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    e0 = toy_cache.pairs([0.0]).energy[0]
    seen = []

    def spy(h, mu):
        seen.append(h.copy())
        return verified_floor(h, mu)

    monkeypatch.setattr(bounds, "verified_floor", spy)
    nodes = toy_cache.pairs(lam * toy_cfg.egrid.points)
    momentum_lower_bound(lam, kernel, _floors(template, nodes), e0)
    (h,) = seen
    S = template.reflection
    n_q = len(nodes.P)
    with mpmath.workdps(40):
        for j in range(n_q // 2, n_q):
            H = fiber_matrix(template, nodes.P[j])
            assert np.array_equal(fiber_matrix(template, -nodes.P[j]),
                                  H[np.ix_(S, S)])
            E0 = min(mpmath.eigsy(mpmath.matrix(H.tolist()),
                                  eigvals_only=True))
            exact = (mpmath.mpf(kernel[j, j])
                     + (E0 - mpmath.mpf(e0)) / mpmath.mpf(lam) ** 2)
            for i in (j, n_q - 1 - j):
                assert mpmath.mpf(h[i, i]) < exact, (i, nodes.P[j])
                assert exact - mpmath.mpf(h[i, i]) < 1e-11


def test_unverifiable_floor_raises_solver_error():
    a = np.random.default_rng(49).standard_normal((49, 49))
    h = 0.5 * (a + a.T)
    mu = dense_ground(h)
    with pytest.raises(SolverError, match="positive definite") as info:
        verified_floor(h, mu + 1e-6)
    assert info.value.best_value == mu + 1e-6
    with pytest.raises(DomainError, match="exactly symmetric"):
        verified_floor(h + np.triu(np.full((49, 49), 1e-15), 1), mu)


# ---------------------------------------------------------------------------
# sandwich assembly
# ---------------------------------------------------------------------------

def test_sandwich_row_margins_hand_example():
    row = SandwichRow(lam=0.3, l2=-1.2, l1=-1.0, e=-0.9, u_star=-0.85)
    m = row.margins(1e-8)
    assert m[0] == pytest.approx(0.2 + 1e-8, rel=1e-12)
    assert m[1] == pytest.approx(0.1, rel=1e-12)
    assert m[2] == pytest.approx(0.05 + 1e-8, rel=1e-12)


def test_sandwich_report_passes_ordered_rows():
    rows = [
        SandwichRow(lam=0.4, l2=-1.3, l1=-1.1, e=-1.0, u_star=-0.9),
        SandwichRow(lam=0.2, l2=-1.2, l1=-1.05, e=-1.01, u_star=-0.95),
    ]
    rep = sandwich_report(rows)
    assert rep.passed
    # worst slack: e - L1 = 0.04 on the lam = 0.2 row
    assert rep.margin_min == pytest.approx(0.04, rel=1e-12)
    assert rep.worst_lam == 0.2
    assert rep.worst_pair == "e-L1"
    assert [r.lam for r in rep.rows] == [0.4, 0.2]


def test_sandwich_report_flags_upper_bound_violation():
    rows = [
        SandwichRow(lam=0.4, l2=-1.3, l1=-1.1, e=-1.0, u_star=-0.97),
        SandwichRow(lam=0.2, l2=-1.2, l1=-1.05, e=-0.9, u_star=-0.95),
    ]
    rep = sandwich_report(rows)
    assert not rep.passed
    assert rep.worst_pair == "U*-e"
    assert rep.worst_lam == 0.2
    assert rep.margin_min == pytest.approx(-0.05 + 1e-8, rel=1e-9)


def test_sandwich_report_tolerance_absorbs_roundoff(monkeypatch):
    row = SandwichRow(lam=0.1, l2=-1.0 + 1e-10, l1=-1.0, e=-0.9, u_star=-0.9)
    assert bounds.ORDERING_TOL == 1e-8
    assert sandwich_report([row]).passed
    monkeypatch.setattr(bounds, "ORDERING_TOL", 0.0)
    assert not sandwich_report([row]).passed


def test_sandwich_report_sorts_rows_by_decreasing_lam():
    rows = [SandwichRow(lam=lam, l2=-2.0, l1=-1.5, e=-1.0, u_star=-0.5)
            for lam in (0.1, 0.4, 0.2)]
    rep = sandwich_report(rows)
    assert [r.lam for r in rep.rows] == [0.4, 0.2, 0.1]


def test_sandwich_report_rejects_empty():
    with pytest.raises(ConfigError):
        sandwich_report([])


_finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                    allow_infinity=False)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1.0),
                          _finite, _finite, _finite, _finite),
                min_size=1, max_size=6))
def test_sandwich_report_verdict_matches_margins(raw):
    rows = [SandwichRow(lam=a, l2=b, l1=c, e=d, u_star=f)
            for a, b, c, d, f in raw]
    rep = sandwich_report(rows)
    margins = [m for r in rows for m in r.margins(1e-8)]
    assert rep.margin_min == min(margins)
    assert rep.passed == (min(margins) >= 0.0)
