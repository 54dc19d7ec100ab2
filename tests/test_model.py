"""Model-layer checks: grids, couplings, potentials.

Closed-form Fourier transforms are verified against direct numerical
quadrature, so the two routes are independent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from polaron_effmass.config import PRESET_NAMES, load_config
from polaron_effmass.errors import CapacityError, ConfigError, DomainError
from polaron_effmass.model import (ConstantCoupling, ConstantDispersion,
                                   GaussianWell, ModelSpec, ModeGrid,
                                   PoschlTeller, PowerLawCoupling,
                                   ZeroCoupling, build_mode_grid,
                                   effective_couplings,
                                   fourier_tail_fraction)
from scaling import ScaledPotential

ROOT_2PI = math.sqrt(2.0 * math.pi)


def quad_fourier(potential, q, cut=60.0):
    """(2 pi)^(-1/2) integral of V(x) cos(q x), the independent route."""
    val, _ = quad(lambda x: potential(np.asarray(x)) * math.cos(q * x),
                  -cut, cut, limit=400)
    return val / ROOT_2PI


# ---------------------------------------------------------------------------
# dispersions and couplings
# ---------------------------------------------------------------------------

def test_constant_dispersion_value_and_guard():
    disp = ConstantDispersion(omega0=1.5)
    assert np.allclose(disp(np.array([0.0, 2.0])), 1.5)
    with pytest.raises(ConfigError):
        ConstantDispersion(omega0=0.0)


def test_coupling_values_match_formulas():
    k = np.array([0.5, 1.0, 2.0])
    assert np.allclose(ZeroCoupling()(k), 0.0)
    assert np.allclose(ConstantCoupling(g=0.2)(k), 0.2)
    assert np.allclose(PowerLawCoupling(g=0.3, s=1.0)(k), 0.3 / k)
    assert np.allclose(PowerLawCoupling(g=0.3, s=0.0)(k), 0.3)


# ---------------------------------------------------------------------------
# mode grids
# ---------------------------------------------------------------------------

def test_build_mode_grid_enumerates_lattice():
    grid = build_mode_grid(dk=0.5, uv_cutoff=1.0)
    assert np.allclose(np.sort(grid.momenta),
                       [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid.dk == 0.5
    assert np.allclose(grid.momenta[grid.parity_permutation()], -grid.momenta)


def test_build_mode_grid_ir_cutoff_drops_origin():
    grid = build_mode_grid(dk=0.5, uv_cutoff=1.0, ir_cutoff=0.25)
    assert 0.0 not in grid.momenta
    assert grid.size == 4


def test_build_mode_grid_guards():
    with pytest.raises(ConfigError):
        build_mode_grid(dk=-1.0, uv_cutoff=1.0)
    with pytest.raises(ConfigError):
        build_mode_grid(dk=1.0, uv_cutoff=0.0)
    with pytest.raises(ConfigError):
        build_mode_grid(dk=1.0, uv_cutoff=1.0, ir_cutoff=2.0)


def test_parity_permutation_roundtrip():
    # a grid with k = 0, and every shipped preset's grid
    for grid in [build_mode_grid(dk=0.5, uv_cutoff=1.5),
                 *(load_config(p).spec.mode_grid() for p in PRESET_NAMES)]:
        perm = grid.parity_permutation()
        assert np.allclose(grid.momenta[perm], -grid.momenta)
    asym = ModeGrid(momenta=np.array([0.5, 1.0]), dk=0.5)
    with pytest.raises(DomainError, match="not symmetric"):
        asym.parity_permutation()


def test_mode_grid_rejects_vector_momenta():
    with pytest.raises(DomainError, match="1-d"):
        ModeGrid(momenta=np.array([[0.5], [1.0]]), dk=0.5)


def test_effective_couplings_include_sqrt_weight():
    grid = build_mode_grid(dk=0.25, uv_cutoff=0.5, ir_cutoff=0.2)
    v = effective_couplings(ConstantCoupling(g=0.4), grid)
    assert np.allclose(v, 0.4 * math.sqrt(0.25))


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

def _spec(**kw):
    base = dict(dispersion=ConstantDispersion(),
                coupling=ConstantCoupling(g=0.2), dk=0.5, uv_cutoff=1.0,
                ir_cutoff=0.0, n_max=2)
    base.update(kw)
    return ModelSpec(**base)


def test_particle_mass_is_fixed():
    spec = _spec()
    assert spec.mass == 0.5
    with pytest.raises(TypeError):
        ModelSpec(dispersion=ConstantDispersion(),
                  coupling=ZeroCoupling(), dk=0.5, uv_cutoff=1.0,
                  ir_cutoff=0.0, n_max=1, mass=1.0)


def test_fock_dimension_is_binomial():
    spec = _spec(n_max=3)
    grid = spec.mode_grid()
    assert spec.fock_dimension(grid) == math.comb(grid.size + 3, 3)


def test_singular_coupling_needs_ir_cutoff():
    with pytest.raises(ConfigError):
        _spec(coupling=PowerLawCoupling(g=0.1, s=1.0), ir_cutoff=0.0)
    _spec(coupling=PowerLawCoupling(g=0.1, s=1.0), ir_cutoff=0.25)


def test_capacity_guard_fires_before_allocation():
    spec = _spec(dk=0.05, uv_cutoff=5.0, n_max=10)
    with pytest.raises(CapacityError):
        spec.fock_dimension(spec.mode_grid())


# ---------------------------------------------------------------------------
# potentials: closed forms vs direct quadrature
# ---------------------------------------------------------------------------

POTENTIALS = [
    PoschlTeller(depth=2.0),
    GaussianWell(depth=1.0, width=0.8),
]


@pytest.mark.parametrize("potential", POTENTIALS,
                         ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("q", [0.0, 0.3, 1.0, 2.7])
def test_fourier_matches_quadrature(potential, q):
    closed = float(potential.fourier(np.array([q]))[0])
    assert closed == pytest.approx(quad_fourier(potential, q), rel=1e-9,
                                   abs=1e-12)


@pytest.mark.parametrize("potential", POTENTIALS,
                         ids=lambda p: type(p).__name__)
def test_wells_are_even_nonpositive_bounded(potential):
    x = np.linspace(-8.0, 8.0, 401)
    vals = potential(x)
    assert np.all(vals <= 0.0)
    assert np.allclose(vals, potential(-x))
    assert np.max(np.abs(vals)) <= potential.sup_norm() + 1e-12


def test_poschl_teller_fourier_is_continuous_and_stable():
    pot = PoschlTeller(depth=2.0)
    tiny = float(pot.fourier(np.array([1e-9]))[0])
    zero = float(pot.fourier(np.array([0.0]))[0])
    assert zero == pytest.approx(-2.0 * 2.0 / ROOT_2PI)
    assert tiny == pytest.approx(zero, rel=1e-12)
    # large arguments underflow gracefully instead of overflowing sinh
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        big = pot.fourier(np.array([200.0, 1000.0]))
    assert np.all(np.isfinite(big))
    assert np.allclose(pot.fourier(np.array([-3.7])),
                       pot.fourier(np.array([3.7])))


def test_potential_guards():
    with pytest.raises(ConfigError):
        PoschlTeller(depth=-1.0)
    with pytest.raises(ConfigError):
        GaussianWell(depth=1.0, width=0.0)


def test_scaled_potential_definition():
    base = GaussianWell(depth=1.0, width=1.0)
    lam = 0.3
    scaled = ScaledPotential(base, lam)
    x = np.array([0.7])
    assert scaled(x)[0] == pytest.approx(lam**2 * base(lam * x)[0])
    q = np.array([0.4])
    assert scaled.fourier(q)[0] == pytest.approx(
        lam * base.fourier(q / lam)[0])
    assert scaled.sup_norm() == pytest.approx(lam**2 * base.sup_norm())
    with pytest.raises(DomainError):
        ScaledPotential(base, 0.0)


def test_fourier_tail_fraction_decays():
    pot = PoschlTeller(depth=2.0)
    t4 = fourier_tail_fraction(pot, 4.0)
    t10 = fourier_tail_fraction(pot, 10.0)
    assert 0.0 <= t10 < t4 < 1.0
    assert t10 < 1e-5


@pytest.mark.parametrize("potential, rtol", [
    (GaussianWell(depth=1.0, width=1.0), 1e-10),
    (PoschlTeller(depth=2.0), 1e-10),
])
@pytest.mark.parametrize("q_cut", [2.0, 4.0, 8.0, 10.0, 11.0, 12.0])
def test_fourier_tail_fraction_matches_tight_quadrature(potential, rtol, q_cut,
                                                        tight_tail_fraction):
    ref = tight_tail_fraction(potential, q_cut)
    assert fourier_tail_fraction(potential, q_cut) == pytest.approx(
        ref, rel=rtol, abs=0.0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(depth=st.floats(0.1, 5.0), width=st.floats(0.2, 3.0),
       x=st.floats(-10.0, 10.0))
def test_gaussian_well_pointwise_properties(depth, width, x):
    pot = GaussianWell(depth=depth, width=width)
    val = float(pot(np.array([x]))[0])
    assert -depth <= val <= 0.0
    assert val == pytest.approx(float(pot(np.array([-x]))[0]))


@settings(max_examples=25, deadline=None)
@given(g=st.floats(0.01, 2.0), scale=st.floats(0.1, 10.0))
def test_effective_couplings_scale_linearly(g, scale):
    grid = build_mode_grid(dk=0.5, uv_cutoff=1.0)
    base = effective_couplings(ConstantCoupling(g=g), grid)
    scaled = effective_couplings(ConstantCoupling(g=g * scale), grid)
    assert np.allclose(scaled, scale * base, rtol=1e-12)
