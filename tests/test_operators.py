"""Operator assembly oracles.

The key checks are structural identities with an independent second route:
a hand-built two-level fiber, a position-space quadrature for the potential
kernel, the exact decoupling of the zero-coupling scaled operator, and the
matched finite-ring pair whose spectra must agree to rounding.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from polaron_effmass import operators
from polaron_effmass.config import load_config
from polaron_effmass.eigensolve import dense_ground, dense_spectrum
from polaron_effmass.errors import CapacityError, ConfigError, DomainError
from polaron_effmass.model import (ConstantCoupling, ConstantDispersion,
                                   GaussianWell, ModeGrid, ModelSpec,
                                   PoschlTeller, ZeroCoupling)
from polaron_effmass.operators import (ElectronGrid, FiberTemplate,
                                       SymmetricOperator, assemble_coupled_llp,
                                       assemble_direct_tensor,
                                       assemble_llp_ring,
                                       assemble_schrodinger, potential_kernel,
                                       ring_potential_kernel, ring_sites)
from scaling import scaled_grid


class _SingleModeSpec(ModelSpec):
    """One retained mode at k = +1 with unit weight: v_eff = g exactly."""

    def mode_grid(self):
        return ModeGrid(momenta=np.array([1.0]), dk=1.0)


def _single_mode_template(g=0.2, n_max=1):
    return FiberTemplate(_SingleModeSpec(
        dispersion=ConstantDispersion(omega0=1.0),
        coupling=ConstantCoupling(g=g), dk=1.0, uv_cutoff=1.0, ir_cutoff=0.5,
        n_max=n_max))


# ---------------------------------------------------------------------------
# SymmetricOperator and ElectronGrid plumbing
# ---------------------------------------------------------------------------

def test_symmetric_operator_validates_and_matvecs(rng, monkeypatch):
    a = rng.standard_normal((6, 6))
    sym = (a + a.T) / 2
    diag = rng.standard_normal(6)
    op = SymmetricOperator(sym, np.zeros((1, 1)), diag)
    x = rng.standard_normal(6)
    assert np.allclose(op.matvec(x), sym @ x + diag * x)
    assert np.allclose(op.diagonals()[0], np.diag(sym) + diag)
    assert np.allclose(op.to_dense(), sym + np.diag(diag))
    with pytest.raises(DomainError):
        SymmetricOperator(a + np.triu(np.ones((6, 6)), 1), np.zeros((1, 1)),
                          diag)
    with pytest.raises(DomainError):
        SymmetricOperator(sym, np.zeros((1, 1)), np.ones(5))
    monkeypatch.setattr(operators, "_DENSIFY_MAX", 3)
    with pytest.raises(CapacityError):
        op.to_dense()


def test_grid_times_fock_checks_each_factor(rng):
    template = _single_mode_template(n_max=2)
    a = rng.standard_normal((5, 5))
    kernel = (a + a.T) / 2.0
    diag = np.zeros(5 * template.dim)
    dense = SymmetricOperator(template.interaction * 2.0, kernel, diag,
                              name="ok").to_dense()
    assert np.array_equal(dense, dense.T)
    bad_kernel = kernel.copy()
    bad_kernel[0, 1] += 1e-6
    with pytest.raises(DomainError, match="bad kernel is not symmetric"):
        SymmetricOperator(template.interaction * 2.0, bad_kernel, diag,
                          name="bad")
    bad_interaction = template.interaction.tolil()
    bad_interaction[0, 1] += 1e-6
    with pytest.raises(DomainError, match="bad block is not symmetric"):
        SymmetricOperator(bad_interaction.tocsr() * 2.0, kernel, diag,
                          name="bad")


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
def test_dense_and_sparse_symmetry_checks_give_one_verdict(rng, scale):
    # a dense factor is checked densely; the verdict and the message are
    # those of the sparse check of the same matrix, on either side of the
    # tolerance 1e-12 max(1, max|M|)
    a = rng.standard_normal((7, 7))
    sym = scale * (a + a.T)
    tol = 1e-12 * max(1.0, float(np.abs(sym).max()))
    for bump, fails in ((0.0, False), (0.5 * tol, False), (4.0 * tol, True)):
        m = sym.copy()
        m[2, 5] += bump
        m[0, 0] = 0.0
        verdicts = []
        for form in (m, sp.csr_matrix(m)):
            try:
                operators._check_symmetric(form, "m")
                verdicts.append(None)
            except DomainError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]
        assert (verdicts[0] is not None) == fails
    for empty in (np.zeros((0, 0)), np.zeros((1, 1))):
        operators._check_symmetric(empty, "empty")


def test_electron_grid_layout():
    egrid = ElectronGrid(dq=0.5, q_max=2.0)
    pts = egrid.points
    assert egrid.size == 9
    assert np.allclose(pts, np.arange(-4, 5) * 0.5)
    assert np.allclose(egrid.kinetic_diagonal(0.5), pts**2)
    half = scaled_grid(egrid, 0.5)
    assert half.dq == pytest.approx(0.25)
    assert half.q_max == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def test_two_level_fiber_against_hand_formula(fiber_matrix):
    """Single mode k=1, omega=1, v=0.2, n_max=1: the fiber at momentum P is
    the 2x2 matrix [[P^2, v], [v, (P-1)^2 + 1]] exactly."""
    template = _single_mode_template(g=0.2)
    for P in (0.0, 0.3, -0.6):
        dense = fiber_matrix(template, P)
        d = (P - 1.0) ** 2 + 1.0
        assert np.allclose(dense, [[P * P, 0.2], [0.2, d]], atol=1e-14)
        expected = 0.5 * (P * P + d) - 0.5 * math.hypot(d - P * P, 0.4)
        got = dense_ground(dense)
        assert got == pytest.approx(expected, abs=1e-12)


def test_two_level_fiber_frozen_ground_value(fiber_matrix):
    # P = 0: eigenvalues of [[0, 0.2], [0.2, 2]] are 1 -/+ sqrt(1.04)
    template = _single_mode_template(g=0.2)
    ground = dense_ground(fiber_matrix(template, 0.0))
    assert ground == pytest.approx(1.0 - math.sqrt(1.04), abs=1e-13)


def test_fiber_matrix_elements_from_ladder_rules(fiber_matrix):
    """Three-state check (n_max=2, one mode): tridiagonal with amplitudes
    v sqrt(n+1) and diagonal (P - n k)^2 + n omega."""
    template = _single_mode_template(g=0.3, n_max=2)
    P = 0.2
    dense = fiber_matrix(template, P)
    diag = [(P - n) ** 2 + n for n in range(3)]
    v = 0.3
    expected = np.array([
        [diag[0], v, 0.0],
        [v, diag[1], v * math.sqrt(2.0)],
        [0.0, v * math.sqrt(2.0), diag[2]],
    ])
    assert np.allclose(dense, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# potential kernel: momentum-space vs position-space quadrature
# ---------------------------------------------------------------------------

def test_potential_kernel_closed_form_entries():
    pot = GaussianWell(depth=1.0, width=0.7)
    egrid = ElectronGrid(dq=0.5, q_max=1.0)
    w = potential_kernel(pot, egrid)
    pts = egrid.points
    for i, qi in enumerate(pts):
        for j, qj in enumerate(pts):
            expected = (0.5 / math.sqrt(2 * math.pi)
                        * float(pot.fourier(np.array([qi - qj]))[0]))
            assert w[i, j] == pytest.approx(expected, abs=1e-15)
    assert np.allclose(w, w.T)


def test_kernel_quadratic_form_matches_box_integral(rng):
    """a^T W a equals the periodized position-space integral
    (1/L) int_box V_per(x) |sum_j a_j exp(i q_j x)|^2 dx with L = 2 pi / dq."""
    pot = GaussianWell(depth=1.0, width=0.6)
    egrid = ElectronGrid(dq=0.5, q_max=1.5)
    w = potential_kernel(pot, egrid)
    a = rng.standard_normal(egrid.size)
    quadratic = float(a @ w @ a)

    L = 2.0 * math.pi / egrid.dq
    qs = egrid.points

    def v_periodized(x):
        return sum(float(pot(np.array([x + n * L]))[0]) for n in range(-4, 5))

    def integrand(x):
        psi = np.sum(a * np.exp(1j * qs * x))
        return v_periodized(x) * float(np.abs(psi) ** 2)

    box, _ = quad(integrand, -L / 2, L / 2, limit=400)
    assert quadratic == pytest.approx(box / L, rel=1e-8, abs=1e-10)


def test_schrodinger_operator_structure():
    pot = PoschlTeller(depth=2.0)
    egrid = ElectronGrid(dq=0.25, q_max=6.0)
    w = potential_kernel(pot, egrid)
    h = assemble_schrodinger(w, egrid, mass=0.5)
    assert np.allclose(h - w, np.diag(egrid.kinetic_diagonal(0.5)))
    h2 = assemble_schrodinger(w, egrid, mass=0.5, v_scale=2.0)
    assert np.allclose(h2 - h, w)
    # the kernel is read, not written
    assert np.array_equal(w, potential_kernel(pot, egrid))
    # depth 2 well at mass 1/2 binds at -1; the grid gets close already
    assert dense_ground(h) == pytest.approx(-1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# coupled scaled operator
# ---------------------------------------------------------------------------

def test_coupled_operator_decouples_at_zero_coupling():
    """With zero coupling the vacuum sector of the scaled operator is exactly
    the one-particle comparison operator, so the grounds agree."""
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ZeroCoupling(), dk=1.0, uv_cutoff=1.0,
                     ir_cutoff=0.5, n_max=2)
    template = FiberTemplate(spec)
    pot = GaussianWell(depth=1.0)
    egrid = ElectronGrid(dq=0.5, q_max=3.0)
    for lam in (0.4, 0.15):
        kernel = potential_kernel(pot, egrid)
        coupled = assemble_coupled_llp(template, kernel, egrid, lam, 0.0)
        ours = dense_spectrum(coupled.to_dense())[0]
        ref = dense_ground(assemble_schrodinger(kernel, egrid, 0.5))
        assert ours == pytest.approx(ref, abs=1e-11)


def test_coupled_operator_matches_dense_oracle(fiber_matrix):
    cfg = load_config("oracle")
    template = FiberTemplate(cfg.spec)
    e0 = dense_ground(fiber_matrix(template, 0.0))
    coupled = assemble_coupled_llp(
        template, potential_kernel(cfg.potential, cfg.egrid), cfg.egrid, 0.4,
        e0)
    dense = coupled.to_dense()
    assert np.allclose(dense, dense.T, atol=1e-12)
    ref = np.linalg.eigvalsh(dense)[0]
    assert dense_spectrum(dense)[0] == pytest.approx(ref, abs=1e-10)


def _kronecker_reference(block, kernel, diag):
    """I (x) block + kernel (x) I_F + diag, assembled explicitly."""
    n_q, fdim = kernel.shape[0], block.shape[0]
    ref = (sp.kron(sp.identity(n_q), block)
           + sp.kron(sp.csr_matrix(kernel), sp.identity(fdim))).tocsr()
    return ref + sp.diags(diag)


def _check_against_kronecker(op, block, kernel, rng):
    ref = _kronecker_reference(block, kernel, op.diag)
    n_q, fdim = kernel.shape[0], block.shape[0]
    assert op.dim == n_q * fdim
    assert op.nnz == n_q * block.nnz + n_q * n_q * fdim + op.dim
    x = rng.standard_normal(op.dim)
    y_ref = ref @ x
    assert np.max(np.abs(op.matvec(x) - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
    assert np.array_equal(op.diagonals()[0], ref.diagonal())
    assert np.array_equal(op.to_dense(), ref.toarray())
    with pytest.raises(DomainError, match="diagonal length"):
        SymmetricOperator(block, kernel, op.diag[:-1])
    bad_kernel = kernel.copy()
    bad_kernel[0, 1] += 1e-6
    with pytest.raises(DomainError, match="kernel is not symmetric"):
        SymmetricOperator(block, bad_kernel, op.diag)


@pytest.mark.parametrize("lam", [0.4, 0.1])
def test_coupled_operator_is_the_kronecker_sum(toy_cfg, toy_template, lam,
                                               rng, unfold):
    # the coupled operator is E^T A E: A the Kronecker sum on the whole
    # grid, built without the fold, and E the isometry onto its J (x) R-even
    # sector, whose columns unfold the fold's unit vectors
    egrid = toy_cfg.egrid
    kernel = potential_kernel(toy_cfg.potential, egrid)
    op = assemble_coupled_llp(toy_template, kernel, egrid, lam, -0.3)
    block = toy_template.interaction * (1.0 / (lam * lam))
    diff = lam * egrid.points[:, None] - toy_template.field_momenta[None, :]
    diag = ((diff * diff / (2.0 * toy_template.spec.mass)
             + toy_template.frequency_sums + 0.3) / (lam * lam)).ravel()
    full = _kronecker_reference(block, kernel, diag).toarray()
    # F0 = (F + #fixed) / 2 = (28 + 4) / 2 orbits at q = 0, F at each q > 0
    n_q, fdim = egrid.size, toy_template.dim
    assert op.dim == 16 + (n_q // 2) * fdim == 688
    n_half = n_q // 2 + 1
    assert op.nnz == (n_half * block.nnz + (n_half**2 + (n_half - 1)**2)
                      * fdim + op.dim)
    E = np.stack([unfold(op, e) for e in np.eye(op.dim)], axis=1)
    assert np.abs(E.T @ E - np.eye(op.dim)).max() <= 1e-15
    ref = E.T @ full @ E
    scale = np.abs(ref).max()
    assert np.abs(op.to_dense() - ref).max() <= 1e-14 * scale
    assert np.abs(op.diagonals()[0] - np.diag(ref)).max() <= 1e-14 * scale
    x = rng.standard_normal(op.dim)
    assert np.abs(op.matvec(x) - ref @ x).max() <= 1e-14 * np.abs(ref @ x).max()
    bad_kernel = kernel.copy()
    bad_kernel[0, 1] = bad_kernel[1, 0] = bad_kernel[0, 1] * (1.0 + 1e-9)
    with pytest.raises(DomainError, match="kernel even"):
        assemble_coupled_llp(toy_template, bad_kernel, egrid, lam, -0.3)


def test_ring_operator_is_the_kronecker_sum(toy_cfg, toy_template, rng):
    op = assemble_llp_ring(toy_template, toy_cfg.potential, toy_cfg.egrid)
    kernel = ring_potential_kernel(toy_cfg.potential, toy_cfg.egrid)
    _check_against_kronecker(op, toy_template.interaction, kernel, rng)


def test_to_dense_writes_each_column_into_one_array():
    # a ring of dimension 1005: the output and one image at a time, where
    # the identity, the images and their stack took about three outputs
    cfg = load_config("oracle")
    op = assemble_llp_ring(FiberTemplate(cfg.spec), cfg.potential,
                           ElectronGrid(dq=0.5, q_max=16.5))
    assert op.dim >= 1000
    tracemalloc.start()
    try:
        dense = op.to_dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * dense.nbytes
    e = np.zeros(op.dim)
    for j in (0, 517, op.dim - 1):
        e[j] = 1.0
        assert np.array_equal(dense[:, j], op.matvec(e))
        e[j] = 0.0


def test_factored_operator_with_a_general_kernel(toy_template, rng):
    # the shipped kernels are Toeplitz (constant diagonal); this one is not
    a = rng.standard_normal((5, 5))
    kernel = a + a.T
    diag = rng.standard_normal(5 * toy_template.dim)
    op = SymmetricOperator(toy_template.interaction * 2.0, kernel, diag,
                           name="general")
    _check_against_kronecker(op, toy_template.interaction * 2.0, kernel, rng)


def _protocol_cases(case, toy_cfg, toy_template, fiber_matrix, rng):
    """(operator, one dense reference matrix per member) for each operator
    form the Davidson solvers take."""
    if case == "fiber-batch":
        Ps = (0.0, 0.35, -0.7)
        return (toy_template.operator(Ps),
                [fiber_matrix(toy_template, P) for P in Ps])
    if case == "coupled-fold":
        # the fold's matrix is E^T A E (checked against the Kronecker sum
        # above); its columns are the images of the unit vectors
        op = assemble_coupled_llp(
            toy_template, potential_kernel(toy_cfg.potential, toy_cfg.egrid),
            toy_cfg.egrid, 0.1, -0.3)
        return op, [op.to_dense()]
    if case == "ring":
        cfg = load_config("oracle")
        template = FiberTemplate(cfg.spec)
        op = assemble_llp_ring(template, cfg.potential, cfg.egrid)
        kernel = ring_potential_kernel(cfg.potential, cfg.egrid)
        ref = _kronecker_reference(template.interaction, kernel, op.diag)
        return op, [ref.toarray()]
    a = sp.random(120, 120, density=0.05, format="csr",
                  random_state=np.random.RandomState(7))
    m = (a + a.T) * 0.5
    diag = rng.standard_normal(120)
    return (SymmetricOperator(m, np.zeros((1, 1)), diag),
            [m.toarray() + np.diag(diag)])


@pytest.mark.parametrize("case", ["fiber-batch", "coupled-fold", "ring",
                                  "wrapped-sparse"])
def test_every_operator_follows_the_block_apply_protocol(
        case, toy_cfg, toy_template, fiber_matrix, rng):
    # dim, len, diagonals() and apply(members, X) are all the Davidson
    # solvers read; a block's image is its rows' images, bit for bit
    op, refs = _protocol_cases(case, toy_cfg, toy_template, fiber_matrix,
                               rng)
    assert len(op) == len(refs)
    assert all(ref.shape == (op.dim, op.dim) for ref in refs)
    diagonals = op.diagonals()
    assert diagonals.shape == (len(op), op.dim)
    for diagonal, ref in zip(diagonals, refs):
        assert np.array_equal(diagonal, np.diag(ref))
    # a fresh array each call, which the solver compacts in place
    diagonals[:] = np.nan
    assert np.array_equal(op.diagonals(), [np.diag(ref) for ref in refs])
    members = np.array([2, 0, 1]) % len(op)
    X = rng.standard_normal((3, op.dim))
    Y = op.apply(members, X)
    assert Y.shape == X.shape and Y.flags.c_contiguous
    for i in range(3):
        assert np.array_equal(Y[i], op.apply(members[i:i + 1], X[i:i + 1])[0])
        ref = refs[members[i]] @ X[i]
        assert np.abs(Y[i] - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("preset", ["toy", "small"])
def test_a_fiber_block_has_the_bits_of_the_multivector_product(preset, rng):
    # row by row, csr_matvec sums each entry as csr_matvecs does, so the
    # C-ordered block is the transposed CSR product's bits
    template = FiberTemplate(load_config(preset).spec)
    op = template.operator([0.0, 0.35, -0.7])
    members = np.array([2, 0, 1, 1, 2, 0, 0])
    X = rng.standard_normal((members.size, op.dim))
    ref = (template.interaction @ X.T).T
    ref += op.diag[members] * X
    assert np.array_equal(op.apply(members, X), ref)
    # a strided block is read as its rows
    assert np.array_equal(op.apply(members[::2], X[::2]), ref[::2])


# ---------------------------------------------------------------------------
# matched finite-ring pair
# ---------------------------------------------------------------------------

def test_ring_pair_spectra_agree_when_commensurate():
    cfg = load_config("oracle")
    template = FiberTemplate(cfg.spec)
    ring = assemble_llp_ring(template, cfg.potential, cfg.egrid)
    direct = assemble_direct_tensor(template, cfg.potential, cfg.egrid)
    assert direct.shape == (ring.dim, ring.dim)
    s1 = dense_spectrum(ring.to_dense())
    s2 = dense_spectrum(direct)
    assert np.max(np.abs(s1 - s2)) < 1e-10


def test_direct_tensor_refuses_to_densify_over_the_cap(monkeypatch):
    cfg = load_config("oracle")
    template = FiberTemplate(cfg.spec)
    monkeypatch.setattr(operators, "_DENSIFY_MAX",
                        cfg.egrid.size * template.dim - 1)
    with pytest.raises(CapacityError, match="refusing to densify"):
        assemble_direct_tensor(template, cfg.potential, cfg.egrid)


def test_ring_pair_rejects_incommensurate_modes():
    spec = ModelSpec(dispersion=ConstantDispersion(omega0=1.0),
                     coupling=ConstantCoupling(g=0.2), dk=0.3, uv_cutoff=0.3,
                     ir_cutoff=0.0, n_max=1)
    template = FiberTemplate(spec)
    egrid = ElectronGrid(dq=0.5, q_max=1.0)  # 0.3 / 0.5 is not an integer
    with pytest.raises(ConfigError):
        assemble_llp_ring(template, GaussianWell(depth=1.0), egrid)


def test_ring_kernel_is_dft_sampled_potential():
    pot = GaussianWell(depth=1.0, width=0.8)
    egrid = ElectronGrid(dq=0.5, q_max=1.0)
    sites = ring_sites(egrid)
    kernel = ring_potential_kernel(pot, egrid)
    L = 2.0 * math.pi / egrid.dq
    assert sites.shape == (egrid.size,)
    assert np.allclose(np.diff(sites), L / egrid.size)
    # the kernel is the DFT of the site-sampled potential values; row sums
    # with alternating phases reproduce those samples
    n = egrid.size
    qs = egrid.points
    vals = np.array([sum(kernel[i, j] * np.exp(1j * (qs[i] - qs[j]) * x)
                         for i in range(n) for j in range(n)) / n
                     for x in sites[:2]])
    expected = pot(sites[:2])
    assert np.allclose(vals.real, expected, atol=1e-10)
