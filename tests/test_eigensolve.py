"""Eigensolver cross-checks.

numpy.linalg.eigvalsh and 40-digit mpmath eigenvalues act as the test-side
oracles for the dense route and for the verified floor; numpy then anchors
the two iterative routes, which also check each other on the fibers.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from polaron_effmass import eigensolve, pipeline
from polaron_effmass.config import load_config
from polaron_effmass.eigensolve import (_DAVIDSON_MAX_BYTES,
                                        _orthogonalize, _projected_eigh,
                                        davidson_ground, dense_ground,
                                        dense_spectrum, ground_state,
                                        lowest_two, rayleigh_bounds,
                                        verified_floor)
from polaron_effmass.errors import CapacityError, DomainError, SolverError
from polaron_effmass.operators import FiberTemplate, SymmetricOperator


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a + a.T) / 2.0


def random_sparse_symmetric(rng, n, density=0.05):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(
        rng.integers(2**31)), format="csr")
    m = (a + a.T) * 0.5
    m.setdiag(m.diagonal() + rng.standard_normal(n))
    return m.tocsr()


# ---------------------------------------------------------------------------
# dense route vs numpy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 7, 40, 120, 300, 500])
def test_dense_spectrum_matches_numpy(rng, n):
    a = random_symmetric(rng, n)
    ours = dense_spectrum(a)
    ref = np.linalg.eigvalsh(a)
    assert np.all(np.diff(ours) >= -1e-12)
    assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.abs(ref).max())


def test_dense_ground_matches_numpy(rng):
    a = random_symmetric(rng, 60)
    ref = np.linalg.eigvalsh(a)[0]
    assert dense_ground(a) == pytest.approx(ref, abs=1e-10)


def test_dense_spectrum_exact_2x2():
    # ground of [[0, v], [v, d]] is (d - sqrt(d^2 + 4 v^2)) / 2
    v, d = 0.2, 2.0
    spec = dense_spectrum(np.array([[0.0, v], [v, d]]))
    assert spec[0] == pytest.approx((d - np.hypot(d, 2 * v)) / 2.0, abs=1e-14)
    assert spec[1] == pytest.approx((d + np.hypot(d, 2 * v)) / 2.0, abs=1e-14)


def tridiagonal(d, e):
    return np.diag(np.asarray(d, float)) + np.diag(e, 1) + np.diag(e, -1)


def rotated(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    a = q @ np.diag(eigenvalues) @ q.T
    return 0.5 * (a + a.T)


def block_diagonal(rng, sizes):
    return sla.block_diag(*(random_symmetric(rng, m) for m in sizes))


HARD_CASES = {
    # Wilkinson W21+: its largest eigenvalues come in pairs that agree to
    # about 15 digits
    "wilkinson_w21": lambda rng: tridiagonal(np.abs(np.arange(-10, 11)),
                                             np.ones(20)),
    "block_zero_couplings": lambda rng: block_diagonal(rng, (3, 5, 1, 4)),
    "tridiagonal_zero_couplings": lambda rng: tridiagonal(
        rng.standard_normal(9), [1.0, 0.0, 0.5, 0.0, 0.0, 2.0, 0.0, 1.0]),
    "repeated": lambda rng: rotated(rng, [-3.0] * 3 + [0.0] * 2 + [1.0] * 4
                                    + [2.0] * 3),
    "multiple_of_identity": lambda rng: 5.0 * np.eye(6),
    "scaled_1e8": lambda rng: random_symmetric(rng, 30, scale=1e8),
    "scaled_1e-8": lambda rng: random_symmetric(rng, 30, scale=1e-8),
    # 200 and 300 rows: exactly uncoupled blocks (one of a single row), an
    # exact multiple of the identity, clusters and extreme scales
    "block_zero_couplings_large": lambda rng: block_diagonal(
        rng, (40, 100, 1, 159)),
    "multiple_of_identity_large": lambda rng: 5.0 * np.eye(200),
    "repeated_large": lambda rng: rotated(rng, [-3.0] * 100 + [0.0] * 50
                                          + [1.0] * 100 + [2.0] * 50),
    "scaled_1e8_large": lambda rng: random_symmetric(rng, 300, scale=1e8),
    "scaled_1e-8_large": lambda rng: random_symmetric(rng, 300, scale=1e-8),
    "n1": lambda rng: np.array([[2.5]]),
    "n2": lambda rng: np.array([[1.0, 3.0], [3.0, -2.0]]),
    # bottom-heavy: the lowest eigenvalue repeated exactly, a bottom pair
    # 1e-12 apart, and a spectrum graded from 1e-8 to 1e8
    "bottom_repeated_copies": lambda rng: np.kron(np.eye(3),
                                                  random_symmetric(rng, 8)),
    "bottom_pair_1e-12": lambda rng: rotated(
        rng, [-1.0, -1.0 + 1e-12, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
    "graded_diagonal": lambda rng: np.diag(np.logspace(-8, 8, 17)),
    "graded_rotated": lambda rng: rotated(rng, np.logspace(-8, 8, 17)),
    "n2_bottom_pair": lambda rng: np.array([[1.0, 1e-9], [1e-9, 1.0]]),
}


@pytest.mark.parametrize("case", sorted(HARD_CASES))
def test_dense_route_hard_cases(rng, case):
    a = HARD_CASES[case](rng)
    ref = np.linalg.eigvalsh(a)
    tol = 1e-10 * np.abs(ref).max()
    ours = dense_spectrum(a)
    assert np.all(np.diff(ours) >= 0.0)
    assert np.max(np.abs(ours - ref)) <= tol
    assert abs(dense_ground(a) - ref[0]) <= tol


NAN = np.array([[1.0, 0.5], [0.5, np.nan]])
ASYMMETRIC = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("solver", [dense_ground, dense_spectrum])
@pytest.mark.parametrize("matrix", [NAN, ASYMMETRIC, np.zeros((2, 3)),
                                    np.zeros((0, 0))],
                         ids=["nan", "asymmetric", "non_square", "empty"])
def test_dense_route_rejects_bad_input(solver, matrix):
    with pytest.raises(DomainError):
        solver(matrix)


def _mp_rayleigh_quotient(a, x):
    """x^T a x / x^T x in 40 digits: an upper bound on lambda_min(a)."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in x.tolist()]
        ax = [mpmath.fdot(row, x) for row in a.tolist()]
        return mpmath.fdot(x, ax) / mpmath.fdot(x, x)


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_rayleigh_bounds_enclose_the_40_digit_quotient_and_residual(rng,
                                                                    scale):
    # a widely spread diagonal, as the coupled operators have at small
    # lambda, and a vector near but not at an eigenvector
    n = 60
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T) + np.diag(scale * rng.random(n) ** 2)
    near = np.linalg.eigh(a)[1][:, 0] + 1e-6 * rng.standard_normal(n)
    for x in (near, rng.standard_normal(n)):
        theta, lo, hi, r_up = rayleigh_bounds(x, a @ x, np.abs(a) @ np.abs(x),
                                              n + 1)
        with mpmath.workdps(40):
            ref = _mp_rayleigh_quotient(a, x)
            v = [mpmath.mpf(t) for t in x.tolist()]
            av = [mpmath.fdot(r, v) for r in a.tolist()]
            res = mpmath.sqrt(mpmath.fsum(
                (av[k] - ref * v[k]) ** 2 for k in range(n))
                / mpmath.fdot(v, v))
            assert lo <= ref <= hi
            assert res <= r_up
            assert theta == pytest.approx(float(ref), rel=1e-14,
                                          abs=1e-14 * scale)
        # the enclosure is tight: a few hundred roundings wide
        assert hi - lo <= 1e-12 * scale
        assert r_up <= float(res) * (1.0 + 1e-6) + 1e-11 * scale


@pytest.mark.parametrize("case", sorted(HARD_CASES))
def test_dense_ground_matches_40_digit_eigenvalues(rng, case):
    # Against A itself, within dsyevr's backward error, taken as
    # n eps ||A||_F; the verified floor must lie at or below the 40-digit
    # lambda_min.  mpmath diagonalizes A up to 60 rows; beyond that its
    # O(n^3) reduction takes minutes, so the reference is the 40-digit
    # Rayleigh quotient of numpy's ground vector, which lies above
    # lambda_min by far less than the tolerance.
    a = HARD_CASES[case](rng)
    n = a.shape[0]
    got = dense_ground(a)
    with mpmath.workdps(40):
        if n <= 60:
            ref = min(mpmath.eigsy(mpmath.matrix(a.tolist()),
                                   eigvals_only=True))
        else:
            ref = _mp_rayleigh_quotient(a, np.linalg.eigh(a)[1][:, 0])
        assert abs(got - ref) <= n * np.finfo(float).eps * np.linalg.norm(a)
        assert verified_floor(a, got) <= ref


# ---------------------------------------------------------------------------
# Lanczos route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [30, 200])
def test_lanczos_matches_dense(rng, n):
    m = random_sparse_symmetric(rng, n, density=0.1)
    res = ground_state(m, tol=1e-11, seed=3)
    ref = np.linalg.eigvalsh(m.toarray())[0]
    assert res.value == pytest.approx(ref, abs=1e-9)
    assert res.residual <= 1e-11 * max(1.0, abs(res.value))


def test_lanczos_is_deterministic(rng):
    m = random_sparse_symmetric(rng, 80)
    a = ground_state(m, tol=1e-10, seed=7)
    b = ground_state(m, tol=1e-10, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.vector, b.vector)
    assert a.matvecs == b.matvecs


class _CountingOperator:
    """A dense matrix behind the matvec/dim protocol, counting matvecs."""

    def __init__(self, a):
        self.a, self.dim, self.calls = a, a.shape[0], 0

    def matvec(self, x):
        self.calls += 1
        return self.a @ x


def test_lanczos_failure_ends_the_pass_by_step_n(rng):
    # tol 0 is never met, so the pass runs until the Krylov space is
    # invariant: the Ritz value it carries out is the exact one
    n = 60
    op = _CountingOperator(random_symmetric(rng, n))
    with pytest.raises(SolverError) as info:
        ground_state(op, tol=0.0, seed=1)
    assert op.calls <= n + 1   # at most n steps and one residual check
    ref = np.linalg.eigvalsh(op.a)[0]
    assert abs(info.value.best_value - ref) <= 1e-12


def test_lanczos_refuses_dimensions_beyond_the_dense_cap():
    class Huge:
        dim = 2001

        def matvec(self, x):
            raise AssertionError("no matvec before the dimension check")

    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="2000"):
            ground_state(Huge())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2001 * 8 * 4   # a basis of n x n doubles was never formed


def test_lanczos_converges_on_every_oracle_instance(monkeypatch):
    # the oracle preset's 50 random instances converge in one pass, with
    # room to spare below the 150-step guard (105 steps at most)
    results = []

    def recording(*args, **kwargs):
        results.append(ground_state(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pipeline, "ground_state", recording)
    passed, _, _ = pipeline.run_oracle_check(load_config("oracle"))
    assert passed
    assert len(results) == 50
    assert max(r.iterations for r in results) <= 150
    assert all(r.restarts == 0 for r in results)


# ---------------------------------------------------------------------------
# two-target Davidson route (fiber ground pairs)
# ---------------------------------------------------------------------------

def test_lowest_two_reports_gap(rng):
    a = np.diag([0.0, 1.0, 3.0]) + 0.01 * random_symmetric(rng, 3)
    pair, = lowest_two(a, tol=1e-12, seed=0)
    ref = np.linalg.eigvalsh(a)
    assert pair.values[0] == pytest.approx(ref[0], abs=1e-10)
    assert pair.values[1] == pytest.approx(ref[1], abs=1e-10)
    assert pair.gap == pytest.approx(ref[1] - ref[0], abs=1e-9)
    assert not pair.degenerate
    with pytest.raises(DomainError, match="below the 2 wanted pairs"):
        lowest_two(np.eye(1))


def test_lowest_two_flags_degeneracy():
    a = np.diag([0.0, 0.0, 1.0])
    pair, = lowest_two(a, tol=1e-12, seed=0)
    assert pair.degenerate
    assert pair.gap == pytest.approx(0.0, abs=1e-10)


def test_lowest_two_matches_dense_on_sparse_matrix(rng):
    m = random_sparse_symmetric(rng, 200, density=0.05)
    pair, = lowest_two(m, tol=1e-11, seed=0)
    ref = np.linalg.eigvalsh(m.toarray())[:2]
    assert np.allclose(pair.values, ref, rtol=0, atol=1e-9)
    assert pair.gap == pytest.approx(ref[1] - ref[0], abs=1e-9)


def rotated_diagonal(rng, values):
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    a = (q * values) @ q.T
    return (a + a.T) / 2.0


@pytest.mark.parametrize("n", [60, 300])
def test_lowest_two_flags_rotated_degeneracy(rng, n):
    rest = np.linspace(1.0, 2.0, n - 2)
    pair, = lowest_two(rotated_diagonal(rng, np.r_[0.0, 0.0, rest]), tol=1e-10)
    assert pair.degenerate
    assert np.allclose(pair.values, 0.0, rtol=0, atol=1e-9)
    split, = lowest_two(rotated_diagonal(rng, np.r_[0.0, 1e-3, rest]),
                        tol=1e-10)
    assert not split.degenerate
    assert split.gap == pytest.approx(1e-3, abs=1e-9)


def _random_sparse_operator(rng):
    return SymmetricOperator(random_sparse_symmetric(rng, 150),
                             np.zeros((1, 1)), np.linspace(0.0, 5.0, 150))


def test_lowest_two_residuals_come_from_returned_vectors(rng):
    op = _random_sparse_operator(rng)
    pair, = lowest_two(op, tol=1e-10, seed=1)
    for theta, x, res in zip(pair.values, pair.vectors, pair.residuals):
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
        assert res == np.linalg.norm(op.matvec(x) - theta * x)
    assert pair.residuals[0] <= 1e-10 * max(1.0, abs(pair.values[0]))


def _pair_cases(templates, fiber_matrix, rng):
    """(operator, its dense matrix) for every fiber of the contract test and
    the random sparse operator."""
    for template in templates.values():
        for P in (0.0, 0.25, -0.6, 1.1):
            yield template.operator([P]), fiber_matrix(template, P)
    op = _random_sparse_operator(rng)
    yield op, op.to_dense()


def test_lowest_two_converges_the_excited_pair_only_as_far_as_the_gap_needs(
        batch_templates, fiber_matrix, rng):
    # the ground pair to tol, the excited pair to sqrt(tol); the excited
    # Ritz value's error is of order its residual squared, so the gap still
    # matches the dense one to tol
    tol = 1e-9
    for op, dense in _pair_cases(batch_templates, fiber_matrix, rng):
        pair, = lowest_two(op, tol=tol, seed=0)
        (e0, e1), (r0, r1) = pair.values, pair.residuals
        assert r0 <= tol * max(1.0, abs(e0))
        assert r1 <= math.sqrt(tol) * max(1.0, abs(e1))
        ref = np.linalg.eigvalsh(dense)[:2]
        assert abs(pair.gap - (ref[1] - ref[0])) <= tol * max(1.0, abs(e0))


def test_lowest_two_is_deterministic(rng):
    m = random_sparse_symmetric(rng, 120)
    a, = lowest_two(m, tol=1e-10, seed=3)
    b, = lowest_two(m, tol=1e-10, seed=3)
    assert a.values == b.values and a.residuals == b.residuals
    for u, v in zip(a.vectors, b.vectors):
        assert np.array_equal(u, v)


def test_lowest_two_failure_carries_best_value(rng, monkeypatch):
    monkeypatch.setattr(eigensolve, "_MAX_ITERS", 3)
    m = random_sparse_symmetric(rng, 200)
    with pytest.raises(SolverError) as info:
        lowest_two(m, tol=1e-16, seed=0)
    assert info.value.best_value is not None
    assert info.value.best_residual is not None


@pytest.mark.parametrize("preset", ["toy", "small"])
def test_lowest_two_agrees_with_lanczos_and_dense_on_fibers(preset,
                                                            fiber_matrix):
    template = FiberTemplate(load_config(preset).spec)
    for P in (0.0, 0.25, -0.6, 1.1):
        pair, = lowest_two(template.operator([P]), tol=1e-10, seed=0)
        dense = fiber_matrix(template, P)
        ref = np.linalg.eigvalsh(dense)[:2]
        assert np.allclose(pair.values, ref, rtol=0, atol=1e-9)
        lanczos = ground_state(dense, tol=1e-10, seed=0)
        assert pair.values[0] == pytest.approx(lanczos.value, abs=1e-9)


# ---------------------------------------------------------------------------
# Davidson route
# ---------------------------------------------------------------------------

def spread_diag_operator(rng, n=300, spread=1e4):
    """Coupled-operator lookalike: huge diagonal spread, ground hidden in
    the few smallest diagonal entries."""
    diag = spread * (1.0 + np.arange(n, dtype=float))
    diag[:6] = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    rows, cols, vals = [], [], []
    for i in range(6):
        for j in range(i):
            rows.append(i), cols.append(j), vals.append(-0.8)
            rows.append(j), cols.append(i), vals.append(-0.8)
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return SymmetricOperator(m, np.zeros((1, 1)), diag, name="spread")


def test_davidson_cold_start_finds_true_ground(rng):
    """Regression: a cold random start on a strongly diagonally dominant
    operator must not lock onto an interior eigenpair."""
    op = spread_diag_operator(rng)
    res = davidson_ground(op, tol=1e-10, seed=11)
    dense = op.to_dense()
    ref = np.linalg.eigvalsh(dense)[0]
    assert ref < 0  # the well really is attractive
    assert res.value == pytest.approx(ref, abs=1e-8)


def test_davidson_matches_dense_on_generic_matrix(rng):
    m = random_sparse_symmetric(rng, 150, density=0.08)
    m.setdiag(m.diagonal() + np.linspace(0.0, 30.0, 150))
    op = SymmetricOperator(m, np.zeros((1, 1)), np.zeros(150))
    res = davidson_ground(op, tol=1e-10, seed=2)
    ref = np.linalg.eigvalsh(m.toarray())[0]
    assert res.value == pytest.approx(ref, abs=1e-8)


def test_davidson_warm_start_accepts_v0(rng):
    op = spread_diag_operator(rng)
    cold = davidson_ground(op, tol=1e-10, seed=5)
    warm = davidson_ground(op, tol=1e-10, seed=5, v0=cold.vector)
    assert warm.value == pytest.approx(cold.value, abs=1e-9)
    assert warm.matvecs <= cold.matvecs


def test_davidson_failure_carries_best_pair(rng, monkeypatch):
    monkeypatch.setattr(eigensolve, "_MAX_ITERS", 3)
    monkeypatch.setattr(eigensolve, "_SPACE", 5)
    op = spread_diag_operator(rng)
    with pytest.raises(SolverError) as info:
        davidson_ground(op, tol=1e-16, seed=0)
    err = info.value
    assert err.best_value is not None
    assert err.best_residual is not None
    # the last lowest Ritz pair: a Rayleigh quotient above the ground
    # energy, and an eigenvalue lies within its residual of it
    spectrum = np.linalg.eigvalsh(op.to_dense())
    assert err.best_value >= spectrum[0] - 1e-12
    assert np.min(np.abs(spectrum - err.best_value)) <= (
        err.best_residual * (1 + 1e-6))


def test_davidson_is_deterministic(rng):
    op = spread_diag_operator(rng)
    a = davidson_ground(op, tol=1e-10, seed=9)
    b = davidson_ground(op, tol=1e-10, seed=9)
    assert a.value == b.value
    assert np.array_equal(a.vector, b.vector)


def test_projected_eigh_is_eigh_bit_for_bit(rng):
    # Davidson's projected matrices are leading blocks of a larger array,
    # and it asks for the lowest 1 or 2 pairs, or 4 or 6 before a restart
    H = np.zeros((90, 90))
    for k in range(1, 81):
        H[:k, :k] = random_symmetric(rng, k)
        for m in sorted({1, 2, 4, 6, k}):
            if m > k:
                continue
            vals, vecs = _projected_eigh(H[:k, :k], m)
            ref_vals, ref_vecs = sla.eigh(H[:k, :k],
                                          subset_by_index=[0, m - 1])
            assert np.array_equal(vals, ref_vals), (k, m)
            assert np.array_equal(vecs, ref_vecs), (k, m)


def _count_passes(monkeypatch):
    """Spy on the Gram-Schmidt passes; returns the list it appends to."""
    passes = []
    project_out = eigensolve._project_out

    def spy(W, V):
        passes.extend([V.shape[1]] * len(W))   # one pass of each row
        return project_out(W, V)

    monkeypatch.setattr(eigensolve, "_project_out", spy)
    return passes


def test_orthogonalize_repeats_a_pass_only_when_dgks_asks(rng, monkeypatch):
    passes = _count_passes(monkeypatch)
    V, _ = np.linalg.qr(rng.standard_normal((50, 8)))
    V = np.ascontiguousarray(V.T)
    # orthogonal to the basis: one pass
    w = rng.standard_normal(50)
    w -= V.T @ (V @ w)
    w -= V.T @ (V @ w)
    norm = np.linalg.norm(w)
    nw = _orthogonalize(w[None].copy(), V[None], np.array([norm]))
    assert nw[0] == pytest.approx(norm, rel=1e-12)
    assert len(passes) == 1
    # 1e-6 off the span: the first pass keeps 1e-6 of the norm, so a second
    passes.clear()
    off = V.T @ rng.standard_normal(8) + 1e-6 * w / norm
    nw = _orthogonalize(off[None].copy(), V[None], np.array([np.linalg.norm(off)]))
    assert len(passes) == 2
    # in a batch the test is per row: only the row 1e-6 off the span takes
    # the second pass, and each row ends as it would alone
    passes.clear()
    W = np.array([w, off])
    both = _orthogonalize(W, np.array([V, V]),
                          np.array([norm, np.linalg.norm(off)]))
    assert len(passes) == 3
    assert both[1] == nw[0]
    assert np.max(np.abs(V @ W[1])) <= 1e-12 * both[1]


def _orthogonality_cases(rng):
    for values in ([0.0, 0.0], [0.0, 1e-3], [0.0, 0.0, 0.0]):
        for n in (60, 300):
            rest = np.linspace(1.0, 2.0, n - len(values))
            yield rotated_diagonal(rng, np.r_[values, rest])
    for n in (80, 200, 400):
        yield random_sparse_symmetric(rng, n)


def test_davidson_vectors_stay_orthogonal(rng, monkeypatch):
    # every vector that enters the space is orthogonal to it to 1e-12 of its
    # norm; a rejected correction (norm at or below 1e-12 of what it was
    # before the projection) never enters it and is not checked
    orthogonalize = eigensolve._orthogonalize
    checked = []

    def spy(W, V, norms):
        nws = orthogonalize(W, V, norms)
        for w, basis, norm, nw in zip(W, V, norms, nws):
            if nw > 1e-12 * norm and basis.shape[0]:
                assert np.max(np.abs(basis @ w)) <= 1e-12 * nw
                checked.append(basis.shape[0])
        return nws

    monkeypatch.setattr(eigensolve, "_orthogonalize", spy)
    for a in _orthogonality_cases(rng):
        lowest_two(a, tol=1e-10, seed=0)
        davidson_ground(a, tol=1e-10, seed=0)
    assert len(checked) > 100


def test_davidson_reports_its_restarts(rng, monkeypatch):
    # with nwant 1 and a space of 5, each iteration orthogonalizes one
    # correction; the basis it is orthogonalized against grows by one per
    # iteration unless the space was just compressed
    orthogonalize = eigensolve._orthogonalize
    sizes = []

    def spy(W, V, norms):
        sizes.append(V.shape[1])
        return orthogonalize(W, V, norms)

    monkeypatch.setattr(eigensolve, "_orthogonalize", spy)
    monkeypatch.setattr(eigensolve, "_SPACE", 5)
    m = random_sparse_symmetric(rng, 200)
    res = davidson_ground(m, tol=1e-10, seed=0)
    compressions = sum(b <= a for a, b in zip(sizes, sizes[1:]))
    assert compressions > 0
    assert res.restarts == compressions
    assert res.value == pytest.approx(np.linalg.eigvalsh(m.toarray())[0],
                                      abs=1e-8)


def test_projected_eigh_forms_only_the_pairs_in_use(rng, monkeypatch):
    # nwant pairs per iteration, restart_keep of them when the space may be
    # compressed next; never the full projected spectrum once k exceeds that
    projected_eigh = eigensolve._projected_eigh
    asked = []

    def spy(A, m):
        asked.append((A.shape[0], m))
        return projected_eigh(A, m)

    monkeypatch.setattr(eigensolve, "_projected_eigh", spy)
    template = FiberTemplate(load_config("small").spec)
    # all three fill their space and restart at least once
    for solve, nwant, keep, space, sizes in (
            (lambda: lowest_two(template.operator([0.5]), tol=1e-10),
             2, 6, 20, {2, 6}),
            (lambda: lowest_two(random_sparse_symmetric(rng, 300), tol=1e-10),
             2, 6, 20, {2, 6}),
            (lambda: davidson_ground(random_sparse_symmetric(rng, 200),
                                     tol=1e-10),
             1, 4, 8, {1, 4})):
        asked.clear()
        monkeypatch.setattr(eigensolve, "_SPACE", space)
        solve()
        assert {m for _, m in asked} == sizes
        for k, m in asked:
            assert m <= max(nwant, keep)
            assert m == min(keep if k + nwant > space else nwant, k)


# iterations and matvecs (before the two fresh ones) of
# lowest_two(tol=1e-10, seed=0) on the toy and small fibers, in the space of
# 20 to which every iteration adds both pairs' corrections, with the excited
# pair converged to sqrt(tol)
PAIR_COUNTS = {
    ("toy", 0.0): (6, 16), ("toy", 0.25): (7, 18), ("toy", -0.6): (8, 20),
    ("toy", 1.1): (8, 20), ("small", 0.0): (13, 30),
    ("small", 0.25): (14, 32), ("small", -0.6): (15, 34),
    ("small", 1.1): (17, 38),
}


@pytest.mark.parametrize("preset", ["toy", "small"])
def test_lowest_two_keeps_its_iteration_counts(preset, monkeypatch):
    davidson = eigensolve._davidson
    counts = []

    def spy(*args, **kwargs):
        out = davidson(*args, **kwargs)
        counts.extend(run[3:5] for run in out)
        return out

    monkeypatch.setattr(eigensolve, "_davidson", spy)
    template = FiberTemplate(load_config(preset).spec)
    for P in (0.0, 0.25, -0.6, 1.1):
        counts.clear()
        lowest_two(template.operator([P]), tol=1e-10, seed=0)
        assert counts == [PAIR_COUNTS[preset, P]], P


def test_second_gram_schmidt_pass_is_the_exception(monkeypatch):
    # on the small fiber at P = 0.5, 3 of 36 orthogonalizations took the
    # second pass; unconditional double passes would make that 36 of 36
    orthogonalize = eigensolve._orthogonalize
    calls = []

    def spy(W, V, norms):
        calls.extend([V.shape[1]] * len(W))
        return orthogonalize(W, V, norms)

    monkeypatch.setattr(eigensolve, "_orthogonalize", spy)
    passes = _count_passes(monkeypatch)
    template = FiberTemplate(load_config("small").spec)
    lowest_two(template.operator([0.5]), tol=1e-10, seed=0)
    assert len(passes) - len(calls) < len(calls) / 2


class _NaNOperator:
    dim = 6

    def matvec(self, x):
        return np.full_like(x, np.nan)

    def diagonal(self):
        return np.arange(6.0)


def test_davidson_refuses_a_non_finite_projection():
    # LAPACK may never return on a NaN entry; the projection is checked first
    with pytest.raises(SolverError, match="non-finite"):
        davidson_ground(_NaNOperator(), tol=1e-10, seed=0)


class _Touched(Exception):
    pass


class _HugeOperator:
    """An operator of which Davidson may read nothing but the dimension."""

    def __init__(self, dim):
        self.dim = dim

    def matvec(self, x):
        raise _Touched("matvec")

    def diagonal(self):
        raise _Touched("diagonal")


class _HugeBatch(_HugeOperator):
    """A batch of which Davidson may read nothing but the dimension and the
    number of members."""

    def __init__(self, dim, members):
        super().__init__(dim)
        self.members = members

    def __len__(self):
        return self.members

    def apply(self, members, X):
        raise _Touched("apply")

    def diagonals(self):
        raise _Touched("diagonal")


@pytest.mark.parametrize("solver,members", [
    (davidson_ground, 1), (lowest_two, 1), (lowest_two, 21)],
    ids=["default", "fiber-pair", "fiber-batch"])
def test_davidson_refuses_a_space_over_its_storage_cap(solver, members):
    # V and AV hold 2 x members x space x dim doubles; the largest dim within
    # the cap reaches the operator, one more is refused before anything is
    # read.  The space of 20 is the coupled solve's and the fiber pairs',
    # alone and in a batch of 21 members.
    space = 20
    edge = _DAVIDSON_MAX_BYTES // (2 * members * space * 8)

    def huge(dim):
        return _HugeOperator(dim) if members == 1 else _HugeBatch(dim, members)

    for dim in (edge + 1, 10**12):
        with pytest.raises(CapacityError, match=f"{space} vectors"):
            solver(huge(dim))
    with pytest.raises(_Touched, match="diagonal"):
        solver(huge(edge))
