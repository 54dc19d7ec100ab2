"""Eigensolver cross-checks.

numpy.linalg.eigvalsh and 40-digit mpmath eigenvalues act as the test-side
oracles for the dense route and for the verified floor; numpy then anchors
the two iterative routes, which also check each other on the fibers.
"""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from polaron_effmass import eigensolve, pipeline
from polaron_effmass.config import load_config
from polaron_effmass.eigensolve import (_DAVIDSON_MAX_BYTES, _dense_input,
                                        _lowest_ritz, _orthogonalize,
                                        _projected_eigh,
                                        davidson_ground, dense_ground,
                                        dense_spectrum, ground_state,
                                        lowest_two, rayleigh_bounds,
                                        verified_floor)
from polaron_effmass.errors import CapacityError, DomainError, SolverError
from polaron_effmass.operators import FiberTemplate, SymmetricOperator


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a + a.T) / 2.0


def random_sparse_symmetric(rng, n, density=0.05):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(
        rng.integers(2**31)), format="csr")
    m = (a + a.T) * 0.5
    m.setdiag(m.diagonal() + rng.standard_normal(n))
    return m.tocsr()


def wrap(m, diag=None):
    """A symmetric matrix, dense or sparse, plus `diag` (default zero) as a
    SymmetricOperator, the batch of one that the Davidson routes take."""
    n = m.shape[0]
    return SymmetricOperator(m, np.zeros((1, 1)),
                             np.zeros(n) if diag is None else diag)


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


def _accepted_by_the_full_test(a):
    """The n x n form of the input test that _dense_input takes blockwise."""
    return bool(np.all(np.isfinite(a))) and bool(
        np.max(np.abs(a - a.T)) <= 1e-10 * np.max(np.abs(a)))


def test_dense_input_accepts_what_the_full_test_accepts(rng):
    # entries in the first, a middle and the last block of 32 rows, pushed
    # to either side of the 1e-10 relative asymmetry, or made non-finite
    base = random_symmetric(rng, 70)
    scale = np.abs(base).max()
    cases = []
    for i, j in [(0, 1), (40, 3), (3, 40), (69, 68)]:
        for rel in (0.0, 0.99e-10, 1e-10, 1.01e-10, 1e-8):
            a = base.copy()
            a[i, j] += rel * scale
            cases.append(a)
        for bad in (np.inf, -np.inf, np.nan):
            a = base.copy()
            a[i, j] = bad
            cases.append(a)
    verdicts = []
    for a in cases:
        try:
            _dense_input(a, "test")
            verdicts.append(True)
        except DomainError:
            verdicts.append(False)
    assert verdicts == [_accepted_by_the_full_test(a) for a in cases]
    assert True in verdicts and False in verdicts


def test_dense_ground_works_in_one_copy_of_its_input(rng):
    # dsyevr overwrites its input, so one working copy is the floor; the
    # symmetry test adds a block of rows (the full test took two copies)
    a = random_symmetric(rng, 500)
    dense_ground(a)    # the workspace query is cached from here on
    tracemalloc.start()
    try:
        dense_ground(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * a.nbytes


def test_dense_ground_in_place_needs_no_copy_and_gets_the_same_bits(rng):
    # (a + a.T) / 2 is symmetric to the bit; dsyevr then works in a's own
    # storage as a.T, which is the Fortran-ordered copy it would have made
    a = random_symmetric(rng, 500)
    expected = dense_ground(a)
    work = a.copy()
    tracemalloc.start()
    try:
        got = dense_ground(work, overwrite=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert not np.array_equal(work, a)     # the input was the workspace
    assert peak <= 0.2 * a.nbytes


def test_dense_ground_in_place_refuses_a_matrix_not_exactly_symmetric(rng):
    a = random_symmetric(rng, 50)
    a[3, 7] += 1e-15    # symmetric to 1e-10 max|a|: the copying route runs
    dense_ground(a)
    with pytest.raises(DomainError, match="exactly symmetric"):
        dense_ground(a, overwrite=True)


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


@pytest.mark.parametrize("case", sorted(HARD_CASES))
def test_verified_floor_stays_a_few_roundings_below_mu(rng, case):
    # mu - sigma is delta plus the slack, each some (n + 1) u ||A||_inf;
    # the 40-digit test above checks that sigma lies below lambda_min
    a = HARD_CASES[case](rng)
    n = a.shape[0]
    mu = dense_ground(a)
    room = (n + 1) * np.finfo(float).eps * np.abs(a).sum(axis=1).max()
    assert 0.0 < mu - verified_floor(a, mu) <= 16.0 * room


@pytest.mark.parametrize("shift", [1e-6, math.nan])
def test_verified_floor_refuses_a_mu_above_the_spectrum(rng, shift):
    # dpotrf breaks down on A - tau I above the bottom of the spectrum,
    # and passes a NaN pivot; either way the SolverError carries mu
    a = random_symmetric(rng, 200)
    mu = dense_ground(a) + shift
    with pytest.raises(SolverError, match="positive definite") as info:
        verified_floor(a, mu)
    assert info.value.best_value is mu


# ---------------------------------------------------------------------------
# Lanczos route
# ---------------------------------------------------------------------------

def test_lowest_ritz_is_eigh_tridiagonal_bit_for_bit(rng):
    # Lanczos hands over k alphas and the k - 1 betas between them
    for k in range(1, 121):
        d, e = rng.standard_normal(k), rng.random(k - 1) + 0.01
        val, vec = _lowest_ritz(list(d), list(e))
        ref_vals, ref_vecs = sla.eigh_tridiagonal(d, e, select="i",
                                                  select_range=(0, 0))
        assert val == ref_vals[0], k
        assert np.array_equal(vec, ref_vecs[:, 0]), k


@pytest.mark.parametrize("alphas,betas", [
    ([math.nan], []),
    ([1.0, math.nan, 3.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], [0.5, math.inf]),
], ids=["single", "alpha", "beta"])
def test_lowest_ritz_refuses_a_non_finite_tridiagonal_before_lapack(
        monkeypatch, alphas, betas):
    def no_lapack(*args):
        raise AssertionError("LAPACK saw a non-finite tridiagonal")

    monkeypatch.setattr(eigensolve, "_STEBZ", no_lapack)
    monkeypatch.setattr(eigensolve, "_STEIN", no_lapack)
    with pytest.raises(SolverError, match="not finite"):
        _lowest_ritz(alphas, betas)


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
    """A dense matrix behind `shape` and `@`, counting products."""

    def __init__(self, a):
        self.a, self.shape, self.calls = a, a.shape, 0

    def __matmul__(self, x):
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
    # a zero-stride view: 2001 x 2001 in shape, one double in memory
    huge = np.broadcast_to(np.zeros(()), (2001, 2001))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="2000"):
            ground_state(huge)
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


# (n, density, sha256 of the matrix) of the oracle preset's 50 random
# instances at seed 0.  perfbench's oracle seed map replays these draws
# (integers, uniform, random, standard_normal (n, n), standard_normal (n))
# to pick seeds of balanced size, so a change to how run_oracle_check draws
# or builds them must show here.
ORACLE_DRAWS = [
    (356, 0.07701650114775552,
     "ccc04f50891220dff338f8a95b23af14e8e54eb386b9bb1c0cd4b13130f2cbb3"),
    (129, 0.14583296430327977,
     "7f8b2c807fec64fbcbfcbf72ddf0fc07f369cc1d543fe60e9c8d57fbbd3d63ab"),
    (375, 0.11407257675018977,
     "cdc6bbaf5306d0d30e7606d9a0cf728c01a8566874f0eaa21d054afe20a59d67"),
    (115, 0.14043621503058987,
     "045e163e46d3dd1b19a6ccc6540296089cb70b729b724a487b20eb62bb7da730"),
    (285, 0.039900205290815186,
     "28f3f347bebdbd79fc7e167eb1ced8c02c3d17f89694e518c16aff6b2c00f196"),
    (111, 0.03345391030785532,
     "471374dae6c49de9614e959608d7989df6d8911f6e6bd64566eaead4e0ec0070"),
    (141, 0.04390801572616122,
     "7519fc55f11b2c455beaf2dc708f9cf6dded712b802fb4c63baf8928c9d2e7f7"),
    (331, 0.13185095727321566,
     "313efb3c2e8171f9cf8841e9a2045a8adeb7c5fc4aa41357061fd5dd06d0d7ff"),
    (29, 0.18555422899991095,
     "f28211257d22b0826c565e73cb6f60ab7dfa17de10e0de6a9450b426977d5102"),
    (197, 0.052960482774936646,
     "66e8aa5ec4e6ed6ce235968ac45d0ca674c8962f371fa466bf3e6336660491ae"),
    (201, 0.19224630683651886,
     "a8e78da8ff388169a06db1d10b9eba416f6f00bd21e48903b924a1cdbc381e08"),
    (307, 0.1815586963374605,
     "39ffbe2640de5ad2dd759db29ee5426c59c50f2edb943c46fef222484e4daed0"),
    (158, 0.1105485064237158,
     "c3f8e91ca8f0b7e4aa3cae300039e558b91e5b84fc944681bbb621fce637e832"),
    (284, 0.14690852109122518,
     "0afccefd9cc8639f52a663b36d587813150123e39ded2b487997e8fbcfd310d7"),
    (270, 0.17256275463027543,
     "a49463cae7c2448c92036bcad939cb7cd7f597a1281b131873a1f9b2942df491"),
    (190, 0.06675932371352454,
     "d48db0850a550f922f32fb4e7c56276c0fda81aa947cfeca0ba8058d9a50c2da"),
    (73, 0.1716602542311098,
     "b3fce208ac9587ded44fdcae8d7268eb18b6413a252fab61d389ea0804867483"),
    (403, 0.1612859687804969,
     "b3bf6e318bfb9dc8cab0aa017827e37bbb150a6d4ff63ec66cfbaaf812a09fd6"),
    (324, 0.16620495562101953,
     "7ebfb25bb0fd210f5f64f87949d1e547b2d59ee7f74f12af081633d60094e811"),
    (264, 0.14192858828825855,
     "dd64738c3b3b758ed307d4c43c2a4c9c5be00d024d99be6584d39404b5bd695e"),
    (493, 0.19540761017997701,
     "f045f71a56bf50b3555383a15b2e12d28632d9e5e1255ad5cf453d7292017ef1"),
    (494, 0.16193522748791725,
     "6db05d1dc412cd6479cd9d75553bbaef685165217fda7c56accd9328cd800617"),
    (288, 0.03103928786071506,
     "edde905e6edd65bb22f3978393bd1428292f88c1ae915ef62a9e5ecbd1a2e469"),
    (321, 0.10719759702471818,
     "651cedb40caeaafbb426dd047a942873c47da14300c91daa3e7de50fd3fc6787"),
    (373, 0.0404105450183161,
     "25e1a9b01f990861b8e55e12928f1c53d4a1793331e51840a50bbeac60701367"),
    (253, 0.10967776955186022,
     "367c2c9397a6e441947dc056b1f1bb99773d0fac7f1e6337997909f0e2d56430"),
    (490, 0.16149546053808525,
     "a7183bb4fc419bf1dd1630ad4e58a28f3a4aa34108a992d5e4b7e392d6cdec98"),
    (415, 0.06223696702564323,
     "918acd8f627a145ca66ee0c7daaaf634accdba551596106e32f23a25859ba98f"),
    (315, 0.17449359552535065,
     "62ed0a46fbffd546cff0ef058d6cb257917c3798bded257c3c8fed86c819eb34"),
    (480, 0.06409359587339489,
     "f5a46e71592d0f68d7c442b2d955e53a2b6ef4688c8afc4d39e7642754fe31c4"),
    (30, 0.18693777005777346,
     "cf268f3c4a4ea8c4bb98adef6f31d9445a14c02230ecdf47f3467787acbb4bd6"),
    (488, 0.13967547830358576,
     "e0c792aadcc0c3572f9c6fb8d4394a8ec6478c0cb4bda432448dc07bb499d925"),
    (61, 0.07363426053455074,
     "5ab2ca16ed42e8969d9351ffc99c0ff8b2b423eaedc760a0144b443d98af5534"),
    (430, 0.14978445188397602,
     "69b76f102c7d6b87da9e0b564d3d7574454e97ce447d2c048a6823ee17b8e8bd"),
    (236, 0.10796989860012587,
     "bae44ccc6b6934065375828ff324e87d5a484ca5fd2204bbf8a0e3eac11caa35"),
    (216, 0.10135982524124898,
     "adae45eea4bf3ae53de3b2c4e0d95b5ee4374961f0a1587ac5e6afaf03219395"),
    (496, 0.15983421453575875,
     "df45187e6f60b684ff02ffa20208a2d422ba3d8cf8d3bf2b82953022e234eb6f"),
    (365, 0.09323474449912483,
     "4d8cf4d41c10a02590c4b342844f484001b8638c1131fa1da488534779494e75"),
    (255, 0.09600141263641052,
     "c4bef220763cf9d4c76fbe3d82de3b20b12cba90ac746e112ffdbbbe355c05c6"),
    (336, 0.18126660247492707,
     "11f891b32dba536897af7e33e9c7f4ff063fffadd9cdfcbe0844c2809f716e5d"),
    (272, 0.18040421358171072,
     "9af41611f922d5faf965dfc21eb91e42255a7f956ad2342f8717d08f73346c5c"),
    (121, 0.16541075485208714,
     "46d4224158c8edf2d1504bebf5667cbf5d6fde5af4969bcad8195a0354cbc2d3"),
    (206, 0.04386539231075547,
     "f4b6ec6a1badba19b137bd77d0771115a03912bcb8d9a804ec11e1c86bd50df8"),
    (193, 0.1877612032715755,
     "b09a6bc870e6085939697055190185cb9d8fbb4b867528fbaefff689454750c6"),
    (326, 0.13209930510364487,
     "7097c83179023dd9f8ab7e1dd0329248faaedb2eef5fb07cf7ad0ee21fc06aca"),
    (186, 0.088607974760905,
     "56c28a8b0f3e192d30f459baa5cc19e41d4e070f074c4f952900adfc37b3582d"),
    (382, 0.08431773620806146,
     "8fed175120ee96683d4c82ba2020d8dfebe6d04815e7b49ab037146d2b62e1a4"),
    (460, 0.0813740964144357,
     "9ca8f2637622246e02fa2ab7f8365a0285b0dde4a570714cf172dd6232131ad3"),
    (220, 0.04730025172593515,
     "7a5119bb8992633a8348f0b0bf409b18166778d3018f327bb849a0617eed85f1"),
    (480, 0.0692734223552629,
     "6cd65b5ec37c618fe5fd8e5124d81c6ba4fe19025ad5b1e7b6c3ce18b8f3fb20"),
]


def test_oracle_draws_the_pinned_instances(monkeypatch):
    seen = []

    def recording(a, **kwargs):
        seen.append((a.shape[0], hashlib.sha256(a.tobytes()).hexdigest()))
        return dense_ground(a, **kwargs)

    monkeypatch.setattr(pipeline, "dense_ground", recording)
    cfg = load_config("oracle")
    assert cfg.seed == 0
    pipeline.run_oracle_check(cfg)
    assert seen == [(n, digest) for n, _, digest in ORACLE_DRAWS]
    rng = np.random.default_rng(cfg.seed + 12345)
    for n, density, _ in ORACLE_DRAWS:
        assert int(rng.integers(20, 501)) == n
        assert float(rng.uniform(0.02, 0.2)) == density
        rng.random((n, n))
        rng.standard_normal((n, n))
        rng.standard_normal(n)


def test_an_oracle_instance_builds_without_an_n_by_n_temporary():
    # a += a.T took 2.15 copies of the matrix at n = 500; over blocks of
    # rows the build holds the matrix, its mask while it is read, and one
    # block.  The largest of the pinned instances is measured.
    rng = np.random.default_rng(load_config("oracle").seed + 12345)
    sizes = [n for n, _, _ in ORACLE_DRAWS]
    largest = max(sizes)
    for _ in range(sizes.index(largest)):
        pipeline._oracle_instance(rng)
    tracemalloc.start()
    try:
        a = pipeline._oracle_instance(rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.shape == (largest, largest)
    assert peak <= 1.2 * a.nbytes


# ---------------------------------------------------------------------------
# two-target Davidson route (fiber ground pairs)
# ---------------------------------------------------------------------------

def test_a_fiber_batch_solves_in_bounded_memory():
    # the lambda = 0.28 batch of the sandwich_g01_scaled workload: the 17
    # momenta 0.28 q_j (q_j > 0) that its scan and lambda = 0.4 left
    # unsolved, at fiber dim 969.  Its V and AV took 5.3 MB in one lockstep
    # run (a 7.35 MB peak); groups of 3 take 0.93 MB
    cfg = load_config(str(WORKLOADS / "sandwich_g01_scaled.json"))
    template = FiberTemplate(cfg.spec)
    q = cfg.egrid.points[cfg.egrid.points > 0]
    seen = set(np.round(np.abs(cfg.P_list), 12)) | set(np.round(0.4 * q, 12))
    Ps = [P for P in np.round(0.28 * q, 12) if P not in seen]
    assert (len(Ps), template.dim) == (17, 969)
    op = template.operator(Ps)
    tracemalloc.start()
    try:
        lowest_two(op, tol=1e-9, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_a_finished_fiber_holds_only_its_own_vectors(davidson_template):
    # a member that leaves its group copies its two Ritz vectors out of the
    # group's block, which would otherwise stay alive with them while the
    # rest of the batch iterates
    n = davidson_template.dim
    op = davidson_template.operator(np.linspace(-1.0, 1.0, 9))
    runs = eigensolve._davidson(op, 2, 1e-9, 0, restart_keep=6)
    assert len({run[3] for run in runs}) > 1   # members leave apart
    for run in runs:
        for x in run[1]:
            assert x.base is None or x.base.size <= 2 * n


def test_lowest_two_reports_gap(rng):
    a = np.diag([0.0, 1.0, 3.0]) + 0.01 * random_symmetric(rng, 3)
    pair, = lowest_two(wrap(a), tol=1e-12, seed=0)
    ref = np.linalg.eigvalsh(a)
    assert pair.values[0] == pytest.approx(ref[0], abs=1e-10)
    assert pair.values[1] == pytest.approx(ref[1], abs=1e-10)
    assert pair.gap == pytest.approx(ref[1] - ref[0], abs=1e-9)
    assert not pair.degenerate
    with pytest.raises(DomainError, match="below the 2 wanted pairs"):
        lowest_two(wrap(np.eye(1)))


def test_lowest_two_flags_degeneracy():
    pair, = lowest_two(wrap(np.diag([0.0, 0.0, 1.0])), tol=1e-12, seed=0)
    assert pair.degenerate
    assert pair.gap == pytest.approx(0.0, abs=1e-10)


def test_lowest_two_matches_dense_on_sparse_matrix(rng):
    m = random_sparse_symmetric(rng, 200, density=0.05)
    pair, = lowest_two(wrap(m), tol=1e-11, seed=0)
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
    pair, = lowest_two(wrap(rotated_diagonal(rng, np.r_[0.0, 0.0, rest])),
                       tol=1e-10)
    assert pair.degenerate
    assert np.allclose(pair.values, 0.0, rtol=0, atol=1e-9)
    split, = lowest_two(wrap(rotated_diagonal(rng, np.r_[0.0, 1e-3, rest])),
                        tol=1e-10)
    assert not split.degenerate
    assert split.gap == pytest.approx(1e-3, abs=1e-9)


def _random_sparse_operator(rng):
    return wrap(random_sparse_symmetric(rng, 150), np.linspace(0.0, 5.0, 150))


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
    op = wrap(random_sparse_symmetric(rng, 120))
    a, = lowest_two(op, tol=1e-10, seed=3)
    b, = lowest_two(op, tol=1e-10, seed=3)
    assert a.values == b.values and a.residuals == b.residuals
    for u, v in zip(a.vectors, b.vectors):
        assert np.array_equal(u, v)


def test_lowest_two_failure_carries_best_value(rng, monkeypatch):
    monkeypatch.setattr(eigensolve, "_MAX_ITERS", 3)
    op = wrap(random_sparse_symmetric(rng, 200))
    with pytest.raises(SolverError) as info:
        lowest_two(op, tol=1e-16, seed=0)
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


def _route_cases(rng, davidson_template):
    """Batches on either side of the direct route's limit: random sparse
    matrices of dims _DENSE_PAIR_MAX and one more, and fibers of dims 126
    (small at uv_cutoff 1 and n_max 5) and 210."""
    for n in (eigensolve._DENSE_PAIR_MAX, eigensolve._DENSE_PAIR_MAX + 1):
        yield wrap(random_sparse_symmetric(rng, n), np.linspace(0.0, 5.0, n))
    small = load_config("small").spec
    below = FiberTemplate(replace(small, uv_cutoff=1.0, n_max=5))
    for template in (below, davidson_template):
        yield template.operator([0.0, 0.45, -1.1])


def test_direct_and_davidson_pairs_agree_at_the_route_limit(
        rng, davidson_template):
    # both routes on every member, the Davidson one converged far enough
    # that its excited value is good to 1e-12 too
    dims = []
    for op in _route_cases(rng, davidson_template):
        dims.append(op.dim)
        direct = eigensolve._direct_pairs(op, 2)
        davidson = eigensolve._davidson(op, 2, 1e-14, 0, restart_keep=6)
        for (values, vectors, *_), (ref, ref_vectors, *_) in zip(direct,
                                                                davidson):
            assert np.abs(np.subtract(values, ref)).max() <= 1e-12
            assert abs(abs(vectors[0] @ ref_vectors[0])
                       / np.linalg.norm(vectors[0])
                       / np.linalg.norm(ref_vectors[0]) - 1.0) <= 1e-12
    assert min(dims) <= eigensolve._DENSE_PAIR_MAX < max(dims)


def test_the_dimension_alone_picks_the_pair_route(rng, davidson_template,
                                                  monkeypatch):
    routes = []
    for name in ("_direct_pairs", "_davidson"):
        def spy(*args, _name=name, _f=getattr(eigensolve, name), **kwargs):
            routes.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(eigensolve, name, spy)
    for op in _route_cases(rng, davidson_template):
        routes.clear()
        pairs = lowest_two(op, tol=1e-10, seed=0)
        direct = op.dim <= eigensolve._DENSE_PAIR_MAX
        assert routes == ["_direct_pairs" if direct else "_davidson"]
        for pair in pairs:
            assert (pair.iterations == 0) == direct
            if direct:
                assert (pair.matvecs, pair.restarts) == (op.dim + 2, 0)
                assert max(pair.residuals) <= 1e-13 * max(
                    1.0, *map(abs, pair.values))


def test_the_direct_route_refuses_a_non_finite_matrix():
    # LAPACK may never return on a NaN entry; the matrix is checked first
    with pytest.raises(SolverError, match="non-finite"):
        lowest_two(_NaNOperator(), tol=1e-10, seed=0)


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
    return wrap(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)), diag)


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
    res = davidson_ground(wrap(m), tol=1e-10, seed=2)
    ref = np.linalg.eigvalsh(m.toarray())[0]
    assert res.value == pytest.approx(ref, abs=1e-8)


def test_davidson_warm_start_accepts_v0(rng):
    op = spread_diag_operator(rng)
    cold = davidson_ground(op, tol=1e-10, seed=5)
    warm = davidson_ground(op, tol=1e-10, seed=5, start=lambda: cold.vector)
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
        lowest_two(wrap(a), tol=1e-10, seed=0)
        davidson_ground(wrap(a), tol=1e-10, seed=0)
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
    res = davidson_ground(wrap(m), tol=1e-10, seed=0)
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
            (lambda: lowest_two(wrap(random_sparse_symmetric(rng, 300)),
                                tol=1e-10),
             2, 6, 20, {2, 6}),
            (lambda: davidson_ground(wrap(random_sparse_symmetric(rng, 200)),
                                     tol=1e-10),
             1, 4, 8, {1, 4})):
        asked.clear()
        monkeypatch.setattr(eigensolve, "_SPACE", space)
        solve()
        assert {m for _, m in asked} == sizes
        for k, m in asked:
            assert m <= max(nwant, keep)
            assert m == min(keep if k + nwant > space else nwant, k)


# iterations and matvecs (the two fresh ones included) of
# lowest_two(tol=1e-10, seed=0) on the toy and small fibers.  toy's 28 states
# take the direct route, one matvec per unit row.  small's 455 take the
# Davidson route: the space of 20, to which every iteration adds both pairs'
# corrections, each refined by one Jacobi-Davidson step, with the excited
# pair converged to sqrt(tol).
PAIR_COUNTS = {
    ("toy", 0.0): (0, 30), ("toy", 0.25): (0, 30), ("toy", -0.6): (0, 30),
    ("toy", 1.1): (0, 30), ("small", 0.0): (8, 38),
    ("small", 0.25): (8, 38), ("small", -0.6): (8, 38),
    ("small", 1.1): (10, 46),
}


@pytest.mark.parametrize("preset", ["toy", "small"])
def test_lowest_two_keeps_its_iteration_counts(preset):
    template = FiberTemplate(load_config(preset).spec)
    for P in (0.0, 0.25, -0.6, 1.1):
        pair, = lowest_two(template.operator([P]), tol=1e-10, seed=0)
        assert (pair.iterations, pair.matvecs) == PAIR_COUNTS[preset, P], P


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
    """A batch of one whose every product is NaN."""

    dim = 6

    def __len__(self):
        return 1

    def apply(self, members, X):
        return np.full_like(X, np.nan)

    def diagonals(self):
        return np.arange(6.0)[None]


def test_davidson_refuses_a_non_finite_projection():
    # LAPACK may never return on a NaN entry; the projection is checked first
    with pytest.raises(SolverError, match="non-finite"):
        davidson_ground(_NaNOperator(), tol=1e-10, seed=0)


class _Touched(Exception):
    pass


class _HugeOperator:
    """A batch of which Davidson may read nothing but the dimension and the
    number of members."""

    def __init__(self, dim, members):
        self.dim, self.members = dim, members

    def __len__(self):
        return self.members

    def apply(self, members, X):
        raise _Touched("apply")

    def diagonals(self):
        raise _Touched("diagonals")


@pytest.mark.parametrize("solver,members", [
    (davidson_ground, 1), (lowest_two, 1), (lowest_two, 21)],
    ids=["default", "fiber-pair", "fiber-batch"])
def test_davidson_refuses_a_space_over_its_storage_cap(solver, members):
    # V and AV hold 2 x space x dim doubles per member; the largest dim
    # within the cap reaches the operator, one more is refused before
    # anything is read.  The space of 20 is the coupled solve's and the
    # fiber pairs', alone and in a batch of 21 members, which run in groups
    # and so share one member's edge.
    space = 20
    edge = _DAVIDSON_MAX_BYTES // (2 * space * 8)

    for dim in (edge + 1, 10**12):
        with pytest.raises(CapacityError, match=f"{space} vectors"):
            solver(_HugeOperator(dim, members))
    with pytest.raises(_Touched, match="diagonals"):
        solver(_HugeOperator(edge, members))
    if members > 1:
        # past the old edge of the whole batch's spaces, the groups still run
        batch_edge = _DAVIDSON_MAX_BYTES // (2 * members * space * 8)
        with pytest.raises(_Touched, match="diagonals"):
            solver(_HugeOperator(batch_edge + 1, members))
