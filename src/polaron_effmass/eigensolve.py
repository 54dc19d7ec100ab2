"""Ground-state eigensolvers for real-symmetric operators.

* :func:`lowest_two` / :func:`davidson_ground`: diagonally preconditioned
  subspace iteration (Davidson) with thick restarts, one lockstep core for
  a batch of independent problems that share one block apply (Liu's
  simultaneous expansion, 1978), read through the block-apply protocol of
  :mod:`~.operators`.  Ritz vectors, residuals and Gram-Schmidt
  projections are stacked matrix products; each new vector takes one
  Gram-Schmidt pass, a second only when the DGKS test asks for it.  A
  member's result is the same bits alone or in any batch.
  :func:`lowest_two` serves the fiber ground pairs and their gaps (a
  :class:`~.operators.FiberBatch`): a fiber of at most _DENSE_PAIR_MAX
  states gets both pairs from one dsyevr of its whole matrix, formed by a
  block apply of the unit rows; a larger one runs Davidson with each
  correction refined by one projected Jacobi-Davidson step.
  :func:`davidson_ground` serves the coupled small-lambda operators (a
  batch of one), whose diagonal spread makes plain Krylov iteration
  impractically slow (README, solver notes); its caller's coarse
  correction takes the place of the Jacobi-Davidson step.
* :func:`ground_state`: one Lanczos pass with full reorthogonalization,
  seeded random start and residual stopping, up to the full dimension (at
  most 2000), so nothing restarts; the iterative route of the oracle checks.
* :func:`dense_ground` / :func:`dense_spectrum`: eigenvalues of a small
  dense matrix (at most 2000 rows) by dsyevr without vectors, the lowest
  one only for :func:`dense_ground`.  They serve the certificates' small
  dense operators, the Schroedinger curve and the oracle checks.
* :func:`verified_floor`: turns a computed lowest eigenvalue of a small
  dense matrix into a float provably below the spectrum, by a dpotrf
  Cholesky of the shifted matrix (Rump 2006); L1 and L2 take their values
  from it, so no certificate rests on the dense eigenvalues.
* :func:`rayleigh_bounds`: encloses the exact Rayleigh quotient of a stored
  vector, or of each row of a stack, and bounds its residual from above;
  the coupled solve's Temple floor and the fiber floors under L1 rest on
  it.

dsyevr, dstebz and dstein are called directly (get_lapack_funcs) with the
arguments and workspace sizes that scipy's eigh (subset_by_index) and
eigh_tridiagonal (select "i") pass: the Ritz pairs are their bits, without
their per-call checks.  The dense routes test their input without n x n
temporaries, and each eigenvalue solve works in one copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg as sla

from .errors import CapacityError, DomainError, SolverError

__all__ = [
    "EigResult",
    "PairResult",
    "ground_state",
    "lowest_two",
    "davidson_ground",
    "dense_ground",
    "dense_spectrum",
    "verified_floor",
    "rayleigh_bounds",
]

# Lanczos steps between two estimates of the ground Ritz residual.
_CHECK_EVERY = 5
# Largest dimension of the dense eigenvalue routes and of Lanczos, whose
# basis may grow to the full dimension.
_DENSE_MAX = 2000
_BLOCK = 32     # rows per block of the dense routes' symmetry test
# Vectors in every Davidson search space, and iterations before it gives up.
_SPACE = 20
_MAX_ITERS = 600
# One member's Davidson search space V and its images AV, 2 x _SPACE x dim
# doubles, may take at most this many bytes.  The largest shipped run, the
# powerlaw presets' coupled operator (its even sector, dim 239,118), needs
# 73 MiB; 2 GiB leaves room for a grid or truncation over 20x larger, and
# anything beyond fails at once, not after swapping or being killed.
_DAVIDSON_MAX_BYTES = 2 * 2**30
# A batch runs in lockstep groups whose V and AV fit in half of a 2 MiB L2
# cache: groups of 3-7 fibers at dims 455-969 ran within a few percent of
# whole batches of 20-21, and a batch's memory does not grow with its size.
_GROUP_BYTES = 2**20
# A Gram-Schmidt pass that leaves less than this fraction of a vector's norm
# is repeated once (the DGKS test).
_DGKS = 1.0 / math.sqrt(2.0)
# lowest_two solves a batch of at most this many states per member directly:
# it forms each member's matrix and takes both pairs from one dsyevr.  Per
# fiber, direct against Davidson (one BLAS thread): alone, 86 against 756 us
# at dim 28, 343 against 993 us at 84, 736 against 1159 us at 126 and 1.21
# against 1.01 ms at 165; in batches of 20, 79 against 219 us at 28, 336
# against 321 us at 84 and 713 against 440 us at 126.  The scan's single
# solves cross near 150 states, the static stage's batches near 90.
_DENSE_PAIR_MAX = 128


@dataclass
class EigResult:
    """One converged extremal eigenpair."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    matvecs: int
    restarts: int


@dataclass
class PairResult:
    """Two lowest eigenpairs with the spectral gap between them."""

    values: tuple
    vectors: tuple
    gap: float
    degenerate: bool
    residuals: tuple
    iterations: int
    matvecs: int
    restarts: int


_SYEVR, _SYEVR_LWORK, _STEBZ, _STEIN = sla.get_lapack_funcs(
    ("syevr", "syevr_lwork", "stebz", "stein"), dtype=np.float64)


@cache
def _syevr_workspace(k):
    """(lwork, liwork) of dsyevr for a k x k problem, as eigh queries them."""
    lwork, liwork, info = _SYEVR_LWORK(n=k, lower=1)
    if info != 0:
        raise SolverError(f"dsyevr workspace query failed for k={k} (info {info})")
    return int(lwork), int(liwork)


def _projected_eigh(A, m):
    """Lowest `m` eigenpairs, ascending, of a small symmetric matrix.

    LAPACK dsyevr on the lower triangle with range "I", il = 1, iu = m, so
    only the wanted pairs are formed.  Returns the bits of
    ``scipy.linalg.eigh(A, subset_by_index=[0, m - 1])``.  LAPACK can loop
    forever on a non-finite entry, so the caller must refuse those first,
    as eigh does.  A failure raises SolverError.
    """
    k = A.shape[0]
    lwork, liwork = _syevr_workspace(k)
    vals, vecs, _, _, info = _SYEVR(A, compute_v=1, range="I", lower=1, il=1,
                                    iu=m, lwork=lwork, liwork=liwork)
    if info != 0:
        raise SolverError(f"dsyevr failed on the projected {k}x{k} matrix "
                          f"(info {info})")
    return vals[:m], vecs


def _row_norms(W):
    """2-norms of the rows of a stack of vectors, each by one dot product."""
    return np.sqrt(np.vecdot(W, W))


def _project_out(W, V):
    """One classical Gram-Schmidt pass of each W[a] against the rows of V[a]."""
    W -= ((V @ W[:, :, None]).transpose(0, 2, 1) @ V)[:, 0]


def _orthogonalize(W, V, norms):
    """Gram-Schmidt each W[a] against the orthonormal rows of V[a]; new norms.

    `norms` are the norms of the rows of W on entry.  One classical pass,
    and a second only for the rows that the first leaves below 1/sqrt(2) of
    their norm: the test of Daniel, Gragg, Kaufman & Stewart (Math. Comp.
    30, 1976), past which one pass has cancelled too much to leave w
    orthogonal to working precision.  The second pass works on views of
    its row and basis, so no basis is copied.
    """
    _project_out(W, V)
    nw = _row_norms(W)
    for a in (nw < _DGKS * norms).nonzero()[0]:
        _project_out(W[a:a + 1], V[a:a + 1])
        nw[a:a + 1] = _row_norms(W[a:a + 1])
    return nw


def _lowest_ritz(alphas, betas):
    """Lowest eigenpair of the Lanczos tridiagonal matrix by dstebz (range
    "I", il = iu = 1, tolerance 0, block order) and dstein: the bits of
    eigh_tridiagonal(d, e, select="i", select_range=(0, 0)).  A non-finite
    entry raises SolverError before LAPACK sees it."""
    k = len(alphas)
    d = np.asarray(alphas, dtype=float)
    e = np.asarray(betas[: k - 1], dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise SolverError(f"Lanczos tridiagonal of order {k} is not finite")
    if k == 1:
        return float(d[0]), np.ones(1)
    m, w, iblock, isplit, info = _STEBZ(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        vecs, info = _STEIN(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise SolverError(f"dstebz/dstein failed at order {k} (info {info})")
    return float(w[0]), vecs[:, 0]


def ground_state(op, tol: float = 1e-9, seed: int = 0) -> EigResult:
    """Lowest eigenpair by one Lanczos pass with full reorthogonalization.

    `op` is a square matrix, read only through `op.shape` and `op @ v`,
    which numpy arrays and scipy sparse matrices share.  The start vector
    is drawn from a generator seeded with `seed`.  Convergence is declared
    when the explicitly computed residual ||A x - theta x|| falls below
    tol * max(1, |theta|).  The basis may grow to the full dimension n,
    where the Krylov space is invariant and the Ritz value exact, so there
    are no restarts.  Dimensions above _DENSE_MAX are refused with
    DomainError before anything is allocated.

    Raises SolverError (carrying the best value/residual seen) when the
    pass ends short of the tolerance, or its tridiagonal is not finite.
    """
    n = op.shape[0]
    if n < 1:
        raise DomainError("operator dimension must be >= 1")
    if n > _DENSE_MAX:
        raise DomainError(f"Lanczos is limited to dimension <= {_DENSE_MAX}, "
                          f"got {n}")
    v = np.random.default_rng(seed).standard_normal(n)
    V = np.empty((n, n))
    V[0] = v / np.linalg.norm(v)
    best_val, best_res = math.inf, math.inf
    alphas, betas = [], []
    scale = 1.0     # running max(1, |alphas|, |betas|)
    matvecs = 0
    k = 0
    while True:
        w = op @ V[k]
        matvecs += 1
        a = float(V[k] @ w)
        alphas.append(a)
        scale = max(scale, abs(a))
        w = w - a * V[k]
        if k > 0:
            w -= betas[-1] * V[k - 1]
        for _ in range(2):
            w -= V[:k + 1].T @ (V[:k + 1] @ w)
        b = float(np.linalg.norm(w))
        k += 1
        # the pass ends at breakdown (an invariant subspace) or at step n
        last = b <= 1e-14 * scale or k == n
        if last or k % _CHECK_EVERY == 0:
            theta, y = _lowest_ritz(alphas, betas)
            if last or b * abs(y[-1]) <= tol * max(1.0, abs(theta)):
                x = V[:k].T @ y
                x /= np.linalg.norm(x)
                r = op @ x - theta * x
                matvecs += 1
                res = float(np.linalg.norm(r))
                if res < best_res:
                    best_val, best_res = theta, res
                if res <= tol * max(1.0, abs(theta)):
                    return EigResult(theta, x, res, k, matvecs, 0)
                if last:
                    raise SolverError(
                        f"Lanczos failed to reach tol={tol} in {k} steps at "
                        f"dimension {n} (best residual {best_res:.3e})",
                        best_value=best_val, best_residual=best_res)
        betas.append(b)
        scale = max(scale, b)
        V[k] = w / b


def _fill_rows(H, V, AV, A, k0, k1):
    """Rows k0..k1-1 of the projected matrices H[a] = V[a] A V[a]^T of the
    first A slots: entry (i, j) is v_i . (A v_j).  Only the lower triangle
    is kept up to date, which is all dsyevr reads."""
    H[:A, k0:k1, :k1] = V[:A, k0:k1] @ AV[:A, :k1].transpose(0, 2, 1)


def _jacobi_davidson_step(op, ids, T, X, R, denom, theta):
    """Refine the corrections T = D^-1 R in place by one projected
    Jacobi-Davidson step (Sleijpen & van der Vorst, SIAM J. Matrix Anal.
    Appl. 17, 1996).

    Row T[a, j] belongs to the Ritz pair (theta[a, j], X[a, j]) of member
    ids[a], with residual R[a, j] and floored D = denom[a, j] = diag -
    theta.  With P = I - x x^T, the preconditioner of the correction
    equation P (A - theta) P t = r is M_P^-1 y = D^-1 y - (x.D^-1 y /
    x.D^-1 x) D^-1 x, which maps onto the complement of x.  The step
    takes t = M_P^-1 r, then t += M_P^-1 (r - P (A - theta) P t) through
    one apply of all rows, so each row costs one matvec.  Every operation
    is per row.
    """
    A, nadd, n = T.shape
    DX = X / denom
    xdx = np.vecdot(X, DX)

    def project(Y):
        """D^-1 y in Y, in place, to M_P^-1 y."""
        Y -= (np.vecdot(X, Y) / xdx)[:, :, None] * DX

    project(T)
    W = op.apply(np.repeat(ids, nadd), T.reshape(A * nadd, n))
    W = W.reshape(A, nadd, n)
    W -= theta * T
    W -= np.vecdot(X, W)[:, :, None] * X
    np.subtract(R, W, out=W)
    W /= denom
    project(W)
    T += W


def _davidson(op, nwant, tol, *, restart_keep, start=None, correction=None):
    """Lowest `nwant` Ritz pairs of every member of `op`, in lockstep.

    Diagonally preconditioned subspace iteration on the B = len(op)
    independent members of the batch `op`, in consecutive groups of
    max(1, _GROUP_BYTES // (2 _SPACE dim 8)) members that use one V, A V
    and H workspace in turn, so memory does not grow with B.  Each space
    starts from the vector `start()` returns when given (a batch of one;
    it is not held once copied in), else from the unit vectors on its
    member's smallest diagonal entries.  Each iteration
    every active member adds the corrections t = r / (diag(A) - theta) of
    all its `nwant` Ritz pairs, so the space size k is the same for all of
    them and a thick restart (to the `restart_keep` lowest Ritz vectors,
    when the next corrections would not fit in _SPACE) compresses all
    spaces together.  `correction(t, r, theta)`, when given, refines each
    t in place; without it, each t takes one projected Jacobi-Davidson
    step (:func:`_jacobi_davidson_step`), one more apply of all the
    corrections, counted in matvecs.  The new vectors of all members go
    through one apply; Ritz vectors, residuals and Gram-Schmidt projections
    are stacked matrix products.  Every new vector is orthogonalized by
    _orthogonalize; one that is already in its space is replaced by a
    random vector from a generator seeded with 0, one per member, so a
    member's draws do not depend on its batch.  The projected eigenproblems
    stay per member and form only the `nwant` lowest pairs, or the
    `restart_keep` lowest before a restart.  The lowest pair passes
    at a residual of tol max(1, |theta|), the pairs above it at sqrt(tol)
    max(1, |theta|): those values only enter gaps, and a Ritz value's error
    is of order r^2 / delta, delta its distance to the rest of the spectrum
    (Parlett, The Symmetric Eigenvalue Problem, ch. 11).  A member leaves
    the batch once all its pairs pass, and the members that stay move up
    into its slot; _MAX_ITERS iterations without that raise SolverError.

    No floating-point operation mixes two members, and every operation on
    a member has the same shape whatever the batch, so a member's results
    are the same bits alone or in any batch.  Returns, per member,
    (values, vectors, residuals, iterations, matvecs, restarts), counted
    while the member was active; the residuals are those of the carried
    A V, not of a fresh matvec.  A group inherits the workspace's stale
    upper triangle of H, finite and never read by dsyevr.  Raises
    CapacityError, before touching the operator, when one member's V and
    A V would exceed _DAVIDSON_MAX_BYTES.
    """
    B, n = len(op), op.dim
    if n < nwant:
        raise DomainError(f"operator dimension {n} is below the {nwant} wanted pairs")
    space = min(_SPACE, n)
    nbytes = 2 * space * n * 8
    if nbytes > _DAVIDSON_MAX_BYTES:
        raise CapacityError(
            f"Davidson space of {space} vectors at dimension {n} needs "
            f"{nbytes / 2**20:.0f} MiB per operator, over "
            f"{_DAVIDSON_MAX_BYTES / 2**20:.0f} MiB")
    diags = op.diagonals()    # fresh, so compacted in place
    restart_keep = max(nwant, min(restart_keep, space - nwant))
    tols = np.array([tol] + [math.sqrt(tol)] * (nwant - 1))
    group = min(B, max(1, _GROUP_BYTES // nbytes))
    V, AV = np.empty((group, space, n)), np.empty((group, space, n))
    H = np.zeros((group, space, space))
    rngs = {}
    out = [None] * B

    def failure(message, a):
        """SolverError carrying the last lowest Ritz value and residual of
        slot a.  Each space keeps its lowest Ritz vector, so that value is
        the lowest the member reached."""
        if thetas is None:
            return SolverError(message)
        return SolverError(message, best_value=float(thetas[a, 0]),
                           best_residual=float(ress[a, 0]))

    for first in range(0, B, group):
        ids = np.arange(first, min(first + group, B))  # member per slot
        A = len(ids)
        diag = diags[first:first + group]     # a view, compacted in place
        # Without the caller's vector, start from the lowest-diagonal
        # coordinate directions.  For strongly diagonally dominant operators
        # the ground vector lives there; a purely random start can lock onto
        # an interior eigenpair whose residual passes the test.
        v0 = None if start is None else start()
        if v0 is not None and np.linalg.norm(v0) > 1e-14:
            k = 1
            V[0, 0] = v0 / math.sqrt(v0 @ v0)
        else:
            k = min(4, space)
            V[:A, :k] = 0.0
            lowest = np.argsort(diag, axis=1, kind="stable")[:, :k]
            V[np.arange(A)[:, None], np.arange(k), lowest] = 1.0
        del v0      # the space holds its copy
        AV[:A, :k] = op.apply(np.repeat(ids, k), V[:A, :k].reshape(A * k, n)
                              ).reshape(A, k, n)
        _fill_rows(H, V, AV, A, 0, k)
        matvecs, restarts = k, 0
        thetas = ress = None
        for it in range(_MAX_ITERS):
            A = len(ids)
            m = min(restart_keep if k + nwant > space else nwant, k)
            finite = np.isfinite(H[:A, :k, :k])
            if not finite.all():
                raise failure(f"projected {k}x{k} matrix has non-finite "
                              "entries", int(finite.all(axis=(1, 2)).argmin()))
            vals, vecs = np.empty((A, m)), np.empty((A, k, m))
            for a in range(A):
                try:
                    vals[a], vecs[a] = _projected_eigh(H[a, :k, :k], m)
                except SolverError as exc:
                    raise failure(str(exc), a) from exc
            thetas = vals[:, :nwant]
            Y = vecs[:, :, :nwant].transpose(0, 2, 1)
            X, R = Y @ V[:A, :k], Y @ AV[:A, :k]
            R -= thetas[:, :, None] * X
            ress = _row_norms(R)
            scale = np.maximum(1.0, np.abs(thetas))
            done = (ress <= tols * scale).all(axis=1)
            if np.count_nonzero(done):      # the cheapest test of a small mask
                for a in done.nonzero()[0]:
                    # a member that leaves others behind copies its Ritz
                    # vectors out, so it does not hold the group's block
                    out[ids[a]] = ([float(t) for t in thetas[a]],
                                   list(X[a] if A == 1 else X[a].copy()),
                                   [float(r) for r in ress[a]], it, matvecs,
                                   restarts)
                stay = (~done).nonzero()[0]
                if not stay.size:
                    break
                # only the first k rows of a space are live; the rest are
                # written before they are read
                for a, src in enumerate(stay):
                    if a != src:
                        V[a, :k], AV[a, :k] = V[src, :k], AV[src, :k]
                        H[a, :k, :k], diag[a] = H[src, :k, :k], diag[src]
                ids, A = ids[stay], stay.size
                vals, vecs, thetas, ress, scale = (vals[stay], vecs[stay],
                                                   thetas[stay], ress[stay],
                                                   scale[stay])
                X, R = X[stay], R[stay]
            if k + nwant > space:
                # thick restart: keep the lowest Ritz vectors
                keep = min(restart_keep, k)
                Y = vecs[:, :, :keep].transpose(0, 2, 1)
                V[:A, :keep], AV[:A, :keep] = Y @ V[:A, :k], Y @ AV[:A, :k]
                H[:A, :keep, :keep] = 0.0
                H[:A, np.arange(keep), np.arange(keep)] = vals[:, :keep]
                k = keep
                restarts += 1
            # the corrections go straight into the next rows of V
            nadd = min(nwant, space - k)
            theta = thetas[:, :nadd, None]
            denom = diag[:A, None] - theta
            floor = 1e-8 * scale[:, :nadd, None]
            small = np.abs(denom) < floor
            if np.count_nonzero(small):
                denom = np.where(small, np.copysign(floor, denom), denom)
            T = V[:A, k:k + nadd]
            np.divide(R[:, :nadd], denom, out=T)
            if correction is not None:
                for a in range(A):
                    for j in range(nadd):
                        correction(T[a, j], R[a, j], float(theta[a, j, 0]))
            else:
                _jacobi_davidson_step(op, ids, T, X[:, :nadd], R[:, :nadd],
                                      denom, theta)
                matvecs += nadd
            # a correction already in the space is replaced by a random vector;
            # the test is relative, since t shrinks with r
            nt0 = _row_norms(T)
            tiny = 1e-12 * nt0
            for j in range(nadd):
                t = T[:, j]
                nt = _orthogonalize(t, V[:A, :k + j], nt0[:, j])
                lost = nt <= tiny[:, j]
                if np.count_nonzero(lost):
                    for a in lost.nonzero()[0]:
                        rng = rngs.setdefault(ids[a], np.random.default_rng(0))
                        t[a] = rng.standard_normal(n)
                        nt[a] = _orthogonalize(t[a:a + 1], V[a:a + 1, :k + j],
                                               _row_norms(t[a:a + 1]))[0]
                t /= nt[:, None]
            AV[:A, k:k + nadd] = op.apply(np.repeat(ids, nadd),
                                          T.reshape(A * nadd, n)
                                          ).reshape(A, nadd, n)
            _fill_rows(H, V, AV, A, k, k + nadd)
            k += nadd
            matvecs += nadd
        else:
            raise failure(
                f"Davidson failed to reach tol={tol} within {_MAX_ITERS} "
                f"iterations on {len(ids)} of {B} operator(s) (last residual "
                f"{ress[0, 0]:.3e})", 0)
    return out


def _direct_pairs(op, m):
    """Lowest `m` eigenpairs of every member of `op` from its whole matrix.

    A member's matrix is the block apply of the unit rows, so any operator
    of the block-apply protocol can be read this way; entry (i, j) is
    e_j.(A e_i), and dsyevr reads its lower triangle.  A non-finite entry
    raises SolverError before LAPACK sees it.  Returns the tuples of
    :func:`_davidson`: values, vectors, no residuals, and per member 0
    iterations, `dim` matvecs and 0 restarts.
    """
    B, n = len(op), op.dim
    if n < m:
        raise DomainError(f"operator dimension {n} is below the {m} wanted pairs")
    eye = np.eye(n)
    out = []
    for b in range(B):
        H = op.apply(np.full(n, b), eye)
        if not np.isfinite(H).all():
            raise SolverError(f"matrix of member {b} at dimension {n} has "
                              "non-finite entries")
        vals, vecs = _projected_eigh(H, m)
        out.append(([float(v) for v in vals], list(vecs.T), None, 0, n, 0))
    return out


def lowest_two(op, tol: float = 1e-9) -> list:
    """Two lowest eigenpairs of every member of `op`, one PairResult each.

    `op` is a batch (:class:`~.operators.FiberBatch`).  Its dimension alone
    picks the route.  Up to _DENSE_PAIR_MAX states, each member's matrix is
    formed by one block apply of the unit rows and both pairs come from one
    dsyevr (:func:`_direct_pairs`): the two lowest levels by LAPACK's own
    eigenvalue count, with residuals near roundoff, iterations 0, matvecs
    dim + 2 and restarts 0.  Above it, the members run through a lockstep
    two-target Davidson run (space 20, thick restarts to 6, each
    correction refined by one Jacobi-Davidson step), in groups whose
    spaces fit in _GROUP_BYTES (1 MiB: 3 fibers at dim 969, 7 at dim 455);
    the ground pair converges to a residual of tol max(1, |theta_0|), the
    excited pair, which enters only the gap, to sqrt(tol) max(1,
    |theta_1|) (see :func:`_davidson`).  A member's result does not depend
    on the batch or its group.  The returned residuals ||A x - theta x||
    come from a fresh block apply of the returned unit vectors, so
    `theta_0 - residuals[0]` is a certified floor on an eigenvalue.  The
    gap is the difference of the two Ritz values.  The pair is flagged
    degenerate when the gap is below max(10 tol, 1e-10) * max(1, |E0|), in
    which case downstream consumers must not rely on a unique ground
    direction.  Iterations, matvecs and restarts are each member's own;
    matvecs counts the two fresh ones too.
    """
    if op.dim <= _DENSE_PAIR_MAX:
        runs = _direct_pairs(op, 2)
    else:
        runs = _davidson(op, 2, tol, restart_keep=6)
    xs = [[x / math.sqrt(x @ x) for x in run[1]] for run in runs]
    X = np.array(xs)
    B, n = len(runs), X.shape[-1]
    R = op.apply(np.repeat(np.arange(B), 2),
                 X.reshape(2 * B, n)).reshape(B, 2, n)
    R -= np.array([run[0] for run in runs])[:, :, None] * X
    res = _row_norms(R)
    pairs = []
    for (thetas, _, _, iterations, matvecs, restarts), x, r in zip(runs, xs, res):
        gap = thetas[1] - thetas[0]
        degenerate = gap < max(10.0 * tol, 1e-10) * max(1.0, abs(thetas[0]))
        pairs.append(PairResult(
            values=tuple(thetas), vectors=tuple(x), gap=gap,
            degenerate=degenerate, residuals=tuple(float(v) for v in r),
            iterations=iterations, matvecs=matvecs + 2, restarts=restarts))
    return pairs


def davidson_ground(op, tol: float = 1e-9, *, start=None,
                    correction=None) -> EigResult:
    """Lowest eigenpair by preconditioned subspace iteration.

    The lockstep core of :func:`lowest_two` with one member and one wanted
    pair.  Expansion vectors solve (diag(A) - theta) t = -r approximately,
    which tames operators whose diagonal spread is many orders of magnitude
    larger than the spectral gap (the coupled small-lambda operators);
    `correction(t, r, theta)` may refine each one in place, as the coupled
    solve's coarse correction does.  The space starts from the vector
    `start()` returns when given, built only when the space is filled and
    not held once copied in, else from the unit vectors on the four
    smallest diagonal entries.  It is kept orthonormal by one Gram-Schmidt
    pass per vector, with a second when the DGKS test asks for it, and
    compressed to the lowest 4 Ritz vectors when its 20 vectors are full;
    `restarts` counts those compressions.  Deterministic for a fixed start
    vector.
    """
    (thetas, xs, ress, it, matvecs, restarts), = _davidson(
        op, 1, tol, restart_keep=4, start=start, correction=correction)
    return EigResult(thetas[0], xs[0], ress[0], it, matvecs, restarts)


# ---------------------------------------------------------------------------
# dense oracle: LAPACK dsyevr, eigenvalues only
# ---------------------------------------------------------------------------

def _dense_input(A, who, exact=False):
    """Validate a dense oracle input and return it as a float array: finite
    and symmetric to max|A - A^T| <= 1e-10 max|A|, or to the bit with
    `exact`.  max|A| is max(max A, -min A) and the asymmetry is taken over
    blocks of _BLOCK rows, so no n x n temporary is formed."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise DomainError(f"{who} needs a non-empty square matrix")
    if A.shape[0] > _DENSE_MAX:
        raise DomainError(f"dense oracle is limited to dimension <= {_DENSE_MAX}")
    hi, lo = float(A.max()), float(A.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise DomainError(f"{who} needs a finite matrix")
    asym = 0.0
    for i in range(0, A.shape[0], _BLOCK):
        d = A[i:i + _BLOCK] - A[:, i:i + _BLOCK].T
        asym = max(asym, float(d.max()), -float(d.min()))
    if asym > 1e-10 * max(hi, -lo):
        raise DomainError(f"{who} needs a symmetric matrix")
    if exact and asym > 0.0:
        raise DomainError(f"{who} needs an exactly symmetric matrix")
    return A


def _dense_eigenvalues(A, who, overwrite=False, **window):
    """Ascending eigenvalues of a symmetric matrix by dsyevr on the lower
    triangle, no vectors; `window` is its range selection (default "A").

    dsyevr works in a Fortran-ordered copy of A.  With `overwrite`, A must
    be exactly symmetric (DomainError otherwise), and dsyevr works in A's
    own storage and destroys it: A.T is then the same matrix, in Fortran
    order, so it gets the copy's bits."""
    A = _dense_input(A, who, exact=overwrite)
    n = A.shape[0]
    lwork, liwork = _syevr_workspace(n)
    vals, _, m, _, info = _SYEVR(A.T if overwrite else A, compute_v=0,
                                 lower=1, lwork=lwork, liwork=liwork,
                                 overwrite_a=int(overwrite), **window)
    if info != 0:
        raise SolverError(f"dsyevr failed on the {n}x{n} matrix of {who} "
                          f"(info {info})")
    return vals[:m]


def dense_spectrum(A) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    return _dense_eigenvalues(A, "dense_spectrum")


def dense_ground(A, *, overwrite: bool = False) -> float:
    """Lowest eigenvalue of a symmetric matrix; dsyevr forms no other.

    With `overwrite`, A must be exactly symmetric and is destroyed, and
    no working copy of it is made (see :func:`_dense_eigenvalues`)."""
    return float(_dense_eigenvalues(A, "dense_ground", overwrite, range="I",
                                    il=1, iu=1)[0])


# ---------------------------------------------------------------------------
# verified floor: a floating-point Cholesky proves positive definiteness
# ---------------------------------------------------------------------------

_U = 2.0**-53           # unit roundoff of IEEE double, round to nearest
_ETA = 2.0**-1074       # smallest positive subnormal


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the bound on k successive roundings."""
    return k * _U / (1.0 - k * _U)


def rayleigh_bounds(x, y, ay, terms: int) -> tuple:
    """Rounding-safe Rayleigh quotient and residual of a stored vector x,
    or of each row of a stack of them.

    `y` is the computed image fl(A x) and `ay` the computed fl(|A| |x|),
    each entry of both a sum of at most `terms` products.  Returns
    (theta, lo, hi, r_up), scalars for one vector and arrays over the rows
    for a stack: the computed quotient theta = x.y / x.x, an enclosure
    lo <= x^T A x / x^T x <= hi of the exact one, and
    r_up >= ||A x - theta x|| / ||x||, which bounds the residual of the
    unit vector at its exact quotient too.

    The image's error is componentwise at most gamma_terms |A||x| (any
    order of summation), and gamma_terms / (1 - gamma_terms) times the
    computed |A||x| (Higham, Accuracy and Stability, ch. 3).  Dot products
    and norms are numpy's pairwise sums along the rows, at most
    28 + log2(n) additions deep (8-way unrolled blocks of 128, then
    halving), so gamma_{30 + log2(n)} covers them and their products.  The
    subtraction y - theta x rounds twice per entry.  The final quotient and
    norms are widened by a few units of roundoff for their own arithmetic.
    Underflow is not accounted for.
    """
    g_t = _gamma(terms)
    g_s = _gamma(30 + math.ceil(math.log2(max(x.shape[-1], 2))))

    def dot(u, w):
        return np.sum(u * w, axis=-1)

    def norm(w):
        return np.sqrt(dot(w, w)) * (1.0 + g_s)

    g_y = g_t / (1.0 - g_t) * (1.0 + 4.0 * _U)   # |fl(A x) - A x| <= g_y |A||x|
    nx2 = dot(x, x)
    s = dot(x, y)
    ds = dot(np.abs(x), g_s * np.abs(y) + g_y * ay) * (1.0 + 2.0 * g_s)
    den_lo = nx2 / (1.0 + g_s) * (1.0 - 2.0 * _U)
    den_hi = nx2 / (1.0 - g_s) * (1.0 + 2.0 * _U)
    ends = [num / den for num in (s - ds, s + ds) for den in (den_lo, den_hi)]
    lo, hi = np.minimum.reduce(ends), np.maximum.reduce(ends)
    theta = s / nx2
    r_abs = (norm(y - theta[..., None] * x) + g_y * norm(ay)
             + _gamma(2) * (norm(y) + np.abs(theta) * np.sqrt(nx2)
                            * (1.0 + g_s)))
    return (theta, lo - 4.0 * _U * np.abs(lo), hi + 4.0 * _U * np.abs(hi),
            r_abs / np.sqrt(den_lo) * (1.0 + 4.0 * _U))


def verified_floor(A, mu: float) -> float:
    """A float sigma <= lambda_min(A), verified in floating point.

    `mu` is a computed lowest eigenvalue of the exactly symmetric matrix A
    (from :func:`dense_ground`).  The trial shift tau = mu - delta lies
    below mu by n u ||A||_inf, which covers mu's error, plus
    gamma_{n+1} ||A - mu I||_inf, room for the factorization's own
    rounding.  LAPACK dpotrf (numpy.linalg.cholesky) must then factor
    B = fl(A - tau I).  Its factor G satisfies G G^T = B + dB with
    |dB| <= gamma_{n+1} |G||G^T| for any order of the inner products, so
    blocked BLAS-3 too (Demmel; Higham, Accuracy and Stability, Thm 10.3),
    and lambda_min(B) >= -gamma_{n+1} times the largest row sum
    |G| (|G|^T 1) of that nonnegative matrix.  Forming B rounded its
    diagonal once (u max b_ii more), and an allowance for underflow
    3 n (2n + max b_ii) eta follows Rump (BIT 46, 2006), whose method of
    verifying positive definiteness this is.  The slack is inflated by 1%
    for its own rounding, and sigma = tau - slack is rounded down.

    A breakdown, or a factor that is not finite (dpotrf lets a NaN pivot
    pass), means mu is not within delta of the bottom of the spectrum: it
    raises SolverError carrying mu, never a silent floor.
    """
    A = _dense_input(A, "verified_floor", exact=True)
    n = A.shape[0]
    gamma = _gamma(n + 1)
    W = np.abs(A, out=np.empty((n, n)))     # |A|, |A - mu I|, then B
    norm_a = float(W.sum(axis=1).max())
    W.flat[::n + 1] = np.abs(A.diagonal() - mu)
    tau = mu - (n * _U * norm_a + gamma * float(W.sum(axis=1).max()))
    np.copyto(W, A)
    W.flat[::n + 1] -= tau
    dmax = float(W.diagonal().max())
    try:
        absG = np.abs(np.linalg.cholesky(W))
        if not np.isfinite(absG.diagonal()).all():  # a NaN pivot got through
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"could not verify that A - ({tau:.17g}) I is positive definite "
            f"(computed lowest eigenvalue {mu:.17g})", best_value=mu) from exc
    slack = (gamma * float((absG @ absG.sum(axis=0)).max()) + _U * dmax
             + 3.0 * n * (2 * n + dmax) * _ETA)
    return float(np.nextafter(tau - 1.01 * slack, -np.inf))
