"""Ground-state eigensolvers for real-symmetric operators.

* :func:`lowest_two` / :func:`davidson_ground`: diagonally preconditioned
  subspace iteration (Davidson) with thick restarts, one lockstep core for
  a batch of independent problems that share one block apply, in the
  manner of Liu's simultaneous expansion (1978), one or two wanted pairs
  each.  Each iteration applies the new vectors of every active member at
  once and forms Ritz vectors, residuals and Gram-Schmidt projections as
  stacked matrix products; the projected eigenproblems stay per member and
  form only the Ritz pairs in use.  Each new vector takes one Gram-Schmidt
  pass, a second only when the DGKS test asks for it.  A member's result
  is the same bits alone or in any batch.  :func:`lowest_two` serves the
  fiber ground pairs and their gaps, a batch of fibers
  (:class:`~.operators.FiberBatch`) or one operator, from the
  lowest-diagonal coordinate directions, and converges the ground pair to
  the caller's tolerance but the excited pair, read only through its Ritz
  value in the gap, to its square root.  :func:`davidson_ground` serves
  the coupled small-lambda operators, a batch of one, whose diagonal
  spread makes plain Krylov iteration impractically slow.  Both use a fixed
  space of 20 vectors and at most 600 iterations; the coupled solve
  supplies its fiber-Galerkin start and coarse correction (see the solver
  notes in the README).
* :func:`ground_state`: one Lanczos pass with full reorthogonalization
  (two classical Gram-Schmidt passes per step), seeded random start and
  residual-based stopping.  The basis may grow to the full dimension (at
  most 2000), where the Ritz value is exact, so nothing restarts.  The
  iterative route of the oracle checks.
* :func:`dense_ground` / :func:`dense_spectrum`: eigenvalues of a small
  dense matrix (at most 2000 rows) by LAPACK dsyevr without vectors;
  :func:`dense_ground` asks for the lowest one only.  They serve the
  certificates' small dense operators, the Schroedinger curve and the
  oracle checks.
* :func:`verified_floor`: turns a computed lowest eigenvalue of a small
  dense matrix into a float that is provably below the spectrum, by a
  floating-point Cholesky of the shifted matrix (Rump 2006); L1 and L2
  take their values from it, so no certificate rests on the accuracy of
  the dense eigenvalues.
* :func:`rayleigh_bounds`: encloses the exact Rayleigh quotient of a stored
  vector and bounds its residual from above, from the computed image and
  one product with the entrywise absolute operator; the coupled solve's
  Temple floor rests on it.

Davidson's projected eigenproblems call dsyevr directly for the lowest m
pairs (range "I"), with the arguments and workspace sizes that
scipy.linalg.eigh(subset_by_index=[0, m - 1]) passes, so the Ritz pairs are
those of eigh bit for bit without its per-call checks and workspace query.
Lanczos' Ritz pair comes from scipy.linalg.eigh_tridiagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

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
# Vectors in every Davidson search space, and iterations before it gives up.
_SPACE = 20
_MAX_ITERS = 600
# Davidson's search spaces V and their images AV, 2 x members x _SPACE x
# dim doubles over a batch, may take at most this many bytes.  The largest
# shipped run, the powerlaw presets' coupled operator (dim 478,170), needs
# 146 MiB; 2 GiB leaves room for a grid or truncation over 10x larger, and
# anything beyond fails at once, not after swapping or being killed.
_DAVIDSON_MAX_BYTES = 2 * 2**30
# A Gram-Schmidt pass that leaves less than this fraction of a vector's norm
# is repeated once (the DGKS test).
_DGKS = 1.0 / math.sqrt(2.0)


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


def _as_operator(op):
    """Adapt an operator-like object to (matvec, dim, diagonal_fn)."""
    if hasattr(op, "matvec") and hasattr(op, "dim"):
        return op.matvec, op.dim, getattr(op, "diagonal", None)
    if sp.issparse(op):
        n = op.shape[0]
        csr = op.tocsr()
        return (lambda x: csr @ x), n, csr.diagonal
    arr = np.asarray(op, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError("operator must be square")
    return (lambda x: arr @ x), arr.shape[0], (lambda: np.diag(arr).copy())


_SYEVR, _SYEVR_LWORK = sla.get_lapack_funcs(("syevr", "syevr_lwork"),
                                           dtype=np.float64)


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
    """Lowest eigenpair of the Lanczos tridiagonal matrix."""
    k = len(alphas)
    if k == 1:
        return float(alphas[0]), np.ones(1)
    d = np.asarray(alphas, dtype=float)
    e = np.asarray(betas[: k - 1], dtype=float)
    vals, vecs = sla.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    return float(vals[0]), vecs[:, 0]


def ground_state(op, tol: float = 1e-9, seed: int = 0) -> EigResult:
    """Lowest eigenpair by one Lanczos pass with full reorthogonalization.

    The start vector is drawn from a generator seeded with `seed`.
    Convergence is declared when the explicitly computed residual
    ||A x - theta x|| falls below tol * max(1, |theta|).  The basis may grow
    to the full dimension n, where the Krylov space is invariant and the
    Ritz value exact, so there are no restarts.  Dimensions above
    _DENSE_MAX are refused with DomainError before anything is allocated.

    Raises SolverError (carrying the best value/residual seen) when the
    pass ends, by breakdown or at step n, without meeting the tolerance.
    """
    matvec, n, _ = _as_operator(op)
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
        w = matvec(V[k])
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
                r = matvec(x) - theta * x
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


def _as_batch(op):
    """Adapt an operator, or a batch of them, to (apply, members, dim, diagonals).

    A batch (:class:`~.operators.FiberBatch`) exposes `dim`, its length,
    `diagonals()`, one row per member, and `apply(members, X)`, the image of
    each row X[i] under the operator of member members[i].  Anything
    :func:`_as_operator` takes is a batch of one, applied a row at a time.
    """
    if hasattr(op, "apply"):
        return op.apply, len(op), op.dim, op.diagonals
    matvec, n, diag_fn = _as_operator(op)

    def apply(members, X):
        if len(X) == 1:
            return matvec(X[0])[None]
        return np.stack([matvec(x) for x in X])

    return apply, 1, n, (None if diag_fn is None else lambda: diag_fn()[None])


def _fill_rows(H, V, AV, A, k0, k1):
    """Rows k0..k1-1 of the projected matrices H[a] = V[a] A V[a]^T of the
    first A slots: entry (i, j) is v_i . (A v_j).  Only the lower triangle
    is kept up to date, which is all dsyevr reads."""
    H[:A, k0:k1, :k1] = V[:A, k0:k1] @ AV[:A, :k1].transpose(0, 2, 1)


def _davidson(op, nwant, tol, seed, *, restart_keep, v0=None, correction=None):
    """Lowest `nwant` Ritz pairs of every member of `op`, in lockstep.

    Diagonally preconditioned subspace iteration on B independent problems
    that share one block apply (:func:`_as_batch`).  Each space starts from
    `v0` when given (a batch of one), else from the unit vectors on its
    member's smallest diagonal entries.  Each iteration every active member
    adds the corrections t = r / (diag(A) - theta) of all its `nwant` Ritz
    pairs, so the space size k is the same for all of them and a thick
    restart (to the `restart_keep` lowest Ritz vectors, when the next
    corrections would not fit in _SPACE) compresses all spaces together.
    `correction(t, r, theta)`, when given, refines each t in place.  The
    new vectors of all members go through one apply; Ritz vectors,
    residuals and Gram-Schmidt projections are stacked matrix products.
    Every new vector is orthogonalized by _orthogonalize; one that is
    already in its space is replaced by a random vector from a generator
    seeded with `seed`, one per member.  The projected eigenproblems stay
    per member and form only the `nwant` lowest pairs, or the
    `restart_keep` lowest before a restart.  The lowest pair passes at a
    residual of tol max(1, |theta|), the pairs above it at sqrt(tol)
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
    A V, not of a fresh matvec.  Raises CapacityError, before touching the
    operator, when V and A V of all members would exceed
    _DAVIDSON_MAX_BYTES.
    """
    apply, B, n, diag_fn = _as_batch(op)
    if diag_fn is None:
        raise DomainError("Davidson needs an operator exposing its diagonal")
    if n < nwant:
        raise DomainError(f"operator dimension {n} is below the {nwant} wanted pairs")
    space = min(_SPACE, n)
    nbytes = 2 * B * space * n * 8
    if nbytes > _DAVIDSON_MAX_BYTES:
        raise CapacityError(
            f"Davidson space of {space} vectors at dimension {n} for "
            f"{B} operator(s) needs {nbytes / 2**20:.0f} MiB, over "
            f"{_DAVIDSON_MAX_BYTES / 2**20:.0f} MiB")
    diag = np.array(diag_fn(), dtype=float)
    restart_keep = max(nwant, min(restart_keep, space - nwant))
    tols = np.array([tol] + [math.sqrt(tol)] * (nwant - 1))

    V = np.empty((B, space, n))
    AV = np.empty((B, space, n))
    H = np.zeros((B, space, space))
    # Without the caller's vector, start from the lowest-diagonal coordinate
    # directions.  For strongly diagonally dominant operators the ground
    # vector lives there; a purely random start can lock onto an interior
    # eigenpair whose residual passes the test.
    if v0 is not None and np.linalg.norm(v0) > 1e-14:
        k = 1
        V[0, 0] = v0 / math.sqrt(v0 @ v0)
    else:
        k = min(4, space)
        V[:, :k] = 0.0
        lowest = np.argsort(diag, axis=1, kind="stable")[:, :k]
        V[np.arange(B)[:, None], np.arange(k), lowest] = 1.0
    ids = np.arange(B)           # the member in each slot
    AV[:, :k] = apply(np.repeat(ids, k), V[:, :k].reshape(B * k, n)
                      ).reshape(B, k, n)
    _fill_rows(H, V, AV, B, 0, k)
    matvecs = k
    restarts = 0
    rngs = {}
    out = [None] * B
    thetas = ress = None

    def failure(message, a):
        """SolverError carrying the last lowest Ritz value and residual of
        slot a.  Each space keeps its lowest Ritz vector, so that value is
        the lowest the member reached."""
        if thetas is None:
            return SolverError(message)
        return SolverError(message, best_value=float(thetas[a, 0]),
                           best_residual=float(ress[a, 0]))

    for it in range(_MAX_ITERS):
        A = len(ids)
        m = min(restart_keep if k + nwant > space else nwant, k)
        finite = np.isfinite(H[:A, :k, :k])
        if not finite.all():
            raise failure(f"projected {k}x{k} matrix has non-finite entries",
                          int(finite.all(axis=(1, 2)).argmin()))
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
                out[ids[a]] = ([float(t) for t in thetas[a]], list(X[a]),
                               [float(r) for r in ress[a]], it, matvecs,
                               restarts)
            stay = (~done).nonzero()[0]
            if not stay.size:
                return out
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
                    rng = rngs.setdefault(ids[a], np.random.default_rng(seed))
                    t[a] = rng.standard_normal(n)
                    nt[a] = _orthogonalize(t[a:a + 1], V[a:a + 1, :k + j],
                                           _row_norms(t[a:a + 1]))[0]
            t /= nt[:, None]
        AV[:A, k:k + nadd] = apply(np.repeat(ids, nadd),
                                   T.reshape(A * nadd, n)).reshape(A, nadd, n)
        _fill_rows(H, V, AV, A, k, k + nadd)
        k += nadd
        matvecs += nadd
    raise failure(
        f"Davidson failed to reach tol={tol} within {_MAX_ITERS} iterations "
        f"on {len(ids)} of {B} operator(s) (last residual {ress[0, 0]:.3e})", 0)


def lowest_two(op, tol: float = 1e-9, seed: int = 0) -> list:
    """Two lowest eigenpairs of every member of `op`, one PairResult each.

    `op` is a :class:`~.operators.FiberBatch`, whose members run through one
    lockstep two-target Davidson run (space 20, thick restarts to 6), or a
    single operator, a batch of one.  A member's result does not depend on
    the batch.  The ground pair converges to a residual of
    tol max(1, |theta_0|), the excited pair, which enters only the gap, to
    sqrt(tol) max(1, |theta_1|) (see :func:`_davidson`).  The returned
    residuals ||A x - theta x|| come from a fresh block apply of the
    returned unit vectors, so `theta_0 - residuals[0]` is a certified floor
    on an eigenvalue.  The gap is the difference of the two Ritz values.
    The pair is flagged degenerate when the gap is below
    max(10 tol, 1e-10) * max(1, |E0|), in which case downstream consumers
    must not rely on a unique ground direction.  Iterations, matvecs and
    restarts are each member's own; matvecs counts the two fresh ones too.
    """
    runs = _davidson(op, 2, tol, seed, restart_keep=6)
    apply = _as_batch(op)[0]
    xs = [[x / math.sqrt(x @ x) for x in run[1]] for run in runs]
    X = np.array(xs)
    B, n = len(runs), X.shape[-1]
    R = apply(np.repeat(np.arange(B), 2), X.reshape(2 * B, n)).reshape(B, 2, n)
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


def davidson_ground(op, tol: float = 1e-9, seed: int = 0, *, v0=None,
                    correction=None) -> EigResult:
    """Lowest eigenpair by preconditioned subspace iteration.

    The lockstep core of :func:`lowest_two` with one member and one wanted
    pair.  Expansion vectors solve (diag(A) - theta) t = -r approximately,
    which tames operators whose diagonal spread is many orders of magnitude
    larger than the spectral gap (the coupled small-lambda operators);
    `correction(t, r, theta)` may refine each one in place, as the coupled
    solve's coarse correction does.  The space starts from `v0` when given,
    else from the unit vectors on the four smallest diagonal entries.  It is
    kept orthonormal by one Gram-Schmidt pass per vector, with a second
    when the DGKS test asks for it, and compressed to the lowest 4 Ritz
    vectors when its 20 vectors are full; `restarts` counts those
    compressions.  Deterministic for fixed seed and start vector.
    """
    (thetas, xs, ress, it, matvecs, restarts), = _davidson(
        op, 1, tol, seed, restart_keep=4, v0=v0, correction=correction)
    return EigResult(thetas[0], xs[0], ress[0], it, matvecs, restarts)


# ---------------------------------------------------------------------------
# dense oracle: LAPACK dsyevr, eigenvalues only
# ---------------------------------------------------------------------------

def _dense_input(A, who):
    """Validate a dense oracle input and return it as a float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise DomainError(f"{who} needs a non-empty square matrix")
    if A.shape[0] > _DENSE_MAX:
        raise DomainError(f"dense oracle is limited to dimension <= {_DENSE_MAX}")
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{who} needs a finite matrix")
    if np.max(np.abs(A - A.T)) > 1e-10 * np.max(np.abs(A)):
        raise DomainError(f"{who} needs a symmetric matrix")
    return A


def _dense_eigenvalues(A, who, **window):
    """Ascending eigenvalues of a symmetric matrix by LAPACK dsyevr.

    Lower triangle, no vectors; `window` is dsyevr's range selection
    (range "A" by default).  A nonzero info raises SolverError.
    """
    A = _dense_input(A, who)
    n = A.shape[0]
    lwork, liwork = _syevr_workspace(n)
    vals, _, m, _, info = _SYEVR(A, compute_v=0, lower=1, lwork=lwork,
                                 liwork=liwork, **window)
    if info != 0:
        raise SolverError(f"dsyevr failed on the {n}x{n} matrix of {who} "
                          f"(info {info})")
    return vals[:m]


def dense_spectrum(A) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    return _dense_eigenvalues(A, "dense_spectrum")


def dense_ground(A) -> float:
    """Lowest eigenvalue of a symmetric matrix; dsyevr forms no other."""
    return float(_dense_eigenvalues(A, "dense_ground", range="I", il=1,
                                    iu=1)[0])


# ---------------------------------------------------------------------------
# verified floor: a floating-point Cholesky proves positive definiteness
# ---------------------------------------------------------------------------

_U = 2.0**-53           # unit roundoff of IEEE double, round to nearest
_ETA = 2.0**-1074       # smallest positive subnormal


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the bound on k successive roundings."""
    return k * _U / (1.0 - k * _U)


def rayleigh_bounds(x, y, ay, terms: int) -> tuple:
    """Rounding-safe Rayleigh quotient and residual of a stored vector x.

    `y` is the computed image fl(A x) and `ay` the computed fl(|A| |x|),
    each entry of both a sum of at most `terms` products.  Returns floats
    (theta, lo, hi, r_up): the computed quotient theta = x.y / x.x, an
    enclosure lo <= x^T A x / x^T x <= hi of the exact one, and
    r_up >= ||A x - theta x|| / ||x||, which bounds the residual of the
    unit vector at its exact quotient too.

    The image's error is componentwise at most gamma_terms |A||x| (any
    order of summation), and gamma_terms / (1 - gamma_terms) times the
    computed |A||x| (Higham, Accuracy and Stability, ch. 3).  Dot products
    and norms are numpy's pairwise sums, at most 28 + log2(n) additions
    deep (8-way unrolled blocks of 128, then halving), so
    gamma_{30 + log2(n)} covers them and their products.  The subtraction
    y - theta x rounds twice per entry.  The final quotient and norms are
    widened by a few units of roundoff for their own arithmetic.
    Underflow is not accounted for.
    """
    g_t = _gamma(terms)
    g_s = _gamma(30 + math.ceil(math.log2(max(x.size, 2))))

    def dot(u, w):
        return float(np.sum(u * w))

    def norm(w):
        return math.sqrt(dot(w, w)) * (1.0 + g_s)

    g_y = g_t / (1.0 - g_t) * (1.0 + 4.0 * _U)   # |fl(A x) - A x| <= g_y |A||x|
    nx2 = dot(x, x)
    s = dot(x, y)
    ds = dot(np.abs(x), g_s * np.abs(y) + g_y * ay) * (1.0 + 2.0 * g_s)
    den_lo = nx2 / (1.0 + g_s) * (1.0 - 2.0 * _U)
    den_hi = nx2 / (1.0 - g_s) * (1.0 + 2.0 * _U)
    ends = [num / den for num in (s - ds, s + ds) for den in (den_lo, den_hi)]
    lo, hi = min(ends), max(ends)
    theta = s / nx2
    r_abs = (norm(y - theta * x) + g_y * norm(ay)
             + _gamma(2) * (norm(y) + abs(theta) * math.sqrt(nx2)
                            * (1.0 + g_s)))
    return (theta, lo - 4.0 * _U * abs(lo), hi + 4.0 * _U * abs(hi),
            r_abs / math.sqrt(den_lo) * (1.0 + 4.0 * _U))


def _cholesky(B):
    """Lower Cholesky factor of B in floating point, or None on breakdown.

    Textbook column order; every pivot must be positive (a NaN fails).
    """
    n = B.shape[0]
    G = np.zeros_like(B)
    for j in range(n):
        pivot = B[j, j] - G[j, :j] @ G[j, :j]
        if not pivot > 0.0:
            return None
        G[j, j] = math.sqrt(pivot)
        G[j + 1:, j] = (B[j + 1:, j] - G[j + 1:, :j] @ G[j, :j]) / G[j, j]
    return G


def verified_floor(A, mu: float) -> float:
    """A float sigma <= lambda_min(A), verified in floating point.

    `mu` is a computed lowest eigenvalue of the exactly symmetric matrix A
    (from :func:`dense_ground`).  The trial shift tau = mu - delta lies
    below mu by n u ||A||_inf, which covers mu's error, plus
    gamma_{n+1} ||A - mu I||_inf, room for the factorization's own
    rounding.  A floating-point Cholesky of B = fl(A - tau I) must then
    complete.  Its factor G satisfies G G^T = B + dB with
    |dB| <= gamma_{n+1} |G||G^T| for any order of the inner products
    (Demmel; Higham, Accuracy and Stability, Thm 10.3), so
    lambda_min(B) >= -gamma_{n+1} || |G||G^T| ||_inf, which bounds the
    2-norm of that nonnegative symmetric matrix.  Forming B rounded its
    diagonal once (u max b_ii more), and an allowance for underflow
    3 n (2n + max b_ii) eta follows Rump (BIT 46, 2006), whose method of
    verifying positive definiteness this is.  The slack is inflated by 1%
    for its own rounding, and sigma = tau - slack is rounded down.

    A factorization that breaks down means mu is not within delta of the
    bottom of the spectrum: it raises SolverError carrying mu, so a failed
    verification never becomes a silent floor.
    """
    A = _dense_input(A, "verified_floor")
    if not np.array_equal(A, A.T):
        raise DomainError("verified_floor needs an exactly symmetric matrix")
    n = A.shape[0]
    eye = np.eye(n)
    gamma = (n + 1) * _U / (1.0 - (n + 1) * _U)
    delta = (n * _U * float(np.abs(A).sum(axis=1).max())
             + gamma * float(np.abs(A - mu * eye).sum(axis=1).max()))
    tau = mu - delta
    B = A - tau * eye
    G = _cholesky(B)
    if G is None:
        raise SolverError(
            f"could not verify that A - ({tau:.17g}) I is positive definite "
            f"(computed lowest eigenvalue {mu:.17g})", best_value=mu)
    absG = np.abs(G)
    dmax = float(np.diag(B).max())
    slack = (gamma * float((absG @ absG.T).sum(axis=1).max()) + _U * dmax
             + 3.0 * n * (2 * n + dmax) * _ETA)
    return float(np.nextafter(tau - 1.01 * slack, -np.inf))
