"""Ground-state eigensolvers for real-symmetric operators.

Three routes, kept deliberately independent so they can cross-check each other:

* :func:`lowest_two` / :func:`davidson_ground`: diagonally preconditioned
  subspace iteration (Davidson) with thick restarts, one core for one or
  two wanted pairs.  Each iteration forms only the Ritz pairs it uses, and
  each new vector takes one Gram-Schmidt pass, a second only when the DGKS
  test asks for it.  :func:`lowest_two` serves the fiber ground pairs and
  their gap from one run, from the lowest-diagonal coordinate directions;
  :func:`davidson_ground` the coupled small-lambda operators, whose
  diagonal spread makes plain Krylov iteration impractically slow.  Its
  caller may supply the start vector and a refinement of each correction,
  which the coupled solve uses for its fiber-Galerkin start and coarse
  correction; see the solver notes in the README.
* :func:`ground_state`: Lanczos iteration with full reorthogonalization
  (two classical Gram-Schmidt passes per step), seeded random start,
  residual-based stopping, warm restarts on basis exhaustion and reseeding
  on stagnation.  The independent route of the oracle checks.
* :func:`dense_ground` / :func:`dense_spectrum`: eigenvalues only, from an
  in-house Householder tridiagonalization.  :func:`dense_spectrum` then
  runs Sturm-count bisection, vectorized across shifts in numpy.
  :func:`dense_ground` runs Laguerre's iteration on the tridiagonal (Li &
  Zeng 1994), one scalar pass over the pivots per step, and verifies its
  estimate with one Sturm sweep that must leave a bracket as narrow as
  bisection's; otherwise it bisects.  The Sturm counts skip the pivot guard
  and count a shift again with it only where a pivot came out tiny or not
  finite.  Slower than the iterative routes; used for the certificates'
  small dense operators, the Schroedinger curve and the oracle checks.  The
  reduction is panel-blocked (Dongarra, Hammarling & Sorensen 1989, as in
  LAPACK's dsytrd): panels of 32 columns, each updating the trailing block
  with one GEMM, while more than 49 rows remain; the last block, and every
  matrix of 49 rows or fewer (all the electron-grid operators), takes the
  per-column loop.  The panel width comes from timings of this route, the
  crossover from the electron grids' size; see the comment on _CROSSOVER.
* :func:`verified_floor`: turns a computed lowest eigenvalue of a small
  dense matrix into a float that is provably below the spectrum, by a
  floating-point Cholesky of the shifted matrix (Rump 2006); L1 and L2
  take their values from it.

Small dense/tridiagonal subproblems inside the iterative solvers use LAPACK
via scipy.linalg: Davidson's projected eigenproblems call dsyevr directly
for the lowest m pairs (range "I"), with the arguments and workspace sizes
that scipy.linalg.eigh(subset_by_index=[0, m - 1]) passes, so the Ritz
pairs are those of eigh bit for bit without its per-call checks and
workspace query.  The dense route calls no LAPACK at all.
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
]

# Lanczos steps between two estimates of the ground Ritz residual.
_CHECK_EVERY = 5
# Lanczos basis size before a restart, and restarts before giving up.
_MAX_BASIS = 300
_MAX_RESTARTS = 10
# Davidson's search space V and its images AV, 2 x max_subspace x dim
# doubles, may take at most this many bytes.  The largest shipped run, the
# retry space (80) of the powerlaw presets' coupled operator (dim 478,170),
# needs 584 MiB, so 2 GiB leaves room for a grid or truncation about 3x
# larger; anything beyond fails at once, not after swapping or being killed.
_DAVIDSON_MAX_BYTES = 2 * 2**30
# Davidson iterations of one fiber pair before lowest_two gives up.
_PAIR_MAX_ITERS = 600
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
    method: str


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


def _projected_eigh(A, best, m):
    """Lowest `m` eigenpairs, ascending, of a small symmetric matrix.

    LAPACK dsyevr on the lower triangle with range "I", il = 1, iu = m, so
    only the wanted pairs are formed.  Returns the bits of
    ``scipy.linalg.eigh(A, subset_by_index=[0, m - 1])``.  LAPACK can loop
    forever on a non-finite entry, so those are refused up front, as eigh
    does.  A failure raises SolverError carrying `best` (value, residual,
    vector).
    """
    k = A.shape[0]
    if not np.isfinite(A).all():
        raise SolverError(f"projected {k}x{k} matrix has non-finite entries",
                          *best)
    lwork, liwork = _syevr_workspace(k)
    vals, vecs, _, _, info = _SYEVR(A, compute_v=1, range="I", lower=1, il=1,
                                    iu=m, lwork=lwork, liwork=liwork)
    if info != 0:
        raise SolverError(f"dsyevr failed on the projected {k}x{k} matrix "
                          f"(info {info})", *best)
    return vals[:m], vecs


def _project_out(w, V, k):
    """One classical Gram-Schmidt pass of w against V[:k]."""
    w -= V[:k].T @ (V[:k] @ w)
    return w


def _orthogonalize(w, V, norm):
    """Gram-Schmidt w against the orthonormal rows of V, in place; new norm.

    `norm` is the norm of w on entry.  One classical pass, and a second only
    when the first leaves w below 1/sqrt(2) of `norm`: the test of Daniel,
    Gragg, Kaufman & Stewart (Math. Comp. 30, 1976), past which one pass has
    cancelled too much to leave w orthogonal to working precision.
    """
    k = V.shape[0]
    _project_out(w, V, k)
    nw = math.sqrt(w @ w)
    if nw < _DGKS * norm:
        _project_out(w, V, k)
        nw = math.sqrt(w @ w)
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
    """Lowest eigenpair by Lanczos iteration with full reorthogonalization.

    The start vector is drawn from a generator seeded with `seed`.
    Convergence is declared when the explicitly computed residual
    ||A x - theta x|| falls below tol * max(1, |theta|).  When the basis
    fills up without convergence the iteration restarts from the current
    Ritz vector; when restarts stagnate the start is reseeded.

    Raises SolverError (carrying the best value/residual seen) on failure.
    """
    matvec, n, _ = _as_operator(op)
    rng = np.random.default_rng(seed)
    max_basis = int(min(_MAX_BASIS, n))
    if max_basis < 1:
        raise DomainError("operator dimension must be >= 1")

    def fresh_start():
        return rng.standard_normal(n)

    start = fresh_start()
    best_val, best_vec, best_res = math.inf, None, math.inf
    matvecs = 0
    iterations = 0
    prev_best_res = math.inf

    for restart in range(_MAX_RESTARTS + 1):
        v = start.copy()
        nv = np.linalg.norm(v)
        if nv < 1e-14:
            start = fresh_start()
            continue
        v /= nv
        V = np.empty((max_basis, n))
        V[0] = v
        alphas, betas = [], []
        scale = 1.0     # running max(1, |alphas|, |betas|)
        k = 0
        exhausted = False
        while k < max_basis:
            w = matvec(V[k])
            matvecs += 1
            a = float(V[k] @ w)
            alphas.append(a)
            scale = max(scale, abs(a))
            w = w - a * V[k]
            if k > 0:
                w -= betas[-1] * V[k - 1]
            for _ in range(2):
                w = _project_out(w, V, k + 1)
            b = float(np.linalg.norm(w))
            k += 1
            iterations += 1
            breakdown = b <= 1e-14 * scale
            if breakdown or k % _CHECK_EVERY == 0 or k == max_basis:
                theta, y = _lowest_ritz(alphas, betas)
                est = b * abs(y[-1])
                if est <= tol * max(1.0, abs(theta)) or breakdown:
                    x = V[:k].T @ y
                    x /= np.linalg.norm(x)
                    r = matvec(x) - theta * x
                    matvecs += 1
                    res = float(np.linalg.norm(r))
                    if res < best_res:
                        best_val, best_vec, best_res = theta, x, res
                    if res <= tol * max(1.0, abs(theta)):
                        return EigResult(theta, x, res, iterations, matvecs,
                                         restart, "lanczos")
                    if breakdown:
                        # invariant subspace that misses the ground state
                        exhausted = True
                        break
            if k < max_basis:
                if b <= 1e-14 * scale:
                    exhausted = True
                    break
                betas.append(b)
                scale = max(scale, b)
                V[k] = w / b
        # restart preparation
        theta, y = _lowest_ritz(alphas, betas)
        x = V[:len(alphas)].T @ y
        x /= np.linalg.norm(x)
        r = matvec(x) - theta * x
        matvecs += 1
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_val, best_vec, best_res = theta, x, res
        if res <= tol * max(1.0, abs(theta)):
            return EigResult(theta, x, res, iterations, matvecs, restart, "lanczos")
        stagnated = res > 0.5 * prev_best_res
        prev_best_res = min(prev_best_res, res)
        start = fresh_start() if (exhausted or stagnated) else x
    raise SolverError(
        f"Lanczos failed to reach tol={tol} within {_MAX_RESTARTS} restarts "
        f"(best residual {best_res:.3e})",
        best_value=best_val,
        best_residual=best_res,
    )


def _davidson(op, nwant, tol, seed, *, max_subspace, max_iters, restart_keep,
              v0=None, correction=None):
    """Lowest `nwant` Ritz pairs by diagonally preconditioned subspace iteration.

    The space starts from `v0` when given, else from the unit vectors on the
    smallest diagonal entries.  Each iteration adds the corrections
    t = r / (diag(A) - theta) of the wanted Ritz pairs that have not
    converged yet; `correction(t, r, theta)`, when given, refines each t in
    place.  Each iteration forms only the `nwant` lowest Ritz pairs, or the
    `restart_keep` lowest when the space may have to be compressed to them
    before the corrections go in (a thick restart).  Every new vector is
    orthogonalized by _orthogonalize.  Returns (values, vectors, residuals,
    iterations, matvecs, restarts); the residuals are those of the carried
    A V, not of a fresh matvec, and restarts counts the compressions.  Raises
    CapacityError, before touching the operator, when V and A V would
    exceed _DAVIDSON_MAX_BYTES.
    """
    matvec, n, diag_fn = _as_operator(op)
    if diag_fn is None:
        raise DomainError("Davidson needs an operator exposing its diagonal")
    if n < nwant:
        raise DomainError(f"operator dimension {n} is below the {nwant} wanted pairs")
    max_subspace = int(min(max_subspace, n))
    nbytes = 2 * max_subspace * n * 8
    if nbytes > _DAVIDSON_MAX_BYTES:
        raise CapacityError(
            f"Davidson space of {max_subspace} vectors at dimension {n} needs "
            f"{nbytes / 2**20:.0f} MiB, over {_DAVIDSON_MAX_BYTES / 2**20:.0f} MiB")
    diag = np.asarray(diag_fn(), dtype=float)
    rng = np.random.default_rng(seed)
    restart_keep = max(nwant, int(min(restart_keep, max_subspace - nwant)))

    V = np.empty((max_subspace, n))
    AV = np.empty((max_subspace, n))
    H = np.zeros((max_subspace, max_subspace))

    def append(k, w):
        V[k] = w
        AV[k] = matvec(w)
        H[k, :k] = V[k] @ AV[:k].T
        H[:k, k] = H[k, :k]
        H[k, k] = V[k] @ AV[k]

    # Without the caller's vector, start from the lowest-diagonal coordinate
    # directions.  For strongly diagonally dominant operators the ground
    # vector lives there; a purely random start can lock onto an interior
    # eigenpair whose residual passes the test.
    if v0 is not None and np.linalg.norm(v0) > 1e-14:
        starts = [np.array(v0, dtype=float, copy=True)]
    else:
        starts = []
        for i in np.argsort(diag, kind="stable")[:min(4, n, max_subspace)]:
            e_i = np.zeros(n)
            e_i[i] = 1.0
            starts.append(e_i)
    k = 0
    for w in starts:
        if k >= max_subspace:
            break
        nw = _orthogonalize(w, V[:k], math.sqrt(w @ w))
        if nw < 1e-12:
            continue
        append(k, w / nw)
        k += 1
    if k == 0:
        w = rng.standard_normal(n)
        append(0, w / math.sqrt(w @ w))
        k = 1
    matvecs = k
    restarts = 0
    best_val, best_vec, best_res = math.inf, None, math.inf

    for it in range(max_iters):
        m = restart_keep if k + nwant > max_subspace else nwant
        vals, vecs = _projected_eigh(H[:k, :k], (best_val, best_res, best_vec),
                                     min(m, k))
        thetas, xs, rs, ress = [], [], [], []
        for j in range(min(nwant, k)):
            y = vecs[:, j]
            theta = float(vals[j])
            x = V[:k].T @ y
            r = AV[:k].T @ y - theta * x
            thetas.append(theta)
            xs.append(x)
            rs.append(r)
            ress.append(math.sqrt(r @ r))
        if ress[0] < best_res:
            best_val, best_vec, best_res = thetas[0], xs[0], ress[0]
        todo = [j for j in range(len(ress))
                if ress[j] > tol * max(1.0, abs(thetas[j]))]
        if not todo and len(ress) == nwant:
            return thetas, xs, ress, it, matvecs, restarts
        if k + len(todo) > max_subspace:
            # thick restart: keep the lowest Ritz vectors
            keep = min(restart_keep, k)
            X = (V[:k].T @ vecs[:, :keep]).T
            AX = (AV[:k].T @ vecs[:, :keep]).T
            V[:keep], AV[:keep] = X, AX
            H[:keep, :keep] = np.diag(vals[:keep])
            k = keep
            restarts += 1
        for j in todo[:max_subspace - k]:
            denom = diag - thetas[j]
            floor = 1e-8 * max(1.0, abs(thetas[j]))
            denom = np.where(np.abs(denom) < floor, np.copysign(floor, denom), denom)
            t = rs[j] / denom
            if correction is not None:
                correction(t, rs[j], thetas[j])
            # a correction already in the space is replaced by a random
            # vector; the test is relative, since t shrinks with r
            nt0 = math.sqrt(t @ t)
            nt = _orthogonalize(t, V[:k], nt0)
            if nt <= 1e-12 * nt0:
                t = rng.standard_normal(n)
                nt = _orthogonalize(t, V[:k], math.sqrt(t @ t))
            append(k, t / nt)
            matvecs += 1
            k += 1
    raise SolverError(
        f"Davidson failed to reach tol={tol} within {max_iters} iterations "
        f"(best residual {best_res:.3e})",
        best_value=best_val,
        best_residual=best_res,
        best_vector=best_vec,
    )


def lowest_two(op, tol: float = 1e-9, seed: int = 0) -> PairResult:
    """Two lowest eigenpairs from one two-target Davidson run.

    The returned residuals ||A x - theta x|| come from a fresh matvec of the
    returned unit vectors, so `theta - residual` is a certified floor on an
    eigenvalue.  The gap is the difference of the two Ritz values.  The pair
    is flagged degenerate when the gap is below
    max(10 tol, 1e-10) * max(1, |E0|), in which case downstream consumers
    must not rely on a unique ground direction.  `matvecs` counts the
    two fresh ones too.
    """
    thetas, xs, _, iterations, matvecs, restarts = _davidson(
        op, 2, tol, seed, max_subspace=40, max_iters=_PAIR_MAX_ITERS,
        restart_keep=6)
    matvec = _as_operator(op)[0]
    xs = [x / math.sqrt(x @ x) for x in xs]
    residuals = []
    for t, x in zip(thetas, xs):
        r = matvec(x) - t * x
        residuals.append(math.sqrt(r @ r))
    gap = thetas[1] - thetas[0]
    degenerate = gap < max(10.0 * tol, 1e-10) * max(1.0, abs(thetas[0]))
    return PairResult(values=tuple(thetas), vectors=tuple(xs), gap=gap,
                      degenerate=degenerate, residuals=tuple(residuals),
                      iterations=iterations, matvecs=matvecs + len(xs),
                      restarts=restarts)


def davidson_ground(op, tol: float = 1e-9, seed: int = 0, *, max_subspace: int = 20,
                    max_iters: int = 600, v0=None, correction=None) -> EigResult:
    """Lowest eigenpair by preconditioned subspace iteration.

    Expansion vectors solve (diag(A) - theta) t = -r approximately, which
    tames operators whose diagonal spread is many orders of magnitude larger
    than the spectral gap (the coupled small-lambda operators);
    `correction(t, r, theta)` may refine each one in place, as the coupled
    solve's coarse correction does.  The space starts from `v0` when given,
    else from the unit vectors on the four smallest diagonal entries.  It is
    kept orthonormal by one Gram-Schmidt pass per vector, with a second
    when the DGKS test asks for it, and compressed to the best 4 Ritz
    vectors when full; `restarts` counts those compressions.  Deterministic
    for fixed seed and start vector.
    """
    thetas, xs, ress, it, matvecs, restarts = _davidson(
        op, 1, tol, seed, max_subspace=max_subspace, max_iters=max_iters,
        restart_keep=4, v0=v0, correction=correction)
    return EigResult(thetas[0], xs[0], ress[0], it, matvecs, restarts,
                     "davidson")


# ---------------------------------------------------------------------------
# dense oracle: Householder tridiagonalization, then Sturm-count bisection
# (all eigenvalues) or Sturm-verified Laguerre (the lowest)
# ---------------------------------------------------------------------------

# From the Gershgorin bracket, bisection needs about 53 sweeps to reach its
# tolerance; only a bracket poisoned by a non-finite entry gets near this cap.
_MAX_SWEEPS = 100
# Shifts per Sturm sweep once few eigenvalues remain open (multisection),
# and in the sweep that verifies a Laguerre estimate.
_SWEEP_WIDTH = 128
_EPS = float(np.finfo(float).eps)
# Laguerre steps before dense_ground gives up and bisects.  The pipeline's
# matrices take 4 to 10; a cluster at the bottom of the spectrum slows the
# iteration to linear convergence.  Timed with one BLAS thread on a 2-core
# x86 host, a step costs about 1/60 of a bisection from the Gershgorin
# bracket at 300 rows (1/80 at 45), so a failed run at most doubles the cost.
_LAGUERRE_STEPS = 60
# Householder panel width, and the block size at or below which the
# per-column loop finishes the reduction.  Timed with one BLAS thread on a
# 2-core x86 host, panels of 16 to 64 columns ran within noise of each other
# and beat the per-column loop from about 40 rows: by about 10% at 41-49
# rows and 3x at 500.  The crossover is held at the largest electron grid in
# use (n_q 41-49 on every preset), so the operators of L1, L2 and E(m) keep
# their arithmetic bit for bit; that forgoes about 0.2 ms per call.  A panel
# must leave rows below it: _PANEL < _CROSSOVER - 1.
_PANEL = 32
_CROSSOVER = 49


def _dense_input(A, who):
    """Validate a dense oracle input and return it as a float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise DomainError(f"{who} needs a non-empty square matrix")
    if A.shape[0] > 2000:
        raise DomainError("dense oracle is limited to dimension <= 2000")
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{who} needs a finite matrix")
    if np.max(np.abs(A - A.T)) > 1e-10 * np.max(np.abs(A)):
        raise DomainError(f"{who} needs a symmetric matrix")
    return A


def _reflector(a):
    """(alpha, v) with (I - 2 v v^T) a = alpha e_1 and v unit, built in a.

    None when a is already a multiple of e_1, so no reflector is needed.
    """
    tail = a[1:]
    norm_a = math.sqrt(a @ a)
    if norm_a == 0.0 or math.sqrt(tail @ tail) <= 1e-300:
        return None
    alpha = -math.copysign(norm_a, a[0] if a[0] != 0 else 1.0)
    a[0] -= alpha
    a /= math.sqrt(a @ a)
    return alpha, a


def _reduce_panel(T, e, p, nb):
    """Reduce columns p .. p + nb - 1 of T, then update its trailing block.

    Lower form of LAPACK's dlatrd.  Column k = p + j takes the reflector
    I - 2 v_j v_j^T, which changes the block B below and right of it by
    -(v_j w_j^T + w_j v_j^T), w_j = 2 (B v_j - (v_j^T B v_j) v_j), as in the
    per-column loop.  Within the panel
    those changes are kept in V and W, not applied: each column is brought
    up to date just before its reflector is made, and B v_j comes from the
    block as it stood at the start of the panel, corrected by V and W.  The
    block past the panel then takes all of them in one rank-2nb GEMM,
    [V W] [W V]^T.  d_k lands in T[k, k] and e_k in e[k]; the rest of the
    panel's columns is left stale.
    """
    m = T.shape[0] - p
    VW = np.zeros((m, 2 * nb))   # [V W]
    WV = np.zeros((m, 2 * nb))   # [W V]
    for j in range(nb):
        k = p + j
        col = T[k:, k] - VW[j:] @ WV[j]
        T[k, k] = col[0]
        reflector = _reflector(col[1:])
        if reflector is None:
            e[k] = col[1]
            continue
        alpha, vvec = reflector
        w = T[k + 1:, k + 1:] @ vvec - VW[j + 1:] @ (WV[j + 1:].T @ vvec)
        tau = float(vvec @ w)
        VW[j + 1:, j] = WV[j + 1:, nb + j] = vvec
        VW[j + 1:, nb + j] = WV[j + 1:, j] = 2.0 * (w - tau * vvec)
        e[k] = alpha
    T[p + nb:, p + nb:] -= VW[nb:] @ WV[nb:].T


def _householder_tridiagonalize(A):
    """Reduce a symmetric matrix to tridiagonal form; returns (d, e).

    Householder reflectors, one per column.  While more than _CROSSOVER
    rows remain, the columns go in panels of _PANEL (Dongarra, Hammarling &
    Sorensen, J. Comput. Appl. Math. 27, 1989; LAPACK dsytrd), so the
    trailing block is updated once per panel by one GEMM (_reduce_panel).
    The last block, and a matrix of _CROSSOVER rows or fewer, takes the
    per-column loop, whose rank-2 update is one GEMM per column.
    """
    T = np.array(A, dtype=float, copy=True)
    n = T.shape[0]
    e = np.empty(max(n - 1, 0))
    k = 0
    while n - k > _CROSSOVER:
        _reduce_panel(T, e, k, _PANEL)
        k += _PANEL
    VU = np.empty((n, 2))        # [v u2], then [u2 v]^T: the GEMM operands
    UV = np.empty((2, n))
    for kcol in range(k, n - 2):
        reflector = _reflector(T[kcol + 1:, kcol].copy())
        if reflector is None:
            e[kcol] = T[kcol + 1, kcol]
            continue
        alpha, vvec = reflector
        B = T[kcol + 1:, kcol + 1:]
        w = B @ vvec
        tau = float(vvec @ w)
        u2 = 2.0 * (w - tau * vvec)
        # rank-2 update B - v u2^T - u2 v^T as one GEMM, in place
        m = n - kcol - 1
        VU[:m, 0] = UV[1, :m] = vvec
        VU[:m, 1] = UV[0, :m] = u2
        B -= VU[:m] @ UV[:, :m]
        e[kcol] = alpha
    if n >= 2:
        e[n - 2] = T[n - 1, n - 2]
    return np.diag(T).copy(), e


def _sturm_setup(d, e):
    """(e2, pivmin, gl, gu, scale) for the Sturm counts of the tridiagonal.

    e2 holds the squared couplings and pivmin is LAPACK dstebz's pivot
    guard.  [gl, gu] is the Gershgorin bracket of the spectrum, padded as
    in dstebz, and scale = max(|gl|, |gu|) sets the tolerance of _closed.
    """
    n = d.shape[0]
    e = np.abs(e)
    e2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    radius = np.r_[e, 0.0] + np.r_[0.0, e]
    gl, gu = float(np.min(d - radius)), float(np.max(d + radius))
    pad = 2.1 * (n * _EPS * max(abs(gl), abs(gu)) + 2.0 * pivmin)
    gl, gu = gl - pad, gu + pad
    return e2, pivmin, gl, gu, max(abs(gl), abs(gu))


def _closed(lo, hi, scale):
    """Whether [lo, hi] is narrow enough: hi - lo <= 2 eps (scale + max |end|).

    False for a NaN end, so a poisoned interval stays open.
    """
    return hi - lo <= 2.0 * _EPS * (scale + np.maximum(abs(lo), abs(hi)))


def _sturm_counts_guarded(d, e2, pivmin, x):
    """_sturm_counts with every pivot guarded, as in LAPACK's dstebz.

    A pivot smaller than pivmin in magnitude is replaced by -pivmin, so the
    next division cannot overflow and a zero pivot cannot make 0/0.
    """
    Q = np.subtract.outer(d, x)
    t = np.empty_like(x)
    small = np.empty(x.shape, dtype=bool)
    for i in range(d.shape[0]):
        q = Q[i]
        if i:
            np.divide(e2[i - 1], Q[i - 1], out=t)
            q -= t
        np.abs(q, out=t)
        np.less(t, pivmin, out=small)
        q[small] = -pivmin
    return np.count_nonzero(Q < 0.0, axis=0)


def _sturm_counts(d, e2, pivmin, x):
    """Number of eigenvalues of the tridiagonal below each shift in x.

    Counts the negative pivots of the LDL^T factorization of T - x I,
    q_0 = d_0 - x and q_i = d_i - x - e_{i-1}^2 / q_{i-1}.  The loop runs
    over the rows, two in-place ufunc calls each; numpy runs across the
    shifts.  The pivots go unguarded.  A shift where some pivot came out
    below pivmin in magnitude, or not finite, is counted again by
    _sturm_counts_guarded; elsewhere the guard would have changed nothing.
    So the counts are those of the guarded recurrence, exactly.
    """
    Q = np.subtract.outer(d, x)
    t = np.empty_like(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c, prev, q in zip(e2.tolist(), Q, Q[1:]):
            np.divide(c, prev, out=t)
            q -= t
    counts = np.count_nonzero(Q < 0.0, axis=0)
    bad = ~(np.abs(Q, out=Q) >= pivmin).all(axis=0)
    if bad.any():
        counts[bad] = _sturm_counts_guarded(d, e2, pivmin, x[bad])
    return counts


def _tridiagonal_eigenvalues(d, e, ks):
    """Eigenvalues with ascending indices ks of the tridiagonal (d, e).

    Sturm-count bisection (Barth, Martin & Wilkinson, Numer. Math. 9, 1967)
    from the Gershgorin bracket of _sturm_setup.  Each sweep probes every
    open interval [lo_k, hi_k], which keeps count(lo_k) <= k < count(hi_k):
    one probe each while many are open, up to _SWEEP_WIDTH in all when few
    are.  It ends once every interval is _closed, that is no wider than
    2 eps (bracket scale + max(|lo|, |hi|)), and returns the midpoints.
    """
    e2, pivmin, gl, gu, scale = _sturm_setup(d, e)
    ks = np.asarray(ks)
    lo = np.full(ks.shape, gl)
    hi = np.full(ks.shape, gu)
    for _ in range(_MAX_SWEEPS):
        live = np.flatnonzero(~_closed(lo, hi, scale))
        if live.size == 0:
            return 0.5 * (lo + hi)
        a, b = lo[live], hi[live]
        p = max(1, _SWEEP_WIDTH // live.size)
        probes = a[:, None] + (b - a)[:, None] * (np.arange(1, p + 1) / (p + 1))
        counts = _sturm_counts(d, e2, pivmin, probes.ravel()).reshape(probes.shape)
        above = counts > ks[live, None]
        first = np.where(above.any(axis=1), above.argmax(axis=1), p)
        grid = np.column_stack((a, probes, b))
        rows = np.arange(live.size)
        lo[live] = grid[rows, first]
        hi[live] = grid[rows, first + 1]
    raise SolverError(f"Sturm bisection did not converge in {_MAX_SWEEPS} sweeps")


def _laguerre_ground(d, e2, pivmin, x, scale):
    """Laguerre's iteration toward the lowest eigenvalue from x below it.

    Li & Zeng, SIAM J. Sci. Comput. 15 (1994).  Each step is one scalar pass
    over the LDL^T pivots q_i of T - x I and their x-derivatives, which give
    S1 = sum_j 1/(lambda_j - x) = -sum q_i'/q_i and
    S2 = sum_j 1/(lambda_j - x)^2 = sum (q_i'/q_i)^2 - q_i''/q_i, then
    x += n / (S1 + sqrt((n - 1)(n S2 - S1^2))).  From below lambda_0 the
    iterates rise monotonically to it, cubically once close.  Stops after a
    step no larger than the bisection tolerance, or at a pivot of pivmin or
    below (x has reached lambda_0 in rounding); the estimate is not
    verified here.  None after _LAGUERRE_STEPS steps or a non-finite step.
    """
    n = d.shape[0]
    el = e2.tolist()
    for _ in range(_LAGUERRE_STEPS):
        dx = (d - x).tolist()
        # row 0: q = d_0 - x, q' = -1, q'' = 0; a = q'/q and b = q''/q
        q = dx[0]
        if not q > pivmin:
            return x
        r = 1.0 / q
        a, b = -r, 0.0
        s1, s2 = r, r * r
        for dxi, c in zip(dx[1:], el):
            # q_i = d_i - x - c, c = e_{i-1}^2 / q_{i-1};
            # q_i' = c a - 1, q_i'' = c (b - 2 a^2), with a, b of row i - 1
            c *= r
            q = dxi - c
            if not q > pivmin:
                return x
            r = 1.0 / q
            b = c * (b - 2.0 * a * a) * r
            a = (c * a - 1.0) * r
            s1 -= a
            s2 += a * a - b
        step = n / (s1 + math.sqrt(max(0.0, (n - 1) * (n * s2 - s1 * s1))))
        if not math.isfinite(step):
            return None
        x += step
        if step <= 2.0 * _EPS * (scale + abs(x)):
            return x
    return None


def _tridiagonal_ground(d, e):
    """Lowest eigenvalue of the tridiagonal (d, e), Sturm-verified.

    _laguerre_ground runs from the Gershgorin floor of _sturm_setup.  One
    sweep of _SWEEP_WIDTH shifts, spaced eps (scale + |x|) apart around its
    estimate x, must then show count 0 at the left end and at least 1 at
    the right; the first shift with a nonzero count and the one before it
    bound lambda_0 as bisection's final interval does, and must pass the
    same _closed test.  Their midpoint is returned.  Any other outcome
    falls back to bisection from the Gershgorin bracket, so every value
    comes from a bracket that Sturm counts certify.
    """
    e2, pivmin, gl, gu, scale = _sturm_setup(d, e)
    x = _laguerre_ground(d, e2, pivmin, gl, scale)
    if x is not None and gl <= x <= gu:
        half = _SWEEP_WIDTH // 2
        probes = x + _EPS * (scale + abs(x)) * np.arange(1 - half, half + 1)
        counts = _sturm_counts(d, e2, pivmin, probes)
        k = int(np.argmax(counts > 0))
        if k > 0 and _closed(probes[k - 1], probes[k], scale):
            return float(0.5 * (probes[k - 1] + probes[k]))
    return float(_tridiagonal_eigenvalues(d, e, [0])[0])


def dense_spectrum(A) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (in-house route)."""
    A = _dense_input(A, "dense_spectrum")
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0]], dtype=float)
    d, e = _householder_tridiagonalize(A)
    return np.sort(_tridiagonal_eigenvalues(d, e, np.arange(n)))


def dense_ground(A) -> float:
    """Lowest eigenvalue of a symmetric matrix via the in-house dense route.

    Householder tridiagonalization, then _tridiagonal_ground: Laguerre's
    iteration from the Gershgorin floor, verified by one Sturm sweep, with
    bisection from the Gershgorin bracket when the verification fails.
    Either way the value is the midpoint of an interval that Sturm counts
    show to hold the lowest eigenvalue of the tridiagonal, no wider than
    2 eps (scale + max(|lo|, |hi|)).
    """
    A = _dense_input(A, "dense_ground")
    if A.shape[0] == 1:
        return float(A[0, 0])
    d, e = _householder_tridiagonalize(A)
    return _tridiagonal_ground(d, e)


# ---------------------------------------------------------------------------
# verified floor: a floating-point Cholesky proves positive definiteness
# ---------------------------------------------------------------------------

_U = 2.0**-53           # unit roundoff of IEEE double, round to nearest
_ETA = 2.0**-1074       # smallest positive subnormal


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
