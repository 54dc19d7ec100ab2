"""Static effective mass: comparison energies, coupled solves, extrapolation.

The static mass is defined through the chain

    e(lam) = infspec A(lam)  --lam->0-->  e0,      M_stat = Einv(e0),

where A(lam) is the coupled scaling-limit operator, Einv inverts the
one-particle comparison curve E(m) = infspec(p^2/(2m) + V), and everything
is computed on one electron momentum grid so that discretization bias
largely cancels between e0 and the inverse curve.

Pieces:

* :func:`schrodinger_energy`: ground energy of q^2/(2m) + W on the grid it
  is given, so that its discretization bias matches the coupled solves'.
* :func:`invert_E`: the exact inverse of the comparison curve, from one
  symmetric eigensolve of a pencil reduced by its q = 0 row, confirmed by
  one E(m).
* :func:`coupled_ground`: e(lam) through a two-level Davidson solve (the
  coupled operators' diagonal spread rules out plain Lanczos) in the
  sector even under grid reversal times mode reflection, half the coupled
  space: it starts from the fiber-Galerkin vector and corrects the
  envelope on the grid by a coarse solve with the fibers' Galerkin
  matrix, both folded onto the sector.  It reads the lam's
  fiber nodes and the potential kernel as the caller fetched them, once,
  for the solve and both bounds at that lam.  It also certifies e(lam):
  the split of the coupled space by the fiber states
  (:func:`fiber_split`, recomputed from the vectors) gives an upper
  bound U_G = lambda_min(M) and a floor rho on the second eigenvalue, and
  where rho > U_G the solve stops at the residual that Temple's inequality
  needs for a width of 1e-9 (:func:`temple_floor`, L_T <= e <= theta),
  about half the iterations of the fixed 1e-9 residual.  The split also
  floors each node's fiber ground energy (:func:`fiber_floors`: Temple's
  floor from the node's enclosed quotient and residual, below the excited
  pair's floor on the second level), and the enclosure and L1 read those
  same floors; both take each fiber's Davidson pair as its two lowest
  levels (:data:`PREMISE`).
* :func:`extrapolate_static_mass`: fits e(lam) = e0 + c1 lam + c2 lam^2
  (e(lam) is even, so the leading correction is O(lam^2)), propagates the
  fit uncertainty and a drop-the-largest-lam refit shift into e0 and,
  through the Hellmann-Feynman slope of the comparison curve, into the
  mass, and inverts on the same grid with the caller's potential kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import FiberNodes
from .eigensolve import (_U, _gamma, davidson_ground, dense_ground,
                         rayleigh_bounds, verified_floor)
from .errors import AnalysisError, BracketError, NoBoundStateError
from .operators import (ElectronGrid, FiberTemplate, assemble_coupled_llp,
                        assemble_schrodinger)
from .trialstate import envelope

__all__ = [
    "CoupledResult",
    "Enclosure",
    "FiberSplit",
    "PREMISE",
    "StaticMassResult",
    "DEFAULT_LAMBDA_SEQ",
    "schrodinger_energy",
    "invert_E",
    "coupled_ground",
    "fiber_split",
    "split_floor",
    "fiber_floors",
    "temple_floor",
    "extrapolate_static_mass",
]

DEFAULT_LAMBDA_SEQ = (0.4, 0.28, 0.2, 0.14, 0.1)

# Largest rms residual of the quadratic fit in lam that is not rejected.
_FIT_RMS_TOL = 1e-3
# Residual tolerance of the coupled Davidson solve where no L_T is possible.
_COUPLED_TOL = 1e-9
# Width e - L_T, relative to max(1, |U_G|), that the coupled solve's
# stopping residual aims for where the fiber split certifies a gap.
_TARGET_WIDTH = 1e-9
# Nodes per group in the fiber split's products.
_SPLIT_ROWS = 16


def schrodinger_energy(mass: float, kernel: np.ndarray,
                       egrid: ElectronGrid) -> float:
    """Ground energy of the one-particle comparison operator on `egrid`.

    `kernel` is the potential's kernel on `egrid`
    (:func:`~.operators.potential_kernel`), built once by a caller that
    scans masses.  The dense route caps the grid at 2000 points
    (DomainError beyond).  A nonnegative result means the potential has no
    bound state at this mass and raises NoBoundStateError.
    """
    value = dense_ground(assemble_schrodinger(kernel, egrid, mass))
    if value >= 0.0:
        raise NoBoundStateError(
            f"no bound state at mass {mass:g} (ground energy {value:.3e} >= 0)"
        )
    return float(value)


def invert_E(target: float, kernel: np.ndarray, egrid: ElectronGrid) -> float:
    """Mass m with E(m) = target, exactly: E(m) = lambda_1(W + D/m), W =
    `kernel` and D = diag(q^2/2) >= 0, and every eigenvalue of W + t D is
    nondecreasing in t, so 1/m is the largest finite eigenvalue t* of the
    pencil (A, D), A = target I - W.  D is 0 only at the grid's centre
    q = 0, and there A's pivot target - W_cc is negative: the unit vector
    at q = 0 has quotient W_cc >= E(1/2) > target.  Eliminating that row
    leaves D'^(-1/2) (A' - a a^T / (target - W_cc)) D'^(-1/2) on the other
    nodes (A' their block of A, a the centre's column there), a symmetric
    matrix whose eigenvalues are the pencil's finite ones: t* is its
    largest, from one dsyevr.  One E(m) confirms it to
    tol = 1e-10 max(1, |target|), or raises AnalysisError.  dsyevr pins t*
    only to about u times that matrix's norm, which the scaling by the
    smallest q^2 makes large against a small t* (a heavy mass), so one
    Newton step on E(1/t) = target with the Hellmann-Feynman slope
    dE/dt = a^T D a, a the unit ground vector at m
    (:func:`~.trialstate.envelope`), takes t* to E's own accuracy.  A
    target in [E(1/2) - tol, E(1/2) + 1e-7] returns exactly 1/2, the
    free-particle edge; a higher one, or one at or below lambda_min(W)
    (t* <= 0), is a BracketError.
    """
    e_lo = schrodinger_energy(0.5, kernel, egrid)
    tol = 1e-10 * max(1.0, abs(target))
    if target > e_lo + 1e-7:
        raise BracketError(f"target energy {target:.6g} is above E(0.5) = "
                           f"{e_lo:.6g}; would need a mass below 1/2")
    if target >= e_lo - tol:
        return 0.5
    c = egrid.size // 2
    A = -kernel
    A[np.diag_indices_from(A)] += target
    a = np.delete(A[c], c)
    S = np.delete(np.delete(A, c, 0), c, 1) - np.outer(a, a) / A[c, c]
    D = egrid.kinetic_diagonal(1.0)
    s = 1.0 / np.sqrt(np.delete(D, c))
    t_star = -dense_ground(-(s[:, None] * S * s))
    if not t_star > 0.0:
        raise BracketError(f"target energy {target:.6g} is at or below "
                           "lambda_min(W); no mass reaches it")
    mass = 1.0 / t_star
    miss = schrodinger_energy(mass, kernel, egrid) - target
    if abs(miss) > tol:
        raise AnalysisError(f"pencil root m = {mass:.12g} misses the target "
                            f"energy {target:.9g} by {miss:.3e}")
    a = envelope(kernel, egrid, mass)
    return 1.0 / (t_star - miss / float(a * a @ D))


@dataclass
class FiberSplit:
    """The fiber split Z = [e_j (x) Phi_j] of one lam, recomputed.

    Phi_j are the supplied vectors, normalized, of fiber dimension `dim`;
    `ritz` is each one's computed Rayleigh quotient under its fiber, within
    `rounding` of the exact one, and `residual` a bound on its residual;
    `norm` bounds every fiber's largest absolute row sum.  `overlap` is
    G = Phi Phi^T and `matrix` the Galerkin matrix
    M = K o G + diag((ritz - e0) / lam^2).  `excited` floors each fiber's
    second level and `floor` its ground level, under :data:`PREMISE`
    (:func:`fiber_floors`).  The vectors themselves are not kept: every
    bound on the split, and L1, reads only these.
    """

    matrix: np.ndarray
    overlap: np.ndarray
    dim: int
    ritz: np.ndarray
    residual: np.ndarray
    rounding: float
    norm: float
    excited: np.ndarray
    floor: np.ndarray


@dataclass
class Enclosure:
    """The fiber split's floor rho on lambda_2(A(lam)) and its parts:
    rho = min(lambda2 - eta, c - b^2 / eta), with lambda2 a floor on
    lambda_2(M), c one on Q A Q and b a ceiling on ||P A Q||."""

    rho: float
    eta: float
    b: float
    c: float
    lambda2: float


@dataclass
class CoupledResult:
    value: float
    residual: float
    iterations: int
    matvecs: int
    vector: np.ndarray     # the ground vector in the even sector, length dim
    dim: int               # the even sector's dimension the solve ran in
    full_dim: int          # A(lam)'s dimension n_q F
    floors: np.ndarray     # each node's fiber ground floor, for L1
    galerkin: np.ndarray   # the fiber split's full Galerkin matrix M, for U*
    upper: float           # U_G, lambda_min of M
    enclosure: Enclosure
    r_star: float | None   # the stopping residual the enclosure allows
    temple: float | None   # the certified floor L_T on e(lam), if any
    note: str              # the premise of L_T, or why there is none


def _max_row_nnz(matrix) -> int:
    """Most stored entries in one row of a CSR matrix."""
    return int(np.diff(matrix.indptr).max(initial=0))


def _galerkin(vectors: np.ndarray, energies: np.ndarray,
              kernel: np.ndarray, lam: float, e0: float) -> tuple:
    """(M, G): G = Phi Phi^T of the rows of `vectors`, exactly symmetric,
    and M = kernel o G + diag((energies - e0) / lam^2)."""
    G = vectors @ vectors.T
    G = 0.5 * (G + G.T)
    M = kernel * G
    M[np.diag_indices_from(M)] += (energies - e0) / (lam * lam)
    return M, G


def fiber_split(template: FiberTemplate, nodes: FiberNodes,
                kernel: np.ndarray, lam: float, e0: float) -> FiberSplit:
    """M = Z^T A(lam) Z on the supplied fiber vectors Phi_j, recomputed,
    and each node's fiber floors.

    With Phi_j the rows of nodes.vectors, normalized, the columns
    Z = [e_j (x) Phi_j] are orthonormal, and

        M = diag((theta_j - e0) / lam^2) + kernel o (Phi Phi^T)

    is A(lam) projected onto them, theta_j the Rayleigh quotient of Phi_j
    under the fiber of `template` at lam q_j.  The quotients and the
    residuals come from one block product of the vectors, not from the
    energies and residuals `nodes` carries, so M is the Galerkin matrix of
    the vectors supplied, whatever they are.  One more block product with
    the absolute fibers encloses each quotient and bounds each residual
    against rounding (:func:`~.eigensolve.rayleigh_bounds`; an image entry
    sums a row's stored products and the diagonal's).  Both products run
    in groups of _SPLIT_ROWS nodes, so their temporaries stay small beside
    the nodes' vectors.  The second level of the fiber at lam q_j is
    floored from the nodes' excited pair, E1_j >= theta1_j - r1_j
    (:data:`PREMISE`), and the ground level by :func:`fiber_floors` from
    the enclosure and that floor.
    """
    phi = nodes.vectors / np.sqrt(np.vecdot(nodes.vectors,
                                            nodes.vectors))[:, None]
    batch = template.operator(nodes.P)
    absolute = batch.absolute()
    terms = _max_row_nnz(batch.interaction) + 1
    members = np.arange(len(phi))
    ritz, lo, hi, residual = (np.empty(len(phi)) for _ in range(4))
    for i in range(0, len(phi), _SPLIT_ROWS):
        part = slice(i, i + _SPLIT_ROWS)
        x = phi[part]
        y = batch.apply(members[part], x)
        ritz[part] = np.vecdot(x, y)
        _, lo[part], hi[part], residual[part] = rayleigh_bounds(
            x, y, absolute.apply(members[part], np.abs(x)), terms)
    theta1 = nodes.energy + nodes.gap
    excited = theta1 - nodes.excited_residual - 4.0 * _U * np.abs(theta1)
    norm = (float(absolute.diag.max())
            + float(absolute.interaction.sum(axis=1).max()))
    M, G = _galerkin(phi, ritz, kernel, lam, e0)
    return FiberSplit(matrix=M, overlap=G, dim=phi.shape[1], ritz=ritz,
                      residual=residual,
                      rounding=float(np.maximum(hi - ritz, ritz - lo).max()),
                      norm=norm, excited=excited,
                      floor=fiber_floors(lo, hi, residual, excited))


def fiber_floors(lo: np.ndarray, hi: np.ndarray, r: np.ndarray,
                 sigma: np.ndarray) -> np.ndarray:
    """Floors on the lowest eigenvalue of each fiber, rounded down.

    Each fiber has a unit vector whose exact quotient lies in [lo, hi],
    with residual at most r, and sigma floors its second eigenvalue.
    Where hi < sigma - r, Temple's inequality gives
    E0 >= theta - r^2 / (sigma - theta) at the exact quotient theta
    (Temple 1928; Kato 1949), which rises with theta there, so its value
    at lo is the floor; :func:`temple_floor` takes L_T from it.  Elsewhere
    the floor is lo - r, which takes the vector's quotient to approximate
    the lowest level (:data:`PREMISE`).
    """
    temple = hi < sigma - r
    gap = np.where(temple, sigma - lo, 1.0)
    floor = np.where(temple, lo - r * r / gap * (1.0 + 4.0 * _U), lo - r)
    return np.nextafter(floor - 2.0 * _U * np.abs(floor), -np.inf)


def split_floor(lambda2: float, c: float, b: float) -> tuple:
    """(rho, eta): rho = max over eta > 0 of min(lambda2 - eta, c - b^2/eta),
    rounded down, and the maximizing eta.

    The first term falls and the second rises with eta, so the maximum is
    where they meet, at the positive root of eta^2 - (lambda2 - c) eta -
    b^2 = 0 (taken in the form that does not cancel).  With b = 0 it is
    min(lambda2, c).
    """
    if b == 0.0:
        return min(lambda2, c), max(lambda2 - c, 0.0)
    d = lambda2 - c
    s = math.hypot(d, 2.0 * b)
    eta = 0.5 * (d + s) if d >= 0.0 else 2.0 * b * b / (s - d)
    tail = b * b / eta
    rho = min(lambda2 - eta, c - tail)
    return rho - 4.0 * _U * (abs(lambda2) + eta + abs(c) + tail), eta


def _split_enclosure(fg: FiberSplit, kernel: np.ndarray, k_min: float,
                     lam: float, e0: float, evals: np.ndarray,
                     U: np.ndarray) -> Enclosure:
    """A floor rho on lambda_2(A(lam)) from the fiber split P = Z Z^T.

    A >= (M - eta) (+) (c - b^2 / eta) on range(P) (+) range(Q) for every
    eta > 0, so lambda_2(A) >= min(lambda_2(M) - eta, c - b^2 / eta):

    * Q A Q >= c = min_j (mu_j - e0) / lam^2 + k_min, k_min <= lambda_min(K)
      the caller's verified floor (it does not depend on lam), where mu_j
      floors the fiber at lam q_j on Phi_j's complement.  If Phi_j makes
      the angle s_j with the ground state, mu_j >= E1_j - s_j^2 (E1_j -
      E0_j), and s_j <= r_j / (E1_j - theta_j) (Davis & Kahan).  E1_j and
      E0_j are the split's floors on the fiber's two lowest levels
      (`excited` and `floor`, :data:`PREMISE`), the floors L1 reads too.
    * ||P A Q|| <= b = max_j r_j / lam^2 + (sum K^2 (1 - G^2))^(1/2): the
      fiber residuals, and the kernel's coupling of each node's vector to
      its neighbours' complements.
    * lambda_2(M) >= lambda_1(M + tau y y^T), y the computed lowest
      eigenvector of M and tau >= 0 (interlacing), verified in floating
      point.

    Every term is rounded toward a smaller rho: M's and G's rounding
    against the exact Galerkin matrix of the unit vectors, and the
    coupled operator's rounding of its fiber blocks against the fibers,
    of which each entry carries a few units of roundoff.
    """
    inv = 1.0 / (lam * lam)
    n_q, fdim = len(fg.ritz), fg.dim
    E1, E0 = fg.excited, fg.floor
    sep = E1 - fg.ritz - fg.rounding
    s = np.where(sep > fg.residual,
                 fg.residual / np.where(sep > 0.0, sep, 1.0)
                 * (1.0 + 4.0 * _U), 1.0)
    mu = (E1 - s * s * (E1 - E0)
          - 8.0 * _U * (np.abs(E1) + np.abs(E0)))
    mu_min = float(mu.min())
    c = ((mu_min - e0) * inv + k_min
         - 4.0 * _U * ((abs(mu_min) + abs(e0)) * inv + abs(k_min)))
    g_err = _gamma(3 * fdim + 10)
    absK = np.abs(kernel)
    coupling = np.clip(1.0 - fg.overlap**2 + 3.0 * g_err, 0.0, 1.0)
    b = ((float(fg.residual.max()) * inv
          + math.sqrt(float(np.sum(kernel * kernel * coupling))))
         * (1.0 + _gamma(n_q * n_q + 4)))
    # lambda_2 of the exact M: a rank-one lift of the lowest eigenvector,
    # less M's and the lift's rounding
    m_err = (float((absK * (g_err + 2.0 * _U)).sum(axis=1).max())
             + (fg.rounding
                + 4.0 * _U * (float(np.abs(fg.ritz).max()) + abs(e0))) * inv
             + _U * float(np.abs(fg.matrix).sum(axis=1).max()))
    tau = 2.0 * float(evals[-1] - evals[0])
    y = U[:, 0]
    lifted = fg.matrix + tau * np.outer(y, y)
    lift_err = (_U * float(np.abs(lifted).sum(axis=1).max())
                + 2.0 * _U * tau * math.sqrt(n_q))
    lambda2 = verified_floor(lifted, dense_ground(lifted)) - m_err - lift_err
    rho, eta = split_floor(lambda2, c, b)
    # the coupled operator stores (fiber - e0) / lam^2 with its own rounding
    rho -= _gamma(8) * (fg.norm + abs(e0)) * inv
    return Enclosure(rho=rho, eta=eta, b=b, c=c, lambda2=lambda2)


def temple_floor(op, x: np.ndarray, rho: float) -> tuple:
    """(L_T, reason): Temple's floor on lambda_min(op) from the vector x.

    With rho <= lambda_2(op), a quotient theta of x below rho and the
    residual r of the unit x, lambda_min >= theta - r^2 / (rho - theta)
    (Temple 1928; Kato 1949).  theta and r come from a fresh product and
    are enclosed against rounding (:func:`~.eigensolve.rayleigh_bounds`),
    and :func:`fiber_floors` (sigma = rho) takes the floor at the low end of
    theta's enclosure, smallest there while it lies below rho - r, rounded
    down.  Without that, L_T is None and the reason says why.

    The products sum the mirror's terms too, and round the fold's sqrt(2)
    scalings of the kernel and of node 0's orbits, spread and gathered:
    eight more roundings cover those.
    """
    terms = (op.kernel.shape[0] + op.mirror.shape[0]
             + _max_row_nnz(op.matrix) + 10)
    _, lo, hi, r = rayleigh_bounds(x, op.matvec(x),
                                   op.absolute_matvec(np.abs(x)), terms)
    if not hi < rho - r:
        return None, (f"the quotient {hi:.9g} is not below rho - r = "
                      f"{rho - r:.9g}")
    return float(fiber_floors(lo, hi, r, rho)), ""


def _coarse_correction(op, rows: np.ndarray, evals: np.ndarray,
                       U: np.ndarray):
    """Davidson correction whose Z component solves (M - theta) c = Z^T r.

    Column j of Z is the vector of node row j of `rows` alone
    (:meth:`~.operators.SymmetricOperator.from_rows` of `op`), and `evals`
    and `U` are the eigenpairs of the Galerkin matrix M on those columns.
    The diagonal correction t handles the Fock excitations at each node;
    the envelope on the grid, which the kernel couples, comes from M.
    Eigenvalues of M within 1e-8 max(1, |theta|) of theta are held at that
    distance, as the diagonal correction's are.

    A wrong coarse space only slows the solve while M is built from the
    nodes' fiber energies.  Built from the vectors' own Rayleigh quotients,
    M's diagonal sits far above theta for random vectors, c stays near 0,
    the Z component of the iterate is never corrected, and the solve does
    not converge.
    """

    def correct(t, r, theta):
        zr = np.vecdot(rows, op.to_rows(r))
        zt = np.vecdot(rows, op.to_rows(t))
        denom = evals - theta
        floor = 1e-8 * max(1.0, abs(theta))
        denom = np.where(np.abs(denom) < floor, np.copysign(floor, denom),
                         denom)
        c = U @ ((U.T @ zr) / denom)
        t += op.from_rows((c - zt)[:, None] * rows)

    return correct


def _folded_coarse_space(op, nodes: FiberNodes, lam: float,
                         e0: float) -> tuple:
    """(rows, M): the fold's coarse space as node rows, and its Galerkin
    matrix from the nodes' fiber energies.

    The rows are the fiber vectors at the nodes q_j >= 0 only, node 0's
    taken to its R-even part and renormalized.  With G the rows' overlaps
    and H = Phi S Phi^T among the nodes q_j > 0,

        M = W_+' o G + (0 (+) W_- o H) + diag((E(lam q_j) - e0) / lam^2),

    the fold of the Galerkin matrix of the nodes (:func:`fiber_split`,
    with the nodes' energies in place of the recomputed quotients) when the
    vector at -P is the reflection of the one at P, as the fiber cache
    makes it.
    """
    S = op.reflection
    n_q = op.kernel.shape[0]
    rows = nodes.vectors[-n_q:].copy()
    rows[0] = 0.5 * (rows[0] + rows[0, S])
    norm = math.sqrt(float(rows[0] @ rows[0]))
    if norm > 0.0:
        rows[0] /= norm
    M, _ = _galerkin(rows, nodes.energy[-n_q:], op.kernel, lam, e0)
    H = rows[1:] @ rows[1:, S].T
    M[1:, 1:] += op.mirror * (0.5 * (H + H.T))
    return rows, M


# The premise under L1 and every L_T, as the report states it.
PREMISE = ("each fiber's Davidson pair is its two lowest levels: "
           "E0 >= theta0 - r0 and E1 >= theta1 - r1 at every node")


def coupled_ground(template: FiberTemplate, nodes: FiberNodes,
                   kernel: np.ndarray, k_min: float, egrid: ElectronGrid,
                   lam: float, e0: float) -> CoupledResult:
    """e(lam) = infspec A(lam), by a two-level Davidson solve in the even
    sector, certified.

    A(lam) is built from the fibers of `template` and the potential kernel
    on `egrid`; `k_min` is a verified floor on the kernel's lowest
    eigenvalue, which does not depend on lam, so the caller computes it
    once per kernel.  The solve runs on the fold of A(lam) onto its
    J (x) R-even sector (:func:`~.operators.assemble_coupled_llp`), half
    of A's dimension, and returns its vector in that sector, with A's full
    dimension.  The
    fiber ground states Phi(lam q_j) of `nodes`, one per grid node, span a
    coarse space Z = [e_j (x) Phi(lam q_j)] that holds most of the ground
    vector; its fold keeps the nodes q_j >= 0, node 0's vector taken to
    its R-even part (:func:`_folded_coarse_space`).  The solve starts from
    Z y0, y0 the lowest eigenvector of the folded Galerkin matrix
    M = Z^T A Z, with the nodes' fiber energies.  Each correction
    r / (diag(A) - theta) has its Z component replaced by
    Z (M - theta)^{-1} Z^T r (Nicolaides' deflation applied to Davidson's
    correction equation).  Rayleigh-Ritz still produces the value, so the
    correction can slow the solve but not change its answer.  The full
    Galerkin matrix with the vectors' own Rayleigh quotients
    (:func:`fiber_split`, every node) gives U_G, its lowest eigenvalue, an
    upper bound on e(lam); with right vectors the two agree to rounding,
    and with wrong ones the nodes' energies still model the envelope
    problem, which keeps the solve converging.

    Before the solve, the split by Z gives a floor rho on the second
    eigenvalue of A (:func:`_split_enclosure`).  Ritz values only fall
    from the start's, U_G up to rounding, so where rho > U_G a
    residual r* = (w (rho - U_G))^(1/2)
    keeps Temple's term r^2 / (rho - theta) below w, half of the target
    width _TARGET_WIDTH max(1, |U_G|): the solve stops there (never below
    _COUPLED_TOL), and :func:`temple_floor` turns the returned vector into
    L_T.  The sector's second level is no lower than A's, so rho floors
    it too, and A has one eigenvalue below rho: a sector's quotient below
    rho makes L_T a floor on e(lam) itself.  Otherwise the solve runs to
    _COUPLED_TOL and there is no L_T; `note` says why, or states the
    premise an L_T rests on.  A solve that does not converge raises
    SolverError.  The split's full M is returned with the result, for U*
    (:func:`~.trialstate.minimize_upper_bound`), and so are the nodes'
    fiber floors, for L1 (:func:`~.bounds.momentum_lower_bound`): one
    floor per node, which the enclosure reads too.

    The nodes are read only by the split and the coarse rows, before the
    solve, and the start vector is built when the solve copies it into its
    space.  A caller that passes `nodes` without keeping them, as the
    static stage does, thus holds no fiber vector stack through the
    Davidson run.
    """
    fg = fiber_split(template, nodes, kernel, lam, e0)
    op = assemble_coupled_llp(template, kernel, egrid, lam, e0)
    rows, M_even = _folded_coarse_space(op, nodes, lam, e0)
    del nodes
    evals, U = np.linalg.eigh(fg.matrix)
    upper = float(evals[0])
    enclosure = _split_enclosure(fg, kernel, k_min, lam, e0, evals, U)
    scale = max(1.0, abs(upper))
    r_star = None
    if enclosure.rho > upper:
        r_star = math.sqrt(0.5 * _TARGET_WIDTH * scale
                           * (enclosure.rho - upper))
    evals, U = np.linalg.eigh(M_even)
    correct = _coarse_correction(op, rows, evals, U)
    tol = _COUPLED_TOL if r_star is None else max(_COUPLED_TOL, r_star / scale)
    res = davidson_ground(op, tol=tol,
                          start=lambda: op.from_rows(U[:, 0, None] * rows),
                          correction=correct)
    if r_star is None:
        temple, note = None, (f"the split's floor {enclosure.rho:.9g} on the "
                              f"second level is not above U_G = {upper:.9g}")
    else:
        temple, note = temple_floor(op, res.vector, enclosure.rho)
        note = note or PREMISE
    return CoupledResult(value=res.value, residual=res.residual,
                         iterations=res.iterations, matvecs=res.matvecs,
                         vector=res.vector, dim=op.dim,
                         full_dim=egrid.size * template.dim,
                         floors=fg.floor,
                         galerkin=fg.matrix,
                         upper=upper, enclosure=enclosure, r_star=r_star,
                         temple=temple, note=note)


@dataclass
class StaticMassResult:
    lambdas: np.ndarray
    e_values: np.ndarray
    e0: float
    e0_err: float
    coeffs: np.ndarray
    fit_rms: float
    drop_shift: float
    mass: float
    mass_err: float
    rejected: bool
    reason: str


def _fit_quadratic_in_lambda(lams: np.ndarray, evals: np.ndarray):
    X = np.column_stack([np.ones_like(lams), lams, lams * lams])
    coef, _, _, _ = np.linalg.lstsq(X, evals, rcond=None)
    resid = evals - X @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    dof = len(lams) - 3
    if dof > 0:
        sigma2 = float(resid @ resid) / dof
        cov00 = sigma2 * np.linalg.inv(X.T @ X)[0, 0]
        e0_sigma = math.sqrt(max(cov00, 0.0))
    else:
        e0_sigma = 0.0
    return coef, rms, e0_sigma


def extrapolate_static_mass(lambdas, e_values, kernel: np.ndarray,
                            egrid: ElectronGrid) -> StaticMassResult:
    """Extrapolate e(lam) to lam = 0 and invert the comparison curve.

    Fit model e(lam) = e0 + c1 lam + c2 lam^2.  Reversing the grid maps
    A(-lam) onto A(lam), so e(lam) is even and its exact c1 is 0; the
    fitted c1 absorbs the lam^4 and higher terms, and so biases e0.  The
    e0 uncertainty is the larger of the fit's standard error and the shift
    from refitting without the largest lam.  The mass uncertainty is
    e0_err / |dE/dm|, dE/dm = -a^T D a / m^2 by Hellmann-Feynman with a
    the unit ground vector at m (:func:`~.trialstate.envelope`).  A fit
    with rms residual above _FIT_RMS_TOL is marked rejected (data still
    returned); the inversion uses `kernel`, the potential's kernel on the
    coupled solves' grid.
    """
    lams = np.asarray(lambdas, dtype=float)
    evals = np.asarray(e_values, dtype=float)
    if lams.shape != evals.shape or lams.ndim != 1:
        raise AnalysisError("lambda and energy arrays must align")
    if len(lams) < 4:
        raise AnalysisError("need at least 4 lambda values to extrapolate")
    if np.any(lams <= 0) or len(np.unique(lams)) != len(lams):
        raise AnalysisError("lambda values must be positive and distinct")
    order = np.argsort(lams)[::-1]
    lams, evals = lams[order], evals[order]

    coef, rms, e0_sigma = _fit_quadratic_in_lambda(lams, evals)
    coef_drop, _, _ = _fit_quadratic_in_lambda(lams[1:], evals[1:])
    drop_shift = abs(float(coef[0] - coef_drop[0]))
    e0 = float(coef[0])
    e0_err = max(e0_sigma, drop_shift)

    rejected = rms > _FIT_RMS_TOL
    reason = (f"fit rms {rms:.3e} exceeds tolerance {_FIT_RMS_TOL:g}"
              if rejected else "")

    mass = math.nan
    mass_err = math.nan
    try:
        mass = invert_E(e0, kernel, egrid)
        a = envelope(kernel, egrid, mass)
        slope = -float(a * a @ egrid.kinetic_diagonal(1.0)) / (mass * mass)
        mass_err = e0_err / abs(slope)
    except (BracketError, NoBoundStateError, AnalysisError) as exc:
        if not rejected:
            rejected = True
            reason = f"mass inversion failed: {exc}"

    return StaticMassResult(lambdas=lams, e_values=evals, e0=e0, e0_err=e0_err,
                            coeffs=np.asarray(coef), fit_rms=rms,
                            drop_shift=drop_shift, mass=mass, mass_err=mass_err,
                            rejected=rejected, reason=reason)

