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
* :func:`invert_E`: bisection inverse of the strictly decreasing comparison
  curve, with on-the-fly monotonicity validation and bracket expansion.
* :func:`coupled_ground`: e(lam) through a two-level Davidson solve (the
  coupled operators' diagonal spread rules out plain Lanczos): it starts
  from the fiber-Galerkin vector and corrects the envelope on the grid by
  a coarse solve with the fibers' Galerkin matrix.  It reads the lam's
  fiber nodes and the potential kernel as the caller fetched them, once,
  for the solve and both bounds at that lam.  It also certifies e(lam):
  the split of the coupled space by the fiber states
  (:func:`fiber_split`, recomputed from the vectors) gives an upper
  bound U_G = lambda_min(M) and a floor rho on the second eigenvalue, and
  where rho > U_G the solve stops at the residual that Temple's inequality
  needs for a width of 1e-9 (:func:`temple_floor`, L_T <= e <= theta),
  about half the iterations of the fixed 1e-9 residual.  The enclosure
  takes each fiber's Davidson pair as its two lowest levels, as L1 does.
* :func:`extrapolate_static_mass`: fits e(lam) = e0 + c1 lam + c2 lam^2
  (e(lam) is even, so the leading correction is O(lam^2)), propagates the
  fit uncertainty and a drop-the-largest-lam refit shift into e0 and the
  mass, and inverts on the same grid.
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
    "fiber_galerkin",
    "fiber_split",
    "split_floor",
    "temple_floor",
    "extrapolate_static_mass",
]

DEFAULT_LAMBDA_SEQ = (0.4, 0.28, 0.2, 0.14, 0.1)

# Largest rms residual of the quadratic fit in lam that is not rejected.
_FIT_RMS_TOL = 1e-3
# Largest mass to which invert_E expands its bracket.
_MAX_HI = 1024.0
# Residual tolerance of the coupled Davidson solve where no L_T is possible.
_COUPLED_TOL = 1e-9
# Width e - L_T, relative to max(1, |U_G|), that the coupled solve's
# stopping residual aims for where the fiber split certifies a gap.
_TARGET_WIDTH = 1e-9


def schrodinger_energy(mass: float, potential, egrid: ElectronGrid) -> float:
    """Ground energy of the one-particle comparison operator on `egrid`.

    The dense route caps the grid at 2000 points (DomainError beyond).  A
    nonnegative result means the potential has no bound state at this mass
    and raises NoBoundStateError.
    """
    value = dense_ground(assemble_schrodinger(potential, egrid, mass))
    if value >= 0.0:
        raise NoBoundStateError(
            f"no bound state at mass {mass:g} (ground energy {value:.3e} >= 0)"
        )
    return float(value)


def invert_E(target: float, potential, egrid: ElectronGrid) -> float:
    """Mass m with E(m) = target, by bisection on the decreasing curve.

    The bracket [1/2, 4] is bisected to a relative width of 1e-6; its upper
    end first expands geometrically, up to _MAX_HI, until it straddles the
    target.  Every evaluation is checked against monotonicity; a violation
    (a grid artifact) is a hard error.  A target within 1e-7 of E(1/2)
    returns exactly the endpoint mass (the free-particle edge case).
    """
    lo, hi = 0.5, 4.0
    e_lo = schrodinger_energy(lo, potential, egrid)
    if abs(target - e_lo) <= 1e-7:
        return lo
    if target > e_lo:
        raise BracketError(
            f"target energy {target:.6g} is above E({lo:g}) = {e_lo:.6g}; "
            "would need a mass below 1/2"
        )
    e_hi = schrodinger_energy(hi, potential, egrid)
    while target < e_hi:
        hi *= 2.0
        if hi > _MAX_HI:
            raise BracketError(
                f"target energy {target:.6g} below E({_MAX_HI:g}); bracket "
                "expansion exhausted"
            )
        e_hi = schrodinger_energy(hi, potential, egrid)
    slack = 1e-12 * max(1.0, abs(e_lo), abs(e_hi))
    while (hi - lo) > 1e-6 * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        e_mid = schrodinger_energy(mid, potential, egrid)
        if not (e_hi - slack <= e_mid <= e_lo + slack):
            raise AnalysisError(
                f"comparison curve non-monotone at m = {mid:g} "
                f"(E = {e_mid:.9g} outside [{e_hi:.9g}, {e_lo:.9g}])"
            )
        if e_mid > target:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid
    return 0.5 * (lo + hi)


@dataclass
class FiberSplit:
    """The fiber split Z = [e_j (x) Phi_j] of one lam, recomputed.

    `vectors` are the supplied Phi_j, normalized; `ritz` each one's
    computed Rayleigh quotient under its fiber, within `rounding` of the
    exact one, and `residual` a bound on its residual; `norm` bounds every
    fiber's largest absolute row sum.  `overlap` is G = Phi Phi^T and
    `matrix` the Galerkin matrix M = K o G + diag((ritz - e0) / lam^2).
    """

    matrix: np.ndarray
    overlap: np.ndarray
    vectors: np.ndarray
    ritz: np.ndarray
    residual: np.ndarray
    rounding: float
    norm: float


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
    vector: np.ndarray
    galerkin: np.ndarray   # the fiber-Galerkin matrix M the solve used
    upper: float           # U_G, lambda_min of the recomputed M
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


def fiber_galerkin(nodes: FiberNodes, kernel: np.ndarray, lam: float,
                   e0: float) -> np.ndarray:
    """M = Z^T A(lam) Z on the fiber ground states Phi_j = Phi(lam q_j).

    `nodes` holds the fibers at the grid nodes lam q_j.  Row j of
    Phi = nodes.vectors is a unit vector, so the columns
    Z = [e_j (x) Phi_j] are orthonormal, and

        M = diag((E(lam q_j) - e0) / lam^2) + kernel o (Phi Phi^T)

    is A(lam) projected onto them, with each fiber's Ritz value taken as
    its Rayleigh quotient.  :func:`fiber_split` recomputes the quotients.
    """
    return _galerkin(nodes.vectors, nodes.energy, kernel, lam, e0)[0]


def fiber_split(template: FiberTemplate, nodes: FiberNodes,
                kernel: np.ndarray, lam: float, e0: float) -> FiberSplit:
    """The Galerkin matrix of the supplied fiber vectors, recomputed.

    As :func:`fiber_galerkin`, but with the vectors normalized and theta_j,
    the Rayleigh quotient of Phi_j under the fiber of `template` at lam q_j,
    in place of the nodes' energies.  The quotients and the residuals come
    from one block product of the vectors, not from the energies and
    residuals `nodes` carries, so M is the Galerkin matrix of the vectors
    supplied, whatever they are.

    Rounding: with N the largest absolute row sum of the fibers, the
    product, the dot products (any order) and the normalization each move
    a quotient or a residual by at most a gamma_k multiple of N, and
    gamma_{3F + w + 13} N covers them all (F the fiber dimension, w the
    largest row count of the product; Higham, Accuracy and Stability,
    ch. 3).  The enclosure needs no more: it sits far from where this
    moves L_T.
    """
    phi = nodes.vectors / np.sqrt(np.vecdot(nodes.vectors,
                                            nodes.vectors))[:, None]
    batch = template.operator(nodes.P)
    Y = batch.apply(np.arange(len(phi)), phi)
    ritz = np.vecdot(phi, Y)
    fdim = phi.shape[1]
    norm = (float(np.abs(batch.diag).max())
            + float(abs(batch.interaction).sum(axis=1).max()))
    rounding = _gamma(3 * fdim + _max_row_nnz(batch.interaction) + 13) * norm
    Y -= ritz[:, None] * phi
    residual = (np.sqrt(np.vecdot(Y, Y)) * (1.0 + _gamma(2 * fdim + 8))
                + rounding)
    M, G = _galerkin(phi, ritz, kernel, lam, e0)
    return FiberSplit(matrix=M, overlap=G, vectors=phi, ritz=ritz,
                      residual=residual, rounding=rounding, norm=norm)


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


def _split_enclosure(nodes: FiberNodes, fg: FiberSplit,
                     kernel: np.ndarray, lam: float, e0: float,
                     evals: np.ndarray, U: np.ndarray) -> Enclosure:
    """A floor rho on lambda_2(A(lam)) from the fiber split P = Z Z^T.

    A >= (M - eta) (+) (c - b^2 / eta) on range(P) (+) range(Q) for every
    eta > 0, so lambda_2(A) >= min(lambda_2(M) - eta, c - b^2 / eta):

    * Q A Q >= c = min_j (mu_j - e0) / lam^2 + lambda_min(K), where mu_j
      floors the fiber at lam q_j on Phi_j's complement.  If Phi_j makes
      the angle s_j with the ground state, mu_j >= E1_j - s_j^2 (E1_j -
      E0_j), and s_j <= r_j / (E1_j - theta_j) (Davis & Kahan).  The floors
      E0_j >= theta_0 - r_0 and E1_j >= theta_1 - r_1 take the nodes'
      Davidson pair as the fiber's two lowest levels (the premise L1 rests
      on too); E0_j also stays below the supplied vector's own floor.
    * ||P A Q|| <= b = max_j r_j / lam^2 + (sum K^2 (1 - G^2))^(1/2): the
      fiber residuals, and the kernel's coupling of each node's vector to
      its neighbours' complements.
    * lambda_2(M) >= lambda_1(M + tau y y^T), y the computed lowest
      eigenvector of M and tau >= 0 (interlacing), verified in floating
      point; so is lambda_min(K).

    Every term is rounded toward a smaller rho: M's and G's rounding
    against the exact Galerkin matrix of the unit vectors, and the
    coupled operator's rounding of its fiber blocks against the fibers,
    of which each entry carries a few units of roundoff.
    """
    inv = 1.0 / (lam * lam)
    n_q, fdim = fg.vectors.shape
    theta1 = nodes.energy + nodes.gap
    E1 = theta1 - nodes.excited_residual - 4.0 * _U * np.abs(theta1)
    E0 = (np.minimum(fg.ritz - fg.rounding - fg.residual,
                     nodes.energy - nodes.residual)
          - 4.0 * _U * np.abs(nodes.energy))
    sep = E1 - fg.ritz
    s = np.where(sep > fg.residual,
                 fg.residual / np.where(sep > 0.0, sep, 1.0)
                 * (1.0 + 4.0 * _U), 1.0)
    mu = (E1 - s * s * (E1 - E0)
          - 8.0 * _U * (np.abs(E1) + np.abs(E0)))
    mu_min = float(mu.min())
    k_min = verified_floor(kernel, dense_ground(kernel))
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


def _absolute_apply(op, x: np.ndarray) -> np.ndarray:
    """|op| x for a coupled operator: each factor taken entrywise absolute."""
    X = x.reshape(op.kernel.shape[0], -1)
    Y = np.abs(op.kernel) @ X
    Y += (abs(op.matrix) @ X.T).T
    return Y.ravel() + np.abs(op.diag) * x


def temple_floor(op, x: np.ndarray, rho: float) -> tuple:
    """(L_T, reason): Temple's floor on lambda_min(op) from the vector x.

    With rho <= lambda_2(op), a quotient theta of x below rho and the
    residual r of the unit x, lambda_min >= theta - r^2 / (rho - theta)
    (Temple 1928; Kato 1949).  theta and r come from a fresh product and
    are enclosed against rounding (:func:`~.eigensolve.rayleigh_bounds`);
    the floor is taken at the low end of theta's enclosure, where it is
    smallest as long as that enclosure lies below rho - r, and rounded
    down.  Without that, L_T is None and the reason says why.
    """
    terms = op.kernel.shape[0] + _max_row_nnz(op.matrix) + 2
    _, lo, hi, r = rayleigh_bounds(x, op.matvec(x),
                                   _absolute_apply(op, np.abs(x)), terms)
    if not hi < rho - r:
        return None, (f"the quotient {hi:.9g} is not below rho - r = "
                      f"{rho - r:.9g}")
    floor = lo - r * r / (rho - lo) * (1.0 + 4.0 * _U)
    return float(np.nextafter(floor - 2.0 * _U * abs(floor), -np.inf)), ""


def _coarse_correction(phi: np.ndarray, evals: np.ndarray, U: np.ndarray):
    """Davidson correction whose Z component solves (M - theta) c = Z^T r.

    `evals` and `U` are the eigenpairs of the Galerkin matrix M.  The
    diagonal correction t handles the Fock excitations at each node; the
    envelope on the grid, which the kernel couples, comes from M.
    Eigenvalues of M within 1e-8 max(1, |theta|) of theta are held at that
    distance, as the diagonal correction's are.
    """
    n_q, fdim = phi.shape

    def correct(t, r, theta):
        T = t.reshape(n_q, fdim)
        zr = np.einsum("jf,jf->j", phi, r.reshape(n_q, fdim))
        zt = np.einsum("jf,jf->j", phi, T)
        denom = evals - theta
        floor = 1e-8 * max(1.0, abs(theta))
        denom = np.where(np.abs(denom) < floor, np.copysign(floor, denom),
                         denom)
        c = U @ ((U.T @ zr) / denom)
        T += (c - zt)[:, None] * phi

    return correct


# The premise under every L_T, as the report states it.
PREMISE = ("each fiber's Davidson pair is its two lowest levels: "
           "E0 >= theta0 - r0 and E1 >= theta1 - r1 at every node")


def coupled_ground(template: FiberTemplate, nodes: FiberNodes,
                   kernel: np.ndarray, egrid: ElectronGrid, lam: float,
                   e0: float, *, seed: int = 0) -> CoupledResult:
    """e(lam) = infspec A(lam), by a two-level Davidson solve, certified.

    A(lam) is built from the fibers of `template` and the potential kernel
    on `egrid`.  The fiber ground states Phi(lam q_j) of `nodes`, one per
    grid node, span a coarse space Z = [e_j (x) Phi(lam q_j)] that holds
    most of the ground vector.  The solve starts from Z y0, y0 the lowest
    eigenvector of the Galerkin matrix M = Z^T A Z (:func:`fiber_galerkin`,
    with the nodes' fiber energies).  Each correction r / (diag(A) - theta)
    has its Z component replaced by Z (M - theta)^{-1} Z^T r (Nicolaides'
    deflation applied to Davidson's correction equation).  Rayleigh-Ritz
    still produces the value, so the correction can slow the solve but not
    change its answer.  The same M with the vectors' own Rayleigh
    quotients (:func:`fiber_split`) gives U_G, its lowest eigenvalue, an
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
    L_T.  Otherwise the solve runs to _COUPLED_TOL and there is no L_T;
    `note` says why, or states the premise an L_T rests on.  A solve that
    does not converge raises SolverError.  M is returned with the result,
    for U* (:func:`~.trialstate.minimize_upper_bound`).
    """
    op = assemble_coupled_llp(template, kernel, egrid, lam, e0)
    fg = fiber_split(template, nodes, kernel, lam, e0)
    evals, U = np.linalg.eigh(fg.matrix)
    upper = float(evals[0])
    enclosure = _split_enclosure(nodes, fg, kernel, lam, e0, evals, U)
    scale = max(1.0, abs(upper))
    r_star = None
    if enclosure.rho > upper:
        r_star = math.sqrt(0.5 * _TARGET_WIDTH * scale
                           * (enclosure.rho - upper))
    M = fiber_galerkin(nodes, kernel, lam, e0)
    evals, U = np.linalg.eigh(M)
    correct = _coarse_correction(nodes.vectors, evals, U)
    start = (U[:, 0, None] * nodes.vectors).ravel()
    tol = _COUPLED_TOL if r_star is None else max(_COUPLED_TOL, r_star / scale)
    res = davidson_ground(op, tol=tol, seed=seed, v0=start,
                          correction=correct)
    if r_star is None:
        temple, note = None, (f"the split's floor {enclosure.rho:.9g} on the "
                              f"second level is not above U_G = {upper:.9g}")
    else:
        temple, note = temple_floor(op, res.vector, enclosure.rho)
        note = note or PREMISE
    return CoupledResult(value=res.value, residual=res.residual,
                         iterations=res.iterations, matvecs=res.matvecs,
                         vector=res.vector, galerkin=M, upper=upper,
                         enclosure=enclosure, r_star=r_star, temple=temple,
                         note=note)


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


def extrapolate_static_mass(lambdas, e_values, potential, egrid: ElectronGrid
                            ) -> StaticMassResult:
    """Extrapolate e(lam) to lam = 0 and invert the comparison curve.

    Fit model e(lam) = e0 + c1 lam + c2 lam^2.  Reversing the grid maps
    A(-lam) onto A(lam), so e(lam) is even and its exact c1 is 0; the
    fitted c1 absorbs the lam^4 and higher terms, and so biases e0.  The
    e0 uncertainty is the larger of the fit's standard error and the shift
    from refitting without the largest lam.  The mass uncertainty
    propagates e0_err through the numerically differentiated
    comparison-curve slope.  A fit with rms residual above _FIT_RMS_TOL is
    marked rejected (data still returned); the inversion uses the same grid
    as the coupled solves.
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
        mass = invert_E(e0, potential, egrid)
        h = max(1e-3 * mass, 1e-4)
        if mass - h >= 0.5:
            e_plus = schrodinger_energy(mass + h, potential, egrid)
            e_minus = schrodinger_energy(mass - h, potential, egrid)
            slope = (e_plus - e_minus) / (2.0 * h)
        else:
            e_plus = schrodinger_energy(mass + h, potential, egrid)
            e_here = schrodinger_energy(mass, potential, egrid)
            slope = (e_plus - e_here) / h
        mass_err = e0_err / abs(slope) if slope != 0.0 else math.inf
    except (BracketError, NoBoundStateError, AnalysisError) as exc:
        if not rejected:
            rejected = True
            reason = f"mass inversion failed: {exc}"

    return StaticMassResult(lambdas=lams, e_values=evals, e0=e0, e0_err=e0_err,
                            coeffs=np.asarray(coef), fit_rms=rms,
                            drop_shift=drop_shift, mass=mass, mass_err=mass_err,
                            rejected=rejected, reason=reason)

