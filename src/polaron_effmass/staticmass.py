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
  a coarse solve with the Galerkin matrix of :func:`fiber_galerkin`.  It
  reads the lam's fiber nodes and the potential kernel as the caller
  fetched them, once, for the solve and both bounds at that lam.
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
from .eigensolve import davidson_ground, dense_ground
from .errors import AnalysisError, BracketError, NoBoundStateError
from .operators import (ElectronGrid, FiberTemplate, assemble_coupled_llp,
                        assemble_schrodinger)

__all__ = [
    "CoupledResult",
    "StaticMassResult",
    "DEFAULT_LAMBDA_SEQ",
    "schrodinger_energy",
    "invert_E",
    "coupled_ground",
    "fiber_galerkin",
    "extrapolate_static_mass",
]

DEFAULT_LAMBDA_SEQ = (0.4, 0.28, 0.2, 0.14, 0.1)

# Largest rms residual of the quadratic fit in lam that is not rejected.
_FIT_RMS_TOL = 1e-3
# Largest mass to which invert_E expands its bracket.
_MAX_HI = 1024.0
# Residual tolerance of the coupled Davidson solve.
_COUPLED_TOL = 1e-9


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
class CoupledResult:
    value: float
    residual: float
    iterations: int
    matvecs: int
    vector: np.ndarray
    galerkin: np.ndarray   # the fiber-Galerkin matrix M the solve used


def fiber_galerkin(nodes: FiberNodes, kernel: np.ndarray, lam: float,
                   e0: float) -> np.ndarray:
    """M = Z^T A(lam) Z on the fiber ground states Phi_j = Phi(lam q_j).

    `nodes` holds the fibers at the grid nodes lam q_j.  Row j of
    Phi = nodes.vectors is a unit vector, so the columns
    Z = [e_j (x) Phi_j] are orthonormal, and

        M = diag((E(lam q_j) - e0) / lam^2) + kernel o (Phi Phi^T)

    is A(lam) projected onto them, with each fiber's Rayleigh quotient
    taken as its Ritz value.
    """
    phi = nodes.vectors
    M = kernel * (phi @ phi.T)
    M[np.diag_indices_from(M)] += (nodes.energy - e0) / (lam * lam)
    return M


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


def coupled_ground(template: FiberTemplate, nodes: FiberNodes,
                   kernel: np.ndarray, egrid: ElectronGrid, lam: float,
                   e0: float, *, seed: int = 0) -> CoupledResult:
    """e(lam) = infspec A(lam), by a two-level Davidson solve.

    A(lam) is built from the fibers of `template` and the potential kernel
    on `egrid`.  The fiber ground states Phi(lam q_j) of `nodes`, one per
    grid node, span a coarse space Z = [e_j (x) Phi(lam q_j)] that holds
    most of the ground vector.  The solve starts from Z y0, y0 the lowest
    eigenvector of the Galerkin matrix M = Z^T A Z (:func:`fiber_galerkin`).
    Each correction r / (diag(A) - theta) has its Z component replaced by
    Z (M - theta)^{-1} Z^T r (Nicolaides' deflation applied to Davidson's
    correction equation).  Rayleigh-Ritz still produces the
    value, so the correction can slow the solve but not change its answer.
    A solve that does not converge raises SolverError.  M is returned with
    the result, for U* (:func:`~.trialstate.minimize_upper_bound`).
    """
    op = assemble_coupled_llp(template, kernel, egrid, lam, e0)
    M = fiber_galerkin(nodes, kernel, lam, e0)
    evals, U = np.linalg.eigh(M)
    correct = _coarse_correction(nodes.vectors, evals, U)
    start = (U[:, 0, None] * nodes.vectors).ravel()
    res = davidson_ground(op, tol=_COUPLED_TOL, seed=seed, v0=start,
                          correction=correct)
    return CoupledResult(value=res.value, residual=res.residual,
                         iterations=res.iterations, matvecs=res.matvecs,
                         vector=res.vector, galerkin=M)


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

