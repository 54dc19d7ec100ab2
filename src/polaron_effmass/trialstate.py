"""Variational upper bound U* on e(lam): the dressed trial state's energy.

The trial vector for the coupled operator A(lam) places, at each electron
momentum node q_j, the fiber ground state Phi(lam q_j), weighted by the bump
profile fhat ~ (1 - (q/R)^2)^2 of :class:`~.model.FourierBump`.  It is Z a,
with a_j = fhat(q_j) (exactly 0 off the support) and Z = [e_j (x) Phi_j]
the coarse space of the coupled solve, so its Rayleigh quotient is

    U = a^T M a / a^T a,
    M = Z^T A(lam) Z = diag((E(lam q_j) - e0) / lam^2) + W o (Phi Phi^T),

with M the fiber-Galerkin matrix of :func:`~.staticmass.fiber_galerkin`;
there is no separate family of ground states.  U is the Rayleigh quotient
of an explicit vector and hence an upper bound on e(lam) up to solver and
rounding error.  :func:`minimize_upper_bound` takes the M of the coupled
solve at lam and tunes the radius R, keeping lam R inside the
quasi-parabolic window, by an in-house port of the bounded Brent search of
scipy.optimize.minimize_scalar(method="bounded") (Forsythe, Malcolm &
Moler's fmin): it takes the same steps in the same floating-point order, so
it returns the same radius bit for bit without importing scipy.optimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import GAP_THRESHOLD, FiberCache
from .errors import AnalysisError, ConfigError, DomainError
from .model import FourierBump
from .operators import ElectronGrid

__all__ = ["UpperBoundResult", "MinimizedUpperBound", "upper_bound",
           "minimize_upper_bound"]


@dataclass(frozen=True)
class UpperBoundResult:
    lam: float
    value: float
    profile_params: dict


def upper_bound(lam: float, galerkin: np.ndarray, profile,
                egrid: ElectronGrid) -> UpperBoundResult:
    """Rayleigh quotient a^T M a / a^T a of the profiled trial vector.

    `galerkin` is the fiber-Galerkin matrix M of `lam` on `egrid`, and
    a_j = fhat(q_j) at every grid node.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    a = np.asarray(profile.fhat(egrid.points), dtype=float)
    value = float(a @ galerkin @ a) / float(a @ a)
    return UpperBoundResult(lam=lam, value=value,
                            profile_params=dict(profile.params()))


@dataclass(frozen=True)
class MinimizedUpperBound:
    result: UpperBoundResult
    radius: float
    boundary_hit: bool


# Square root of the unit roundoff, the golden section ratio, and the budget
# of function evaluations of the bounded Brent search (scipy's constants).
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALUATIONS = 500
# Absolute tolerance of the support-radius search.
_XATOL = 1e-3


def _bounded_brent(func, lo: float, hi: float, xatol: float):
    """Minimize func on [lo, hi] by Brent's golden-section/parabolic search.

    A line-for-line port of scipy.optimize's _minimize_scalar_bounded (as
    of scipy 1.17): returns (x, func(x), evaluations) with the same values
    bit for bit.  Stops when the bracket is within about xatol of the best
    point, or after _MAX_EVALUATIONS evaluations.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # try a parabolic step through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALUATIONS:
            break
    return xf, fx, num


def minimize_upper_bound(lam: float, cache: FiberCache, M: np.ndarray,
                         egrid: ElectronGrid, *,
                         p_c: float) -> MinimizedUpperBound:
    """Tune the bump profile's support radius to the smallest upper bound.

    `M` is the fiber-Galerkin matrix of `lam` on `egrid`
    (:func:`~.staticmass.fiber_galerkin`, as the coupled solve returns it),
    and `cache` holds the fibers it was built from.  The radius ranges over
    [3 dq, min(p_c/lam, q_max)] (the upper cap keeps every dressed node
    strictly inside the quasi-particle window), and every node of that
    range must have a non-degenerate fiber ground state.  All candidate
    radii share M.  Whatever radius the search returns, the
    value is a bound; `boundary_hit` flags a minimum pinned at either end.
    """
    r_hi = min(p_c / lam * (1.0 - 1e-9), egrid.q_max)
    r_lo = 3.0 * egrid.dq
    if not r_lo < r_hi:
        raise ConfigError(
            f"empty radius range [{r_lo:g}, {r_hi:g}]; the quasi-particle "
            "window is too narrow for this lam and grid"
        )
    q = egrid.points
    for p in lam * q[np.abs(q) < r_hi]:
        rec = cache.pair(float(p))
        if rec["degenerate"] or rec["gap"] <= GAP_THRESHOLD:
            raise AnalysisError(
                f"ground state at P = {p:.6g} is (near-)degenerate "
                f"(gap {rec['gap']:.3e} <= threshold {GAP_THRESHOLD:g})"
            )

    def objective(r: float) -> float:
        return upper_bound(lam, M, FourierBump(radius=float(r)), egrid).value

    radius, _, _ = _bounded_brent(objective, r_lo, r_hi, _XATOL)
    best = upper_bound(lam, M, FourierBump(radius=radius), egrid)
    boundary = (radius - r_lo <= 2 * _XATOL) or (r_hi - radius <= 2 * _XATOL)
    return MinimizedUpperBound(result=best, radius=radius,
                               boundary_hit=boundary)
