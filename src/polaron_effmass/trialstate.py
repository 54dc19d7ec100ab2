"""Variational upper bound U* on e(lam): the dressed trial state's energy.

The trial vector for the coupled operator A(lam) places, at each electron
momentum node q_j, the fiber ground state Phi(lam q_j), weighted by the bump
profile :func:`bump`, fhat(q) ~ (1 - (q/R)^2)^2 on |q| < R, normalized in
closed form.  It is Z a, with a_j = fhat(q_j) (exactly 0 off the support)
and Z = [e_j (x) Phi_j] the coarse space of the coupled solve, so its
Rayleigh quotient is

    U = a^T M a / a^T a,
    M = Z^T A(lam) Z = diag((E(lam q_j) - e0) / lam^2) + W o (Phi Phi^T),

with M the fiber-Galerkin matrix of :func:`~.staticmass.fiber_galerkin`;
there is no separate family of ground states.  U is the Rayleigh quotient
of an explicit vector and hence an upper bound on e(lam) up to solver and
rounding error.  :func:`minimize_upper_bound` takes the M of the coupled
solve at lam, with the fiber nodes it was built from for the degeneracy
check, and tunes the radius R, keeping lam R inside the quasi-parabolic
window, by a golden-section search to within 1e-3.  Every candidate radius
is scored by :func:`upper_bound`, so whichever radius the search returns,
U* is the Rayleigh quotient of an explicit vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import GAP_THRESHOLD, FiberNodes
from .errors import AnalysisError, ConfigError, DomainError
from .operators import ElectronGrid

__all__ = ["MinimizedUpperBound", "bump", "upper_bound",
           "minimize_upper_bound"]


def bump(q, radius: float):
    """fhat(q) = c (1 - (q/R)^2)^2 on |q| < R, 0 elsewhere, R = `radius`.

    The integral of (1-u^2)^4 over [-1, 1] is 256/315, so c =
    (315 / (256 R))^(1/2) gives ||fhat||_2 = 1 in closed form.
    """
    c = (315.0 / (256.0 * radius)) ** 0.5
    u2 = (np.asarray(q, float) / radius) ** 2
    return c * np.where(u2 < 1.0, (1.0 - u2) ** 2, 0.0)


def upper_bound(lam: float, galerkin: np.ndarray, radius: float,
                egrid: ElectronGrid) -> float:
    """Rayleigh quotient a^T M a / a^T a of the bump-profiled trial vector.

    `galerkin` is the fiber-Galerkin matrix M of `lam` on `egrid`, and
    a_j = bump(q_j, radius) at every grid node.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    a = bump(egrid.points, radius)
    return float(a @ galerkin @ a) / float(a @ a)


@dataclass(frozen=True)
class MinimizedUpperBound:
    value: float
    radius: float
    boundary_hit: bool


# Interval shrink factor of the golden-section search, 1 / golden ratio.
_INV_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
# Absolute tolerance of the support-radius search.
_XATOL = 1e-3


def _golden_section(func, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of func on [lo, hi] by golden-section search.

    Each step drops the part of the bracket beyond the worse of its two
    interior points and evaluates one new point.  For unimodal func the
    minimizer stays in the bracket, so the better interior point returned
    once the bracket is narrower than xatol lies within xatol of it.
    """
    a, b = lo, hi
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = func(d)
    return c if fc <= fd else d


def minimize_upper_bound(lam: float, nodes: FiberNodes, M: np.ndarray,
                         egrid: ElectronGrid, *,
                         p_c: float) -> MinimizedUpperBound:
    """Tune the bump profile's support radius to the smallest upper bound.

    `M` is the fiber-Galerkin matrix of `lam` on `egrid`
    (:func:`~.staticmass.fiber_galerkin`, as the coupled solve returns it),
    and `nodes` holds the fibers it was built from.  The radius ranges over
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
    bad = (np.abs(egrid.points) < r_hi) & (nodes.degenerate
                                           | (nodes.gap <= GAP_THRESHOLD))
    if np.any(bad):
        j = np.argmax(bad)
        raise AnalysisError(
            f"ground state at P = {nodes.P[j]:.6g} is (near-)degenerate "
            f"(gap {nodes.gap[j]:.3e} <= threshold {GAP_THRESHOLD:g})"
        )

    radius = _golden_section(lambda r: upper_bound(lam, M, r, egrid),
                             r_lo, r_hi, _XATOL)
    boundary = (radius - r_lo <= 2 * _XATOL) or (r_hi - radius <= 2 * _XATOL)
    return MinimizedUpperBound(value=upper_bound(lam, M, radius, egrid),
                               radius=radius, boundary_hit=boundary)
