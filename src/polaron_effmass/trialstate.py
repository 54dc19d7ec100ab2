"""Variational upper bounds on e(lam) from dressed ground-state families.

A trial vector for the coupled scaling-limit operator A(lam) is built by
placing, at each electron momentum node q_j, the fiber ground state at
total momentum lam * q_j, weighted by a smooth compactly supported profile
fhat:

    psi[j, :] = fhat(q_j) * sqrt(dq) * Phi(lam * q_j).

Its Rayleigh quotient is computable from scalars alone -- the fiber ground
energies eps_j, the potential kernel W and the Gram matrix
G[j, j'] = <Phi(lam q_j), Phi(lam q_j')>:

    U = [ sum_j a_j^2 (eps_j - e0)/lam^2 + a^T (W * G) a ] / sum_j a_j^2 ,

with a_j = fhat(q_j) sqrt(dq).  Every support node lam * q_j must be a
solved family momentum, so U is the exact Rayleigh quotient of an explicit
vector and hence a certified upper bound on e(lam) up to solver and
rounding error.

The profile is the bump fhat ~ (1 - (q/R)^2)^2 of
:class:`~.model.FourierBump`, scaled so its support lam * R stays inside the
quasi-parabolic window; :func:`minimize_upper_bound` tunes the support
radius by bounded scalar minimization, reusing one ground-state family
for every candidate radius.  The minimizer is an in-house port of the
bounded Brent search of scipy.optimize.minimize_scalar(method="bounded")
(Forsythe, Malcolm & Moler's fmin): it takes the same steps in the same
floating-point order, so it returns the same radius bit for bit without
importing scipy.optimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import GAP_THRESHOLD_DEFAULT, FiberCache
from .errors import AnalysisError, ConfigError, DomainError
from .model import FourierBump
from .operators import ElectronGrid, potential_kernel

__all__ = [
    "GroundStateFamily",
    "UpperBoundResult",
    "MinimizedUpperBound",
    "build_family",
    "overlap_matrix",
    "upper_bound",
    "minimize_upper_bound",
]


@dataclass(frozen=True)
class GroundStateFamily:
    """Phase-aligned fiber ground states on a momentum mesh."""

    momenta: np.ndarray        # (n,) sorted momenta
    energies: np.ndarray       # (n,)
    gaps: np.ndarray           # (n,)
    residuals: np.ndarray      # (n,)
    vectors: np.ndarray        # (n, fock_dim), rows unit norm
    continuity: np.ndarray     # (n-1,) adjacent ||Phi_i+1 - Phi_i||

    @property
    def size(self) -> int:
        return len(self.momenta)

    def index_of(self, P: float) -> int:
        i = int(np.argmin(np.abs(self.momenta - P)))
        if abs(self.momenta[i] - P) > 1e-9:
            raise AnalysisError(
                f"momentum {P:.6g} is not a family node "
                f"(nearest: {self.momenta[i]:.6g})"
            )
        return i


def build_family(cache: FiberCache, P_values, *, p_c: float | None = None,
                 gap_threshold: float = GAP_THRESHOLD_DEFAULT
                 ) -> GroundStateFamily:
    """Solve (or fetch) the fiber ground pair on a momentum mesh.

    Every requested momentum must sit strictly inside the quasi-particle
    window (-p_c, p_c) when p_c is given, and must have a safely
    non-degenerate ground state; violations name the offending momentum.
    """
    P = np.unique(np.round(np.asarray(P_values, dtype=float), 12))
    if len(P) == 0:
        raise ConfigError("family mesh is empty")
    if p_c is not None and np.max(np.abs(P)) >= p_c:
        raise AnalysisError(
            f"family momentum {P[np.argmax(np.abs(P))]:.6g} lies outside "
            f"the open window (-{p_c:g}, {p_c:g})"
        )
    energies, gaps, residuals, vectors = [], [], [], []
    for p in P:
        rec = cache.pair(float(p))
        if rec["degenerate"] or rec["gap"] <= gap_threshold:
            raise AnalysisError(
                f"ground state at P = {p:.6g} is (near-)degenerate "
                f"(gap {rec['gap']:.3e} <= threshold {gap_threshold:g})"
            )
        energies.append(rec["energy"])
        gaps.append(rec["gap"])
        residuals.append(rec["residual"])
        vectors.append(rec["vector"])
    vecs = np.asarray(vectors)
    cont = np.linalg.norm(np.diff(vecs, axis=0), axis=1) if len(P) > 1 else np.zeros(0)
    return GroundStateFamily(momenta=P, energies=np.asarray(energies),
                             gaps=np.asarray(gaps),
                             residuals=np.asarray(residuals),
                             vectors=vecs, continuity=cont)


def overlap_matrix(family: GroundStateFamily) -> np.ndarray:
    """Gram matrix of the family vectors: symmetric with unit diagonal."""
    G = family.vectors @ family.vectors.T
    G = 0.5 * (G + G.T)
    np.fill_diagonal(G, 1.0)
    return G


@dataclass(frozen=True)
class UpperBoundResult:
    lam: float
    value: float
    fiber_term: float
    potential_term: float
    norm_sq: float
    profile_params: dict
    n_support: int


def _support_data(profile, egrid: ElectronGrid):
    q = egrid.points
    f = np.asarray(profile.fhat(q), dtype=float)
    sup = np.flatnonzero(f != 0.0)
    if len(sup) < 3:
        raise AnalysisError(
            f"profile support radius {profile.support_radius:g} covers only "
            f"{len(sup)} grid nodes; widen it or refine the grid"
        )
    return q, f, sup


def upper_bound(lam: float, family: GroundStateFamily, profile, potential,
                egrid: ElectronGrid, e0: float, *,
                kernel: np.ndarray | None = None,
                gram: np.ndarray | None = None) -> UpperBoundResult:
    """Rayleigh quotient of the profiled dressed trial vector.

    Every support node lam*q_j must be a family momentum; the result is a
    certified bound.  `kernel` and `gram` can be passed in when the caller
    evaluates many profiles on one grid.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    q, f, sup = _support_data(profile, egrid)
    W = potential_kernel(potential, egrid) if kernel is None else kernel
    G_fam = overlap_matrix(family) if gram is None else gram

    a = f[sup] * math.sqrt(egrid.dq)
    idx = np.array([family.index_of(p) for p in lam * q[sup]])
    eps = family.energies[idx]
    G = G_fam[np.ix_(idx, idx)]

    norm_sq = float(a @ a)
    fiber_term = float(a @ ((eps - e0) / lam**2 * a))
    potential_term = float(a @ ((W[np.ix_(sup, sup)] * G) @ a))
    value = (fiber_term + potential_term) / norm_sq
    return UpperBoundResult(lam=lam, value=value, fiber_term=fiber_term,
                            potential_term=potential_term, norm_sq=norm_sq,
                            profile_params=dict(profile.params()),
                            n_support=len(sup))


@dataclass(frozen=True)
class MinimizedUpperBound:
    result: UpperBoundResult
    radius: float
    radius_bounds: tuple
    boundary_hit: bool
    n_evaluations: int
    family_size: int


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


def minimize_upper_bound(lam: float, cache: FiberCache, potential,
                         egrid: ElectronGrid, e0: float, *,
                         p_c: float) -> MinimizedUpperBound:
    """Tune the bump profile's support radius to the smallest upper bound.

    The radius ranges over [3 dq, min(p_c/lam, q_max)] (the upper cap keeps
    every node of the dressed family strictly inside the quasi-particle
    window).  One family is built at the widest support and reused for all
    candidate radii, so the scan costs no extra eigensolves.  Whatever
    radius the scalar minimizer returns, the reported value is a bound;
    `boundary_hit` flags a minimum pinned at either end.
    """
    r_hi = min(p_c / lam * (1.0 - 1e-9), egrid.q_max)
    r_lo = 3.0 * egrid.dq
    if not r_lo < r_hi:
        raise ConfigError(
            f"empty radius range [{r_lo:g}, {r_hi:g}]; the quasi-particle "
            "window is too narrow for this lam and grid"
        )

    q = egrid.points
    wide = np.flatnonzero(np.abs(q) < r_hi)
    mesh = np.concatenate([[0.0], lam * q[wide]])
    family = build_family(cache, mesh, p_c=p_c)
    kernel = potential_kernel(potential, egrid)
    gram = overlap_matrix(family)

    def objective(r: float) -> float:
        return upper_bound(lam, family, FourierBump(radius=float(r)),
                           potential, egrid, e0, kernel=kernel, gram=gram).value

    radius, _, n_evaluations = _bounded_brent(objective, r_lo, r_hi, _XATOL)
    best = upper_bound(lam, family, FourierBump(radius=radius),
                       potential, egrid, e0, kernel=kernel, gram=gram)
    boundary = (radius - r_lo <= 2 * _XATOL) or (r_hi - radius <= 2 * _XATOL)
    return MinimizedUpperBound(result=best, radius=radius,
                               radius_bounds=(r_lo, r_hi),
                               boundary_hit=boundary,
                               n_evaluations=n_evaluations + 1,
                               family_size=family.size)
