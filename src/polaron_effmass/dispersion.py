"""Ground-state dispersion E(P) of the fibers and derived quantities.

From the scanned curve E(P) we extract

* the dynamic effective mass, via a windowed least-squares fit of
  E(P) - E(0) against P^2/(2M) + b P^4 (a two-point finite difference would
  be polluted by the quartic term at reachable momenta);
* a quasi-parabolicity certificate: the smallest C >= 0 such that
  E(P) >= E(0) + P^2 / (2M (1 + C P^2)) holds at every sample;
* variational ceilings E(P) <= min_i [(P - k_i)^2 + omega_i] and
  E(P) <= E(0) + P^2, both of which hold exactly on the truncated model
  (one-phonon trial state; shifted ground state with zero mean field
  momentum on symmetric grids);
* the largest momentum window P_c on which the spectral gap stays open,
  which downstream consumers use to bound trial-state supports.

A :class:`FiberCache` memoizes fiber ground pairs by momentum.  The pairs
come from :func:`~.eigensolve.lowest_two`, solved on first request: one
dsyevr of the whole matrix for a fiber of at most 128 states, a two-target
Davidson run with a Jacobi-Davidson step per correction above that.  Every
request goes through :meth:`FiberCache.pairs`, which returns the nodes'
data as one :class:`FiberNodes` record of arrays.  The scan asks for P = 0
and then one |P| at a time, and reads its curve back as one node set; the
static stage asks once per lambda for all its grid nodes, which run as one
lockstep batch whose members share every block product.  A momentum gets
the same bits alone or in any batch.  Mode grids are symmetric under
k -> -k by construction, so the cache solves only |P| and obtains the -P
ground vector by the mode permutation that realizes k -> -k, and it fixes
phases so that <Phi_0 | Phi_P> > 0 for every cached vector, making overlap
matrices well-defined across momenta.

An independent weak-coupling oracle :func:`perturbative_mass` evaluates the
second-order energy E2(P) = P^2 - sum_i v_i^2 / ((P - k_i)^2 + omega_i - P^2)
and runs it through the same fit estimator, so that fit-window bias cancels
when comparing masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .eigensolve import lowest_two
from .errors import AnalysisError, DomainError
from .operators import FiberTemplate

__all__ = [
    "FiberLevels",
    "FiberNodes",
    "FiberCache",
    "DispersionCurve",
    "MassFit",
    "QuasiParabolicCertificate",
    "CeilingReport",
    "scan_dispersion",
    "fit_dynamic_mass",
    "certify_quasi_parabolic",
    "check_ceilings",
    "estimate_Pc",
    "perturbative_mass",
    "GAP_THRESHOLD",
]

# Smallest gap E1 - E0 at which a fiber ground state counts as unique.
GAP_THRESHOLD = 1e-3

# Residual tolerance of each fiber pair solve.
_FIBER_TOL = 1e-9

# Relative slack of the certificate sweep and the ceiling checks.
_CERTIFY_TOL = 1e-9


@dataclass(frozen=True)
class FiberLevels:
    """Fiber ground levels at a list of momenta, one row per momentum in the
    order requested: energy, gap to the next level, the ground and the
    excited pair's residuals and degeneracy flag."""

    P: np.ndarray
    energy: np.ndarray
    gap: np.ndarray
    residual: np.ndarray
    excited_residual: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class FiberNodes(FiberLevels):
    """:class:`FiberLevels` with the phase-fixed unit ground vector of each
    momentum."""

    vectors: np.ndarray

    def levels(self) -> FiberLevels:
        """The same levels without the vectors, sharing the arrays: what a
        holder keeps once it no longer reads the vectors."""
        return FiberLevels(*(getattr(self, f.name)
                             for f in fields(FiberLevels)))


class FiberCache:
    """Memoized fiber ground pairs by total momentum.

    Stores, per momentum P, the ground energy, the gap to the next level,
    the phase-fixed ground vector, both pairs' residuals from a fresh block
    product (`L1` subtracts the ground one; the excited pair is converged
    only as far as the gap needs, and its residual floors the excited level
    in the coupled solve's enclosure), the degeneracy flag and the solver's
    iterations, matvecs and restarts.  :meth:`pairs` is the one way to ask
    for fibers: it rounds the momenta to 12 decimals, which key the store,
    solves all those it lacks as one lockstep batch
    (:func:`~.eigensolve.lowest_two`) and returns :class:`FiberNodes`.
    Every momentum is solved from the same seed, and a member of a batch
    gets the same bits as it would alone, so a record depends neither on
    the order of requests nor on the batch it was solved in; each record
    counts only its own solver work.  The -P data is derived from +P by the
    template's mode reflection instead of a second solve (DomainError on a
    grid not closed under k -> -k), on every request: the store holds the
    solved momenta only, one vector each.
    """

    def __init__(self, template: FiberTemplate, *, seed: int = 0):
        self.template = template
        self.seed = seed
        self._store: dict = {}

    def solves(self) -> int:
        """Number of momenta actually solved (not derived by parity)."""
        return len(self._store)

    def work(self, key: str) -> int:
        """Sum of "iterations", "matvecs" or "restarts" over the solves."""
        return sum(rec[key] for rec in self._store.values())

    def _solve(self, P: float, *more: float) -> list:
        """Records of the fibers at P and at every momentum of `more`,
        solved as one batch."""
        pairs = lowest_two(self.template.operator((P, *more)), tol=_FIBER_TOL,
                           seed=self.seed)
        return [{
            "energy": pair.values[0],
            "gap": pair.gap,
            "degenerate": pair.degenerate,
            "residual": pair.residuals[0],
            "excited_residual": pair.residuals[1],
            "vector": pair.vectors[0],
            "iterations": pair.iterations,
            "matvecs": pair.matvecs,
            "restarts": pair.restarts,
        } for pair in pairs]

    def _ensure(self, P: float) -> dict:
        """The record at P, a key as :meth:`pairs` rounds it: cached, or the
        parity image of the cached -P, derived anew and not stored."""
        if P in self._store:
            return self._store[P]
        # the parity image of a phase-fixed vector is already
        # phase-consistent (the reference vector is parity even)
        pos = self._store[-P]
        vec = np.empty_like(pos["vector"])
        vec[self.template.reflection] = pos["vector"]
        return dict(pos, vector=vec)

    def pairs(self, Ps) -> FiberNodes:
        """The fiber ground data at every momentum of `Ps`, in that order.

        Every |P| not cached yet, and P = 0 if it is missing, is solved in
        one batch, and each vector's sign is fixed so that <Phi_0 | Phi_P>
        >= 0; the -P records then follow by parity.
        """
        P = np.asarray(Ps, dtype=float)
        # P to 12 decimals; adding 0.0 turns -0.0 into 0.0
        keys = (np.round(P, 12) + 0.0).tolist()
        todo = sorted(({abs(key) for key in keys} | {0.0}) - self._store.keys())
        if todo:
            for key, rec in zip(todo, self._solve(*todo)):
                if key != 0.0 and float(self._store[0.0]["vector"]
                                        @ rec["vector"]) < 0.0:
                    rec["vector"] = -rec["vector"]
                self._store[key] = rec
        recs = [self._ensure(key) for key in keys]
        return FiberNodes(P, *(np.array([rec[field] for rec in recs])
                               for field in ("energy", "gap", "residual",
                                             "excited_residual", "degenerate",
                                             "vector")))


@dataclass(frozen=True)
class DispersionCurve:
    """E(P) at the scanned momenta, sorted by P, including P = 0."""

    nodes: FiberNodes
    e0: float


def scan_dispersion(cache: FiberCache, P_list) -> DispersionCurve:
    """Solve the fibers at the requested momenta and assemble the curve.

    P_list must contain 0 (the curve is pinned to E0 = E(0)).  Momenta are
    solved through `cache`, independently, one :func:`lowest_two` call
    each: P = 0 first, then one |P| per request.  The curve is then read
    from the cache in sorted order.  E(P) >= E0 is validated to the fiber
    solver tolerance; E(-P) = E(P) holds by construction, since the cache
    derives each -P record from +P by parity.
    """
    P_arr = np.unique(np.asarray(P_list, dtype=float))
    zero = np.abs(P_arr) <= 1e-15
    if not np.any(zero):
        raise DomainError("P_list must include 0")
    for p in np.unique(np.abs(P_arr)):
        cache.pairs([p])
    nodes = cache.pairs(P_arr)
    e0 = nodes.energy[np.argmax(zero)]
    slack = 10.0 * _FIBER_TOL * max(1.0, abs(e0))
    i = np.argmin(nodes.energy)
    if nodes.energy[i] < e0 - slack:
        raise AnalysisError(f"dispersion minimum not at P=0: E({nodes.P[i]}) "
                            f"= {nodes.energy[i]} < E0 = {e0}")
    return DispersionCurve(nodes=nodes, e0=e0)


@dataclass(frozen=True)
class MassFit:
    mass: float
    quartic: float
    window: float
    rms: float
    mass_half_window: float
    window_sensitivity: float
    n_samples: int


def _quartic_fit(P: np.ndarray, dE: np.ndarray):
    X = np.column_stack([0.5 * P * P, P**4])
    coef, _, _, _ = np.linalg.lstsq(X, dE, rcond=None)
    resid = dE - X @ coef
    return coef, float(np.sqrt(np.mean(resid**2)))


def fit_dynamic_mass(P: np.ndarray, dE: np.ndarray,
                     P_fit: float | None = None, *,
                     P_c: float | None = None) -> MassFit:
    """Windowed quartic-corrected fit of the dispersion curvature at 0.

    Fits dE = E(P) - E0 = P^2/(2M) + b P^4 over 0 < |P| <= P_fit.  The
    default window is min(P_c/2, 0.3/sqrt(M_guess)) with M_guess from a
    coarse pre-fit; the fit is repeated on the half window and the relative
    mass shift reported as the window-sensitivity diagnostic.
    """
    nz = np.abs(P) > 1e-15
    if np.count_nonzero(nz) < 4:
        raise AnalysisError(
            f"need >= 4 nonzero samples to fit the dynamic mass, "
            f"have {np.count_nonzero(nz)}"
        )
    if P_fit is None:
        coarse_window = float(np.max(np.abs(P[nz])))
        sel = nz & (np.abs(P) <= 0.5 * coarse_window)
        if np.count_nonzero(sel) < 2:
            sel = nz
        coef, _ = _quartic_fit(P[sel], dE[sel])
        if coef[0] <= 0:
            raise AnalysisError("pre-fit found non-positive curvature at P=0")
        m_guess = 1.0 / coef[0]
        P_fit = 0.3 / math.sqrt(m_guess)
        if P_c is not None:
            P_fit = min(P_fit, 0.5 * P_c)
    sel = nz & (np.abs(P) <= P_fit + 1e-12)
    if np.count_nonzero(sel) < 4:
        raise AnalysisError(
            f"need >= 4 nonzero samples within the fit window {P_fit:g}, "
            f"have {np.count_nonzero(sel)}"
        )
    coef, rms = _quartic_fit(P[sel], dE[sel])
    if coef[0] <= 0:
        raise AnalysisError("fitted curvature at P=0 is not positive")
    mass = 1.0 / coef[0]
    half = nz & (np.abs(P) <= 0.5 * P_fit + 1e-12)
    if np.count_nonzero(half) >= 4:
        coef_h, _ = _quartic_fit(P[half], dE[half])
        mass_half = 1.0 / coef_h[0] if coef_h[0] > 0 else math.inf
        sens = abs(mass_half - mass) / mass
    else:
        mass_half = math.nan
        sens = math.nan
    return MassFit(mass=mass, quartic=float(coef[1]), window=float(P_fit),
                   rms=rms, mass_half_window=mass_half, window_sensitivity=sens,
                   n_samples=int(np.count_nonzero(sel)))


@dataclass(frozen=True)
class QuasiParabolicCertificate:
    c_min: float
    worst_P: float
    margin: float


def certify_quasi_parabolic(curve: DispersionCurve, mass: float
                            ) -> QuasiParabolicCertificate:
    """Smallest C >= 0 with E(P) >= E0 + P^2/(2 mass (1 + C P^2)) at samples.

    The certificate is re-verified by a direct sweep; its margin is the
    worst slack.
    """
    tol = _CERTIFY_TOL
    P = curve.nodes.P
    dE = curve.nodes.energy - curve.e0
    nz = np.abs(P) > 1e-15
    c_min = 0.0
    worst = 0.0
    for p, d in zip(P[nz], dE[nz]):
        if d <= 0.0:
            raise AnalysisError(
                f"E(P) = E0 at P = {p:g}; quasi-parabolic bound unverifiable"
            )
        c_here = (p * p / (2.0 * mass * d) - 1.0) / (p * p)
        if c_here > c_min:
            c_min, worst = c_here, p
    c_min = max(0.0, c_min)
    # direct re-verification sweep
    margin = math.inf
    for p, d in zip(P[nz], dE[nz]):
        bound = p * p / (2.0 * mass * (1.0 + c_min * p * p))
        margin = min(margin, d - bound)
    if margin < -tol * max(1.0, abs(curve.e0)):
        raise AnalysisError(
            f"certificate sweep failed: margin {margin:.3e} at C = {c_min:g}"
        )
    return QuasiParabolicCertificate(c_min=c_min, worst_P=worst, margin=margin)


@dataclass(frozen=True)
class CeilingReport:
    one_phonon_margin: float
    parabola_margin: float
    violations: tuple
    passed: bool


def check_ceilings(curve: DispersionCurve, template: FiberTemplate
                   ) -> CeilingReport:
    """Verify E(P) <= min_i[(P - k_i)^2/(2m) + omega_i] and E <= E0 + P^2/(2m).

    Both are variational on the truncated model: the first uses a
    one-phonon trial state (the interaction has zero expectation there),
    the second the P = 0 ground state (whose field momentum has zero mean
    on a symmetric grid).  Margins are (ceiling - E).  A violation fails
    the run: `passed` folds into the sandwich chain's verdict and into
    `converge`'s `ceilings_pass`.
    """
    P, E = curve.nodes.P, curve.nodes.energy
    inv2m = 1.0 / (2.0 * template.spec.mass)
    one_ph = np.min((P[:, None] - template.grid.momenta) ** 2 * inv2m
                    + template.omegas, axis=1) - E
    parab = curve.e0 + P * P * inv2m - E
    floor = -_CERTIFY_TOL * max(1.0, abs(curve.e0))
    violations = tuple(
        (name, float(p), m) for p, m1, m2 in zip(P, one_ph, parab)
        for name, m in (("one_phonon", m1), ("parabola", m2)) if m < floor)
    return CeilingReport(one_phonon_margin=np.min(one_ph),
                         parabola_margin=np.min(parab), violations=violations,
                         passed=not violations)


def estimate_Pc(curve: DispersionCurve) -> float:
    """Largest contiguous |P| from 0 with a gap above GAP_THRESHOLD and no
    degeneracy flags."""
    nodes = curve.nodes
    abs_P = np.abs(nodes.P)
    ok = (nodes.gap > GAP_THRESHOLD) & ~nodes.degenerate
    origin = np.argmin(abs_P)
    if not ok[origin]:
        raise AnalysisError(
            f"gap at P=0 is {nodes.gap[origin]:.3e} <= threshold "
            f"{GAP_THRESHOLD:g}; a unique ground state at 0 is required"
        )
    # the largest |P| below the smallest one whose gap closes
    return float(np.max(abs_P[abs_P < np.min(abs_P[~ok], initial=np.inf)]))


def perturbative_energy(template: FiberTemplate, P_values) -> np.ndarray:
    """Second-order weak-coupling energy E2(P).

    E2(P) = P^2/(2m) - sum_i v_i^2 / ((P - k_i)^2/(2m) + omega_i - P^2/(2m)).
    """
    spec = template.spec
    P_values = np.asarray(P_values, dtype=float)
    k = template.grid.momenta
    omg = template.omegas
    v2 = template.couplings**2
    inv2m = 1.0 / (2.0 * spec.mass)
    out = np.empty(P_values.shape)
    for idx, p in np.ndenumerate(P_values):
        denom = (p - k) ** 2 * inv2m + omg - p * p * inv2m
        if np.any(denom <= 0.0):
            raise DomainError(
                f"second-order denominator vanishes at P = {p:g}; "
                "shrink the momentum window"
            )
        out[idx] = p * p * inv2m - float(np.sum(v2 / denom))
    return out


def perturbative_mass(template: FiberTemplate, P_list, *,
                      P_fit: float | None = None) -> float:
    """Weak-coupling oracle mass from E2's curvature at 0.

    The curvature is extracted with the same windowed quartic fit as the
    dynamic mass, over the same momenta, so fit-window bias cancels in
    comparisons between the two.
    """
    P_arr = np.unique(np.asarray(P_list, dtype=float))
    if not np.any(np.abs(P_arr) <= 1e-15):
        P_arr = np.concatenate([[0.0], P_arr])
    E2 = perturbative_energy(template, P_arr)
    e0 = float(E2[np.argmin(np.abs(P_arr))])
    return fit_dynamic_mass(P_arr, E2 - e0, P_fit=P_fit).mass
