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
come from two-target Davidson runs, solved on first request: the scan asks
for one momentum at a time, and the static stage for each lambda's grid
nodes at once, which run as one lockstep batch whose members share every
block product.  A momentum gets the same bits alone or in any batch.  Mode
grids are symmetric under k -> -k by construction, so it solves only |P|
and obtains the -P ground vector by the mode permutation that realizes
k -> -k, and it fixes phases so that <Phi_0 | Phi_P> > 0 for every cached
vector, making overlap matrices well-defined across momenta.

An independent weak-coupling oracle :func:`perturbative_mass` evaluates the
second-order energy E2(P) = P^2 - sum_i v_i^2 / ((P - k_i)^2 + omega_i - P^2)
and runs it through the same fit estimator, so that fit-window bias cancels
when comparing masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import lowest_two
from .errors import AnalysisError, DomainError
from .operators import FiberTemplate

__all__ = [
    "FiberCache",
    "DispersionSample",
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


class FiberCache:
    """Memoized fiber ground pairs by total momentum.

    Stores, per momentum P, the ground energy, the gap to the next level,
    the phase-fixed ground vector, the residual, the degeneracy flag and the
    solver's iterations, matvecs and restarts.  :meth:`pair` solves one
    momentum at a time; :meth:`pairs` solves all the momenta it lacks as one
    lockstep batch (:func:`~.eigensolve.lowest_two`).  Every momentum is
    solved from the same seed, and a member of a batch gets the same bits as
    it would alone, so a record depends neither on the order of requests nor
    on the batch it was solved in; each record counts only its own solver
    work.  The -P data is derived from +P by the parity permutation instead
    of a second solve (DomainError on a grid not closed under k -> -k).
    """

    def __init__(self, template: FiberTemplate, *, seed: int = 0):
        self.template = template
        self.seed = seed
        self._store: dict = {}
        self._state_perm = template.basis.permute_modes(
            template.grid.parity_permutation())

    @staticmethod
    def _key(P: float) -> float:
        return float(np.round(P, 12)) + 0.0   # normalize -0.0 to 0.0

    def solves(self) -> int:
        """Number of momenta actually solved (not derived by parity)."""
        return sum(1 for rec in self._store.values() if rec["solved"])

    def work(self, key: str) -> int:
        """Sum of "iterations", "matvecs" or "restarts" over the solves."""
        return sum(rec[key] for rec in self._store.values() if rec["solved"])

    def _solve(self, P: float, *more: float) -> list:
        """Records of the fibers at P and at every momentum of `more`,
        solved as one batch."""
        pairs = lowest_two(self.template.operator((P, *more)), tol=_FIBER_TOL,
                           seed=self.seed)
        return [{
            "energy": pair.values[0],
            "gap": pair.gap,
            "degenerate": pair.degenerate,
            "residual": max(pair.residuals),
            "vector": pair.vectors[0],
            "iterations": pair.iterations,
            "matvecs": pair.matvecs,
            "restarts": pair.restarts,
            "solved": True,
        } for pair in pairs]

    @staticmethod
    def _fix_phase(rec: dict, zero: dict):
        """Flip rec's vector, if need be, so that <Phi_0 | Phi_P> >= 0."""
        if float(zero["vector"] @ rec["vector"]) < 0.0:
            rec["vector"] = -rec["vector"]

    def _ensure(self, P: float) -> dict:
        key = self._key(P)
        if key in self._store:
            return self._store[key]
        if key < 0.0:
            # the parity image of a phase-fixed vector is already
            # phase-consistent (the reference vector is parity even)
            pos = self._ensure(-key)
            vec = np.empty_like(pos["vector"])
            vec[self._state_perm] = pos["vector"]
            rec = dict(pos, vector=vec, solved=False)
        else:
            rec = self._solve(key)[0]
            if key != 0.0:
                self._fix_phase(rec, self._ensure(0.0))
        self._store[key] = rec
        return rec

    def pair(self, P: float) -> dict:
        """Record with energy, gap, degenerate, residual, vector."""
        return self._ensure(float(P))

    def pairs(self, Ps) -> list:
        """The records of :meth:`pair` at every momentum of `Ps`.

        Every |P| not cached yet, and P = 0 if it is missing, is solved in
        one batch; the -P records then follow by parity.
        """
        keys = [self._key(P) for P in Ps]
        todo = sorted(({abs(key) for key in keys} | {0.0}) - self._store.keys())
        if todo:
            for key, rec in zip(todo, self._solve(*todo)):
                if key != 0.0:
                    self._fix_phase(rec, self._store[0.0])
                self._store[key] = rec
        return [self._ensure(key) for key in keys]


@dataclass(frozen=True)
class DispersionSample:
    P: float
    energy: float
    gap: float
    residual: float
    degenerate: bool


@dataclass(frozen=True)
class DispersionCurve:
    """E(P) samples sorted by P, including P = 0."""

    samples: tuple
    e0: float
    parity_max_diff: float = 0.0

    @property
    def momenta(self) -> np.ndarray:
        return np.array([s.P for s in self.samples])

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])


def scan_dispersion(cache: FiberCache, P_list) -> DispersionCurve:
    """Solve the fibers at the requested momenta and assemble the curve.

    P_list must contain 0 (the curve is pinned to E0 = E(0)).  Momenta are
    solved through `cache`, independently, one two-target Davidson run
    each; the curve is reduced in sorted order.  E(P) >= E0 and parity
    symmetry are validated to the fiber solver tolerance.
    """
    P_arr = np.unique(np.asarray(P_list, dtype=float))
    if not np.any(np.abs(P_arr) <= 1e-15):
        raise DomainError("P_list must include 0")
    samples = []
    for p in P_arr:
        rec = cache.pair(p)
        samples.append(DispersionSample(
            P=float(p), energy=rec["energy"], gap=rec["gap"],
            residual=rec["residual"], degenerate=rec["degenerate"],
        ))
    e0 = cache.pair(0.0)["energy"]
    slack = 10.0 * _FIBER_TOL * max(1.0, abs(e0))
    for s in samples:
        if s.energy < e0 - slack:
            raise AnalysisError(
                f"dispersion minimum not at P=0: E({s.P}) = {s.energy} < E0 = {e0}"
            )
    parity_diff = 0.0
    by_key = {round(s.P, 12): s for s in samples}
    for s in samples:
        twin = by_key.get(round(-s.P, 12))
        if twin is not None:
            parity_diff = max(parity_diff, abs(s.energy - twin.energy))
    if parity_diff > slack:
        raise AnalysisError(f"dispersion not even in P (max diff {parity_diff:.3e})")
    return DispersionCurve(samples=tuple(samples), e0=e0,
                           parity_max_diff=parity_diff)


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


def fit_dynamic_mass(curve: DispersionCurve, P_fit: float | None = None,
                     *, P_c: float | None = None) -> MassFit:
    """Windowed quartic-corrected fit of the dispersion curvature at 0.

    Fits E(P) - E0 = P^2/(2M) + b P^4 over 0 < |P| <= P_fit.  The default
    window is min(P_c/2, 0.3/sqrt(M_guess)) with M_guess from a coarse
    pre-fit; the fit is repeated on the half window and the relative mass
    shift reported as the window-sensitivity diagnostic.
    """
    P = curve.momenta
    dE = curve.energies - curve.e0
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
    P = curve.momenta
    dE = curve.energies - curve.e0
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
    on a symmetric grid).  Margins are (ceiling - E); report-only.
    """
    tol = _CERTIFY_TOL
    k = template.grid.momenta
    omg = template.omegas
    inv2m = 1.0 / (2.0 * template.spec.mass)
    one_ph = math.inf
    parab = math.inf
    violations = []
    scale = max(1.0, abs(curve.e0))
    for s in curve.samples:
        ceil1 = float(np.min((s.P - k) ** 2 * inv2m + omg))
        ceil2 = curve.e0 + s.P * s.P * inv2m
        m1 = ceil1 - s.energy
        m2 = ceil2 - s.energy
        one_ph = min(one_ph, m1)
        parab = min(parab, m2)
        if m1 < -tol * scale:
            violations.append(("one_phonon", s.P, m1))
        if m2 < -tol * scale:
            violations.append(("parabola", s.P, m2))
    return CeilingReport(one_phonon_margin=one_ph, parabola_margin=parab,
                         violations=tuple(violations), passed=not violations)


def estimate_Pc(curve: DispersionCurve) -> float:
    """Largest contiguous |P| from 0 with a gap above GAP_THRESHOLD and no
    degeneracy flags."""
    order = np.argsort(np.abs(curve.momenta))
    samples = [curve.samples[i] for i in order]
    if samples[0].gap <= GAP_THRESHOLD or samples[0].degenerate:
        raise AnalysisError(
            f"gap at P=0 is {samples[0].gap:.3e} <= threshold "
            f"{GAP_THRESHOLD:g}; a unique ground state at 0 is required"
        )
    p_c = 0.0
    seen = {}
    for s in samples:
        ap = abs(s.P)
        ok = s.gap > GAP_THRESHOLD and not s.degenerate
        seen[ap] = min(seen.get(ap, True), ok)
    for ap in sorted(seen):
        if not seen[ap]:
            break
        p_c = ap
    return p_c


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
    samples = tuple(
        DispersionSample(P=float(p), energy=float(e), gap=1.0, residual=0.0,
                         degenerate=False)
        for p, e in zip(P_arr, E2)
    )
    curve = DispersionCurve(samples=samples, e0=e0)
    return fit_dynamic_mass(curve, P_fit=P_fit).mass
