"""Certified lower bounds on e(lam) and the two-sided sandwich report.

Two independent lower-bound routes:

* Momentum-decomposition bound (L1).  Inside each electron-momentum block,
  the fiber operator dominates its own ground energy times the identity, so

      A(lam) >= (D + W) (x) I_F,   D = diag((E(lam q_j) - E0)/lam^2),

  and L1 = infspec(D + W) is a rigorous lower bound whenever the D entries
  are themselves lower bounds on the fiber energies.  Each fiber at
  lam * q_j, from the node set the coupled solve at lam reads, has its
  ground pair's own residual (from a fresh product of the returned
  vector; the excited pair's looser one never enters) subtracted from its
  ground Ritz value, which certifies the bound at solver precision.  The
  dense eigenvalue is then lowered to a floor verified in floating point
  (:func:`~.eigensolve.verified_floor`), as is L2's operator branch.

* Scaled-potential split bound (L2).  Splitting trial vectors by how much
  momentum mass sits outside a ball of radius beta = C_BETA sqrt(lam) and
  using the quasi-parabolic premise E(P) >= E0 + P^2/(2M(1+CP^2)) yields

      L2 = min( infspec(p^2/(2 M_c) + (1+eps) V),
                beta^2/(2 lam^2 M_c) - (1 + 1/eps) sup|V| ),

  with M_c = M (1 + C beta^2).  The two schedules are eps = c_eps lam,
  with the caller's c_eps (:func:`suggest_c_eps`), and beta =
  C_BETA sqrt(lam).  The first branch is a one-particle operator on the
  same grid; the second is scalar.  With c_eps > 2 M_c sup|V| the scalar
  branch grows like 1/lam and the first branch converges to the
  static-mass comparison energy, so the bound is tight in the limit.
  Implemented for nonpositive potentials (wells); sign-mixed potentials
  are rejected.  The premise is checked only at the scanned samples,
  which reach P_c (:func:`~.dispersion.certify_quasi_parabolic`); between
  them and beyond P_c it is assumed.  Well beyond P_c the form fails
  outright, since E - E0 saturates near the phonon energy omega0 while
  the form keeps growing; there the scalar branch needs only E(P) - E0 >=
  beta^2/(2 M_c) for |P| >= beta.

:func:`sandwich_report` lines the bounds up against e(lam) and the trial
upper bound U(lam) and checks the ordering chain at a pinned tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import FiberNodes
from .eigensolve import dense_ground, verified_floor
from .errors import AnalysisError, ConfigError, DomainError
from .operators import ElectronGrid, assemble_schrodinger, potential_kernel

__all__ = [
    "SplitBoundResult",
    "SandwichRow",
    "SandwichReport",
    "suggest_c_eps",
    "momentum_lower_bound",
    "split_lower_bound",
    "sandwich_report",
    "ORDERING_TOL",
    "C_BETA",
]

# Additive slack of the sandwich's ordering checks.
ORDERING_TOL = 1e-8
# Momentum-cut schedule of the split bound: beta = C_BETA sqrt(lam).
C_BETA = 1.0
# Factor by which suggest_c_eps exceeds the smallest admissible c_eps.
_C_EPS_SAFETY = 2.0


# ---------------------------------------------------------------------------
# momentum-decomposition bound
# ---------------------------------------------------------------------------

def momentum_lower_bound(lam: float, kernel: np.ndarray, nodes: FiberNodes,
                         e0: float) -> float:
    """L1 = infspec(D + W) on the electron grid, certified.

    `kernel` is W on the grid and `nodes` holds the fibers at its nodes
    lam*q_j.  Each node's ground Ritz value minus its ground pair's
    residual (`nodes.residual`), a certified floor on the fiber ground
    energy of a symmetric operator, gives its diagonal entry.  Returns a
    verified floor on that matrix's lowest eigenvalue; SolverError when the
    verification fails.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    h = kernel.copy()
    h[np.diag_indices_from(h)] += (nodes.energy - nodes.residual - e0) / lam**2
    return verified_floor(h, dense_ground(h))


# ---------------------------------------------------------------------------
# scaled-potential split bound
# ---------------------------------------------------------------------------

def suggest_c_eps(mass: float, c_min: float, sup_norm: float,
                  lam_max: float) -> float:
    """Smallest c_eps (times _C_EPS_SAFETY) keeping the scalar branch

    beta^2/(2 lam^2 M_c) - (1 + 1/eps) sup|V| bounded below as lam -> 0;
    the threshold is c_eps = 2 M_c sup|V| with M_c at the largest lam.
    """
    m_c = mass * (1.0 + c_min * C_BETA**2 * lam_max)
    return _C_EPS_SAFETY * 2.0 * m_c * sup_norm


@dataclass(frozen=True)
class SplitBoundResult:
    value: float
    operator_branch: float
    scalar_branch: float
    eps: float
    beta: float


def split_lower_bound(lam: float, potential, egrid: ElectronGrid, *,
                      mass: float, c_min: float, p_c: float,
                      c_eps: float) -> SplitBoundResult:
    """L2 from the momentum-split argument (nonpositive potentials only).

    The sign of the potential is checked on |x| <= max(q_max, pi / dq): the
    kernel is a convolution on the box of circumference 2 pi / dq implied by
    the grid, so a positive part anywhere in that box is rejected.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    half_width = max(egrid.q_max, math.pi / egrid.dq)
    x_probe = np.linspace(-half_width, half_width, 4001)
    if float(np.max(potential.values(x_probe))) > 1e-12:
        raise DomainError(
            "the split lower bound is implemented for nonpositive "
            "potentials; this one takes positive values"
        )
    eps = c_eps * lam
    beta = C_BETA * math.sqrt(lam)
    if eps <= 0:
        raise ConfigError(f"eps = {eps:g} must be positive")
    if beta >= p_c:
        raise AnalysisError(
            f"beta = {beta:.4g} reaches the quasi-parabolic window "
            f"p_c = {p_c:.4g}; lam = {lam:g} is too large for this window"
        )
    m_c = mass * (1.0 + c_min * beta**2)
    op = assemble_schrodinger(potential_kernel(potential, egrid), egrid, m_c,
                              v_scale=1.0 + eps)
    operator_branch = verified_floor(op, dense_ground(op))
    scalar_branch = (beta**2 / (2.0 * lam**2 * m_c)
                     - (1.0 + 1.0 / eps) * potential.sup_norm())
    return SplitBoundResult(value=min(operator_branch, scalar_branch),
                            operator_branch=operator_branch,
                            scalar_branch=scalar_branch, eps=eps, beta=beta)


# ---------------------------------------------------------------------------
# sandwich assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichRow:
    lam: float
    l2: float
    l1: float
    e: float
    u_star: float

    def margins(self, tol: float) -> tuple:
        """(L1 - L2 + tol, e - L1, U* - e + tol): all must be >= 0."""
        return (self.l1 - self.l2 + tol, self.e - self.l1,
                self.u_star - self.e + tol)


@dataclass(frozen=True)
class SandwichReport:
    rows: tuple
    ordering_tol: float
    passed: bool
    margin_min: float
    worst_lam: float
    worst_pair: str


def sandwich_report(rows) -> SandwichReport:
    """Check L2 - tol <= L1 <= e <= U* + tol at every lam (ORDERING_TOL)."""
    rows = tuple(sorted(rows, key=lambda r: -r.lam))
    if not rows:
        raise ConfigError("sandwich report needs at least one row")
    pair_names = ("L1-L2", "e-L1", "U*-e")
    margin_min, worst_lam, worst_pair = math.inf, rows[0].lam, pair_names[0]
    for r in rows:
        for name, m in zip(pair_names, r.margins(ORDERING_TOL)):
            if m < margin_min:
                margin_min, worst_lam, worst_pair = m, r.lam, name
    return SandwichReport(rows=rows, ordering_tol=ORDERING_TOL,
                          passed=margin_min >= 0.0, margin_min=margin_min,
                          worst_lam=worst_lam, worst_pair=worst_pair)
