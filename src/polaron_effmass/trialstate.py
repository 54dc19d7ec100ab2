"""Variational upper bound U* on e(lam): the paper's dressed trial state.

The trial vector for the coupled operator A(lam) places, at each electron
momentum node q_j, the fiber ground state Phi(lam q_j), weighted by the
envelope a_j = psi_m(q_j), the ground state of the one-particle comparison
operator q^2/(2m) + W on the same grid, m the dynamic mass
(:func:`envelope`).  It is Z a, with Z = [e_j (x) Phi_j] the coarse space
of the coupled solve, so its Rayleigh quotient is

    U = a^T M a / a^T a,
    M = Z^T A(lam) Z = diag((theta_j - e0) / lam^2) + W o (Phi Phi^T),

with M the Galerkin matrix of the fiber split
(:func:`~.staticmass.fiber_split`, theta_j the vectors' own Rayleigh
quotients).  U is the Rayleigh quotient of an explicit vector, hence an
upper bound on e(lam) up to rounding, whatever the fibers are; it lies at
or above U_G = lambda_min(M) by construction.  As lam -> 0 the diagonal
tends to q^2/(2 M_dyn) and Phi Phi^T to 1, so M tends to the comparison
operator and U to its ground energy E(M_dyn).  The envelope does not
depend on lam, so the static stage builds it once.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .operators import ElectronGrid, assemble_schrodinger

__all__ = ["envelope", "upper_bound", "minimize_upper_bound"]


def envelope(kernel, egrid: ElectronGrid, mass: float) -> np.ndarray:
    """a = psi_m on `egrid`: the unit lowest eigenvector of q^2/(2 `mass`)
    + `kernel` (:func:`~.operators.assemble_schrodinger`), signed so that
    its entries sum to a positive number."""
    _, vectors = np.linalg.eigh(assemble_schrodinger(kernel, egrid, mass))
    a = vectors[:, 0]
    return a if a.sum() > 0.0 else -a


def upper_bound(lam: float, galerkin: np.ndarray,
                weights: np.ndarray) -> float:
    """Rayleigh quotient a^T M a / a^T a of the trial vector Z a.

    `galerkin` is the Galerkin matrix M of `lam`'s fiber split and
    `weights` the a_j at its grid nodes.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    return float(weights @ galerkin @ weights) / float(weights @ weights)


def minimize_upper_bound(lam: float, galerkin: np.ndarray,
                         weights: np.ndarray) -> float:
    """U*(lam), the quotient of :func:`upper_bound` at the envelope.

    There is no search: the envelope psi_m minimizes the comparison energy
    over every weight vector, and M tends to the comparison operator as
    lam -> 0.  The name is the per-lam entry point that
    ``perfbench/tracer.py`` wraps, as it wraps :func:`upper_bound`.
    """
    return upper_bound(lam, galerkin, weights)
