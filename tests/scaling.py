"""The scaling identity's two sides, for the tests that check it.

infspec(p^2/2m + lam^2 V(lam x)) on a grid equals lam^2 times
infspec(p^2/2m + V) on the grid stretched by 1/lam.  No run of the package
needs either side; criterion 8 and the static-mass tests check that the
comparison-energy chain honours the identity.
"""

from dataclasses import dataclass

import numpy as np

from polaron_effmass.errors import DomainError
from polaron_effmass.model import _Potential
from polaron_effmass.operators import ElectronGrid, potential_kernel
from polaron_effmass.staticmass import schrodinger_energy


@dataclass(frozen=True)
class ScaledPotential(_Potential):
    """The rescaled well lam^2 V(lam x) that drives the small-lam limit.

    Vhat_scaled(q) = lam Vhat(q/lam).
    """

    base: _Potential
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError(f"scale parameter must be positive, got {self.lam}")

    def values(self, x):
        return self.lam**2 * self.base.values(self.lam * np.asarray(x, dtype=float))

    def fourier(self, q):
        q = np.asarray(q, dtype=float)
        return self.lam * self.base.fourier(q / self.lam)

    def sup_norm(self):
        return self.lam**2 * self.base.sup_norm()


def scaled_grid(egrid: ElectronGrid, factor: float) -> ElectronGrid:
    """`egrid` with its spacing and extent multiplied by `factor`."""
    if factor <= 0:
        raise DomainError("scale factor must be positive")
    return ElectronGrid(egrid.dq * factor, egrid.q_max * factor)


def scaled_comparison_pair(mass: float, potential, lam: float,
                           egrid: ElectronGrid) -> tuple:
    """The two sides of the scaling identity on exactly matched grids.

    infspec(p^2/2m + lam^2 V(lam x)) on `egrid` equals lam^2 times
    infspec(p^2/2m + V) on the grid stretched by 1/lam; the match is an
    exact discrete similarity, so the pair agrees to rounding.
    """
    left = schrodinger_energy(
        mass, potential_kernel(ScaledPotential(potential, lam), egrid), egrid)
    stretched = scaled_grid(egrid, 1.0 / lam)
    right = schrodinger_energy(mass, potential_kernel(potential, stretched),
                               stretched)
    return left, lam * lam * right
