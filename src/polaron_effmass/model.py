"""Model definitions: dispersions, couplings, mode grids, potentials.

Units and conventions used throughout the package:

* Space is one-dimensional: momenta, positions and mode wave numbers are
  scalars.
* hbar = 1 and the particle mass is fixed at m = 1/2, so the bare kinetic
  energy of the particle is p^2.
* Fourier transform: Vhat(q) = (2*pi)^(-1/2) * integral V(x) exp(-i q x) dx.
  Every module uses this convention; the inverse carries the same prefactor
  with exp(+i q x).
* Every mode of a field mode lattice with spacing dk carries the midpoint
  quadrature weight dk, so the grid stores only its momenta and dk.  The
  discretized coupling amplitude of mode i is v_i = v(k_i) * sqrt(dk),
  which makes sum_i |v_i|^2 a Riemann sum of integral |v(k)|^2 dk.

Of the numerical libraries only numpy is imported.
:func:`fourier_tail_fraction` integrates |Vhat| with a fixed composite
Gauss-Legendre rule, not an adaptive quadrature; :data:`TAIL_TOL` is the
largest tail fraction a run accepts without an AccuracyWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as _legendre

from .errors import CapacityError, ConfigError, DomainError

__all__ = [
    "MASS",
    "BASIS_CAPACITY",
    "ConstantDispersion",
    "ZeroCoupling",
    "ConstantCoupling",
    "PowerLawCoupling",
    "ModeGrid",
    "build_mode_grid",
    "effective_couplings",
    "ModelSpec",
    "GaussianWell",
    "PoschlTeller",
    "TAIL_TOL",
    "fourier_tail_fraction",
]

#: Particle mass.  Fixed by convention; the kinetic term is p^2 = p^2/(2*MASS).
MASS = 0.5

#: Hard ceiling on the truncated Fock dimension before a CapacityError is raised.
BASIS_CAPACITY = 5_000_000


# ---------------------------------------------------------------------------
# dispersions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantDispersion:
    """Gapped flat field dispersion omega(k) = omega0 > 0."""

    omega0: float = 1.0

    def __post_init__(self):
        if not self.omega0 > 0.0:
            raise ConfigError(f"dispersion omega0 must be positive, got {self.omega0}")

    def __call__(self, k_mag: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(k_mag, dtype=float), self.omega0)


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroCoupling:
    """Free field, v(k) = 0."""

    def __call__(self, k_mag: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(k_mag, dtype=float))


@dataclass(frozen=True)
class ConstantCoupling:
    """Flat real coupling v(k) = g."""

    g: float = 0.1

    def __call__(self, k_mag: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(k_mag, dtype=float), self.g)


@dataclass(frozen=True)
class PowerLawCoupling:
    """Real isotropic coupling v(k) = g |k|^(-s) with s >= 0.

    Singular at k = 0 for s > 0; grids feeding it must keep |k| bounded away
    from zero (ir_cutoff >= dk/2).
    """

    g: float = 0.1
    s: float = 1.0

    def __post_init__(self):
        if self.s < 0:
            raise ConfigError(f"power-law exponent must be >= 0, got {self.s}")

    def __call__(self, k_mag: np.ndarray) -> np.ndarray:
        k = np.asarray(k_mag, dtype=float)
        if self.s > 0 and np.any(k == 0.0):
            raise ConfigError(
                "power-law coupling evaluated at k = 0; use a positive ir_cutoff"
            )
        return self.g * k ** (-self.s)


# ---------------------------------------------------------------------------
# mode grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeGrid:
    """Finite set of retained field modes on a lattice of spacing dk.

    momenta has shape (m,); each mode's quadrature weight is dk.  Grids
    built by :func:`build_mode_grid` are symmetric under k -> -k and sorted
    by k.
    """

    momenta: np.ndarray
    dk: float

    def __post_init__(self):
        momenta = np.asarray(self.momenta, dtype=float)
        if momenta.ndim != 1:
            raise DomainError(
                f"mode momenta must be a 1-d array, got shape {momenta.shape}")
        object.__setattr__(self, "momenta", momenta)

    @property
    def size(self) -> int:
        return self.momenta.shape[0]

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.momenta)

    def parity_permutation(self) -> np.ndarray:
        """Index permutation pi with momenta[pi[i]] = -momenta[i]: on a
        sorted symmetric grid, the reversal.

        Raises DomainError unless the reversed grid is the negated one.
        """
        if not np.array_equal(self.momenta[::-1], -self.momenta):
            raise DomainError("mode grid is not symmetric under k -> -k")
        return np.arange(self.size - 1, -1, -1)


def build_mode_grid(dk: float, uv_cutoff: float, ir_cutoff: float = 0.0
                    ) -> ModeGrid:
    """Enumerate lattice modes k = dk * n, n integer, with ir <= |k| <= uv.

    Each mode carries the midpoint quadrature weight dk.  An empty
    selection is a configuration error.
    """
    if dk <= 0:
        raise ConfigError(f"dk must be positive, got {dk}")
    if uv_cutoff <= 0:
        raise ConfigError(f"uv_cutoff must be positive, got {uv_cutoff}")
    if ir_cutoff < 0:
        raise ConfigError(f"ir_cutoff must be >= 0, got {ir_cutoff}")
    nmax = int(math.floor(uv_cutoff / dk + 1e-9))
    sel = [n for n in range(-nmax, nmax + 1)
           if ir_cutoff - 1e-12 * dk <= abs(dk * n) <= uv_cutoff + 1e-12 * dk]
    if not sel:
        raise ConfigError(
            f"mode window [{ir_cutoff}, {uv_cutoff}] with dk={dk} retains no modes"
        )
    return ModeGrid(momenta=dk * np.asarray(sel, dtype=float), dk=dk)


def effective_couplings(coupling, grid: ModeGrid) -> np.ndarray:
    """Discretized amplitudes v_i = v(k_i) sqrt(dk) on a mode grid."""
    v = coupling(grid.magnitudes())
    return np.asarray(v, dtype=float) * math.sqrt(grid.dk)


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Complete definition of one truncated particle-field model.

    The model couples a particle of mass 1/2 to a bosonic field over the
    retained mode grid; total field occupation is capped at n_max.
    """

    dispersion: object
    coupling: object
    dk: float
    uv_cutoff: float
    ir_cutoff: float
    n_max: int
    mass: float = field(default=MASS, init=False)

    def __post_init__(self):
        if self.n_max < 0:
            raise ConfigError(f"n_max must be >= 0, got {self.n_max}")
        singular = isinstance(self.coupling, PowerLawCoupling) and self.coupling.s > 0
        if singular and self.ir_cutoff < 0.5 * self.dk:
            raise ConfigError(
                "singular couplings require ir_cutoff >= dk/2 "
                f"(got ir_cutoff={self.ir_cutoff}, dk={self.dk})"
            )

    def mode_grid(self) -> ModeGrid:
        return build_mode_grid(self.dk, self.uv_cutoff, self.ir_cutoff)

    def fock_dimension(self, grid: ModeGrid) -> int:
        dim = math.comb(grid.size + self.n_max, self.n_max)
        if dim > BASIS_CAPACITY:
            raise CapacityError(
                f"truncated Fock dimension {dim} exceeds capacity {BASIS_CAPACITY}"
            )
        return dim


# ---------------------------------------------------------------------------
# pinning potentials
# ---------------------------------------------------------------------------

class _Potential:
    """Shared helpers for the closed-form potential families."""

    def values(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fourier(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sup_norm(self) -> float:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.values(x)


@dataclass(frozen=True)
class GaussianWell(_Potential):
    """Attractive Gaussian well V(x) = -depth exp(-x^2/(2 width^2)).

    Closed-form transform: Vhat(q) = -depth width exp(-width^2 q^2 / 2).
    """

    depth: float
    width: float = 1.0

    def __post_init__(self):
        if self.depth <= 0 or self.width <= 0:
            raise ConfigError("GaussianWell needs depth > 0 and width > 0")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return -self.depth * np.exp(-0.5 * (x * x) / self.width**2)

    def fourier(self, q):
        q = np.asarray(q, dtype=float)
        return -self.depth * self.width * np.exp(-0.5 * self.width**2 * (q * q))

    def sup_norm(self):
        return self.depth


@dataclass(frozen=True)
class PoschlTeller(_Potential):
    """Poschl-Teller well V(x) = -depth sech^2(x).

    Vhat(q) = -depth (2 pi)^(-1/2) * pi q / sinh(pi q / 2), continuous at q=0
    with value -2 depth / sqrt(2 pi).  For depth = l(l+1)/2m the ground energy
    of p^2/2m + V is -l^2/(2m) exactly, which the tests exploit.
    """

    depth: float

    def __post_init__(self):
        if self.depth <= 0:
            raise ConfigError("PoschlTeller needs depth > 0")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return -self.depth / np.cosh(x) ** 2

    def fourier(self, q):
        q = np.asarray(q, dtype=float)
        out = np.empty_like(q)
        small = np.abs(q) < 1e-8
        # pi q / sinh(pi q/2) -> 2 as q -> 0
        out[small] = 2.0 - (np.pi * q[small]) ** 2 / 12.0
        qs = q[~small]
        # pi q / sinh(pi q / 2), written to stay finite for large |q|
        half = 0.5 * np.pi * np.abs(qs)
        out[~small] = 2.0 * np.pi * np.abs(qs) * np.exp(-half) / (
            1.0 - np.exp(-2.0 * half))
        return -self.depth / math.sqrt(2.0 * math.pi) * out

    def sup_norm(self):
        return self.depth


#: Largest fraction of integral |Vhat| the potential kernel may leave beyond
#: the grid's maximum momentum transfer 2 q_max before a run warns.
TAIL_TOL = 1e-6

# Composite Gauss-Legendre rule of fourier_tail_fraction: _GL_ORDER nodes per
# panel; panels of width _PANEL on [0, q_cut], then _TAIL_PANELS panels from
# q_cut whose widths start at _PANEL and grow by _TAIL_RATIO, reaching about
# 1e8 beyond q_cut.  Every potential family's transform decays at least like
# a Gaussian or an exponential, so the rest of the tail is negligible.
_GL_ORDER = 20
_PANEL = 0.25
_TAIL_RATIO = 1.2
_TAIL_PANELS = 100
_GL_NODES, _GL_WEIGHTS = _legendre.leggauss(_GL_ORDER)


def _abs_integral(f, edges: np.ndarray) -> float:
    """Integral of |f| over [edges[0], edges[-1]], one rule per panel.

    Every potential family's transform keeps one sign on the half-line, so
    |f| has no kink inside a panel for the rule to miss.
    """
    half = 0.5 * np.diff(edges)
    vals = f(edges[:-1, None] + half[:, None] * (1.0 + _GL_NODES))
    return float(half @ (np.abs(vals) @ _GL_WEIGHTS))


def fourier_tail_fraction(potential: _Potential, q_cut: float) -> float:
    """Fraction of integral |Vhat| carried by |q| > q_cut.

    Both halves come from the fixed rule of :func:`_abs_integral`: uniform
    panels on [0, q_cut] and geometrically growing panels on [q_cut, inf).
    """
    n_head = max(1, math.ceil(q_cut / _PANEL))
    growth = _TAIL_RATIO ** np.arange(_TAIL_PANELS + 1)
    head = _abs_integral(potential.fourier, np.linspace(0.0, q_cut, n_head + 1))
    tail = _abs_integral(potential.fourier,
                         q_cut + _PANEL * (growth - 1.0) / (_TAIL_RATIO - 1.0))
    total = head + tail
    return tail / total if total > 0 else 0.0
