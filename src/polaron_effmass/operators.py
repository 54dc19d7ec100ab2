"""Sparse and factored assembly of the model Hamiltonians.

Operators built here, all real-symmetric:

* fixed-total-momentum fibers  (P - P_f)^2 / (2m) + H_f + sum_i v_i (a_i^+ + a_i)
  on a truncated Fock space (:class:`FiberTemplate`), built for any list of
  momenta as one :class:`FiberBatch` that shares the interaction matrix;
* the coupled scaling-limit operator on an electron momentum grid tensored
  with the Fock space (:func:`assemble_coupled_llp`),

      A(lam) = blockdiag_j [fiber(lam q_j) - e0] / lam^2 + W (x) I_F,

  where W is the momentum-space kernel of the external potential, folded
  onto the sector even under grid reversal times mode reflection;
* the one-particle comparison operator q^2/(2m) + W on the same grid
  (:func:`assemble_schrodinger`);
* a matched pair of finite-ring operators used only for cross-checks:
  the position-space tensor Hamiltonian with a 3-point Laplacian and
  realified field modes (:func:`assemble_direct_tensor`) and its
  field-momentum-frame twin with cosine kinetic blocks and a DFT-sampled
  potential kernel (:func:`assemble_llp_ring`).  For mode momenta
  commensurate with the ring the two have identical spectra in exact
  arithmetic, which pins down the frame transform, the realification and
  the grid (x) Fock layout at once.

The coupled operator and the field-momentum-frame ring operator share one
form and one apply path, :class:`SymmetricOperator`: the Kronecker sum of a
dense grid kernel and a sparse Fock block plus a diagonal, applied in
factored form on its sector even under a symmetry, which is the grid
reversal times the mode reflection for the coupled operator and trivial
for the ring.  The direct tensor and the comparison operator are dense.

The Davidson solvers read every operator through one block-apply protocol:
`dim`, `len(op)` members, `diagonals()`, a fresh (members, dim) array the
caller may overwrite, one row per member, and `apply(members, X)`, row i of
X times member members[i].
:class:`FiberBatch` has a member per momentum, :class:`SymmetricOperator`
is a batch of one, applied one :meth:`matvec` per row.

The production assembly uses the exact quadratic kinetic energy and the
closed-form potential transform; the ring pair uses the cosine kinetic and
the sampled kernel so that the two ring operators match each other exactly.
Spectra are compared only between matched discretizations.

Index layout everywhere: grid-major, state = j * fock_dim + s; a fold
stores node 0's orbit coordinates first, then the nodes after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .errors import CapacityError, ConfigError, DomainError
from .fock import enumerate_basis
from .model import ModelSpec, effective_couplings

__all__ = [
    "SymmetricOperator",
    "ElectronGrid",
    "FiberTemplate",
    "FiberBatch",
    "assemble_coupled_llp",
    "assemble_schrodinger",
    "potential_kernel",
    "ring_sites",
    "ring_potential_kernel",
    "assemble_llp_ring",
    "assemble_direct_tensor",
]

# Largest dimension to_dense and assemble_direct_tensor densify.
_DENSIFY_MAX = 4000


def _check_symmetric(matrix, name: str):
    """Raise DomainError unless max|M - M^T| <= 1e-12 max(1, max|M|).

    A dense array is checked densely, a sparse matrix on its stored
    entries; both take the same maxima."""
    if isinstance(matrix, np.ndarray):
        err = float(np.abs(matrix - matrix.T).max(initial=0.0))
        scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    else:
        m = sp.csr_matrix(matrix)
        diff = (m - m.T).tocoo()
        err = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
        scale = max(1.0, float(np.max(np.abs(m.data))) if m.nnz else 0.0)
    if err > 1e-12 * scale:
        raise DomainError(
            f"operator {name or '<unnamed>'} is not symmetric "
            f"(max asymmetry {err:.3e})"
        )


class SymmetricOperator:
    """The real-symmetric sum I_{n_q} (x) block + kernel (x) I_F + diag,
    folded onto the sector even under a grid reversal times a Fock state
    involution.

    On the grid-major layout, `block` is the sparse F x F part of one grid
    node, `kernel` the dense n_q x n_q grid factor and `diag` an extra
    diagonal of length `dim`.  The split keeps assemblies free of explicit
    stored zeros: purely diagonal contributions (kinetic terms, field
    energies, shifts) live in `diag`.  The sum is stored as its factors and
    applied in factored form, never assembled.  It is symmetric when every
    factor is, so each factor is checked at construction.

    The fold (:func:`assemble_coupled_llp`) adds the factor mirror (x) S on
    the nodes after node 0, S the Fock state involution `reflection`, and
    node 0 keeps only the S-even vectors, in the coordinates of the orbits
    (f + S f) / sqrt(2) and the fixed points of S.  Such a vector has
    F0 + (n_q - 1) F entries, F0 the number of orbits.  :meth:`to_rows`
    spreads a vector over the n_q x F node rows the factors act on and
    :meth:`from_rows` takes rows back, node 0 to its S-even part.  By
    default S is the identity and the mirror zero: the trivial symmetry,
    under which the fold is the unfolded Kronecker sum itself
    (:func:`assemble_llp_ring`).
    """

    def __init__(self, block, kernel, diag, *, mirror=None, reflection=None,
                 name=""):
        m = sp.csr_matrix(block)
        if m.shape[0] != m.shape[1]:
            raise DomainError("operator block must be square")
        m.sum_duplicates()
        m.eliminate_zeros()
        self.matrix = m
        self.kernel = np.asarray(kernel, dtype=float)
        if self.kernel.ndim != 2 or self.kernel.shape[0] != self.kernel.shape[1]:
            raise DomainError("operator kernel must be square")
        fdim, n = m.shape[0], self.kernel.shape[0] - 1
        S = np.arange(fdim) if reflection is None else np.asarray(reflection)
        if S.shape != (fdim,) or not np.array_equal(S[S], np.arange(fdim)):
            raise DomainError("reflection must be an involution of the "
                              "Fock states")
        self.mirror = np.asarray(mirror if mirror is not None
                                 else np.zeros((n, n)), dtype=float)
        if self.mirror.shape != (n, n):
            raise DomainError("mirror must span the nodes after node 0")
        _check_symmetric(self.mirror, f"{name} mirror")
        self.reflection = S
        reps = np.flatnonzero(S >= np.arange(fdim))
        fixed = S[reps] == reps
        # P = spread of the orbit coordinates, P^T = their gather
        self._orbits = (reps, S[reps], np.where(fixed, 1.0, math.sqrt(0.5)),
                        np.where(fixed, 0.5, math.sqrt(0.5)))
        self._head = reps.size
        self.diag = np.asarray(diag, dtype=float)
        if self.diag.shape != (self.dim,):
            raise DomainError("diagonal length does not match operator dimension")
        self.name = name
        _check_symmetric(m, f"{name} block")
        _check_symmetric(self.kernel, f"{name} kernel")

    @property
    def dim(self) -> int:
        return self._head + (self.kernel.shape[0] - 1) * self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        """Stored entries of the equivalent assembled matrix, node 0 counted
        at its F states."""
        n_q, fdim = self.kernel.shape[0], self.matrix.shape[0]
        return (n_q * self.matrix.nnz
                + (n_q * n_q + np.count_nonzero(self.mirror)) * fdim
                + self.dim)

    def to_rows(self, x: np.ndarray) -> np.ndarray:
        """The n_q x F node rows of a vector, node 0's orbit coordinates
        spread over its F states."""
        fdim = self.matrix.shape[0]
        reps, partners, spread, _ = self._orbits
        X = np.empty((self.kernel.shape[0], fdim))
        head = spread * x[:self._head]
        X[0, partners] = head
        X[0, reps] = head
        X[1:] = x[self._head:].reshape(-1, fdim)
        return X

    def from_rows(self, X: np.ndarray) -> np.ndarray:
        """The vector of node rows X, the adjoint of :meth:`to_rows`: node
        0's row goes to its orbit coordinates."""
        reps, partners, _, gather = self._orbits
        return np.concatenate([(X[0, reps] + X[0, partners]) * gather,
                               X[1:].ravel()])

    def _apply(self, x, block, kernel, mirror, diag):
        X = self.to_rows(x)
        Y = kernel @ X
        Y += (block @ X.T).T
        Y[1:] += mirror @ X[1:, self.reflection]
        y = self.from_rows(Y)
        y += diag * x
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self.matrix, self.kernel, self.mirror, self.diag)

    def absolute_matvec(self, x: np.ndarray) -> np.ndarray:
        """|op| x: the product with every factor taken entrywise absolute."""
        return self._apply(x, abs(self.matrix), np.abs(self.kernel),
                           np.abs(self.mirror), np.abs(self.diag))

    def __len__(self) -> int:
        return 1

    def apply(self, members: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.stack([self.matvec(x) for x in X])

    def diagonals(self) -> np.ndarray:
        n_q = self.kernel.shape[0]
        d = np.asarray(self.matrix.diagonal(), dtype=float)
        D = np.tile(d, (n_q, 1)) + np.diag(self.kernel)[:, None]
        reps, partners, _, _ = self._orbits
        S = self.reflection
        D[1:] += np.diag(self.mirror)[:, None] * (S == np.arange(S.size))
        # node 0: the orbit's mean, and its pair's coupling in the block
        cross = np.asarray(self.matrix[reps, partners]).ravel()
        head = (0.5 * (D[0, reps] + D[0, partners])
                + np.where(reps == partners, 0.0, cross))
        return (np.concatenate([head, D[1:].ravel()]) + self.diag)[None]

    def to_dense(self) -> np.ndarray:
        """The matrix, written column by column: the unit vectors' images."""
        n = self.dim
        if n > _DENSIFY_MAX:
            raise CapacityError(f"refusing to densify dimension {n} > {_DENSIFY_MAX}")
        out, e = np.empty((n, n), order="F"), np.zeros(n)
        for j in range(n):
            e[j - 1], e[j] = 0.0, 1.0       # e = e_j
            out[:, j] = self.matvec(e)
        return out

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<SymmetricOperator{label} dim={self.dim} nnz={self.nnz}>"


@dataclass(frozen=True)
class ElectronGrid:
    """Symmetric momentum lattice for the particle, q in dq * {-n, ..., n}.

    The lattice spacing determines an implied periodic box of circumference
    2 pi / dq; kernels built on the grid are convolution operators on that
    box.  The point count is always odd so that q = 0 is a grid point and
    the grid is symmetric under q -> -q.
    """

    dq: float
    q_max: float

    def __post_init__(self):
        if self.dq <= 0:
            raise ConfigError(f"grid spacing must be positive, got {self.dq}")
        if self.q_max < 0:
            raise ConfigError(f"grid extent must be nonnegative, got {self.q_max}")

    @property
    def size(self) -> int:
        return 2 * int(math.floor(self.q_max / self.dq + 1e-12)) + 1

    @cached_property
    def points(self) -> np.ndarray:
        n_half = self.size // 2
        return np.arange(-n_half, n_half + 1).astype(float) * self.dq

    def kinetic_diagonal(self, mass: float) -> np.ndarray:
        return self.points**2 / (2.0 * mass)


class FiberTemplate:
    """Shared pieces of the fixed-momentum fibers of one model.

    Only the kinetic diagonal depends on the total momentum, so the Fock
    basis, the interaction matrix and the field-energy diagonal are built
    once and reused across momenta; :meth:`operator` gives the fibers of
    any list of momenta as one :class:`FiberBatch`.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.grid = spec.mode_grid()
        self.basis = enumerate_basis(self.grid.size, spec.n_max)
        self.omegas = np.asarray(spec.dispersion(self.grid.magnitudes()), dtype=float)
        self.couplings = effective_couplings(spec.coupling, self.grid)
        self.field_momenta = self.basis.field_momenta(self.grid)
        self.frequency_sums = self.basis.frequency_sums(self.omegas)
        self.interaction = self._interaction_csr()

    def _interaction_csr(self) -> sp.csr_matrix:
        basis = self.basis
        dim = basis.dim
        valid = basis.creation_index >= 0
        state_idx, mode_idx = np.nonzero(valid)
        rows = basis.creation_index[valid]
        # sqrt(o_i + 1), the amplitude of a_i^+ on each state
        vals = (np.sqrt(basis.occupations[valid] + 1.0)
                * self.couplings[mode_idx])
        keep = vals != 0.0
        rows, cols, vals = rows[keep], state_idx[keep], vals[keep]
        upper = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
        return (upper + upper.T).tocsr()

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def reflection(self) -> np.ndarray:
        """The Fock state map S of the mode reflection R, k -> -k: state S[s]
        is state s with each mode's occupation moved to its mirror mode.

        S maps the fiber at P onto the fiber at -P: couplings and
        frequencies depend on |k| only, and k and -k have the same
        magnitude bit for bit.  Raises DomainError when the mode grid is not
        closed under k -> -k.
        """
        return self.basis.permute_modes(self.grid.parity_permutation())

    def operator(self, Ps) -> "FiberBatch":
        """The fibers at the total momenta `Ps`, as one batch."""
        diff = np.asarray(Ps, dtype=float)[:, None] - self.field_momenta
        diag = diff * diff / (2.0 * self.spec.mass) + self.frequency_sums
        return FiberBatch(self.interaction, diag)


class FiberBatch:
    """Fibers of one template at several momenta: interaction + diag(diag[b]).

    The members share the interaction matrix, so a block of vectors of
    several members is applied by one CSR product, and each member adds its
    own diagonal.  Each column of the product sums its row entries in the
    same order whatever else is in the block, so a vector's image does not
    depend on the batch it is applied in.
    """

    def __init__(self, interaction: sp.csr_matrix, diag: np.ndarray):
        self.interaction = interaction
        self.diag = diag

    @property
    def dim(self) -> int:
        return self.interaction.shape[0]

    def __len__(self) -> int:
        return self.diag.shape[0]

    def diagonals(self) -> np.ndarray:
        """Fresh (members, dim) array of the members' diagonals."""
        return self.diag + self.interaction.diagonal()

    def apply(self, members: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Row i of X times the fiber of member members[i], as a C-ordered
        array of X's shape.

        csr_matvec, the kernel scipy's own product calls for one vector,
        writes each row's product straight into its row of the result: the
        sums of the multi-vector kernel csr_matvecs, in the same order, so
        the same bits, without its transposed copies.  Its one temporary of
        X's size is the gathered diagonals, scaled in place.
        """
        m = self.interaction
        n = m.shape[0]
        X = np.ascontiguousarray(X)
        Y = np.zeros(X.shape)
        for x, y in zip(X, Y):
            _csr_matvec(n, n, m.indptr, m.indices, m.data, x, y)
        D = self.diag[members]
        D *= X
        Y += D
        return Y


def potential_kernel(potential, egrid: ElectronGrid) -> np.ndarray:
    """Momentum-space kernel W[j,j'] = (2 pi)^(-1/2) Vhat(q_j - q_j') dq.

    Dense, symmetric, and includes the diagonal (the q = 0 transform).  This
    is the quadrature of the convolution with Vhat on the implied box.
    """
    pts = egrid.points
    n = pts.shape[0]
    fhat = potential.fourier((pts[:, None] - pts[None, :]).ravel()).reshape(n, n)
    w = (2.0 * math.pi) ** -0.5 * egrid.dq * fhat
    return 0.5 * (w + w.T)


def assemble_schrodinger(kernel: np.ndarray, egrid: ElectronGrid, mass: float,
                         *, v_scale: float = 1.0) -> np.ndarray:
    """Dense one-particle operator q^2/(2 mass) + v_scale * W on the grid.

    `kernel` is the potential's kernel W on `egrid` (:func:`potential_kernel`),
    which does not depend on the mass, so a caller that scans masses builds
    it once; it is not modified.  The comparison energy curve is only
    meaningful for mass >= 1/2 (the particle cannot get lighter by coupling
    to the field), so smaller masses are rejected.
    """
    if mass < 0.5 - 1e-12:
        raise DomainError(f"mass must be >= 1/2, got {mass}")
    h = v_scale * kernel
    h[np.diag_indices_from(h)] += egrid.kinetic_diagonal(mass)
    return h


def assemble_coupled_llp(template: FiberTemplate, kernel: np.ndarray,
                         egrid: ElectronGrid, lam: float,
                         e0: float) -> SymmetricOperator:
    """The coupled operator A(lam), folded onto its J (x) R-even sector.

    On the grid (x) Fock space, block j carries the grounded fiber
    (fiber(lam q_j) - e0) / lam^2; the external potential acts through its
    momentum kernel on the grid index only.  `kernel` is that kernel on
    `egrid` (:func:`potential_kernel`), which does not depend on lam.  `e0`
    is the fiber ground energy at P = 0 and must be supplied by the caller
    (it is a solver output, not a model parameter).

    J reverses the grid and R reflects the field modes (S =
    template.reflection on the Fock states).  For an even kernel J (x) R
    maps A(lam) onto itself, and the returned operator is E^T A(lam) E on
    its even sector, E the isometry that keeps the nodes q_j >= 0, scales
    the nodes q_j > 0 by sqrt(2) and keeps at q = 0 the R-even orbits (see
    :class:`SymmetricOperator`).  With W_+ the kernel among the kept nodes
    and W_- its block from q_j to -q_k, j, k > 0, the fold is

        I (x) block + W_+' (x) I + W_- (x) S + diag,

    W_+' being W_+ with its node-0 couplings scaled by sqrt(2); the
    blocks and the diagonal are those of the kept nodes.  Its vectors have
    about half the entries of A's: E y puts node q_j's row of y, over
    sqrt(2) where q_j > 0, at q_j and its reflection at -q_j.  A kernel
    that is not even raises DomainError.
    """
    if lam <= 0:
        raise DomainError(f"scaling parameter must be positive, got {lam}")
    if not np.array_equal(kernel, kernel[::-1, ::-1]):
        raise DomainError("the even-sector fold needs a kernel even under "
                          "q -> -q")
    spec = template.spec
    half = egrid.size // 2
    inv_l2 = 1.0 / (lam * lam)
    # kinetic diagonal of the kept fibers at once: |lam q_j - P_f|^2 / (2m)
    diff = lam * egrid.points[half:, None] - template.field_momenta[None, :]
    kin = diff * diff / (2.0 * spec.mass)
    diag = (kin + (template.frequency_sums - e0)[None, :]) * inv_l2
    S = template.reflection
    head = 0.5 * (diag[0] + diag[0, S])[S >= np.arange(S.size)]
    plus = kernel[half:, half:].copy()
    plus[0, 1:] *= math.sqrt(2.0)
    plus[1:, 0] *= math.sqrt(2.0)
    mirror = np.ascontiguousarray(kernel[half + 1:, :half][:, ::-1])
    return SymmetricOperator(template.interaction * inv_l2, plus,
                             np.concatenate([head, diag[1:].ravel()]),
                             mirror=mirror, reflection=S,
                             name=f"coupled(lam={lam:g})")


# ---------------------------------------------------------------------------
# finite-ring cross-check pair
# ---------------------------------------------------------------------------
#
# An ElectronGrid with spacing dq and n_q points pairs with a position ring
# of circumference L = 2 pi / dq and n_q sites; the DFT maps one onto the
# other exactly.  On that ring the frame transform exp(i x P_f) is a genuine
# diagonal unitary provided every mode momentum is a multiple of 2 pi / L =
# dq (otherwise the phase is discontinuous across the periodic wrap), so the
# matched pair below requires commensurate mode momenta and checks for them.

def ring_sites(egrid: ElectronGrid) -> np.ndarray:
    """Sites of the position ring paired with an electron grid."""
    n_x = egrid.size
    box = 2.0 * math.pi / egrid.dq
    dx = box / n_x
    return (np.arange(n_x) - n_x // 2) * dx


def ring_potential_kernel(potential, egrid: ElectronGrid) -> np.ndarray:
    """DFT kernel of the site-sampled potential, <q|V|q'> on the paired ring.

    Toeplitz in the momentum index: entry (a, b) is the discrete transform
    (1/n_x) sum_n V(x_n) exp(-i (q_a - q_b) x_n), which is real because the
    site set is symmetric and the potential is even.  This is the sampled
    counterpart of :func:`potential_kernel`; the two agree up to aliasing.
    """
    sites = ring_sites(egrid)
    n_x = egrid.size
    vals = np.asarray(potential.values(sites), dtype=float)
    if not np.allclose(vals, vals[::-1], rtol=0,
                       atol=1e-12 * max(1.0, float(np.max(np.abs(vals))))):
        raise DomainError("ring kernel requires an even potential")
    shifts = np.arange(n_x)
    phases = np.exp(-1j * egrid.dq * shifts[:, None] * sites[None, :])
    col = phases @ vals / n_x
    if float(np.max(np.abs(col.imag))) > 1e-12 * max(1.0, float(np.max(np.abs(col.real)))):
        raise DomainError("ring kernel unexpectedly complex")
    return sla.toeplitz(col.real)


def _ring_guard(template: FiberTemplate, egrid: ElectronGrid):
    if egrid.size < 3:
        raise DomainError("ring needs at least 3 sites")
    ratios = template.grid.momenta / egrid.dq
    if np.max(np.abs(ratios - np.round(ratios))) > 1e-9:
        raise ConfigError(
            "matched ring pair needs mode momenta that are integer multiples "
            f"of the grid spacing {egrid.dq:g}"
        )


def assemble_llp_ring(template: FiberTemplate, potential,
                      egrid: ElectronGrid) -> SymmetricOperator:
    """Field-momentum-frame ring operator: cosine kinetic + sampled kernel.

    Exactly isospectral to :func:`assemble_direct_tensor` with the same
    arguments.  A `None` potential means zero.
    """
    _ring_guard(template, egrid)
    spec = template.spec
    n_x = egrid.size
    dx = 2.0 * math.pi / egrid.dq / n_x
    arg = (egrid.points[:, None] - template.field_momenta[None, :]) * dx
    kin = (2.0 - 2.0 * np.cos(arg)) / (2.0 * spec.mass * dx * dx)
    diag_flat = (kin + template.frequency_sums[None, :]).ravel()
    if potential is None:
        kernel = np.zeros((n_x, n_x))
    else:
        kernel = ring_potential_kernel(potential, egrid)
    return SymmetricOperator(template.interaction, kernel, diag_flat,
                             name="llp-ring")


def assemble_direct_tensor(template: FiberTemplate, potential,
                           egrid: ElectronGrid) -> np.ndarray:
    """Dense position-space ring tensor Hamiltonian, realified field modes.

    Kinetic energy is the periodic 3-point Laplacian on the ring paired with
    `egrid`; the external potential is sampled on the sites.  Each +/-k mode
    pair (k > 0 representative) is rotated to the real pair
    u = (a_k + a_{-k})/sqrt(2), w = i(a_k - a_{-k})/sqrt(2), turning the
    coupling into sqrt(2) v [cos(k x)(u^+ + u) + sin(k x)(w^+ + w)]; a k = 0
    mode stays itself with coupling v (u^+ + u).  The rotation preserves the
    total occupation, so the truncated spectra match the momentum-frame
    twin's exactly.  The sparse sum is checked for symmetry and densified;
    dimensions above _DENSIFY_MAX raise CapacityError before anything is
    built.
    """
    _ring_guard(template, egrid)
    spec = template.spec
    grid = template.grid
    basis = template.basis
    sites = ring_sites(egrid)
    n_x = egrid.size
    dim = n_x * basis.dim
    if dim > _DENSIFY_MAX:
        raise CapacityError(
            f"refusing to densify dimension {dim} > {_DENSIFY_MAX}")
    dx = 2.0 * math.pi / egrid.dq / n_x
    v = template.couplings[:, None]
    k = grid.momenta[:, None]
    grid.parity_permutation()   # DomainError unless k -> -k maps the grid
    # fields per mode and site: v on k = 0; a pair +/-k turns into the real
    # pair sqrt(2) v cos(|k| x) on the k < 0 mode, sqrt(2) v sin(k x) on k > 0
    fields = np.where(k < 0, np.cos(-k * sites), np.sin(k * sites))
    fields = np.where(k == 0, v, math.sqrt(2.0) * v * fields)
    # sum_i diag(fields_i) (x) (a_i + a_i^+); a_i^+ has amplitude sqrt(o_i + 1)
    valid = basis.creation_index >= 0
    interaction = sp.csr_matrix((dim, dim))
    for i in range(grid.size):
        cols = np.flatnonzero(valid[:, i])
        up = sp.coo_matrix((np.sqrt(basis.occupations[cols, i] + 1.0),
                            (basis.creation_index[cols, i], cols)),
                           shape=(basis.dim, basis.dim))
        interaction = interaction + sp.kron(sp.diags(fields[i]), up + up.T,
                                            format="csr")
    # periodic 3-point Laplacian / (2m)
    main = np.full(n_x, 2.0)
    lap = sp.diags([main, -np.ones(n_x - 1), -np.ones(n_x - 1), [-1.0], [-1.0]],
                   [0, 1, -1, n_x - 1, -(n_x - 1)], format="csr")
    kin = sp.kron(lap / (2.0 * spec.mass * dx * dx),
                  sp.identity(basis.dim, format="csr"), format="csr")
    diag_flat = np.tile(template.frequency_sums, n_x)
    if potential is not None:
        vsite = np.asarray(potential.values(sites), dtype=float)
        diag_flat = diag_flat + np.repeat(vsite, basis.dim)
    mat = interaction + kin
    _check_symmetric(mat, "direct-tensor")
    out = mat.toarray()
    out[np.diag_indices_from(out)] += diag_flat
    return out
