"""Truncated bosonic occupation basis with total-number cap.

States are occupation vectors (o_1, ..., o_m) over the retained modes with
sum(o) <= n_max, ordered graded-lexicographically: first by total occupation,
then lexicographically within each total block.  The vacuum has index 0.

Indexing uses a closed-form combinatorial rank (a perfect hash on the basis),
so hot paths work on precomputed index arrays instead of dictionary lookups.
With suffix sums S_j = sum_{l >= j} o_l and mj = m - j - 1 the rank is

    rank(o) = C(t + m - 1, m) + sum_j [ C(S_j + mj, mj) - C(S_{j+1} + mj, mj) ]

where t = sum(o); the first term is the start offset of the total-t block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .model import BASIS_CAPACITY, ModeGrid

__all__ = [
    "FockBasis",
    "enumerate_basis",
]


def _pascal_table(n: int, r: int) -> np.ndarray:
    """Table P[a, b] = C(a, b) for 0 <= a <= n, 0 <= b <= r, as int64.

    An entry C(a, b) is the sum of entries with a - b no larger, and the
    ranks read only entries with a - b at most n_max, which stay below the
    dimension of the basis, so those entries are exact.
    """
    tab = np.zeros((n + 1, r + 1), dtype=np.int64)
    tab[:, 0] = 1
    for a in range(1, n + 1):
        upto = min(a, r)
        tab[a, 1:upto + 1] = tab[a - 1, 1:upto + 1] + tab[a - 1, 0:upto]
    return tab


@dataclass(frozen=True)
class FockBasis:
    """Enumerated truncated occupation basis with precomputed index maps."""

    m_modes: int
    n_max: int
    occupations: np.ndarray   # (dim, m) uint16
    creation_index: np.ndarray  # (dim, m) int32, -1 when sum would exceed n_max

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def field_momenta(self, grid: ModeGrid) -> np.ndarray:
        """Total field momentum of every state, shape (dim,)."""
        if grid.size != self.m_modes:
            raise DomainError("mode grid does not match the basis mode count")
        return self.occupations.astype(float) @ grid.momenta

    def frequency_sums(self, omega: np.ndarray) -> np.ndarray:
        """sum_i o_i omega_i for every state."""
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (self.m_modes,):
            raise DomainError("omega vector does not match the basis mode count")
        return self.occupations.astype(float) @ omega

    def permute_modes(self, perm: np.ndarray) -> np.ndarray:
        """Index map sigma with state sigma[s] = state s with modes permuted.

        perm sends mode i of the source to mode perm[i] of the target; used to
        realize k -> -k parity on symmetric grids.
        """
        permuted = np.zeros_like(self.occupations)
        permuted[:, np.asarray(perm, dtype=np.int64)] = self.occupations
        return _rank_batch(permuted.astype(np.int64), self.m_modes)


def _rank_batch(occ: np.ndarray, m: int, bumped: bool = False) -> np.ndarray:
    """Vectorized graded-lex rank of a batch of occupation rows; with
    `bumped`, the (rows, m) ranks of each row o plus every e_i.  o + e_i
    adds one to S_j for j <= i: its terms are o's shifted by one before i,
    a mixed one at i and o's own after i, all m in O(m) by prefix sums."""
    occ = occ.astype(np.int64)
    t = occ.sum(axis=1)
    tab = _pascal_table(int(t.max(initial=0)) + m, m)
    suff = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]     # S_j, j < m
    # the terms of every j < m - 1 at once: mj = m - j - 1
    mj = np.arange(m - 1, 0, -1)
    a, b = suff[:, :m - 1] + mj, suff[:, 1:m] + mj     # S_j + mj, S_{j+1} + mj
    c_b = tab[b, mj]
    terms = tab[a, mj] - c_b
    if not bumped:
        return tab[t + m - 1, m] + terms.sum(axis=1)
    c_a1 = tab[a + 1, mj]
    ranks = np.repeat(tab[t + m, m][:, None], m, axis=1)
    ranks[:, :-1] += c_a1 - c_b                                 # j = i
    ranks[:, 1:] += np.cumsum(c_a1 - tab[b + 1, mj], axis=1)    # j < i
    ranks[:, :-2] += np.cumsum(terms[:, ::-1], axis=1)[:, -2::-1]   # j > i
    return ranks


def enumerate_basis(m_modes: int, n_max: int) -> FockBasis:
    """Build the full truncated basis with creation index maps.

    Raises CapacityError before allocating anything when C(m + n_max, n_max)
    exceeds BASIS_CAPACITY.
    """
    if m_modes < 1:
        raise DomainError(f"need at least one mode, got {m_modes}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    dim = math.comb(m_modes + n_max, n_max)
    if dim > BASIS_CAPACITY:
        raise CapacityError(
            f"basis dimension {dim} exceeds capacity {BASIS_CAPACITY} "
            f"(m={m_modes}, n_max={n_max})"
        )
    # Each total-t block is the set of states o + e_i, o of total t - 1 with
    # no quanta before mode i (one pair per state), each written at its
    # rank: the block comes out in graded-lex order, and the ranks are the
    # creation maps of the states below it (-1 where o + e_i > n_max).
    occ = np.zeros((dim, m_modes), dtype=np.int64)
    cidx = np.full((dim, m_modes), -1, dtype=np.int32)
    eye = np.eye(m_modes, dtype=np.int64)
    start = 0
    for total in range(n_max):
        stop = math.comb(total + m_modes, m_modes)
        base = occ[start:stop]
        ranks = _rank_batch(base, m_modes, bumped=True)
        rows, modes = np.nonzero(np.cumsum(base, axis=1) == base)
        occ[ranks[rows, modes]] = base[rows] + eye[modes]
        cidx[start:stop] = ranks
        start = stop
    return FockBasis(
        m_modes=m_modes,
        n_max=n_max,
        occupations=occ.astype(np.uint16),
        creation_index=cidx,
    )

