"""Truncated occupation basis: ordering, ranking, ladder maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron_effmass import fock
from polaron_effmass.errors import CapacityError, DomainError
from polaron_effmass.fock import _rank_batch, enumerate_basis
from polaron_effmass.model import build_mode_grid


def apply_creation(occ, mode: int, n_max: int):
    """a_mode^dagger on an occupation tuple, by hand.

    Returns (new_occ, sqrt(o_mode + 1)) or None when the result leaves the
    truncation.
    """
    if sum(occ) + 1 > n_max:
        return None
    new = occ[:mode] + (occ[mode] + 1,) + occ[mode + 1:]
    return new, math.sqrt(occ[mode] + 1.0)


def apply_annihilation(occ, mode: int):
    """a_mode on an occupation tuple with o_mode >= 1, by hand.

    Returns (new_occ, sqrt(o_mode)).
    """
    new = occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]
    return new, math.sqrt(occ[mode])


@pytest.mark.parametrize("m,n", [(1, 0), (1, 5), (2, 3), (3, 4), (5, 2)])
def test_dimension_is_binomial(m, n):
    assert enumerate_basis(m, n).dim == math.comb(m + n, n)


def test_graded_lex_order():
    basis = enumerate_basis(2, 2)
    expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [tuple(row) for row in basis.occupations.tolist()] == expected
    assert basis.occupations[0].tolist() == [0, 0]  # vacuum first


def test_totals_are_nondecreasing_and_states_unique():
    basis = enumerate_basis(4, 3)
    assert np.all(np.diff(basis.occupations.sum(1)) >= 0)
    seen = {tuple(row) for row in basis.occupations}
    assert len(seen) == basis.dim


def _recursive_basis(m: int, n_max: int) -> tuple:
    """(occupations, creation_index, creation amplitudes) by the recursive
    enumeration: each total block generated composition by composition,
    lex ascending, and each creation map looked up state by state."""

    def compositions(m, total):
        if m == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(m - 1, total - head):
                yield (head,) + rest

    states = [s for t in range(n_max + 1) for s in compositions(m, t)]
    index = {s: i for i, s in enumerate(states)}
    cidx = np.full((len(states), m), -1, dtype=np.int32)
    camp = np.zeros((len(states), m))
    for i, s in enumerate(states):
        for mode in range(m):
            step = apply_creation(s, mode, n_max)
            if step is not None:
                cidx[i, mode] = index[step[0]]
                camp[i, mode] = step[1]
    return np.array(states, dtype=np.uint16).reshape(-1, m), cidx, camp


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n_max", range(5))
def test_enumeration_matches_the_recursive_one(m, n_max):
    basis = enumerate_basis(m, n_max)
    occ, cidx, camp = _recursive_basis(m, n_max)
    assert basis.occupations.dtype == occ.dtype
    assert np.array_equal(basis.occupations, occ)
    assert basis.creation_index.dtype == cidx.dtype
    assert np.array_equal(basis.creation_index, cidx)
    # the amplitude of a_i^+ is sqrt(o_i + 1) at every valid creation slot
    valid = basis.creation_index >= 0
    assert np.array_equal(np.sqrt(basis.occupations[valid] + 1.0),
                          camp[valid])


def rank(basis, occ) -> int:
    """Graded-lex rank of one occupation tuple."""
    return int(_rank_batch(np.array([occ]), basis.m_modes)[0])


def test_index_of_inverts_state():
    basis = enumerate_basis(3, 4)
    for i in range(basis.dim):
        assert rank(basis, basis.occupations[i]) == i


def test_creation_maps_match_ladder_action():
    basis = enumerate_basis(3, 3)
    index = {tuple(int(o) for o in row): i
             for i, row in enumerate(basis.occupations)}
    for s in range(basis.dim):
        occ = tuple(basis.occupations[s].tolist())
        for mode in range(3):
            target = basis.creation_index[s, mode]
            out = apply_creation(occ, mode, basis.n_max)
            if out is None:
                assert target == -1
            else:
                new_occ, amp = out
                assert target == index[new_occ]
                assert math.sqrt(basis.occupations[s, mode] + 1) \
                    == pytest.approx(amp)
                back, down_amp = apply_annihilation(new_occ, mode)
                assert back == occ
                assert down_amp == pytest.approx(amp)


def test_field_momenta_and_frequency_sums():
    grid = build_mode_grid(dk=1.0, uv_cutoff=1.0, ir_cutoff=0.5)  # {-1, +1}
    basis = enumerate_basis(grid.size, 2)
    omegas = np.array([1.0, 3.0])
    mom = basis.field_momenta(grid)
    freq = basis.frequency_sums(omegas)
    for i in range(basis.dim):
        occ = basis.occupations[i].astype(float)
        assert mom[i] == pytest.approx(occ @ grid.momenta)
        assert freq[i] == pytest.approx(occ @ omegas)
    with pytest.raises(DomainError):
        basis.frequency_sums(np.array([1.0]))


def test_permute_modes_realizes_parity():
    grid = build_mode_grid(dk=0.5, uv_cutoff=1.0)
    basis = enumerate_basis(grid.size, 2)
    sigma = basis.permute_modes(grid.parity_permutation())
    mom = basis.field_momenta(grid)
    assert np.allclose(mom[sigma], -mom)
    # involution: applying parity twice is the identity
    assert np.array_equal(sigma[sigma], np.arange(basis.dim))


def test_capacity_error_before_allocation(monkeypatch):
    monkeypatch.setattr(fock, "BASIS_CAPACITY", 10_000)
    with pytest.raises(CapacityError):
        enumerate_basis(40, 12)


def test_basis_guards():
    with pytest.raises(DomainError):
        enumerate_basis(0, 2)
    with pytest.raises(DomainError):
        enumerate_basis(2, -1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.data())
def test_rank_roundtrip_property(m, n, data):
    basis = enumerate_basis(m, n)
    idx = data.draw(st.integers(0, basis.dim - 1))
    assert rank(basis, basis.occupations[idx]) == idx
