import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralchain import bounds
from chiralchain.hamiltonian import CouplingProfile, build_ssh
from chiralchain.lattice import (
    ChainGeometry,
    Convention,
    GeometryError,
    SwitchError,
    SwitchFunction,
    chiral_polarization,
    make_geometry,
    switch_function,
)
from oracles import dense_theta, sublattice_signs


def test_cell_geometry_dimensions():
    geom = make_geometry(3, Convention.CELL_C2)
    assert geom.total_dim == 6
    assert list(geom.positions) == [0, 0, 1, 1, 2, 2]


def test_alternating_sites_parity():
    geom = make_geometry(5, Convention.ALTERNATING_SITES)
    assert geom.total_dim == 5
    assert list(sublattice_signs(geom)) == [1.0, -1.0, 1.0, -1.0, 1.0]


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_too_short_chain_rejected(bad):
    with pytest.raises(GeometryError):
        make_geometry(bad)


def test_non_integer_length_rejected():
    with pytest.raises(GeometryError):
        make_geometry(2.5)


@pytest.mark.parametrize("value, member", [("cell", Convention.CELL_C2), ("sites", Convention.ALTERNATING_SITES)])
def test_convention_may_be_given_by_its_value(value, member):
    for geom in (make_geometry(10, value), ChainGeometry(10, value)):
        assert geom.convention is member
        assert geom == make_geometry(10, member)
        assert (geom.total_dim, geom.cells) == ((20, 10) if member is Convention.CELL_C2 else (10, 5))


@pytest.mark.parametrize("bad", ["Cell", "site", "", 2, None, ["cell"]])
def test_unknown_convention_rejected_naming_the_value(bad):
    with pytest.raises(GeometryError, match=f"unknown convention {re.escape(repr(bad))}"):
        make_geometry(10, bad)


@pytest.mark.parametrize("bad", [0, 1, True, False, 2.5, 4.0, "4", None])
def test_geometry_checks_its_length_when_built(bad):
    with pytest.raises(GeometryError, match="chain length"):
        ChainGeometry(bad)


def test_geometry_length_is_stored_as_a_python_int():
    geom = ChainGeometry(np.int64(6))
    assert type(geom.length) is int and geom == make_geometry(6)


def test_chiral_operator_squares_to_identity():
    geom = make_geometry(7)
    C = np.diag(sublattice_signs(geom))
    assert np.array_equal(C @ C, np.eye(geom.total_dim))
    assert np.trace(C) == 0.0


def test_chiral_trace_vanishes_under_cell_convention():
    for L in (2, 5, 12):
        geom = make_geometry(L)
        assert sublattice_signs(geom).sum() == 0.0


def test_switch_step_profile():
    geom = make_geometry(4)
    sw = switch_function(geom, 2)
    assert list(dense_theta(sw)) == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert sw.transition == 2
    assert sw.split(geom) == (2, 2)


def test_switch_middle_sentinel():
    geom = make_geometry(30)
    assert switch_function(geom, "middle").transition == 15


@pytest.mark.parametrize("bad", [0, 4, 5, -1])
def test_switch_out_of_range(bad):
    geom = make_geometry(4)
    with pytest.raises(SwitchError):
        switch_function(geom, bad)


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("bad", [-3, -1, 6, 9, True, False, 2.5, 3.0, "2", None])
def test_switch_checks_its_transition_when_built(convention, bad):
    # Any integer in 0..L is a switch, the constant ones 0 and L among them.
    geom = make_geometry(5, convention)
    with pytest.raises(SwitchError, match="integer in 0..5"):
        SwitchFunction(bad, geom)
    assert [SwitchFunction(t, geom).transition for t in (0, np.int64(3), 5)] == [0, 3, 5]


def test_switch_construction_idempotent():
    geom = make_geometry(11)
    a = switch_function(geom, 6)
    b = switch_function(geom, 6)
    assert a == b


def test_switch_basis_expansion_cell_convention():
    geom = make_geometry(3)
    sw = switch_function(geom, 1)
    assert list(dense_theta(sw)) == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_polarization_zero_under_cell_convention():
    geom = make_geometry(9)
    for ell in range(1, 9):
        assert chiral_polarization(geom, switch_function(geom, ell)) == 0


def test_polarization_alternating_sites():
    geom = make_geometry(6, Convention.ALTERNATING_SITES)
    assert chiral_polarization(geom, switch_function(geom, 4)) == 0
    assert chiral_polarization(geom, switch_function(geom, 3)) == 1


def test_polarization_full_support():
    geom = make_geometry(7, Convention.ALTERNATING_SITES)
    full = SwitchFunction(7, geom)
    # 4 even (A) sites, 3 odd (B) sites.
    assert chiral_polarization(geom, full) == 1

    geom_cell = make_geometry(7)
    full_cell = SwitchFunction(7, geom_cell)
    assert chiral_polarization(geom_cell, full_cell) == 0


def test_switch_geometry_mismatch_rejected():
    sw = switch_function(make_geometry(6), 3)
    for other in (make_geometry(8), make_geometry(6, Convention.ALTERNATING_SITES)):
        with pytest.raises(SwitchError, match="different geometry"):
            chiral_polarization(other, sw)
        with pytest.raises(SwitchError, match="different geometry"):
            sw.split(other)


@pytest.mark.parametrize("convention", list(Convention))
def test_step_length_of_each_sublattice(convention):
    # steps[t] is (p_A, p_B) at transition t of L = 7: a cell holds one A and one B
    # state, while the sites alternate A, B from site 0.
    steps = {
        Convention.CELL_C2: [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7)],
        Convention.ALTERNATING_SITES: [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)],
    }[convention]
    geom = make_geometry(7, convention)
    assert [SwitchFunction(t, geom).split(geom) for t in range(8)] == steps
    assert [switch_function(geom, t).split(geom) for t in range(1, 7)] == steps[1:7]


@settings(max_examples=60, deadline=None)
@given(convention=st.sampled_from(list(Convention)), length=st.integers(2, 60))
def test_split_counts_the_steps_of_the_dense_theta(convention, length):
    # Every transition, the constant switches 0 and L among them: theta is 1 on the
    # first p_A A (even) and p_B B (odd) basis vectors and 0 after, and Tr(C theta) = p_A - p_B.
    geom = make_geometry(length, convention)
    for transition in range(length + 1):
        switch = SwitchFunction(transition, geom)
        theta = dense_theta(switch)
        p_a, p_b = switch.split(geom)
        for sub, p in ((theta[0::2], p_a), (theta[1::2], p_b)):
            assert list(sub) == [1.0] * p + [0.0] * (sub.size - p)
        assert chiral_polarization(geom, switch) == float(sublattice_signs(geom) @ theta)


def _positions(geom):
    """Position of each basis vector: two states per cell, one per site."""
    if geom.convention is Convention.CELL_C2:
        return np.repeat(np.arange(geom.length), 2)
    return np.arange(geom.length)


@settings(max_examples=60, deadline=None)
@given(convention=st.sampled_from(list(Convention)), length=st.integers(2, 120))
def test_position_maps_match_brute_force(convention, length):
    geom = make_geometry(length, convention)
    pos = _positions(geom)
    assert pos.size == geom.total_dim and geom.positions.tobytes() == pos.tobytes()
    # reach(d): the largest position distance over basis vectors at most d apart.
    gaps = np.abs(pos[:, None] - pos[None, :])
    apart = np.abs(np.arange(pos.size)[:, None] - np.arange(pos.size))
    for d in range(geom.total_dim + 1):
        assert min(geom.reach(d), length - 1) == gaps[apart <= d].max()
    # The A (even) and B (odd) vectors sit at the positions the two slices take.
    a, b = geom.sublattice_positions
    assert np.array_equal(np.arange(length)[a], pos[0::2])
    assert np.array_equal(np.arange(length)[b], pos[1::2])


class _HalfWidth(Exception):
    pass


@settings(max_examples=30, deadline=None)
@given(convention=st.sampled_from(list(Convention)), length=st.integers(2, 120), data=st.data())
def test_lieb_robinson_half_width_covers_the_reach(convention, length, data):
    # Every pair of basis vectors whose positions are at most the reach apart sits on a
    # sublattice diagonal m (between sublattice indices i // 2 and j // 2) within the half
    # width, and short of the chain's last position some pair needs all of it.
    geom = make_geometry(length, convention)
    H = build_ssh(geom, CouplingProfile.constant(geom.cells, 0.5, 1.0))
    reach = data.draw(st.integers(0, length - 1))

    def half_width(spec, t, width):
        raise _HalfWidth(width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_propagator_band", lambda H, t, floor: (reach, 0.0))
        mp.setattr(bounds, "_propagator_blocks", half_width)
        with pytest.raises(_HalfWidth) as caught:
            bounds.lieb_robinson_check(H, 1.0, 1.0, 1.0)
    width = caught.value.args[0]
    pos = _positions(geom)
    index = np.arange(pos.size) // 2
    near = np.abs(pos[:, None] - pos[None, :]) <= reach
    widest = np.abs(index[:, None] - index[None, :])[near].max()
    assert widest <= width and (widest == width or reach == length - 1)
