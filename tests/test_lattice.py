import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralchain.lattice import (
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
