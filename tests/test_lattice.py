import numpy as np
import pytest

from chiralchain.lattice import (
    Convention,
    GeometryError,
    SwitchError,
    chiral_polarization,
    make_geometry,
    step_length,
    switch_function,
)


def test_cell_geometry_dimensions():
    geom = make_geometry(3, Convention.CELL_C2)
    assert geom.total_dim == 6
    assert list(geom.positions) == [0, 0, 1, 1, 2, 2]


def test_alternating_sites_parity():
    geom = make_geometry(5, Convention.ALTERNATING_SITES)
    assert geom.total_dim == 5
    assert list(geom.sublattice_signs) == [1.0, -1.0, 1.0, -1.0, 1.0]


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_too_short_chain_rejected(bad):
    with pytest.raises(GeometryError):
        make_geometry(bad)


def test_non_integer_length_rejected():
    with pytest.raises(GeometryError):
        make_geometry(2.5)


def test_chiral_operator_squares_to_identity():
    geom = make_geometry(7)
    C = np.diag(geom.sublattice_signs)
    assert np.array_equal(C @ C, np.eye(geom.total_dim))
    assert np.trace(C) == 0.0


def test_chiral_trace_vanishes_under_cell_convention():
    for L in (2, 5, 12):
        geom = make_geometry(L)
        assert geom.sublattice_signs.sum() == 0.0


def test_switch_step_profile():
    geom = make_geometry(4)
    sw = switch_function(geom, 2)
    assert list(sw.values) == [1.0, 1.0, 0.0, 0.0]
    assert sw.transition == 2


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
    assert np.array_equal(a.values, b.values)
    assert a.transition == b.transition


def test_switch_basis_expansion_cell_convention():
    geom = make_geometry(3)
    sw = switch_function(geom, 1)
    assert list(sw.basis_values()) == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_polarization_zero_under_cell_convention():
    geom = make_geometry(9)
    for ell in range(1, 9):
        assert chiral_polarization(geom, switch_function(geom, ell)) == 0


def test_polarization_alternating_sites():
    geom = make_geometry(6, Convention.ALTERNATING_SITES)
    assert chiral_polarization(geom, switch_function(geom, 4)) == 0
    assert chiral_polarization(geom, switch_function(geom, 3)) == 1


def test_polarization_full_support():
    from chiralchain.lattice import SwitchFunction

    geom = make_geometry(7, Convention.ALTERNATING_SITES)
    full = SwitchFunction(np.ones(7), 7, geom)
    # 4 even (A) sites, 3 odd (B) sites.
    assert chiral_polarization(geom, full) == 1

    geom_cell = make_geometry(7)
    full_cell = SwitchFunction(np.ones(7), 7, geom_cell)
    assert chiral_polarization(geom_cell, full_cell) == 0


def test_switch_geometry_mismatch_rejected():
    geom_a = make_geometry(6)
    geom_b = make_geometry(8)
    sw = switch_function(geom_a, 3)
    with pytest.raises(SwitchError):
        chiral_polarization(geom_b, sw)


@pytest.mark.parametrize("convention", list(Convention))
def test_step_length_of_each_sublattice(convention):
    geom = make_geometry(7, convention)
    for ell in range(1, 7):
        theta = switch_function(geom, ell).basis_values()
        for sub in (theta[0::2], theta[1::2]):
            assert step_length(sub) == np.count_nonzero(sub)
    assert step_length(np.zeros(4)) == 0 and step_length(np.ones(4)) == 4


@pytest.mark.parametrize("theta", [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
def test_step_length_rejects_other_switches(theta):
    with pytest.raises(SwitchError, match="not a step"):
        step_length(np.array(theta))
