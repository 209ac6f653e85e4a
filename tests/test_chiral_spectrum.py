"""The chiral spectrum (one SVD of the A->B block) against the dense eigendecomposition.

``eigh(H.matrix)`` takes the dense route of a plain array, so it is the
oracle for every function of H and for both index diagonals.  The dense
diagonals below are the formulas the package used before the chiral path,
kept as the reference.
"""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralchain.bounds import anticommutator_trace_norms, gap_filter_min_eigenvalue
from chiralchain.hamiltonian import (
    ChiralHamiltonian,
    CouplingProfile,
    ExtraCoupling,
    apply_defect,
    apply_disorder,
    build_ssh,
)
from chiralchain.indices import DeltaPolicy, _index_diagonals, index_report
from chiralchain.lattice import Convention, make_geometry, switch_function
from chiralchain.spectral import (
    ChiralSpectrum,
    NumericalError,
    SpectralData,
    _sech_sq,
    eigh,
    matrix_function,
)


def dense_index_diagonals(H, delta, switch):
    signs = H.geometry.sublattice_signs
    theta = switch.basis_values()
    spec = eigh(H.matrix)
    w, V = spec.eigenvalues, spec.eigenvectors
    edge = signs * theta * ((np.abs(V) ** 2) @ _sech_sq(w / delta))
    S = matrix_function(spec, lambda e: np.tanh(e / delta))
    comm = theta[:, None] * S - S * theta[None, :]
    bulk = 0.5 * signs * np.einsum("ij,ji->i", S, comm)
    assert np.abs(np.imag(bulk)).max() < 1e-12
    return edge, np.real(bulk)


def functions(delta, t):
    """(name, f, Lipschitz constant of f) for the functions the package evaluates."""
    return [
        ("tanh", lambda w: np.tanh(w / delta), 1.0 / delta),
        ("sech2", lambda w: _sech_sq(w / delta), 1.0 / delta),
        ("exp_itH", lambda w: np.exp(1j * t * w), abs(t)),
    ]


def assert_matches_dense(H, delta, switch, t=0.7):
    M = H.matrix
    spec = eigh(H)
    assert isinstance(spec, ChiralSpectrum)
    dense = eigh(M)
    assert isinstance(dense, SpectralData)
    norm = float(np.linalg.norm(M, 2))
    assert np.abs(spec.eigenvalues - dense.eigenvalues).max() <= 1e-12 * max(1.0, norm)
    for name, f, lipschitz in functions(delta, t):
        tol = 1e-12 * max(1.0, lipschitz * norm)
        diff = np.abs(matrix_function(spec, f) - matrix_function(dense, f)).max()
        assert diff <= tol, name
    edge, bulk = _index_diagonals(H, delta, switch)
    edge_ref, bulk_ref = dense_index_diagonals(H, delta, switch)
    tol = 1e-12 * max(1.0, norm / delta)
    assert np.abs(edge - edge_ref).max() <= tol
    assert np.abs(bulk - bulk_ref).max() <= tol


_coupling = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _cell_chains(draw):
    """Cell-convention chains: complex couplings, extra blocks (offsets up to past L), boundaries."""
    cells = draw(st.integers(2, 10))
    complex_valued = draw(st.booleans())

    def values():
        v = np.array(draw(st.lists(_coupling, min_size=cells, max_size=cells)))
        if complex_valued:
            v = v + 1j * np.array(draw(st.lists(_coupling, min_size=cells, max_size=cells)))
        return v

    offsets = draw(st.lists(st.integers(1, 12), max_size=3))
    extra = tuple(ExtraCoupling(k, values(), values()) for k in offsets)
    boundary = None
    if cells >= 5 and draw(st.booleans()):
        # Support must stay within L/4 of an edge: the first and last cell.
        boundary = np.zeros(cells, dtype=complex if complex_valued else float)
        boundary[0], boundary[-1] = draw(_coupling), draw(_coupling)
    profile = CouplingProfile(values(), values(), extra, boundary)
    return build_ssh(make_geometry(cells), profile)


@st.composite
def _site_chains(draw):
    sites = draw(st.integers(2, 13))
    geom = make_geometry(sites, Convention.ALTERNATING_SITES)
    cells = geom.cells
    t1, t2 = (np.array(draw(st.lists(_coupling, min_size=cells, max_size=cells))) for _ in "12")
    return build_ssh(geom, CouplingProfile(t1, t2))


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    H=_cell_chains() | _site_chains(),
    delta=st.floats(0.05, 5.0),
    t=st.floats(-2.0, 2.0),
)
def test_chiral_path_matches_dense_property(data, H, delta, t):
    transition = data.draw(st.integers(1, H.geometry.length - 1))
    assert_matches_dense(H, delta, switch_function(H.geometry, transition), t)


@pytest.mark.parametrize("sites", [2, 3, 5])
def test_sites_zero_modes(sites):
    # Odd L: T is (L+1)/2 x (L-1)/2, and the extra column of U is an exact zero mode.
    geom = make_geometry(sites, Convention.ALTERNATING_SITES)
    H = build_ssh(geom, CouplingProfile.constant(geom.cells, 0.5, 1.0))
    spec = eigh(H)
    zero_modes = sites % 2
    assert H.T.shape == ((sites + 1) // 2, sites // 2)
    assert spec.U.shape == ((sites + 1) // 2,) * 2
    assert spec.W.shape == (sites // 2,) * 2
    assert spec.sigma.size == sites // 2
    assert np.count_nonzero(spec.eigenvalues == 0.0) == zero_modes
    delta = 0.1
    # The zero mode's A-sublattice projector carries g = 1 and tanh = 0.
    zero = spec.U[:, spec.sigma.size :]
    G = matrix_function(spec, lambda w: _sech_sq(w / delta))
    S = matrix_function(spec, lambda w: np.tanh(w / delta))
    for v in zero.T:
        psi = np.zeros(sites)
        psi[0::2] = v  # the A sublattice
        assert np.abs(H.matrix @ psi).max() < 1e-15
        assert np.abs(G @ psi - psi).max() < 1e-14
        assert np.abs(S @ psi).max() < 1e-14
    for transition in range(1, sites):
        assert_matches_dense(H, delta, switch_function(geom, transition))


@pytest.mark.parametrize("L", [60, 250])
def test_disordered_defect_indices_match_dense(L):
    profile = apply_defect(apply_disorder(CouplingProfile.constant(L, 0.5, 1.0), 1, 0.1), 0.2)
    H = build_ssh(make_geometry(L), profile)
    switch = switch_function(H.geometry, "middle")
    for delta in (1.0 / math.sqrt(2 * L), 0.05, 1e-9):
        edge, bulk = _index_diagonals(H, delta, switch)
        edge_ref, bulk_ref = dense_index_diagonals(H, delta, switch)
        assert abs(edge.sum() - edge_ref.sum()) < 1e-12 * max(1.0, 2.0 / delta)
        assert abs(bulk.sum() - bulk_ref.sum()) < 1e-12 * max(1.0, 2.0 / delta)


def test_from_matrix_rejects_non_chiral_matrix():
    H = build_ssh(make_geometry(6), CouplingProfile.constant(6, 0.5, 1.0))
    shifted = H.matrix + 0.1 * np.eye(H.dim)
    with pytest.raises(NumericalError, match="not chiral"):
        ChiralHamiltonian.from_matrix(shifted, H.geometry)


def test_from_matrix_rejects_non_hermitian_matrix():
    H = build_ssh(make_geometry(6), CouplingProfile.constant(6, 0.5, 1.0))
    skewed = H.matrix.copy()
    skewed[0, 1] += 1.0
    with pytest.raises(NumericalError, match="not Hermitian"):
        ChiralHamiltonian.from_matrix(skewed, H.geometry)


def test_index_report_memory_stays_below_dense():
    import tracemalloc

    # The dense path peaks at ~122 MB here: the 2L x 2L eigenvectors, S and
    # the commutator.  The chiral path keeps L x L factors, and its input
    # checks also run on L x L blocks.
    L = 1000
    profile = apply_defect(apply_disorder(CouplingProfile.constant(L, 0.5, 1.0), 1, 0.1), 0.2)
    H = build_ssh(make_geometry(L), profile)
    tracemalloc.start()
    try:
        report = index_report(H, DeltaPolicy.empirical())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.correspondence_residual < 1e-10
    assert peak < 48e6


def test_spectrum_lives_and_dies_with_its_hamiltonian():
    H = build_ssh(make_geometry(8), CouplingProfile.constant(8, 0.5, 1.0))
    spec = eigh(H)
    assert eigh(H) is spec
    with pytest.raises(ValueError):
        spec.U[0, 0] = 0.0
    scaled = dataclasses.replace(H, T=2.0 * H.T)
    assert eigh(scaled) is not spec
    assert np.allclose(eigh(scaled).sigma, 2.0 * spec.sigma, rtol=1e-14, atol=0.0)
    ref = weakref.ref(spec)
    del spec
    assert ref() is not None
    del H
    assert ref() is None


def dense_trace_norms(H, delta, switch):
    """The trace norms as first written: SVDs of 2L x 2L matrices assembled from the spectrum."""
    spec = eigh(H)
    S = matrix_function(spec, lambda e: np.tanh(e / delta))
    G = matrix_function(spec, lambda e: _sech_sq(e / delta))
    signs = H.geometry.sublattice_signs
    theta = switch.basis_values()
    A = 0.5 * signs[:, None] * (theta[:, None] * G + G * theta[None, :])
    anti = A @ S + S @ A
    comm = G * theta[None, :] - theta[:, None] * G
    return tuple(float(np.linalg.svd(M, compute_uv=False).sum()) for M in (anti, comm))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), H=_cell_chains() | _site_chains(), log_delta=st.floats(-3.0, 1.0))
def test_block_trace_norms_match_assembled_matrices(data, H, log_delta):
    delta = 10.0**log_delta
    switch = switch_function(H.geometry, data.draw(st.integers(1, H.geometry.length - 1)))
    n = H.dim
    for got, want in zip(anticommutator_trace_norms(H, delta, switch),
                         dense_trace_norms(H, delta, switch)):
        assert abs(got - want) <= 1e-13 * n * max(1.0, want)
    min_eig = float(np.linalg.eigvalsh(matrix_function(eigh(H), lambda e: _sech_sq(e / delta))).min())
    assert abs(gap_filter_min_eigenvalue(H, delta) - min_eig) <= 1e-14 * n
