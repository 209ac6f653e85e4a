"""The chiral spectrum (one SVD of the A->B block) against the dense eigendecomposition.

``oracles.dense_eigh(H.matrix)`` is the oracle for every function of H and
for both index diagonals.  The dense diagonals below are the formulas the
package used before the chiral path, kept as the reference.
"""

import contextlib
import dataclasses
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralchain import _lapack, bounds, spectral
from chiralchain.bounds import (
    _propagator_band, _step_commutator_trace_norm, anticommutator_trace_norms,
    gap_filter_blocks, gap_filter_lower_bound, lieb_robinson_check,
)
from chiralchain.hamiltonian import (
    ChiralHamiltonian,
    CouplingProfile,
    ExtraCoupling,
    apply_defect,
    apply_disorder,
    _sublattice_blocks,
    build_ssh,
    short_range_constant,
)
from chiralchain.indices import DeltaPolicy, _index_diagonals, index_report
from chiralchain.lattice import Convention, SwitchFunction, make_geometry, switch_function
from chiralchain.spectral import ChiralSpectrum, NumericalError, _sech_sq, eigh, even_blocks, odd_block
from oracles import (
    dense_eigh, dense_function, dense_theta, dense_trace_norms, exp_block_norms, flattened_sign,
    full_commutator_trace_norm, full_grid_lieb_robinson, full_index_diagonals, gap_filter,
    gap_filter_min_eigenvalue, propagator, propagator_block_norms, spectrum_values, sublattice_signs, tanh_oracle,
)
from test_acceptance import winding_chain


def dense_index_diagonals(H, delta, switch):
    signs = sublattice_signs(H.geometry)
    theta = dense_theta(switch)
    eig = dense_eigh(H.matrix)
    w, V = eig
    edge = signs * theta * ((np.abs(V) ** 2) @ _sech_sq(w / delta))
    S = dense_function(eig, lambda e: np.tanh(e / delta))
    comm = theta[:, None] * S - S * theta[None, :]
    bulk = 0.5 * signs * np.einsum("ij,ji->i", S, comm)
    assert np.abs(np.imag(bulk)).max() < 1e-12
    return edge, np.real(bulk)


def functions(delta, t):
    """(name, f, f(H) from the package, Lipschitz constant of f) for the functions the package evaluates."""
    return [
        ("tanh", lambda w: np.tanh(w / delta), lambda H: flattened_sign(H, delta), 1.0 / delta),
        ("sech2", lambda w: _sech_sq(w / delta), lambda H: gap_filter(H, delta), 1.0 / delta),
        ("exp_itH", lambda w: np.exp(1j * t * w), lambda H: propagator(H, t), abs(t)),
    ]


def assert_matches_dense(H, delta, switch, t=0.7):
    M = H.matrix
    spec = eigh(H)
    assert isinstance(spec, ChiralSpectrum)
    dense = dense_eigh(M)
    norm = float(np.linalg.norm(M, 2))
    assert np.abs(spectrum_values(spec) - dense[0]).max() <= 1e-12 * max(1.0, norm)
    for name, f, function_of_H, lipschitz in functions(delta, t):
        tol = 1e-12 * max(1.0, lipschitz * norm)
        diff = np.abs(function_of_H(H) - dense_function(dense, f)).max()
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


def _long_chain(convention, length, t2, extra=(), seed=7):
    geom = make_geometry(length, convention)
    cells = geom.cells
    profile = apply_disorder(CouplingProfile(np.full(cells, 0.5), np.full(cells, t2), extra), seed, 0.3)
    return build_ssh(geom, profile)


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


# (even, f of (w, delta, t), Lipschitz constant of f from (delta, t)).
PARITY_FUNCTIONS = {
    "cos": (True, lambda w, delta, t: np.cos(t * w), lambda delta, t: abs(t)),
    "sech2": (True, lambda w, delta, t: _sech_sq(w / delta), lambda delta, t: 1.0 / delta),
    "sin": (False, lambda w, delta, t: np.sin(t * w), lambda delta, t: abs(t)),
    "tanh": (False, lambda w, delta, t: np.tanh(w / delta), lambda delta, t: 1.0 / delta),
}


@pytest.mark.parametrize("name", list(PARITY_FUNCTIONS))
@settings(max_examples=80, deadline=None)
@given(H=_cell_chains() | _site_chains(), delta=st.floats(0.05, 5.0), t=st.floats(-3.0, 3.0))
# An odd sites chain (a zero mode) and a complex cell chain with a coupling past the nearest cell.
@example(H=_long_chain(Convention.ALTERNATING_SITES, 7, 1.0), delta=0.1, t=1.5)
@example(
    H=_long_chain(Convention.CELL_C2, 9, 1.0 + 0.5j, (ExtraCoupling(2, np.full(9, 0.3j), np.full(9, -0.2)),)),
    delta=0.3, t=-2.0,
)
# T = diag(0, 5e-324): the recovery bound once underflowed to 0 here, and w = T^T u / sigma divided 0 by 0.
@example(H=build_ssh(make_geometry(2), CouplingProfile(np.array([0.0, 5e-324]), np.zeros(2))), delta=0.1, t=1.0)
def test_parity_blocks_match_dense_sublattice_blocks(name, H, delta, t):
    even, f_of, lipschitz = PARITY_FUNCTIONS[name]

    def f(w):
        return f_of(w, delta, t)

    tol = 1e-12 * max(1.0, lipschitz(delta, t) * float(np.linalg.norm(H.matrix, 2)))
    AA, AB, BA, BB = _sublattice_blocks(dense_function(dense_eigh(H.matrix), f))
    if even:
        got, want, zero = even_blocks(eigh(H), f), (AA, BB), (AB, BA)
    else:
        got, want, zero = (odd_block(eigh(H), f),), (AB,), (AA, BB)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max(initial=0.0) <= tol
    for z in zero:
        assert np.abs(z).max(initial=0.0) <= tol


@pytest.mark.parametrize("sites", [3, 7])
def test_parity_blocks_on_the_zero_mode(sites):
    # Odd L: U has one column more than W.  The constant 1 is even and must
    # reach that column (U U^dag = 1); the identity is odd and gives back T.
    H = _long_chain(Convention.ALTERNATING_SITES, sites, 1.0)
    spec = eigh(H)
    assert spec.U.shape[1] == spec.sigma.size + 1
    for block in even_blocks(spec, np.ones_like):
        assert np.abs(block - np.eye(block.shape[0])).max() < 1e-14
    assert np.abs(odd_block(spec, lambda w: w) - H.T).max() < 1e-14


@settings(max_examples=80, deadline=None)
@given(H=_cell_chains() | _site_chains(), ratio=st.floats(0.5, 50.0))
def test_flattened_sign_matches_tanh_oracle(H, ratio):
    # Real bidiagonal chains take dstevd, every other one np.linalg.svd.
    M = H.matrix
    norm = max(float(np.linalg.norm(M, 2)), 1e-6)
    delta = norm / ratio
    # norm / (norm / ratio) can round above ratio, and the oracle rejects any ratio above 50.
    while norm / delta > ratio:
        delta = np.nextafter(delta, np.inf)
    assert np.abs(flattened_sign(H, delta) - tanh_oracle(M, delta)).max() < 1e-8


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
    assert np.count_nonzero(spectrum_values(spec) == 0.0) == zero_modes
    delta = 0.1
    # The zero mode's A-sublattice projector carries g = 1 and tanh = 0.
    zero = spec.U[:, spec.sigma.size :]
    G, S = gap_filter(H, delta), flattened_sign(H, delta)
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
    shifted = H.matrix + 0.1 * np.eye(H.geometry.total_dim)
    with pytest.raises(NumericalError, match="not chiral"):
        ChiralHamiltonian.from_matrix(shifted, H.geometry)


def test_from_matrix_rejects_non_hermitian_matrix():
    H = build_ssh(make_geometry(6), CouplingProfile.constant(6, 0.5, 1.0))
    skewed = H.matrix.copy()
    skewed[0, 1] += 1.0
    with pytest.raises(NumericalError, match="not Hermitian"):
        ChiralHamiltonian.from_matrix(skewed, H.geometry)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_from_matrix_rejects_non_finite_bond(bad):
    # NaN passed the Hermiticity check (its defect compares as False); inf
    # passed it too, with an inf - inf warning.
    H = build_ssh(make_geometry(4), CouplingProfile.constant(4, 0.5, 1.0))
    M = H.matrix.astype(type(bad))
    M[2, 3], M[3, 2] = bad, np.conj(bad)
    with pytest.raises(NumericalError, match="non-finite entries"):
        ChiralHamiltonian.from_matrix(M, H.geometry)


def test_index_report_memory_stays_below_dense():
    import tracemalloc

    # The dense path peaks at ~122 MB here: the 2L x 2L eigenvectors, S and
    # the commutator.  The chiral path peaks at 20.2 MB: U and W (16 MB) and
    # the edge diagonal's |U[:p_A]|^2 (4 MB); the bulk quadrants are made
    # 256 rows at a time.  The solve itself stays at 18.3 MB: the kernel's
    # eigenvectors and its L^2 workspace, then U, W and 256-row temporaries
    # (a bidiagonal SVD that also builds W needs 3 L^2).  With T stored
    # dense and no row blocks the peak was 24.2 MB; the bound is the
    # measured peak plus 12 %.
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
    assert peak < 22.7e6


def test_spectrum_lives_and_dies_with_its_hamiltonian():
    H = build_ssh(make_geometry(8), CouplingProfile.constant(8, 0.5, 1.0))
    spec = eigh(H)
    assert eigh(H) is spec
    with pytest.raises(ValueError):
        spec.U[0, 0] = 0.0
    assert eigh(dataclasses.replace(H)) is not spec
    scaled = ChiralHamiltonian.from_matrix(2.0 * H.matrix, H.geometry)
    assert eigh(scaled) is not spec
    assert np.allclose(eigh(scaled).sigma, 2.0 * spec.sigma, rtol=1e-14, atol=0.0)
    ref = weakref.ref(spec)
    del spec
    assert ref() is not None
    del H
    assert ref() is None


@st.composite
def _seeded_chains(draw):
    """Chains of up to 150 cells or sites, long enough for several row blocks of the band.

    Seeded couplings in [-1, 1], real or complex, and on some cell chains a
    coupling two cells out.
    """
    convention = draw(st.sampled_from([Convention.CELL_C2, Convention.ALTERNATING_SITES]))
    geom = make_geometry(draw(st.integers(2, 150)), convention)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_valued = draw(st.booleans())

    def values():
        v = rng.uniform(-1.0, 1.0, geom.cells)
        return v + 1j * rng.uniform(-1.0, 1.0, geom.cells) if complex_valued else v

    extra = ()
    if convention is Convention.CELL_C2 and draw(st.booleans()):
        extra = (ExtraCoupling(2, values(), values()),)
    return build_ssh(geom, CouplingProfile(values(), values(), extra))


@settings(max_examples=60, deadline=None)
@given(H=_seeded_chains(), t=st.floats(-3.0, 3.0), d=st.sampled_from([1.0, 1.5, 2.0]))
@example(H=_long_chain(Convention.CELL_C2, 2, 1.0), t=1.0, d=1.0)
@example(H=_long_chain(Convention.ALTERNATING_SITES, 2, 1.0), t=-0.5, d=1.0)
@example(H=_long_chain(Convention.ALTERNATING_SITES, 143, 1.0), t=0.7, d=1.0)  # odd: a zero mode
@example(H=_long_chain(Convention.CELL_C2, 150, 1.0 + 0.5j), t=0.0, d=1.0)
# |t| a past the chain: the reach covers every pair, over several row blocks.
@example(H=_long_chain(Convention.CELL_C2, 130, 1.0), t=60.0, d=1.0)
@example(H=_long_chain(Convention.ALTERNATING_SITES, 141, 1.0), t=-60.0, d=1.5)
def test_lieb_robinson_band_matches_the_full_products(H, t, d):
    # The band's row blocks take the dot products of the full products, so
    # an entry can move only by the order in which BLAS adds partial sums:
    # within the noise floor, 2L eps, that the certificate already grants.
    K = short_range_constant(H, d)
    got, want = lieb_robinson_check(H, t, d, K), full_grid_lieb_robinson(H, t, d, K)
    floor = got.noise_floor
    assert got.passed == want.passed
    assert math.isclose(got.margin, want.margin, rel_tol=0.0, abs_tol=floor)
    reach, _ = _propagator_band(H, t, floor)
    norms = propagator_block_norms(H, t)
    P = norms.shape[0]
    offsets = [k for k in range(-reach, reach + 1) if abs(k) >= d]
    assert got.lhs.size == sum(P - abs(k) for k in offsets)
    # lhs holds each diagonal's norms in ascending x, in both conventions.
    pieces = np.split(got.lhs, np.cumsum([P - abs(k) for k in offsets])[:-1]) if offsets else []
    for k, piece in zip(offsets, pieces):
        assert np.abs(piece - np.diagonal(norms, k)).max() <= floor, k


@settings(max_examples=80, deadline=None)
@given(data=st.data(), H=_cell_chains() | _site_chains(), log_delta=st.floats(-3.0, 1.0))
def test_block_trace_norms_match_assembled_matrices(data, H, log_delta):
    delta = 10.0**log_delta
    switch = switch_function(H.geometry, data.draw(st.integers(1, H.geometry.length - 1)))
    n = H.geometry.total_dim
    for got, want in zip(anticommutator_trace_norms(H, delta, switch, gap_filter_blocks(H, delta)),
                         dense_trace_norms(H, delta, switch)):
        assert abs(got - want) <= 1e-13 * n * max(1.0, want)


@st.composite
def _windowed_chains(draw):
    """Chains of 40-400 cells or sites, wider than the first window of ``bounds._window_trace_norm``.

    ``_long_chain``'s disordered chains in both conventions (odd site counts
    too), real or complex and seeded, and the winding -2, 2 and 3 chains of
    ``winding_chain``, clean or disordered.
    """
    length = draw(st.integers(40, 400))
    if draw(st.booleans()):
        offset, on = draw(st.sampled_from([(2, "a"), (2, "b"), (3, "b")]))
        return winding_chain(length, offset, on, draw(st.sampled_from([0.0, 0.05])))
    convention = draw(st.sampled_from([Convention.CELL_C2, Convention.ALTERNATING_SITES]))
    t2 = draw(st.sampled_from([1.0, 1.0 + 0.5j]))
    return _long_chain(convention, length, t2, seed=draw(st.integers(0, 2**32 - 1)))


@contextlib.contextmanager
def _final_windows():
    """Record, per ``_window_trace_norm`` call, the trace norm of the last window it took: its last SVD."""
    svd, helper, sums, windows = np.linalg.svd, bounds._window_trace_norm, [], []

    def recording_svd(M, *args, **kwargs):
        s = svd(M, *args, **kwargs)
        sums.append(float(s.sum()))
        return s

    def recording_helper(M, row, col):
        value = helper(M, row, col)
        windows.append(sums[-1])
        return value

    with mock.patch.object(np.linalg, "svd", recording_svd), mock.patch.object(
        bounds, "_window_trace_norm", recording_helper
    ):
        yield windows


@settings(max_examples=30, deadline=None)
@given(data=st.data(), H=_windowed_chains(), log_delta=st.floats(-3.0, 1.0))
def test_windowed_trace_norms_match_dense_on_long_chains(data, H, log_delta):
    # Switches anywhere, and often within the first window of either edge.
    delta, L, b = 10.0**log_delta, H.geometry.length, bounds._WINDOW_START
    transition = data.draw(st.integers(0, L) | st.integers(0, b) | st.integers(L - b, L))
    switch = SwitchFunction(transition, H.geometry)
    n = H.geometry.total_dim
    G = gap_filter_blocks(H, delta)
    with _final_windows() as windows:
        got = anticommutator_trace_norms(H, delta, switch, G)
    # The window part alone: ||Y|| and ||G_A[:p, p:]|| + ||G_B[:q, q:]||, each doubled.
    window_parts = (2.0 * windows[0], 2.0 * (windows[1] + windows[2]))
    for value, window, want in zip(got, window_parts, dense_trace_norms(H, delta, switch)):
        tol = 1e-13 * n * max(1.0, want)
        assert abs(value - want) <= tol
        assert window <= want + tol
    if transition == 0:
        assert got == (0.0, 0.0)


def _assert_gap_filter_bound_matches_dense(H, delta):
    # Within 1e-14 n of the dense eigenvalue, so also at most it plus 1e-14 n: a lower bound to rounding.
    got, want = gap_filter_lower_bound(H, delta), gap_filter_min_eigenvalue(H, delta)
    assert abs(got - want) <= 1e-14 * H.geometry.total_dim


@settings(max_examples=80, deadline=None)
@given(H=_cell_chains() | _site_chains(), log_delta=st.floats(-9.0, 1.0))
# Factors of several BLOCK_ROWS columns; the odd sites chain has a zero mode.
@example(H=_long_chain(Convention.CELL_C2, 600, 1.0), log_delta=-9.0)
@example(H=_long_chain(Convention.CELL_C2, 600, 1.0 + 0.5j), log_delta=0.0)
@example(H=_long_chain(Convention.ALTERNATING_SITES, 601, 1.0), log_delta=-1.0)
def test_gap_filter_lower_bound_matches_dense_eigenvalues(H, log_delta):
    _assert_gap_filter_bound_matches_dense(H, 10.0**log_delta)


@pytest.mark.parametrize("offset, on", [(2, "a"), (2, "b"), (3, "b")])  # windings -2, 2 and 3
@pytest.mark.parametrize("disorder", [0.0, 0.05])
@pytest.mark.parametrize("log_delta", [-9.0, -3.0, math.log10(0.05), 1.0])
def test_gap_filter_lower_bound_on_higher_winding_chains(offset, on, disorder, log_delta):
    # These chains take the np.linalg.svd route and have several edge modes each.
    _assert_gap_filter_bound_matches_dense(winding_chain(80, offset, on, disorder), 10.0**log_delta)


@settings(max_examples=80, deadline=None)
@given(H=_cell_chains() | _site_chains(), t=st.floats(-3.0, 3.0))
def test_propagator_block_norms_match_exp_blocks(H, t):
    got, want = propagator_block_norms(H, t), exp_block_norms(H, t)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, want))


@settings(max_examples=80, deadline=None)
@given(
    H=_cell_chains() | _site_chains(),
    t=st.floats(-3.0, 3.0),
    d=st.sampled_from([1.0, 1.5, 2.0]),
)
# Chains long enough that the Chebyshev band stops short of the farthest pair.
@example(H=_long_chain(Convention.CELL_C2, 40, 1.0), t=1.0, d=1.0)
@example(H=_long_chain(Convention.ALTERNATING_SITES, 61, 1.0), t=-0.5, d=1.5)
@example(
    H=_long_chain(Convention.CELL_C2, 80, 1.0 + 0.5j, (ExtraCoupling(2, np.full(80, 0.3j), np.full(80, -0.2)),)),
    t=0.4, d=2.0,
)
# At t = 0 both read the identity, exactly.
@example(
    H=ChiralHamiltonian(
        np.array([[0.0, 2.0, 0.5], [0.9375, 1.5, 0.44140625], [0.0, 0.0, 0.0]]),
        make_geometry(6, Convention.ALTERNATING_SITES),
    ),
    t=0.0, d=1.0,
)
def test_lieb_robinson_check_matches_full_grid(H, t, d):
    K = short_range_constant(H, d)
    got, want = lieb_robinson_check(H, t, d, K), full_grid_lieb_robinson(H, t, d, K)
    assert got.passed == want.passed
    assert got.margin.hex() == want.margin.hex()
    # Every block past the band is within the Chebyshev tail (plus rounding) of zero.
    reach, tail = _propagator_band(H, t, got.noise_floor)
    norms = exp_block_norms(H, t)
    x = np.arange(norms.shape[0])
    far = np.abs(x[:, None] - x[None, :]) > reach
    assert np.all(norms[far] <= tail + got.noise_floor)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), H=_cell_chains() | _site_chains(), log_delta=st.floats(-3.0, 1.0))
def test_step_commutator_trace_norm_matches_full_matrix(data, H, log_delta):
    delta = 10.0**log_delta
    switch = switch_function(H.geometry, data.draw(st.integers(1, H.geometry.length - 1)))
    theta = dense_theta(switch)
    G_A, G_B = even_blocks(eigh(H), lambda e: _sech_sq(e / delta))
    for G, t, p in zip((G_A, G_B), (theta[0::2], theta[1::2]), switch.split(H.geometry)):
        want = full_commutator_trace_norm(G, t)
        assert abs(_step_commutator_trace_norm(G, p) - want) <= 1e-13 * max(1.0, want)


# --- the bidiagonal route: LAPACK dstevd on -T T^T for a real lower-bidiagonal T -----


def test_numpy_lapack_exports_dstevd():
    # Without the symbol every chain silently takes the slower dense SVD.
    assert _lapack.dstevd() is not None


def assert_bidiagonal_svd(d, e):
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    T = np.diag(d) + np.diag(e, -1)
    spec = spectral._bidiagonal_svd(_lapack.dstevd(), d, e)
    n, largest = d.size, float(np.abs(T).max())
    assert spec.U.shape == spec.W.shape == (n, n) and spec.sigma.shape == (n,)
    assert np.all(spec.sigma >= 0.0) and np.all(np.diff(spec.sigma) <= 0.0)
    # Relative to the largest entry.  A subnormal sigma is rounded to a
    # multiple of 2^-1074, so it carries fewer digits than 1e-13 asks: the
    # n terms of a reconstructed entry may each be off by that step.
    sigma = spec.sigma / largest
    tol = 1e-13 + n * 2.0**-1074 / largest
    assert np.abs(sigma - np.linalg.svd(T, compute_uv=False) / largest).max() <= tol
    assert np.abs((spec.U * sigma) @ spec.W.T - T / largest).max() <= tol
    for Q in (spec.U, spec.W):
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-13
    return spec


_bidiagonal_entry = st.floats(-1.0, 1.0) | st.just(0.0)


def _bands(n):
    return st.tuples(*(st.lists(_bidiagonal_entry, min_size=m, max_size=m) for m in (n, n - 1)))


@settings(max_examples=300, deadline=None)
@given(
    bands=st.integers(1, 59).flatmap(_bands),
    exponent=st.integers(-310, 307) | st.integers(-310, -290) | st.sampled_from([0, 300, 307]),
)
# sigma = 1.7e-311 is subnormal: its reconstruction was off by 1.07e-13 relative.
@example(bands=([0.0078125, 0.0], [0.015625]), exponent=-309)
def test_bidiagonal_svd_matches_dense_svd(bands, exponent):
    # The kernel squares the entries of T, so T is scaled by a power of two
    # first: unscaled, entries below about 1e-154 square to subnormals or zero.
    d, e = (np.array(band) * 10.0**exponent for band in bands)
    if np.any(d) or np.any(e):
        assert_bidiagonal_svd(d, e)


@pytest.mark.parametrize("d, e, zeros", [
    ([0.7], [], 0),  # the 2-site chain: T is 1 x 1 and e is empty
    ([-3e-300], [], 0),
    ([0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.5], 1),  # all-zero diagonal: the first row is zero
    ([1.0, 0.0, 2.0, 0.0, 3.0], [0.5, 0.5, 0.5, 0.5], 1),  # the last two columns are parallel
    ([1e308, 1.0, 1e308], [1e307, 1e307], 1),  # sigma near 1 is below rounding here
    ([1e-310, 2e-310, 0.0], [3e-310, 0.0], 1),  # subnormal entries and a zero last row
])
def test_bidiagonal_svd_edge_cases(d, e, zeros):
    spec = assert_bidiagonal_svd(d, e)
    assert np.count_nonzero(spec.sigma <= 1e-15 * spec.sigma[0]) == zeros


def test_bidiagonal_svd_of_zero_block_is_identity():
    spec = spectral._bidiagonal_svd(_lapack.dstevd(), np.zeros(4), np.zeros(3))
    assert np.array_equal(spec.sigma, np.zeros(4))
    assert np.array_equal(spec.U, np.eye(4)) and np.array_equal(spec.W, np.eye(4))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 15), copies=st.integers(2, 5))
def test_bidiagonal_svd_of_repeated_blocks_is_descending(seed, size, copies):
    # Copies of one generic block have exactly repeated singular values, and
    # their computed norms ||T^T u|| come out in either order by an ulp.
    rng = np.random.default_rng(seed)
    d = np.tile(rng.uniform(-1.0, 1.0, size), copies)
    e = np.tile([*rng.uniform(-1.0, 1.0, size - 1), 0.0], copies)[:-1]
    assert_bidiagonal_svd(d, e)


@st.composite
def _bands_with_small_sigma(draw):
    """Bands of a T with at least two singular values below 1/8 of its largest entry.

    Either exact zeros in both bands (each zero of e splits T into blocks,
    and a zero on a block's diagonal makes it singular) or an SSH chain with
    two domain walls, which binds a mode to each wall and one to an end.
    """
    if draw(st.booleans()):
        n = draw(st.integers(2, 59))
        d, e = (np.array(band) for band in draw(_bands(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=max(1, n // 3))))
        e[np.array(cuts) - 1] = 0.0
        for start, stop in zip([0, *cuts], [*cuts, n]):
            d[draw(st.integers(start, stop - 1))] = 0.0
        return d, e
    weak, strong = draw(st.floats(0.05, 0.3)), draw(st.floats(0.8, 1.2))
    first = draw(st.integers(6, 20))
    second = draw(st.integers(first + 6, first + 20))
    n = draw(st.integers(second + 6, second + 20))
    flipped = (np.arange(n) >= first) & (np.arange(n) < second)
    d = np.where(flipped, strong, weak)
    e = np.where(flipped, weak, strong)[:-1]
    noise = draw(st.lists(st.floats(-0.02, 0.02), min_size=2 * n - 1, max_size=2 * n - 1))
    return d + noise[:n], e + noise[n:]


@settings(max_examples=150, deadline=None)
@given(bands=_bands_with_small_sigma(), exponent=st.sampled_from([-300, 0, 300]))
# Every entry subnormal: sigma = 3.14e-316 carries about 30 bits, and its residual read 4.8e-9.
@example(bands=(np.array([0.0, 0.0, 0.0, 0.0, 2.220446049250313e-16, 0.0]),
                np.array([0.0, 0.0, 0.0, 0.0, 2.220446049250313e-16])), exponent=-300)
def test_bidiagonal_svd_pairs_several_small_singular_values(bands, exponent):
    d, e = (band * 10.0**exponent for band in bands)
    if not (np.any(d) or np.any(e)):
        return  # T = 0: test_bidiagonal_svd_of_zero_block_is_identity
    spec = assert_bidiagonal_svd(d, e)
    T = np.diag(d) + np.diag(e, -1)
    largest = float(np.abs(T).max())
    assert np.count_nonzero(spec.sigma < largest / 8.0) >= 2
    # ||T w_i - sigma_i u_i|| relative to the largest entry, without overflow.
    # A subnormal sigma is a multiple of 2^-1074, as in assert_bidiagonal_svd.
    residual = np.linalg.norm((T / largest) @ spec.W - spec.U * (spec.sigma / largest), axis=0)
    assert residual.max() <= 1e-13 + d.size * 2.0**-1074 / largest


@settings(max_examples=80, deadline=None)
@given(data=st.data(), H=_cell_chains() | _site_chains(), log_delta=st.floats(-3.0, 1.0))
def test_index_diagonals_match_the_full_product(data, H, log_delta):
    delta = 10.0**log_delta
    switch = switch_function(H.geometry, data.draw(st.integers(1, H.geometry.length - 1)))
    for got, want in zip(_index_diagonals(H, delta, switch), full_index_diagonals(H, delta, switch)):
        assert np.abs(got - want).max() <= 1e-14


class _Routes:
    """Counts of the A->B block SVDs by route: LAPACK dstevd or np.linalg.svd of T."""

    def __init__(self, monkeypatch):
        self.dstevd = self.svd = 0
        self.before, self.T = (0, 0), None
        kernel, svd = _lapack.dstevd(), np.linalg.svd

        def counted_kernel(*args):
            self.dstevd += 1
            return kernel(*args)

        def counted_svd(a, *args, **kwargs):
            # T is assembled on each read, so it is known by its shape and bytes.
            # It is read-only, unlike the bidiagonal route's m x m pairing matrix,
            # which is T itself when every singular value is small.
            a = np.asarray(a)
            self.svd += (
                not a.flags.writeable and a.shape == self.T.shape and a.tobytes() == self.T.tobytes()
            )
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(_lapack, "dstevd", lambda: counted_kernel if kernel else None)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)

    def solve(self, H):
        """The route eigh(H) takes, checked against the dense oracle."""
        self.before, self.T = (self.dstevd, self.svd), H.T
        eigh(H)
        taken = (self.dstevd - self.before[0], self.svd - self.before[1])
        assert taken in {(1, 0), (0, 1)}
        assert_matches_dense(H, 0.3, switch_function(H.geometry, "middle"))
        return "dstevd" if taken == (1, 0) else "svd"


def _chain(length, convention=Convention.CELL_C2, complex_valued=False, offsets=(), boundary=False):
    geom = make_geometry(length, convention)
    rng = np.random.default_rng(length)

    def values():
        v = rng.uniform(-1.5, 1.5, geom.cells)
        return v + 1j * rng.uniform(-1.5, 1.5, geom.cells) if complex_valued else v

    edge = None
    if boundary:
        edge = np.zeros(geom.cells)
        edge[0], edge[-1] = 0.3, -0.2
    extra = tuple(ExtraCoupling(k, values(), values()) for k in offsets)
    return build_ssh(geom, CouplingProfile(values(), values(), extra, edge))


def _zero_bond_chain(offsets):
    """12 cells with one inter-cell bond exactly zero and all-zero extra blocks at ``offsets``."""
    t2 = np.linspace(0.5, 1.5, 12)
    t2[3] = 0.0
    extra = tuple(ExtraCoupling(k, np.zeros(12), np.zeros(12)) for k in offsets)
    return build_ssh(make_geometry(12), CouplingProfile(np.full(12, 0.7), t2, extra))


def _padded(H):
    """H with its band padded by one zero row on each side."""
    band = np.zeros((H.band.shape[0] + 2, H.band.shape[1]), H.dtype)
    band[1:-1] = H.band
    return ChiralHamiltonian(band, H.geometry)


def _with_superdiagonal_entry(H):
    """The chiral matrix of H's T plus one entry on its +1 diagonal, through from_matrix."""
    M = H.matrix
    M[0, 3] = M[3, 0] = 0.25  # T[0, 1]
    return ChiralHamiltonian.from_matrix(M, H.geometry)


def _dense_chiral_matrix(cells):
    T = np.random.default_rng(cells).uniform(-1.0, 1.0, (cells, cells))
    M = np.zeros((2 * cells, 2 * cells))
    M[0::2, 1::2], M[1::2, 0::2] = T, T.T
    return M


@pytest.mark.parametrize("H, route", [
    (_chain(2), "dstevd"),
    (_chain(3), "dstevd"),
    (_chain(40), "dstevd"),
    (_chain(40, boundary=True), "dstevd"),
    (_chain(5, offsets=(5, 9)), "dstevd"),  # offsets of at least L add no bond
    (_chain(2, Convention.ALTERNATING_SITES), "dstevd"),
    (_chain(12, Convention.ALTERNATING_SITES), "dstevd"),
    (_chain(3, Convention.ALTERNATING_SITES), "svd"),  # odd length: T is not square
    (_chain(13, Convention.ALTERNATING_SITES), "svd"),
    (_chain(12, offsets=(2,)), "svd"),
    (_chain(12, complex_valued=True), "svd"),
    (ChiralHamiltonian.from_matrix(_chain(12, offsets=(3,)).matrix, make_geometry(12)), "svd"),
    (_zero_bond_chain(()), "dstevd"),  # an explicit zero on the subdiagonal
    (_zero_bond_chain((2,)), "dstevd"),  # a block of zeros stores no diagonal
    (_padded(_chain(12)), "dstevd"),  # zero rows past diagonals -1 and 0: h = 2
    (_padded(_chain(13, Convention.ALTERNATING_SITES)), "svd"),
    (_with_superdiagonal_entry(_chain(12)), "svd"),
    (ChiralHamiltonian.from_matrix(_dense_chiral_matrix(12), make_geometry(12)), "svd"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_solver_route(monkeypatch, H, route):
    assert _Routes(monkeypatch).solve(H) == route


def test_zero_padded_band_solves_as_the_trimmed_band():
    H = _chain(40)
    padded = _padded(H)
    assert padded.band.shape == (5, 40)
    want, got = eigh(H), eigh(padded)
    for name in ("U", "sigma", "W"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_disordered_defect_chain_takes_dstevd(monkeypatch):
    profile = apply_defect(apply_disorder(CouplingProfile.constant(250, 0.5, 1.0), 1, 0.1), 0.2)
    assert _Routes(monkeypatch).solve(build_ssh(make_geometry(250), profile)) == "dstevd"


@settings(max_examples=60, deadline=None)
@given(H=_cell_chains() | _site_chains())
def test_route_follows_the_band_structure(H):
    T = H.T
    bidiagonal = (
        T.dtype == np.float64 and T.shape[0] == T.shape[1]
        and not np.any(np.triu(T, 1)) and not np.any(np.tril(T, -2))
    )
    with pytest.MonkeyPatch.context() as mp:
        assert _Routes(mp).solve(H) == ("dstevd" if bidiagonal else "svd")


@pytest.mark.parametrize("length", [40, _lapack.SERIAL_ORDER])
def test_small_solves_run_on_one_openblas_thread(monkeypatch, length):
    get, put = _lapack.openblas_threads()
    kernel, seen = _lapack.dstevd(), []

    def recording_kernel(*args):
        seen.append(get())
        return kernel(*args)

    monkeypatch.setattr(_lapack, "dstevd", lambda: recording_kernel)
    before = get()
    put(2)
    try:
        eigh(_chain(length))
        assert seen == [1 if length < _lapack.SERIAL_ORDER else 2] and get() == 2
    finally:
        put(before)


def test_missing_kernel_falls_back_to_dense_svd(monkeypatch):
    resolve = _lapack.dstevd
    monkeypatch.setattr(_lapack, "DSTEVD_SYMBOL", "no_such_lapack_symbol")
    resolve.cache_clear()
    try:
        assert resolve() is None
        assert _Routes(monkeypatch).solve(_chain(40)) == "svd"
    finally:
        resolve.cache_clear()


def test_non_finite_band_is_numerical_error():
    # from_matrix rejects such a matrix; the constructor checks only the entries outside T.
    H = _chain(4)
    band = H.band.copy()
    band[band.shape[0] // 2, 1] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        eigh(ChiralHamiltonian(band, H.geometry))
