import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralchain.hamiltonian import (
    ChiralHamiltonian,
    CouplingProfile,
    ExtraCoupling,
    NumericalError,
    apply_defect,
    apply_disorder,
    block_norms,
    build_ssh,
    bulk_gap,
    periodic_closure,
    short_range_constant,
    verify_chiral,
)
from chiralchain.lattice import Convention, make_geometry

E = math.e


def ssh(L, t1, t2, convention=Convention.CELL_C2):
    cells = L if convention is Convention.CELL_C2 else (L + 1) // 2
    geom = make_geometry(L, convention)
    return build_ssh(geom, CouplingProfile.constant(cells, t1, t2))


def disordered_defect_profile(L, seed):
    profile = CouplingProfile.constant(L, 0.5, 1.0)
    profile = apply_disorder(profile, seed, 0.1)
    return apply_defect(profile, 0.2)


def test_build_ssh_two_cells_entries():
    H = ssh(2, 0.5, 1.0).matrix
    assert H[0, 1] == 0.5          # (0,A)-(0,B)
    assert H[1, 2] == 1.0          # (0,B)-(1,A)
    assert H[2, 3] == 0.5          # (1,A)-(1,B)
    assert np.array_equal(H, H.T)
    # All A-A and B-B entries are structural zeros.
    assert np.all(H[0::2, 0::2] == 0)
    assert np.all(H[1::2, 1::2] == 0)


def test_fully_dimerized_zero_mode_on_first_site():
    H = ssh(20, 0.0, 1.0).matrix
    psi = np.zeros(40)
    psi[0] = 1.0  # (0, A)
    assert np.all(H @ psi == 0)


def test_disordered_defect_chain_is_chiral():
    L = 30
    geom = make_geometry(L)
    H = build_ssh(geom, disordered_defect_profile(L, seed=3))
    assert verify_chiral(H) == 0.0


def test_profile_length_mismatch_rejected():
    geom = make_geometry(5)
    with pytest.raises(ValueError):
        build_ssh(geom, CouplingProfile.constant(4, 0.5, 1.0))


def test_nan_coupling_rejected():
    t1 = np.full(5, 0.5)
    t1[2] = np.nan
    with pytest.raises(ValueError):
        CouplingProfile(t1, np.ones(5))


def test_disorder_zero_amplitude_is_identity():
    profile = CouplingProfile.constant(12, 0.5, 1.0)
    out = apply_disorder(profile, seed=5, amplitude=0.0)
    assert np.array_equal(out.t1, profile.t1)
    assert np.array_equal(out.t2, profile.t2)


def test_disorder_deterministic_per_seed_and_cell():
    profile = CouplingProfile.constant(20, 0.5, 1.0)
    a = apply_disorder(profile, seed=7, amplitude=0.1)
    b = apply_disorder(profile, seed=7, amplitude=0.1)
    assert np.array_equal(a.t1, b.t1)
    assert np.array_equal(a.t2, b.t2)
    c = apply_disorder(profile, seed=8, amplitude=0.1)
    assert not np.array_equal(a.t1, c.t1)


def test_disorder_extends_rather_than_reshuffles():
    short = apply_disorder(CouplingProfile.constant(15, 0.5, 1.0), seed=2, amplitude=0.1)
    long = apply_disorder(CouplingProfile.constant(45, 0.5, 1.0), seed=2, amplitude=0.1)
    assert np.array_equal(short.t1, long.t1[:15])
    assert np.array_equal(short.t2, long.t2[:15])


def test_disorder_draws_within_amplitude():
    profile = CouplingProfile.constant(200, 0.0, 0.0)
    out = apply_disorder(profile, seed=1, amplitude=0.1)
    assert np.all(np.abs(out.t1) <= 0.1)
    assert np.all(np.abs(out.t2) <= 0.1)
    # Draws for t1 and t2 come from distinct streams.
    assert not np.array_equal(out.t1, out.t2)


def test_disorder_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        apply_disorder(CouplingProfile.constant(4, 0.5, 1.0), seed=1, amplitude=-0.1)


def test_defect_zero_height_is_identity():
    profile = CouplingProfile.constant(10, 0.5, 1.0)
    out = apply_defect(profile, height=0.0)
    assert np.array_equal(out.t1, profile.t1)


def test_defect_peak_value_at_center():
    L = 30
    profile = apply_defect(CouplingProfile.constant(L, 0.5, 1.0), height=0.2)
    # center_frac = 0.5 puts the peak exactly on cell L/2.
    assert profile.t1[L // 2] == pytest.approx(0.5 + 0.2, abs=1e-15)


def test_defect_even_around_center():
    L = 40
    profile = apply_defect(CouplingProfile.constant(L, 0.0, 1.0), height=0.3)
    center = L // 2
    for off in (1, 3, 7):
        assert profile.t1[center - off] == pytest.approx(profile.t1[center + off], rel=1e-12)


def test_defect_width_must_be_positive():
    with pytest.raises(ValueError):
        apply_defect(CouplingProfile.constant(6, 0.5, 1.0), height=0.1, width_param=0.0)


def test_ring_spectrum_symmetric():
    ring = periodic_closure(CouplingProfile.constant(20, 0.7, 1.0), 20)
    w = np.linalg.eigvalsh(ring)
    assert np.allclose(w, -w[::-1], atol=1e-10)


@pytest.mark.parametrize("t1,t2", [(0.5, 1.0), (1.0, 0.5)])
def test_bulk_gap_homogeneous(t1, t2):
    gap = bulk_gap(CouplingProfile.constant(50, t1, t2), l_ring=200)
    assert gap == pytest.approx(0.5, abs=0.01)


def test_bulk_gap_closes_at_critical_point():
    # t1 = t2 closes the gap at k = pi, which an even ring contains exactly;
    # an odd ring misses it by a little.
    profile = CouplingProfile.constant(50, 1.0, 1.0)
    assert bulk_gap(profile, l_ring=200) == 0.0
    odd = bulk_gap(profile, l_ring=201)
    assert odd == pytest.approx(0.0156296551047, abs=1e-12)
    assert abs(odd - dense_gap(profile, 201)) <= 1e-12


def test_bulk_gap_converges_with_ring_size():
    profile = CouplingProfile.constant(25, 0.5, 1.0)
    err_small = abs(bulk_gap(profile, l_ring=25) - 0.5)
    err_large = abs(bulk_gap(profile, l_ring=50) - 0.5)
    assert err_large < err_small


def test_ring_too_small_for_range():
    extra = (ExtraCoupling(3, np.ones(8) * 0.1, np.zeros(8)),)
    profile = CouplingProfile(np.full(8, 0.5), np.ones(8), extra)
    with pytest.raises(ValueError):
        periodic_closure(profile, 5)


def test_ring_wrap_bond_present():
    ring = periodic_closure(CouplingProfile.constant(6, 0.5, 1.0), 6)
    # (5, B) couples back to (0, A) with t2.
    assert ring[11, 0] == 1.0


def test_short_range_constant_homogeneous_ssh():
    H = ssh(12, 0.5, 1.0)
    # Interior row: on-cell block |t1| plus two neighbor blocks |t2| e^{1/d}.
    assert short_range_constant(H, 1.0) == pytest.approx(0.5 + 2.0 * E, rel=1e-12)


def test_short_range_constant_zero_matrix():
    geom = make_geometry(6)
    H = build_ssh(geom, CouplingProfile.constant(6, 0.0, 0.0))
    assert short_range_constant(H, 1.0) == 0.0


def test_short_range_constant_large_decay_length_limit():
    H = ssh(10, 0.5, 1.0)
    # e^{1/d} -> 1: the weighted sum tends to the max block-norm row sum.
    assert short_range_constant(H, 1e9) == pytest.approx(0.5 + 2.0, rel=1e-6)


def test_short_range_constant_monotone_in_decay_length():
    H = ssh(10, 0.5, 1.0)
    values = [short_range_constant(H, d) for d in (0.5, 1.0, 2.0, 8.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_verify_chiral_detects_identity_shift():
    H = ssh(6, 0.5, 1.0)
    eps = 0.1
    shifted = H.matrix + eps * np.eye(H.dim)
    assert verify_chiral(ChiralHamiltonian(shifted, H.geometry)) == pytest.approx(
        2 * eps, abs=1e-15
    )


def test_verify_chiral_detects_sublattice_diagonal_entry():
    rng = np.random.default_rng(0)
    geom = make_geometry(5)
    M = rng.normal(size=(10, 10))
    H = (M + M.T) / 2
    a = H[0, 2]  # an A-A entry
    assert verify_chiral(ChiralHamiltonian(H, geom)) >= 2 * abs(a) - 1e-12


def test_verify_chiral_dim_mismatch():
    H = ssh(6, 0.5, 1.0)
    with pytest.raises(ValueError):
        verify_chiral(ChiralHamiltonian(H.matrix, make_geometry(4)))


@pytest.mark.parametrize("seed", range(4))
def test_spectrum_symmetric_for_random_chiral_chains(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(4, 20))
    profile = CouplingProfile(rng.normal(size=L), rng.normal(size=L))
    H = build_ssh(make_geometry(L), profile)
    w = np.linalg.eigvalsh(H.matrix)
    assert np.abs(w + w[::-1]).max() < 1e-10


def test_extra_couplings_respect_chirality_and_band():
    rng = np.random.default_rng(1)
    L = 12
    extra = (
        ExtraCoupling(2, rng.normal(size=L), rng.normal(size=L)),
        ExtraCoupling(3, rng.normal(size=L), rng.normal(size=L)),
    )
    profile = CouplingProfile(rng.normal(size=L), rng.normal(size=L), extra)
    geom = make_geometry(L)
    H = build_ssh(geom, profile)
    assert verify_chiral(H) == 0.0
    assert profile.coupling_range == 3
    norms = block_norms(H.matrix, geom)
    x = np.arange(L)
    far = np.abs(x[:, None] - x[None, :]) > 3
    assert np.all(norms[far] == 0.0)


def test_boundary_potential_stays_chiral_and_local():
    L = 20
    boundary = np.zeros(L)
    boundary[0] = 0.3
    boundary[L - 1] = -0.2
    profile = CouplingProfile(np.full(L, 0.5), np.ones(L), boundary=boundary)
    H = build_ssh(make_geometry(L), profile)
    assert verify_chiral(H) == 0.0
    assert H.matrix[0, 1] == pytest.approx(0.8)


def test_boundary_potential_support_width_enforced():
    L = 16
    boundary = np.zeros(L)
    boundary[L // 2] = 0.1  # mid-chain, not an edge region
    with pytest.raises(ValueError):
        CouplingProfile(np.full(L, 0.5), np.ones(L), boundary=boundary)


def test_alternating_sites_chain_matches_cell_chain_spectrum():
    # Same physical chain in both conventions (L cells vs 2L sites).
    L = 10
    cell_H = ssh(L, 0.5, 1.0).matrix
    site_H = ssh(2 * L, 0.5, 1.0, Convention.ALTERNATING_SITES).matrix
    assert np.allclose(
        np.linalg.eigvalsh(cell_H), np.linalg.eigvalsh(site_H), atol=1e-12
    )


def test_alternating_sites_rejects_cell_only_features():
    geom = make_geometry(8, Convention.ALTERNATING_SITES)
    extra = (ExtraCoupling(2, np.ones(4), np.ones(4)),)
    with pytest.raises(ValueError):
        build_ssh(geom, CouplingProfile(np.full(4, 0.5), np.ones(4), extra))


# --- the single chain builder against the builders it replaced -------------------
#
# Verbatim copies of the former open-chain cell builder, the former
# alternating-sites loop and the former ring builder.  The one builder must
# reproduce them bit for bit on real couplings and exactly on complex ones.


def _tile(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return arr[idx]


def reference_cells(geom, profile):
    L = geom.length
    t1 = profile.t1 if profile.boundary is None else profile.t1 + profile.boundary
    dtype = np.result_type(
        profile.t1, profile.t2, *(np.result_type(b.a, b.b) for b in profile.extra), float
    )
    upper = np.zeros((2 * L, 2 * L), dtype=dtype)
    cells = np.arange(L)
    upper[2 * cells, 2 * cells + 1] = t1
    upper[2 * cells[:-1] + 1, 2 * cells[:-1] + 2] = profile.t2[: L - 1]
    for blk in profile.extra:
        k = blk.offset
        if k >= L:
            continue
        x = np.arange(L - k)
        upper[2 * x, 2 * (x + k) + 1] += blk.a[: L - k]
        upper[2 * x + 1, 2 * (x + k)] += blk.b[: L - k]
    H = upper + upper.conj().T
    return ChiralHamiltonian(H, geom)


def reference_alternating(geom, profile):
    L = geom.length
    dtype = np.result_type(profile.t1, profile.t2, float)
    H = np.zeros((L, L), dtype=dtype)
    for x in range(L - 1):
        t = profile.t1[x // 2] if x % 2 == 0 else profile.t2[x // 2]
        H[x, x + 1] = t
        H[x + 1, x] = np.conj(t)
    return ChiralHamiltonian(H, geom)


def reference_periodic_closure(profile, l_ring):
    r = profile.coupling_range
    if l_ring < 2 * r or l_ring < 2:
        raise ValueError(f"ring of {l_ring} cells is too small for coupling range {r}")
    idx = np.arange(l_ring) % profile.length
    t1 = _tile(profile.t1, idx)
    t2 = _tile(profile.t2, idx)
    dtype = np.result_type(
        t1, t2, *(np.result_type(b.a, b.b) for b in profile.extra), float
    )
    upper = np.zeros((2 * l_ring, 2 * l_ring), dtype=dtype)
    x = np.arange(l_ring)
    upper[2 * x, 2 * x + 1] = t1
    y = (x + 1) % l_ring
    np.add.at(upper, (2 * x + 1, 2 * y), t2)
    for blk in profile.extra:
        k = blk.offset
        a = _tile(blk.a, idx)
        b = _tile(blk.b, idx)
        y = (x + k) % l_ring
        np.add.at(upper, (2 * x, 2 * y + 1), a)
        np.add.at(upper, (2 * x + 1, 2 * y), b)
    return upper + upper.conj().T


def assert_same_matrix(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    if np.iscomplexobj(want):
        assert np.array_equal(got, want)
    else:
        assert got.tobytes() == want.tobytes()


def offsets_profile(cells, offsets, complex_valued=False, seed=0):
    rng = np.random.default_rng(seed)

    def values():
        v = rng.uniform(-1.5, 1.5, cells)
        return v + 1j * rng.uniform(-1.5, 1.5, cells) if complex_valued else v

    extra = tuple(ExtraCoupling(k, values(), values()) for k in offsets)
    return CouplingProfile(values(), values(), extra)


@pytest.mark.parametrize("sites", [2, 3, 4, 5, 40])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_sites_chain_is_cropped_cell_chain(sites, complex_valued):
    geom = make_geometry(sites, Convention.ALTERNATING_SITES)
    profile = offsets_profile(geom.cells, (), complex_valued, seed=sites)
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_alternating(geom, profile).matrix)


@pytest.mark.parametrize("offsets", [(), (1,), (3,), (1, 3), (2, 6, 9)])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_open_cell_chain_matches_reference(offsets, complex_valued):
    # Offsets 6 and 9 reach past the 6-cell chain and place no bonds.
    profile = offsets_profile(6, offsets, complex_valued)
    geom = make_geometry(6)
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_cells(geom, profile).matrix)


@pytest.mark.parametrize("offsets", [(), (1,), (3,), (1, 3)])
@pytest.mark.parametrize("ring", ["2r", "L", "4L", "L+5"])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_ring_is_open_chain_plus_wrap_bonds(offsets, ring, complex_valued):
    # Offset 1 puts its b block on the t2 entries and its wrap bond on t2's.
    L = 7
    profile = offsets_profile(L, offsets, complex_valued)
    r = profile.coupling_range
    l_ring = {"2r": 2 * r, "L": L, "4L": 4 * L, "L+5": L + 5}[ring]
    assert_same_matrix(periodic_closure(profile, l_ring), reference_periodic_closure(profile, l_ring))


def test_complex_boundary_perturbation_keeps_its_phase():
    boundary = np.zeros(12, dtype=complex)
    boundary[0] = 0.3j
    profile = CouplingProfile(np.full(12, 0.5), np.ones(12), boundary=boundary)
    H = build_ssh(make_geometry(12), profile)
    assert H.matrix[0, 1] == 0.5 + 0.3j
    assert H.matrix[1, 0] == 0.5 - 0.3j


def test_ring_ignores_boundary_perturbation():
    boundary = np.zeros(12)
    boundary[0] = 0.3
    plain = CouplingProfile.constant(12, 0.5, 1.0)
    perturbed = CouplingProfile(plain.t1, plain.t2, boundary=boundary)
    assert_same_matrix(periodic_closure(perturbed, 24), periodic_closure(plain, 24))


def test_tiled_profile_shifts_and_drops_boundary():
    boundary = np.zeros(8)
    boundary[0] = 0.2
    profile = CouplingProfile(np.arange(8.0), np.arange(8.0) + 10, boundary=boundary)
    tiled = profile.tiled(12, shift=3)
    assert tiled.boundary is None
    assert list(tiled.t1) == [5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0]
    assert list(tiled.t2) == list(tiled.t1 + 10)


# Signed zeros are normalized (+ 0.0): symmetrizing adds +0.0 to every entry,
# so a -0.0 coupling comes out as +0.0 where the sites loop copied it as -0.0.
_coupling = st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: v + 0.0)


@st.composite
def _profiles(draw, cells, complex_valued, offsets=(), coupling=_coupling):
    def values():
        v = np.array(draw(st.lists(coupling, min_size=cells, max_size=cells)))
        if complex_valued:
            v = v + 1j * np.array(draw(st.lists(coupling, min_size=cells, max_size=cells)))
        return v

    extra = tuple(ExtraCoupling(k, values(), values()) for k in offsets)
    return CouplingProfile(values(), values(), extra)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sites=st.integers(2, 40), complex_valued=st.booleans())
def test_sites_chain_property(data, sites, complex_valued):
    geom = make_geometry(sites, Convention.ALTERNATING_SITES)
    profile = data.draw(_profiles(geom.cells, complex_valued))
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_alternating(geom, profile).matrix)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    cells=st.integers(2, 10),
    offsets=st.lists(st.integers(1, 12), max_size=3),
    complex_valued=st.booleans(),
)
def test_open_cell_chain_property(data, cells, offsets, complex_valued):
    profile = data.draw(_profiles(cells, complex_valued, offsets))
    geom = make_geometry(cells)
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_cells(geom, profile).matrix)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    cells=st.integers(1, 10),
    offsets=st.lists(st.integers(1, 6), max_size=3),
    complex_valued=st.booleans(),
)
def test_ring_property(data, cells, offsets, complex_valued):
    profile = data.draw(_profiles(cells, complex_valued, offsets))
    r = profile.coupling_range
    l_ring = data.draw(st.sampled_from([2 * r, max(cells, 2 * r), 4 * cells + 2 * r])
                       | st.integers(max(2, 2 * r), 4 * cells + 2 * r))
    assert_same_matrix(periodic_closure(profile, l_ring), reference_periodic_closure(profile, l_ring))


# --- the sparse ring gap against the dense ring spectrum ---------------------------


def dense_gap(profile, l_ring):
    return float(np.abs(np.linalg.eigvalsh(periodic_closure(profile, l_ring))).min())


# Couplings within four decades of each other, or exactly zero.  Couplings
# hundreds of decades apart can put the ring's half gap near the float
# underflow, where shift-invert overflows; that case has its own test below.
_gap_coupling = st.just(0.0) | st.floats(1e-4, 2.0) | st.floats(-2.0, -1e-4)


@pytest.mark.parametrize("offsets", [(), (1,), (3,), (1, 3)])
@pytest.mark.parametrize("ring", ["2r", "L", "4L", "L+5"])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_bulk_gap_matches_dense_ring_fixed(offsets, ring, complex_valued):
    L = 7
    profile = offsets_profile(L, offsets, complex_valued, seed=len(offsets))
    r = profile.coupling_range
    l_ring = {"2r": 2 * r, "L": L, "4L": 4 * L, "L+5": L + 5}[ring]
    assert abs(bulk_gap(profile, l_ring) - dense_gap(profile, l_ring)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    cells=st.integers(1, 12),
    offsets=st.lists(st.integers(1, 3), max_size=3),
    complex_valued=st.booleans(),
    ring=st.sampled_from(["2r", "L", "4L", "L+5"]),
)
def test_bulk_gap_matches_dense_ring(data, cells, offsets, complex_valued, ring):
    profile = data.draw(_profiles(cells, complex_valued, offsets, _gap_coupling))
    r = profile.coupling_range
    # 2r is also the smallest ring (l_ring = 2 for plain SSH).
    l_ring = max(2 * r, {"2r": 0, "L": cells, "4L": 4 * cells, "L+5": cells + 5}[ring])
    assert abs(bulk_gap(profile, l_ring) - dense_gap(profile, l_ring)) <= 1e-12


def test_bulk_gap_near_underflow_is_numerical_error():
    # Bonds of 1e-200 and 1e-300 next to bonds of 2 leave a half gap near the
    # float underflow; its inverse overflows inside ARPACK.
    profile = CouplingProfile(np.array([2.0, 1e-200, 1e-200]), np.array([1e-200, 2.0, 1e-300]))
    with pytest.raises(NumericalError, match="ARPACK"):
        bulk_gap(profile, l_ring=3)


def test_bulk_gap_arpack_failure_is_numerical_error(monkeypatch):
    # ArpackNoConvergence is a RuntimeError; it must not read as a closed gap.
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array([]), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="no convergence"):
        bulk_gap(CouplingProfile.constant(20, 0.5, 1.0))


def test_bulk_gap_long_disordered_chain_stays_sparse():
    import tracemalloc

    # The default ring has 8000 cells: a dense ring matrix would take 2 GB.
    profile = disordered_defect_profile(2000, 1)
    tracemalloc.start()
    try:
        gap = bulk_gap(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.2 < gap < 0.35
    assert peak < 32e6


# --- closed-form block norms against the SVD --------------------------------------

_EPS = float(np.finfo(float).eps)
_mantissa = st.floats(0.01, 1.0) | st.just(0.0)


@st.composite
def _block(draw, complex_valued):
    """One 2x2 block: zero, random or near-unitary, at a magnitude from e^-600 to e^600."""
    kind = draw(st.sampled_from(["zero", "random", "near_unitary"]))
    if kind == "zero":
        return np.zeros((2, 2), dtype=complex if complex_valued else float)

    def entry():
        v = draw(_mantissa) * draw(st.sampled_from([1.0, -1.0]))
        if complex_valued:
            v = complex(v, draw(_mantissa) * draw(st.sampled_from([1.0, -1.0])))
        return v

    if kind == "random":
        block = np.array([[entry(), entry()], [entry(), entry()]])
    else:
        angle = draw(st.floats(0.0, 2 * math.pi))
        phase = np.exp(1j * draw(st.floats(0.0, 2 * math.pi))) if complex_valued else 1.0
        c, s = math.cos(angle), math.sin(angle)
        block = np.array([[c, -s * np.conj(phase)], [s * phase, c]])
        block[1, 1] *= 1.0 + draw(st.floats(-1e-9, 1e-9))
    return block * math.exp(draw(st.integers(-600, 600)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), cells=st.integers(2, 5), complex_valued=st.booleans())
def test_block_norms_match_svd(data, cells, complex_valued):
    M = np.zeros((2 * cells, 2 * cells), dtype=complex if complex_valued else float)
    for x in range(cells):
        for y in range(cells):
            M[2 * x : 2 * x + 2, 2 * y : 2 * y + 2] = data.draw(_block(complex_valued))
    blocks = M.reshape(cells, 2, cells, 2).transpose(0, 2, 1, 3)
    want = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    got = block_norms(M, make_geometry(cells))
    assert np.all((got == 0) == (want == 0))
    assert np.all(np.abs(got - want) <= 8 * _EPS * want)


def test_block_norms_of_integer_matrix():
    M = np.arange(16).reshape(4, 4)
    geom = make_geometry(2)
    assert np.array_equal(block_norms(M, geom), block_norms(M.astype(float), geom))


# --- the short-range constant on long chains ---------------------------------------


def test_short_range_constant_finite_beyond_exp_overflow():
    # exp(|x - y| / d) overflows past 709 d; only the band is weighted.
    values = [short_range_constant(ssh(L, 0.5, 1.0), 1.0) for L in (250, 709, 1000)]
    assert values == [values[0]] * 3
    assert values[0] == pytest.approx(5.93656365691809, rel=1e-14)
