import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralchain import _lapack, hamiltonian
from chiralchain.hamiltonian import (
    ChiralHamiltonian,
    _adjoint_band,
    _cell_block_norms,
    _position_band_norms,
    _chain_bonds,
    CouplingProfile,
    ExtraCoupling,
    NumericalError,
    _sublattice_blocks,
    apply_defect,
    apply_disorder,
    build_ssh,
    bulk_gap,
    short_range_constant,
)
from chiralchain.lattice import Convention, make_geometry
from oracles import (
    band_grid, block_norms, dense_band, dense_block, dense_ring, plain_cell_block_norms, sparse_ring_gap, verify_chiral,
)

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
    assert verify_chiral(H.matrix, geom) == 0.0


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


def test_narrow_defect_moves_only_its_center_cell_without_warnings():
    profile = CouplingProfile.constant(20, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_defect(profile, 0.2, width_param=1e-300)
    expected = profile.t1.copy()
    expected[10] += 0.2
    assert np.array_equal(out.t1, expected)


@pytest.mark.parametrize(
    "offset,message",
    [
        (2.5, "extra[0].offset must be an integer, got 2.5"),
        (True, "extra[0].offset must be an integer, got True"),
        (0, "extra[0].offset must be >= 1, got 0"),
    ],
)
def test_extra_coupling_offset_must_be_a_positive_integer(offset, message):
    block = ExtraCoupling(offset, np.ones(6), np.ones(6))
    with pytest.raises(ValueError) as err:
        CouplingProfile(np.ones(6), np.ones(6), extra=(block,))
    assert str(err.value) == message


def test_ring_spectrum_symmetric():
    ring = dense_ring(CouplingProfile.constant(20, 0.7, 1.0), 20)
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
    with pytest.raises(ValueError, match="too small"):
        bulk_gap(profile, l_ring=5)


def test_ring_wrap_bond_present():
    ring = dense_ring(CouplingProfile.constant(6, 0.5, 1.0), 6)
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
    assert verify_chiral(shifted, H.geometry) == pytest.approx(
        2 * eps, abs=1e-15
    )


def test_verify_chiral_detects_sublattice_diagonal_entry():
    rng = np.random.default_rng(0)
    geom = make_geometry(5)
    M = rng.normal(size=(10, 10))
    H = (M + M.T) / 2
    a = H[0, 2]  # an A-A entry
    assert verify_chiral(H, geom) >= 2 * abs(a) - 1e-12


def test_verify_chiral_dim_mismatch():
    H = ssh(6, 0.5, 1.0)
    with pytest.raises(ValueError):
        verify_chiral(H.matrix, make_geometry(4))


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
    assert verify_chiral(H.matrix, geom) == 0.0
    assert profile.coupling_range == 3
    norms = block_norms(_sublattice_blocks(H.matrix), geom)
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
    assert verify_chiral(H.matrix, H.geometry) == 0.0
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
    return upper + upper.conj().T


def reference_alternating(geom, profile):
    L = geom.length
    dtype = np.result_type(profile.t1, profile.t2, float)
    H = np.zeros((L, L), dtype=dtype)
    for x in range(L - 1):
        t = profile.t1[x // 2] if x % 2 == 0 else profile.t2[x // 2]
        H[x, x + 1] = t
        H[x + 1, x] = np.conj(t)
    return H


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
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_alternating(geom, profile))


@pytest.mark.parametrize("offsets", [(), (1,), (3,), (1, 3), (2, 6, 9)])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_open_cell_chain_matches_reference(offsets, complex_valued):
    # Offsets 6 and 9 reach past the 6-cell chain and place no bonds.
    profile = offsets_profile(6, offsets, complex_valued)
    geom = make_geometry(6)
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_cells(geom, profile))


@pytest.mark.parametrize("offsets", [(), (1,), (3,), (1, 3)])
@pytest.mark.parametrize("ring", ["2r", "L", "4L", "L+5"])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_ring_is_open_chain_plus_wrap_bonds(offsets, ring, complex_valued):
    # Offset 1 puts its b block on the t2 entries and its wrap bond on t2's.
    L = 7
    profile = offsets_profile(L, offsets, complex_valued)
    r = profile.coupling_range
    l_ring = {"2r": 2 * r, "L": L, "4L": 4 * L, "L+5": L + 5}[ring]
    assert_same_matrix(dense_ring(profile, l_ring), reference_periodic_closure(profile, l_ring))


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
    assert_same_matrix(dense_ring(perturbed, 24), dense_ring(plain, 24))


def test_tiled_profile_repeats_and_drops_boundary():
    boundary = np.zeros(8)
    boundary[0] = 0.2
    profile = CouplingProfile(np.arange(8.0), np.arange(8.0) + 10, boundary=boundary)
    tiled = profile.tiled(12)
    assert tiled.boundary is None
    assert list(tiled.t1) == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3]
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
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_alternating(geom, profile))


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
    assert_same_matrix(build_ssh(geom, profile).matrix, reference_cells(geom, profile))


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
    assert_same_matrix(dense_ring(profile, l_ring), reference_periodic_closure(profile, l_ring))


# --- the sparse ring gap against the dense ring spectrum ---------------------------


def dense_gap(profile, l_ring):
    return float(np.abs(np.linalg.eigvalsh(dense_ring(profile, l_ring))).min())


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
    # float underflow; its inverse overflows.
    profile = CouplingProfile(np.array([2.0, 1e-200, 1e-200]), np.array([1e-200, 2.0, 1e-300]))
    with pytest.raises(NumericalError, match="inverse overflows"):
        bulk_gap(profile, l_ring=3)


def test_bulk_gap_near_underflow_keeps_stdout_clean(capfd):
    # The overflow is caught before any LAPACK call sees a non-finite vector.
    profile = CouplingProfile(np.array([2.0, 1e-200, 1e-200]), np.array([1e-200, 2.0, 1e-300]))
    with pytest.raises(NumericalError):
        bulk_gap(profile, l_ring=3)
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("l_ring", [2, 3])
@pytest.mark.parametrize("offsets", [(), (1,)])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_bulk_gap_smallest_rings_match_dense_ring(l_ring, offsets, complex_valued):
    # Lanczos spans the whole ring in l_ring steps.
    for seed in range(4):
        profile = offsets_profile(5, offsets, complex_valued, seed=seed)
        assert abs(bulk_gap(profile, l_ring) - dense_gap(profile, l_ring)) <= 1e-12


def test_bulk_gap_two_cell_ring_keeps_a_graded_gap():
    # T = [[6.4e-6, 9e-11], [1.3e6, 1.6e8]]; its sigma_min, 6.39978802923291e-06
    # to 100 digits, is 2e-5 relative off in a dense SVD, which is accurate to
    # eps * sigma_max only.
    profile = CouplingProfile(np.array([6.4e-06, 1.6e08]), np.array([1.3e06, 9.0e-11]))
    assert bulk_gap(profile, l_ring=2) == pytest.approx(6.39978802923291e-06, rel=1e-14)


def test_bulk_gap_finds_the_smallest_of_a_close_cluster():
    # Three copies of a strong dimer leave the ring's three smallest singular
    # values within 2.3e-8 of each other: 0.25999999594594357229, then
    # 0.26000000202702467707 twice (60-digit mpmath).  A stopping rule that
    # takes the distance to the second Ritz value for the distance to the
    # rest of the spectrum stops before the smallest is found, 2.3e-8 high.
    profile = CouplingProfile(np.array([0.03, 0.5]), np.array([3.7e6, 0.26]))
    assert bulk_gap(profile, l_ring=6) == pytest.approx(0.25999999594594357229, rel=1e-14)


def test_bulk_gap_lanczos_failure_is_numerical_error(monkeypatch):
    # Lanczos that runs out of steps must not read as a closed gap.  With a
    # basis of two vectors every restart keeps one Ritz vector, and on the
    # clean 80-cell ring, whose band edge is a near-continuum, that does not
    # converge within the 10 steps per cell.
    monkeypatch.setattr(hamiltonian, "_LANCZOS_BASIS", 2)
    with pytest.raises(NumericalError, match="Lanczos did not converge in 800 steps"):
        bulk_gap(CouplingProfile.constant(20, 0.5, 1.0))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("kl, ku", [(0, 0), (2, 2), (1, 3), (3, 1), (0, 3), (3, 0)])
@pytest.mark.parametrize("dominant", [True, False])
def test_band_lu_solves_match_dense(dtype, kl, ku, dominant):
    # A column-dominant band factors with no row interchange; the others
    # interchange rows wherever there is a subdiagonal.
    rng = np.random.default_rng(kl + 4 * ku)
    n = 40
    A = np.zeros((n, n), dtype)
    for k in range(-kl, ku + 1):
        d = rng.standard_normal(n - abs(k))
        A += np.diag(d + 1j * rng.standard_normal(n - abs(k)) if dtype is np.complex128 else d, k)
    if dominant:
        A += np.diag(np.full(n, 3.0 * (kl + ku + 1)))
    ab = np.zeros((n, 2 * kl + ku + 1), dtype)
    i, j = np.nonzero(A)
    ab[j, kl + ku + i - j] = A[i, j]
    lu = _lapack.BandLU(ab, kl)
    assert not lu.singular
    b = rng.standard_normal(n)
    for trans, M in ((b"N", A), (b"C", A.conj().T)):
        x = lu.solve(b, trans)
        assert np.abs(M @ x - b).max() <= 1e-12 * np.abs(M).max() * np.abs(x).max()


_CLEAN_RING = CouplingProfile.constant(250, 0.5, 1.0)


@pytest.mark.parametrize("profile", [
    *(disordered_defect_profile(length, seed) for length in (40, 250, 1000, 2000) for seed in (1, 104729)),
    _CLEAN_RING,  # the band edge is a near-continuum: Lanczos restarts
    apply_defect(_CLEAN_RING.truncate(100), 0.2),
    apply_disorder(_CLEAN_RING, 1, 1e-3),
], ids=[*(f"L{length}-seed{seed}" for length in (40, 250, 1000, 2000) for seed in (1, 104729)),
        "clean", "defect-only", "weak-disorder"])
def test_bulk_gap_matches_sparse_ring_gap(profile):
    # The default ring of four times the chain, as theorem mode takes it.
    assert bulk_gap(profile) == pytest.approx(sparse_ring_gap(profile), rel=1e-14)


def test_bulk_gap_without_band_kernels_takes_dense_svd(monkeypatch):
    # A numpy whose LAPACK lacks the band kernels: the dense ring's smallest singular value.
    monkeypatch.setattr(_lapack, "band_kernels", lambda dtype: None)
    for profile, l_ring in [(disordered_defect_profile(10, 1), 40), (offsets_profile(7, (1, 3), True, seed=2), 11)]:
        assert abs(bulk_gap(profile, l_ring) - dense_gap(profile, l_ring)) <= 1e-12
    # The clean ring at t1 = t2 is closed: a singular value within rounding of zero reads as 0.0.
    assert bulk_gap(CouplingProfile.constant(5, 1.0, 1.0), l_ring=10) == 0.0
    # A ring too large for a dense matrix is an error, not a silent (l_ring)^2 array.
    with pytest.raises(NumericalError, match="dense fallback takes at most 1024 cells"):
        bulk_gap(disordered_defect_profile(300, 1))


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
    # The package's norms on the band of every diagonal, the full grid.
    bands = tuple(dense_band(B, cells - 1) for B in _sublattice_blocks(M))
    got = band_grid(_position_band_norms(bands, make_geometry(cells), cells - 1), cells)
    assert np.all((got == 0) == (want == 0))
    assert np.all(np.abs(got - want) <= 8 * _EPS * want)
    # They keep every bit of the oracle's closed form.
    assert got.tobytes() == plain_cell_block_norms(*_sublattice_blocks(M)).tobytes()
    assert got.tobytes() == block_norms(_sublattice_blocks(M), make_geometry(cells)).tobytes()


@pytest.mark.parametrize("shape", [(300, 70), (10000,)])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_block_norms_in_chunks_keep_every_bit(shape, complex_valued):
    # Several passes of the closed form, with zero, subnormal and huge blocks among them.
    rng = np.random.default_rng(len(shape))

    def entries():
        v = rng.normal(size=shape)
        if complex_valued:
            v = v + 1j * rng.normal(size=shape)
        return v * 10.0 ** rng.choice([0, -300, -310, 300], size=shape) * (rng.random(shape) < 0.8)

    blocks = [entries() for _ in range(4)]
    want = plain_cell_block_norms(*blocks)
    assert _cell_block_norms(*blocks).tobytes() == want.tobytes()


@st.composite
def _banded_cases(draw):
    """(M, geometry, h): a dense matrix, real or complex, with zeros and wide exponents, and a band half width."""
    geom = make_geometry(draw(st.integers(2, 9)), draw(st.sampled_from(list(Convention))))
    n = geom.total_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.normal(size=(n, n))
    if draw(st.booleans()):
        M = M + 1j * rng.normal(size=(n, n))
    M *= (rng.random((n, n)) < 0.8) * 10.0 ** rng.choice([0, -300, 300], size=(n, n), p=[0.8, 0.1, 0.1])
    return M, geom, draw(st.integers(0, geom.length - 1))


def _example_case(L, convention, h, complex_valued=False):
    geom = make_geometry(L, convention)
    M = np.arange(geom.total_dim**2, dtype=float).reshape(geom.total_dim, -1) - 7.5
    return M * (1 - 0.5j) if complex_valued else M, geom, h


@settings(max_examples=150, deadline=None)
@given(case=_banded_cases())
@example(case=_example_case(2, Convention.CELL_C2, 1))
@example(case=_example_case(2, Convention.ALTERNATING_SITES, 1, complex_valued=True))
@example(case=_example_case(7, Convention.ALTERNATING_SITES, 6))  # odd: |A| = |B| + 1, the full grid
@example(case=_example_case(7, Convention.ALTERNATING_SITES, 3, complex_valued=True))
@example(case=_example_case(5, Convention.CELL_C2, 4, complex_valued=True))
def test_position_band_norms_are_the_dense_block_norms_on_the_band(case):
    M, geom, h = case
    blocks = _sublattice_blocks(M)
    width = h if geom.convention is Convention.CELL_C2 else (h + 1) // 2
    got = _position_band_norms(tuple(dense_band(B, width) for B in blocks), geom, h)
    P = geom.length
    assert got.shape == (2 * h + 1, P)
    # Zero past the chain's ends.
    x, k = np.arange(P), np.arange(-h, h + 1)[:, None]
    assert np.all(got[(x + k < 0) | (x + k >= P)] == 0.0)
    # Every bit of the oracle's on the diagonals -h..h.
    want = block_norms(blocks, geom)
    in_band = np.abs(x[:, None] - x[None, :]) <= h
    assert band_grid(got, P).tobytes() == np.where(in_band, want, 0.0).tobytes()


@pytest.mark.parametrize("shape", [(5, 5), (5, 4), (4, 5)])  # square, and |A| = |B| + 1 either way
@pytest.mark.parametrize("h", [0, 1, 3, 6])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_adjoint_band_is_the_band_of_the_conjugate_transpose(shape, h, complex_valued):
    rng = np.random.default_rng(h)
    M = rng.normal(size=shape)
    if complex_valued:
        M = M + 1j * rng.normal(size=shape)
    M[1] = 0.0
    got = _adjoint_band(dense_band(M, h), shape[1])
    # np.diagonal(M.conj().T, k) on each diagonal, zero past the matrix.
    assert got.shape == (2 * h + 1, shape[1])
    assert got.tobytes() == dense_band(M.conj().T, h).tobytes()


def test_block_norms_of_integer_matrix():
    M = np.arange(16).reshape(4, 4)
    got = _cell_block_norms(*_sublattice_blocks(M))
    assert np.array_equal(got, _cell_block_norms(*_sublattice_blocks(M.astype(float))))


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_sites_block_norms_are_the_absolute_entries(n, complex_valued):
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, n))
    if complex_valued:
        M = M + 1j * rng.normal(size=(n, n))
    M[2] = -0.0  # signed zeros come out as the absolute value gives them
    bands = tuple(dense_band(B, n // 2) for B in _sublattice_blocks(M))
    got = band_grid(_position_band_norms(bands, make_geometry(n, Convention.ALTERNATING_SITES), n - 1), n)
    want = np.abs(M)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_block_norms_reject_blocks_that_do_not_fit_the_geometry():
    M = np.ones((7, 7))
    AA, AB, BA, BB = _sublattice_blocks(M)
    sites = make_geometry(7, Convention.ALTERNATING_SITES)
    for blocks, geom in [
        ((AA, AB, BA, BB), make_geometry(5, Convention.ALTERNATING_SITES)),
        ((AA, BA, AB, BB), sites),  # A-B and B-A swapped
        ((AA, AB, BA), sites),
        (M, sites),
        (_sublattice_blocks(np.ones((8, 8))), make_geometry(3)),
    ]:
        with pytest.raises(ValueError, match="do not match geometry dim"):
            block_norms(blocks, geom)


def test_subnormal_complex_blocks_keep_their_norm():
    # numpy divides a complex entry by a real scale through 1 / scale, which
    # overflows for a subnormal scale.
    z = 2.22507386e-309j
    zero = np.zeros((2, 2), dtype=complex)
    single = np.array([[0, z], [0, 0]])
    norms = _cell_block_norms(zero, single, zero, zero)
    assert norms.tolist() == [[0.0, abs(z)], [0.0, 0.0]]
    assert norms.tobytes() == plain_cell_block_norms(zero, single, zero, zero).tobytes()
    H = build_ssh(make_geometry(2), CouplingProfile(t1=[0j, 0j], t2=[z, 0j]))
    assert short_range_constant(H, 1.0) == abs(z) * np.exp(1.0)


# --- the short-range constant on long chains ---------------------------------------


def test_short_range_constant_finite_beyond_exp_overflow():
    # exp(|x - y| / d) overflows past 709 d; only the band is weighted.
    values = [short_range_constant(ssh(L, 0.5, 1.0), 1.0) for L in (250, 709, 1000)]
    assert values == [values[0]] * 3
    assert values[0] == pytest.approx(5.93656365691809, rel=1e-14)


# --- H stored as its A->B block T ---------------------------------------------------


def dense_chain(geom, profile):
    """The dense builder the block storage replaced: bonds scattered into a 2L x 2L
    upper triangle, symmetrized, then cropped to the geometry."""
    rows, cols, values = _chain_bonds(profile, ring=False)
    n = 2 * profile.length
    upper = np.zeros((n, n), dtype=values.dtype)
    np.add.at(upper, (rows, cols), values)
    m = geom.total_dim
    return (upper + upper.conj().T)[:m, :m]


# Signed zeros are kept here: the block path must reproduce them as the dense sum does.
_signed_coupling = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _chains(draw):
    """Both conventions; under CELL_C2 complex couplings, extra blocks (offsets
    up to past L) and boundary perturbations on the first and last cell."""
    complex_valued = draw(st.booleans())
    if draw(st.booleans()):
        geom = make_geometry(draw(st.integers(2, 13)), Convention.ALTERNATING_SITES)
        offsets, with_boundary = (), False
    else:
        geom = make_geometry(draw(st.integers(2, 10)))
        offsets = draw(st.lists(st.integers(1, 12), max_size=3))
        with_boundary = geom.cells >= 5 and draw(st.booleans())
    profile = draw(_profiles(geom.cells, complex_valued, offsets, _signed_coupling))
    if with_boundary:
        boundary = np.zeros(geom.cells, dtype=profile.t1.dtype)
        boundary[0], boundary[-1] = draw(_signed_coupling), draw(_signed_coupling)
        profile = CouplingProfile(profile.t1, profile.t2, profile.extra, boundary)
    return geom, profile


def assert_block_round_trip(geom, profile):
    H = build_ssh(geom, profile)
    M = H.matrix
    want = dense_chain(geom, profile)
    assert M.dtype == want.dtype and M.tobytes() == want.tobytes()
    assert H.T.shape == ((geom.total_dim + 1) // 2, geom.total_dim // 2)
    again = ChiralHamiltonian.from_matrix(M, geom)
    assert again.T.dtype == H.T.dtype and again.T.tobytes() == H.T.tobytes()


@settings(max_examples=150, deadline=None)
@given(chain=_chains())
def test_block_storage_round_trip(chain):
    assert_block_round_trip(*chain)


@settings(max_examples=150, deadline=None)
@given(chain=_chains())
@example(chain=(make_geometry(2), offsets_profile(2, (1, 2, 5), True, seed=2)))
@example(chain=(make_geometry(2, Convention.ALTERNATING_SITES), offsets_profile(1, (), False, seed=1)))
def test_banded_builder_matches_the_scatter_builder(chain):
    # Cell and sites chains of odd and even length, complex couplings, boundary
    # perturbations, extra offsets up to past L, and L = 2.
    geom, profile = chain
    H = build_ssh(geom, profile)
    want = dense_block(geom, profile)
    assert H.T.dtype == want.dtype and H.T.tobytes() == want.tobytes()
    r = max((abs(k) for k in range(1 - want.shape[0], want.shape[1]) if np.any(np.diagonal(want, k))), default=0)
    band = dense_band(want, r)
    assert H.band.shape == band.shape and H.band.dtype == band.dtype and H.band.tobytes() == band.tobytes()
    again = ChiralHamiltonian.from_matrix(H.matrix, geom)
    assert again.band.shape == band.shape and again.band.tobytes() == band.tobytes()
    assert again.T.tobytes() == want.tobytes()


@pytest.mark.parametrize("sites", [2, 3, 5])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_block_storage_round_trip_small_sites_chains(sites, complex_valued):
    # Odd L: T is (L+1)/2 x (L-1)/2, the last cell's B state is cropped.
    geom = make_geometry(sites, Convention.ALTERNATING_SITES)
    assert_block_round_trip(geom, offsets_profile(geom.cells, (), complex_valued, seed=sites))


def test_block_storage_is_read_only_and_sized_by_geometry():
    H = ssh(6, 0.5, 1.0)
    with pytest.raises(ValueError):
        H.T[0, 0] = 1.0
    with pytest.raises(ValueError):
        H.band[1, 0] = 1.0
    with pytest.raises(ValueError, match="for geometry dim 10"):
        ChiralHamiltonian(np.zeros((1, 6)), make_geometry(5))
    # The assembled matrix is a fresh array on every read, never a cache.
    assert H.matrix is not H.matrix


@pytest.mark.parametrize("geom", [
    make_geometry(5),
    make_geometry(6, Convention.ALTERNATING_SITES),
    make_geometry(7, Convention.ALTERNATING_SITES),  # |A| = |B| + 1
])
def test_constructor_takes_only_a_band_of_T(geom):
    a, b = (geom.total_dim + 1) // 2, geom.total_dim // 2
    for band in (np.zeros((2, a)), np.zeros((3, a + 1)), np.zeros(a), [np.zeros(a)], (np.zeros(a),)):
        with pytest.raises(ValueError, match="band"):
            ChiralHamiltonian(band, geom)
    # h = 3 reaches past both corners of T, and for |A| = 3 takes whole rows outside it.
    h = 3
    j = np.arange(a) + np.arange(-h, h + 1)[:, None]
    outside = (j < 0) | (j >= b)
    for entry in np.argwhere(outside):
        for value in (1.0, -2.5, np.nan):
            band = np.zeros((2 * h + 1, a))
            band[tuple(entry)] = value
            with pytest.raises(ValueError, match="outside T"):
                ChiralHamiltonian(band, geom)
    # Explicit zeros outside T are accepted, and the band is kept read-only.
    band = np.where(outside, 0.0, 1.0 + np.arange(a))
    H = ChiralHamiltonian(band, geom)
    assert H.band is band and not band.flags.writeable
    assert H.T.tobytes() == band_grid(band, max(a, b))[:a, :b].tobytes()


@pytest.mark.parametrize(
    "matrix, geom, message",
    [
        (np.zeros((4, 3)), make_geometry(2), "expected a square matrix"),
        (np.zeros((6, 6)), make_geometry(2), "does not match 4 basis vectors"),
        (np.eye(4), make_geometry(2), "not chiral"),
        (np.diag([1.0, 0.0, 0.0], 1), make_geometry(2), "not Hermitian"),
    ],
)
def test_from_matrix_rejects_invalid_input(matrix, geom, message):
    with pytest.raises(NumericalError, match=message):
        ChiralHamiltonian.from_matrix(matrix, geom)


def test_from_matrix_accepts_rounding_level_hermiticity_defect():
    H = ssh(6, 0.5, 1.0)
    M = H.matrix
    M[1, 0] += 1e-14
    assert ChiralHamiltonian.from_matrix(M, H.geometry).T.tobytes() == H.T.tobytes()


def test_build_ssh_memory_is_linear():
    import tracemalloc

    # The dense 2L x 2L builder peaked at 64 MB here and the dense L x L one
    # at 8 MB.  The bonds and the band of diagonals -1..1 take about 120
    # bytes per cell (0.12 MB at L = 1000).
    for L in (1000, 4000):
        profile = disordered_defect_profile(L, 1)
        tracemalloc.start()
        try:
            H = build_ssh(make_geometry(L), profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.band.shape == (3, L) and H.shape == (L, L)
        assert peak < 250 * L


def test_build_ssh_keeps_only_the_band_up_to_its_farthest_nonzero_diagonal():
    import tracemalloc

    # An all-zero block at offset 250 widens the band being built to 501
    # rows (4 MB); H keeps the 3 rows of diagonals -1..1.
    L = 1000
    profile = disordered_defect_profile(L, 1)
    profile = CouplingProfile(profile.t1, profile.t2, (ExtraCoupling(250, np.zeros(L), np.zeros(L)),))
    tracemalloc.start()
    try:
        H = build_ssh(make_geometry(L), profile)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert H.band.shape == (3, L) and kept < 100 * L


def test_chain_of_1e5_cells_builds_and_bounds_in_linear_cost():
    import time
    import tracemalloc

    from chiralchain.bounds import _propagator_band

    # A dense T failed here on a 74.5 GiB allocation.
    L = 100_000
    profile = disordered_defect_profile(L, 1)
    geom = make_geometry(L)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        H = build_ssh(geom, profile)
        K = short_range_constant(H, 1.0)
        reach, tail = _propagator_band(H, 1.0, geom.total_dim * float(np.finfo(float).eps))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(K) and 0 < reach < L - 1 and tail > 0.0
    assert elapsed < 1.0 and peak < 50e6


# --- the banded short-range constant ------------------------------------------------


def full_grid_short_range_constant(H, decay_length):
    """The constant over the whole L x L grid of blocks, as first written."""
    T = H.T
    a, b = T.shape
    zero_a, zero_b = np.zeros((a, a), dtype=T.dtype), np.zeros((b, b), dtype=T.dtype)
    norms = block_norms((zero_a, T, T.conj().T, zero_b), H.geometry)
    x, y = np.nonzero(norms)
    with np.errstate(over="ignore"):
        weighted = norms[x, y] * np.exp(np.abs(x - y) / decay_length)
    return float(np.bincount(x, weights=weighted, minlength=norms.shape[0]).max())


@settings(max_examples=150, deadline=None)
@given(chain=_chains(), decay_length=st.floats(1e-3, 1e3))
# A complex block whose largest entry is subnormal.
@example(
    chain=(make_geometry(2), CouplingProfile(t1=[0j, 0j], t2=[2.22507386e-309j, 0j])),
    decay_length=1.0,
)
# |2 + 1.75i|^2 on a one-entry band diagonal and among the four entries of the full grid.
@example(
    chain=(make_geometry(2), CouplingProfile(t1=[0, 0], t2=[2 + 1.75j, 0])),
    decay_length=1.0,
)
def test_banded_short_range_constant_is_the_full_grid_sum(chain, decay_length):
    # Same block norms, weights and summation order: equal to the last bit.
    H = build_ssh(*chain)
    assert short_range_constant(H, decay_length) == full_grid_short_range_constant(H, decay_length)


@pytest.mark.parametrize("L", [3, 250])
@pytest.mark.parametrize("offsets", [(), (2,), (3, 17), (250, 400)])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_banded_short_range_constant_on_long_range_chains(L, offsets, complex_valued):
    H = build_ssh(make_geometry(L), offsets_profile(L, offsets, complex_valued, seed=L))
    for decay_length in (0.1, 1.0, 40.0):
        assert short_range_constant(H, decay_length) == full_grid_short_range_constant(H, decay_length)


def test_banded_short_range_constant_memory_is_linear():
    import tracemalloc

    # The full grid peaked at 512 MB here; the band is 3 diagonals of 2000 cells.
    H = build_ssh(make_geometry(2000), disordered_defect_profile(2000, 1))
    tracemalloc.start()
    try:
        value = short_range_constant(H, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value) and peak < 2e6
