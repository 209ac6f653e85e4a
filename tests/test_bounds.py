import math

import numpy as np
import pytest

from chiralchain.bounds import (
    anticommutator_trace_norms,
    correlation_length,
    decay_profile,
    edge_filter_decay_check,
    lieb_robinson_check,
    restriction_discrepancy,
)
from chiralchain.hamiltonian import (
    CouplingProfile,
    apply_defect,
    apply_disorder,
    build_ssh,
    bulk_gap,
    short_range_constant,
)
from chiralchain.indices import edge_index
from chiralchain.lattice import Convention, SwitchFunction, make_geometry, switch_function
from chiralchain.spectral import flattened_sign, gap_filter


def ssh(L, t1, t2):
    return build_ssh(make_geometry(L), CouplingProfile.constant(L, t1, t2))


def disordered_defect_profile(L, seed):
    profile = apply_disorder(CouplingProfile.constant(L, 0.5, 1.0), seed, 0.1)
    return apply_defect(profile, 0.2)


# --- decay profiles -----------------------------------------------------------


def test_decay_profile_banded_matrix():
    H = ssh(12, 0.5, 1.0)
    prof = decay_profile(H.matrix, H.geometry)
    assert np.all(prof.max_block_norm[2:] == 0.0)
    assert prof.max_block_norm[1] == pytest.approx(1.0)


def test_decay_profile_identity():
    geom = make_geometry(8)
    prof = decay_profile(np.eye(16), geom)
    assert prof.max_block_norm[0] == 1.0
    assert np.all(prof.max_block_norm[1:] == 0.0)
    assert math.isnan(prof.rate)  # nothing above the noise floor to fit


def test_decay_profile_of_flattened_sign():
    L = 60
    H = ssh(L, 0.5, 1.0)
    S = flattened_sign(H, 0.1)
    prof = decay_profile(S, H.geometry)
    assert prof.rate < 0
    assert prof.max_block_norm[L // 2] < 1e-8


@pytest.mark.parametrize("convention", [Convention.CELL_C2, Convention.ALTERNATING_SITES])
def test_decay_profile_maxima_match_distance_loop(convention):
    from chiralchain.hamiltonian import block_norms

    geom = make_geometry(9, convention)
    rng = np.random.default_rng(4)
    M = rng.normal(size=(geom.total_dim,) * 2) + 1j * rng.normal(size=(geom.total_dim,) * 2)
    M[::3] = 0.0  # ties at zero and whole zero rows
    norms = block_norms(M, geom)
    P = norms.shape[0]
    dist = np.abs(np.arange(P)[:, None] - np.arange(P)[None, :])
    loop = np.array([norms[dist == r].max() for r in range(P)])
    assert decay_profile(M, geom).max_block_norm.tobytes() == loop.tobytes()


def test_decay_profile_window_validation():
    geom = make_geometry(6)
    with pytest.raises(ValueError):
        decay_profile(np.eye(12), geom, fit_window=(0, 99))


def test_decay_profile_mirror_symmetry():
    # Mirror-symmetric chain: per-distance maxima over the left and right
    # halves agree within 10 percent.
    L = 40
    H = ssh(L, 0.5, 1.0)
    S = flattened_sign(H, 0.1)
    from chiralchain.hamiltonian import block_norms

    norms = block_norms(S, H.geometry)
    x = np.arange(L)
    dist = np.abs(x[:, None] - x[None, :])
    half = L // 2
    left = (x[:, None] < half) & (x[None, :] < half)
    right = (x[:, None] >= half) & (x[None, :] >= half)
    for r in range(1, 12):
        m_left = norms[left & (dist == r)].max()
        m_right = norms[right & (dist == r)].max()
        assert m_left == pytest.approx(m_right, rel=0.1)


# --- propagator bound ----------------------------------------------------------


def test_lieb_robinson_zero_time_passes():
    H = ssh(20, 0.5, 1.0)
    K = short_range_constant(H, 1.0)
    cert = lieb_robinson_check(H, 0.0, 1.0, K)
    assert cert.passed
    assert np.all(cert.lhs <= cert.noise_floor + 1e-15)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_lieb_robinson_clean_chain(t):
    H = ssh(30, 0.5, 1.0)
    K = short_range_constant(H, 1.0)
    cert = lieb_robinson_check(H, t, 1.0, K)
    assert cert.passed
    assert cert.margin >= 0.0


@pytest.mark.parametrize("seed", range(3))
def test_lieb_robinson_random_chiral_chain(seed):
    rng = np.random.default_rng(seed)
    L = 24
    profile = CouplingProfile(rng.normal(size=L), rng.normal(size=L))
    H = build_ssh(make_geometry(L), profile)
    for d in (1.0, 2.0):
        K = short_range_constant(H, d)
        assert lieb_robinson_check(H, 0.8, d, K).passed


def test_lieb_robinson_undersized_constant_reports_failure():
    H = ssh(40, 0.5, 1.0)
    K = short_range_constant(H, 1.0)
    cert = lieb_robinson_check(H, 0.5, 1.0, K / 10.0)
    assert not cert.passed
    assert cert.margin < -0.1


# --- gap filter decay -----------------------------------------------------------


def corr_for(H, delta):
    return correlation_length(delta, 1.0, short_range_constant(H, 1.0))


def test_correlation_length():
    expected = max(1.0, 4 * (0.5 + 2 * math.e) / (math.pi * 0.1))
    assert correlation_length(0.1, 1.0, 0.5 + 2 * math.e) == pytest.approx(expected, rel=1e-12)
    # Large delta: the raw decay length is kept.
    assert correlation_length(1e6, 2.0, 1.0) == 2.0


def test_edge_filter_decay_dimerized_trivial():
    H = ssh(20, 1.0, 0.0)
    delta = 0.05
    cert = edge_filter_decay_check(H, delta, 1.0, corr_for(H, delta))
    assert cert.passed
    # Flat bands at +-1: every entry sits under the bulk-leakage term alone.
    assert np.all(cert.lhs <= 4 * math.exp(-2 / delta) + 1e-15)


def test_edge_filter_decay_clean_topological():
    H = ssh(60, 0.5, 1.0)
    delta = 0.1
    cert = edge_filter_decay_check(H, delta, 0.5, corr_for(H, delta))
    assert cert.passed
    assert cert.gamma_star <= 10 * 60 * 60


def test_gap_filter_interior_smallness():
    L = 60
    H = ssh(L, 0.5, 1.0)
    x = np.arange(L)
    interior = np.minimum(x, L - 1 - x) > 20
    for delta, limit in ((0.1, 1e-4), (0.05, 1e-6)):
        G = gap_filter(H, delta)
        diag = np.abs(np.diagonal(G)).reshape(L, 2).sum(axis=1)
        assert diag[interior].max() < limit


def test_edge_filter_threshold_controls_pass():
    H = ssh(30, 0.5, 1.0)
    delta = 0.1
    corr = corr_for(H, delta)
    strict = edge_filter_decay_check(H, delta, 0.5, corr, threshold=1e-12)
    assert not strict.passed
    assert strict.margin < 0


# --- restriction discrepancy -----------------------------------------------------


def test_restriction_middle_region_close_to_bulk():
    profile = CouplingProfile.constant(60, 0.5, 1.0)
    value = restriction_discrepancy(profile, 60, 60, (20, 40), gap_filter, 0.1)
    assert value < 1e-6


def test_restriction_vacuous_at_edge():
    profile = CouplingProfile.constant(60, 0.5, 1.0)
    value = restriction_discrepancy(profile, 60, 60, (0, 20), gap_filter, 0.1)
    assert value > 1e-2


def test_restriction_decreases_with_region_distance():
    profile = CouplingProfile.constant(60, 0.5, 1.0)
    near = restriction_discrepancy(profile, 60, 60, (10, 50), flattened_sign, 0.1)
    far = restriction_discrepancy(profile, 60, 60, (20, 40), flattened_sign, 0.1)
    assert far < near


def test_restriction_monotone_in_pad():
    profile = CouplingProfile.constant(40, 0.5, 1.0)
    values = [
        restriction_discrepancy(profile, 40, pad, (14, 26), gap_filter, 0.1)
        for pad in (40, 60, 80)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_restriction_requires_enough_padding():
    profile = CouplingProfile.constant(20, 0.5, 1.0)
    with pytest.raises(ValueError):
        restriction_discrepancy(profile, 20, 10, (5, 15), gap_filter, 0.1)


# --- trace norms -----------------------------------------------------------------


def test_trace_norms_vanish_for_constant_switch():
    H = ssh(16, 0.5, 1.0)
    geom = H.geometry
    full = SwitchFunction(np.ones(geom.length), geom.length, geom)
    _, comm_norm = anticommutator_trace_norms(H, 0.1, full)
    assert comm_norm < 1e-12


def test_trace_norms_decay_with_length():
    values = {}
    for L in (30, 60):
        H = ssh(L, 0.5, 1.0)
        values[L] = anticommutator_trace_norms(
            H, 1.0 / 20.0, switch_function(H.geometry, "middle")
        )
    anti30, comm30 = values[30]
    anti60, comm60 = values[60]
    assert anti60 * 5 < anti30
    assert comm60 * 5 < comm30


def test_trace_norms_dimerized_topological():
    H = ssh(30, 0.0, 1.0)
    anti, comm = anticommutator_trace_norms(H, 0.05, switch_function(H.geometry, "middle"))
    assert anti < 1e-10
    assert comm < 1e-10


def test_trace_norm_dominates_absolute_trace():
    H = ssh(24, 0.5, 1.0)
    delta = 0.1
    sw = switch_function(H.geometry, "middle")
    G = gap_filter(H, delta)
    S = flattened_sign(H, delta)
    signs = H.geometry.sublattice_signs
    theta = sw.basis_values()
    A = 0.5 * signs[:, None] * (theta[:, None] * G + G * theta[None, :])
    anti = A @ S + S @ A
    anti_norm, _ = anticommutator_trace_norms(H, delta, sw)
    assert abs(np.trace(anti)) <= anti_norm + 1e-10
    assert anti_norm <= np.abs(anti).sum() + 1e-10


def test_edge_index_error_tracks_trace_norm():
    # The distance of the index from its integer is controlled by the
    # anticommutator smallness; check they shrink together on clean chains.
    errs, norms = [], []
    for L in (20, 40):
        H = ssh(L, 0.5, 1.0)
        sw = switch_function(H.geometry, "middle")
        errs.append(abs(edge_index(H, 1.0 / 20.0, sw) - 1.0))
        norms.append(anticommutator_trace_norms(H, 1.0 / 20.0, sw)[0])
    assert errs[1] < errs[0]
    assert norms[1] < norms[0]


def test_bulk_gap_feeds_edge_filter_envelope():
    # End-to-end: measured constants make the clean-chain certificate pass.
    L = 40
    profile = disordered_defect_profile(L, seed=4)
    H = build_ssh(make_geometry(L), profile)
    delta = 1.0 / math.sqrt(2 * L)
    half_gap = bulk_gap(profile)
    corr = correlation_length(delta, 1.0, short_range_constant(H, 1.0))
    cert = edge_filter_decay_check(H, delta, half_gap, corr)
    assert cert.passed
