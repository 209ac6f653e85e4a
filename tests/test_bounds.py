import math
import tracemalloc

import numpy as np
import pytest

from chiralchain import bounds, cli, spectral
from chiralchain.bounds import (
    _BAND_ROWS,
    _TAIL_FRACTION,
    _band_product,
    _chebyshev_log_tail,
    _propagator_band,
    _step_anticommutator,
    _weighted_orthogonality_defect,
    anticommutator_trace_norms,
    correlation_length,
    edge_filter_decay_check,
    gap_filter_blocks,
    gap_filter_lower_bound,
    lieb_robinson_check,
    trace_norm_checks,
)
from chiralchain.hamiltonian import (
    CouplingProfile,
    _sublattice_blocks,
    apply_defect,
    apply_disorder,
    build_ssh,
    bulk_gap,
    short_range_constant,
)
from chiralchain.indices import index_report
from chiralchain.lattice import Convention, SwitchError, SwitchFunction, make_geometry, switch_function
from oracles import (
    block_norms, decay_profile, dense_band, dense_theta, flattened_sign, gap_filter, restriction_discrepancy,
    sublattice_signs,
)


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
    geom = make_geometry(9, convention)
    rng = np.random.default_rng(4)
    M = rng.normal(size=(geom.total_dim,) * 2) + 1j * rng.normal(size=(geom.total_dim,) * 2)
    M[::3] = 0.0  # ties at zero and whole zero rows
    norms = block_norms(_sublattice_blocks(M), geom)
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
    norms = block_norms(_sublattice_blocks(S), H.geometry)
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
    # exp(0) = 1 is its own degree-0 expansion: no pair is read, and the envelope is 0.
    assert cert.lhs.size == 0 and cert.margin == 0.0


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


def test_lieb_robinson_names_its_time_and_passes_with_no_distant_pair():
    H = ssh(4, 0.5, 1.0)
    K = short_range_constant(H, 1.0)
    assert lieb_robinson_check(H, 0.5, 1.0, K).bound_name == "lieb_robinson_t0.5"
    # No two cells are 10 apart: nothing to check.
    cert = lieb_robinson_check(H, 0.5, 10.0, K)
    assert cert.lhs.size == 0 and cert.margin == math.inf and cert.passed


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-12, 1e-6, 1e-3, *np.linspace(0.01, 50.0, 41)])
def test_chebyshev_tail_bounds_the_bessel_tail(x):
    from scipy.special import jv

    first = max(0, math.floor(x / 2) - 1)
    for degree in range(first, first + 80):
        if degree + 2 <= x / 2:
            continue
        bessel_tail = 2.0 * np.abs(jv(np.arange(degree + 1, degree + 400), x)).sum()
        assert math.exp(_chebyshev_log_tail(x, degree)) >= bessel_tail, degree


@pytest.mark.parametrize("convention", [Convention.CELL_C2, Convention.ALTERNATING_SITES])
@pytest.mark.parametrize("t", [0.1, -1.0, 2.0])
def test_lieb_robinson_reads_only_the_band(convention, t):
    # The margin against the full grid and the rigour of the tail are checked in
    # test_chiral_spectrum.py::test_lieb_robinson_check_matches_full_grid.
    geom = make_geometry(121, convention)
    H = build_ssh(geom, disordered_defect_profile(geom.cells, seed=3))
    cert = lieb_robinson_check(H, t, 1.0, short_range_constant(H, 1.0))
    reach, tail = _propagator_band(H, t, cert.noise_floor)
    assert cert.passed and reach < 120 and 0.0 < tail <= _TAIL_FRACTION * cert.noise_floor
    # lhs holds the pairs 1..reach apart, 121 - k of them at each offset +-k.
    assert cert.lhs.size == sum(2 * (121 - k) for k in range(1, reach + 1))


def test_lieb_robinson_reads_every_pair_once_the_band_covers_the_chain():
    H = ssh(6, 0.5, 1.0)
    cert = lieb_robinson_check(H, 1.0, 1.0, short_range_constant(H, 1.0))
    assert _propagator_band(H, 1.0, cert.noise_floor) == (5, 0.0)
    assert cert.lhs.size == 6 * 6 - 6
    # A non-finite |t| a (entries near the float maximum) also reads every pair.
    huge = build_ssh(make_geometry(30), CouplingProfile.constant(30, 1e308, 1e308))
    assert _propagator_band(huge, 1.0, 1e-13) == _propagator_band(huge, 0.0, 1e-13) == (29, 0.0)


def test_lieb_robinson_undersized_constant_reports_failure():
    H = ssh(40, 0.5, 1.0)
    K = short_range_constant(H, 1.0)
    cert = lieb_robinson_check(H, 0.5, 1.0, K / 10.0)
    assert not cert.passed
    assert cert.margin < -0.1


def _count_parity_blocks(monkeypatch):
    """Record (name, f at the probe energies) for each even_blocks and odd_block call, wherever bound."""
    calls = []
    for name in ("even_blocks", "odd_block"):
        original = getattr(spectral, name)

        def counted(spec, f, _name=name, _original=original):
            calls.append((_name, f(np.array([0.0, 0.3, 2.0]))))
            return _original(spec, f)

        for module in (spectral, bounds):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_lieb_robinson_check_reads_no_parity_block(monkeypatch):
    calls = _count_parity_blocks(monkeypatch)
    for convention in (Convention.CELL_C2, Convention.ALTERNATING_SITES):
        geom = make_geometry(151, convention)
        H = build_ssh(geom, disordered_defect_profile(geom.cells, seed=3))
        for t in (0.0, 0.5, 40.0):  # 40 reaches across the chain
            assert lieb_robinson_check(H, t, 1.0, short_range_constant(H, 1.0)).passed
    assert calls == []


@pytest.mark.parametrize("m, n", [(150, 150), (151, 150), (150, 151)])
@pytest.mark.parametrize("h", [0, 5, 70, 200])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_band_product_is_zero_outside_the_product(m, n, h, complex_valued):
    # Several row blocks, so the last one's buffer holds columns of the one before.
    assert m > 2 * _BAND_ROWS
    rng = np.random.default_rng(m + n + h)
    X, Y = rng.normal(size=(m, 40)), rng.normal(size=(n, 40))
    if complex_valued:
        X = X + 1j * rng.normal(size=(m, 40))
    d = rng.normal(size=40)
    band = _band_product(X, d, Y, h)
    want = dense_band((X * d) @ Y.conj().T, h)
    x, k = np.arange(m), np.arange(-h, h + 1)[:, None]
    outside = (x + k < 0) | (x + k >= n)
    assert band.shape == want.shape and np.all(band[outside] == 0.0)
    assert np.allclose(band, want, rtol=1e-13, atol=1e-13)


def test_lieb_robinson_check_forms_no_chain_sized_array():
    # One 2000 x 2000 float array is 32 MB; the bands, the row-block buffers
    # and lhs together stay under a quarter of that.
    geom = make_geometry(2000)
    H = build_ssh(geom, disordered_defect_profile(2000, seed=1))
    K = short_range_constant(H, 1.0)
    spectral.eigh(H)
    tracemalloc.start()
    try:
        cert = lieb_robinson_check(H, 1.0, 1.0, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [1, spectral.BLOCK_ROWS, spectral.BLOCK_ROWS + 1, 2 * spectral.BLOCK_ROWS + 7])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_weighted_orthogonality_defect_is_the_dense_norm(n, complex_valued):
    # A factor far from orthonormal, so that every entry of the row blocks counts.
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n)) / math.sqrt(n)
    if complex_valued:
        X = X + 1j * rng.normal(size=(n, n)) / math.sqrt(n)
    g = rng.uniform(size=n)
    g[: n // 3] = 0.0
    r = np.sqrt(g)
    want = np.linalg.norm(r[:, None] * (X.conj().T @ X - np.eye(n)) * r)
    assert math.isclose(_weighted_orthogonality_defect(X, g), want, rel_tol=1e-12)


def test_gap_filter_lower_bound_forms_no_second_chain_sized_array():
    # One 2000 x 2000 float array is 32 MB; the row blocks stay under half of that.
    H = build_ssh(make_geometry(2000), disordered_defect_profile(2000, seed=1))
    spectral.eigh(H)
    tracemalloc.start()
    try:
        bound = gap_filter_lower_bound(H, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert -1e-12 <= bound <= 1e-12
    assert peak < 16 * 2**20


def test_bound_table_forms_one_gap_filter_pair(monkeypatch):
    # The edge filter and the trace norms share one sech^2 pair, and the
    # trace norms form one tanh block.
    calls = _count_parity_blocks(monkeypatch)
    config = cli.parse_config({
        "model": {"t1": 0.5, "t2": 1.0, "disorder": {"amplitude": 0.1}, "defect": {"height": 0.2}},
        "geometry": {"length": 60, "convention": "cell"},
        "delta": {"mode": "theorem"}, "switch": "middle", "scan": "none", "seed": 1,
    })
    table = cli.bound_table(config)
    delta = float(table.rows[0][2])
    probe = np.array([0.0, 0.3, 2.0]) / delta
    assert [name for name, _ in calls] == ["even_blocks", "odd_block"]
    assert np.array_equal(calls[0][1], spectral._sech_sq(probe))
    assert np.array_equal(calls[1][1], np.tanh(probe))


@pytest.mark.parametrize("p", [0, 1, 7, 12])
def test_step_anticommutator_is_the_switch_products(p):
    # (theta G + G theta) / 2 for the step theta, up to the sign of its zeros.
    rng = np.random.default_rng(p)
    G = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    theta = np.where(np.arange(12) < p, 1.0, 0.0)
    expected = 0.5 * (theta[:, None] * G + G * theta[None, :])
    got = _step_anticommutator(G, p)
    assert np.array_equal(got, expected)
    assert got.dtype == G.dtype


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
    cert = edge_filter_decay_check(H, delta, 1.0, corr_for(H, delta), gap_filter_blocks(H, delta))
    assert cert.passed
    # Flat bands at +-1: every entry sits under the bulk-leakage term alone.
    assert np.all(cert.lhs <= 4 * math.exp(-2 / delta) + 1e-15)


def test_edge_filter_decay_clean_topological():
    H = ssh(60, 0.5, 1.0)
    delta = 0.1
    cert = edge_filter_decay_check(H, delta, 0.5, corr_for(H, delta), gap_filter_blocks(H, delta))
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


@pytest.mark.parametrize("P", [40, 250, 251, 1000])
@pytest.mark.parametrize("corr", [0.3, 1.0, 2.0 / 3.0, 17.25, 1e3])
def test_edge_filter_envelope_is_the_pair_expression(P, corr):
    # edge_filter_decay_check takes the smaller of two per-position exponentials,
    # which relies on exp being monotone in floating point.
    x = np.arange(P)
    edge_dist = np.minimum(x, P - 1 - x)
    pair_dist = np.maximum(edge_dist[:, None], edge_dist[None, :])
    decay = np.exp(-edge_dist / (2.0 * corr))
    assert np.array_equal(np.minimum.outer(decay, decay), np.exp(-pair_dist / (2.0 * corr)))


def test_edge_filter_gamma_star_matches_the_pair_envelope():
    H = build_ssh(make_geometry(251), disordered_defect_profile(251, seed=1))
    delta, half_gap, corr = 0.05, 0.3, 3.5
    cert = edge_filter_decay_check(H, delta, half_gap, corr, gap_filter_blocks(H, delta))
    x = np.arange(251)
    edge_dist = np.minimum(x, 250 - x)
    pair_dist = np.maximum(edge_dist[:, None], edge_dist[None, :])
    envelope = np.exp(-pair_dist / (2.0 * corr)) + np.exp(-2.0 * half_gap / delta)
    assert cert.gamma_star == float((cert.lhs / np.maximum(envelope, 1e-300)).max())


@pytest.mark.parametrize("convention", [Convention.CELL_C2, Convention.ALTERNATING_SITES])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_edge_filter_norms_are_those_of_the_assembled_filter(convention, complex_valued):
    # The certificate reads the even blocks only.  Under CELL_C2 the norm of
    # a cell block [[a, 0], [0, d]] is max(|a|, |d|) exactly, which the
    # closed form on the assembled 1 - S^2 rounds by at most an ulp for real
    # entries and a few for complex ones (it squares their real and
    # imaginary parts); under ALTERNATING_SITES both place the same
    # absolute entries.
    geom = make_geometry(41, convention)
    profile = disordered_defect_profile(geom.cells, seed=2)
    if complex_valued:
        profile = CouplingProfile(profile.t1 * np.exp(0.3j), profile.t2 * (0.6 + 0.8j))
    H = build_ssh(geom, profile)
    cert = edge_filter_decay_check(H, 0.1, 0.3, 2.0, gap_filter_blocks(H, 0.1))
    assembled = block_norms(_sublattice_blocks(gap_filter(H, 0.1)), geom)
    assert cert.lhs.shape == assembled.shape
    ulps = np.abs(cert.lhs.view(np.int64) - assembled.view(np.int64))  # both non-negative
    assert ulps.max() <= (4 if complex_valued else 1)
    if convention is Convention.ALTERNATING_SITES:
        assert cert.lhs.tobytes() == assembled.tobytes()


def test_edge_filter_fails_an_overstated_half_gap():
    # The chain's half gap is 0.5.  Stated as 5, it puts the envelope's
    # floor at e^{-100}, and with a correlation length of 1 the edge term
    # is e^{-25} in the middle of the chain: both far below the sech^2
    # norms there, so gamma_star passes 10 L^2.
    H = ssh(100, 0.5, 1.0)
    G = gap_filter_blocks(H, 0.1)
    assert edge_filter_decay_check(H, 0.1, 0.5, 1.0, G).passed
    overstated = edge_filter_decay_check(H, 0.1, 5.0, 1.0, G)
    assert not overstated.passed
    assert overstated.margin < 0
    assert overstated.gamma_star > 10 * 100 * 100


# --- restriction discrepancy -----------------------------------------------------


def test_restriction_middle_region_close_to_bulk():
    profile = CouplingProfile.constant(60, 0.5, 1.0)
    value = restriction_discrepancy(profile, 60, (20, 40), gap_filter, 0.1)
    assert value < 1e-6


def test_restriction_vacuous_at_edge():
    profile = CouplingProfile.constant(60, 0.5, 1.0)
    value = restriction_discrepancy(profile, 60, (0, 20), gap_filter, 0.1)
    assert value > 1e-2


def test_restriction_decreases_with_region_distance():
    profile = CouplingProfile.constant(60, 0.5, 1.0)
    near = restriction_discrepancy(profile, 60, (10, 50), flattened_sign, 0.1)
    far = restriction_discrepancy(profile, 60, (20, 40), flattened_sign, 0.1)
    assert far < near


def test_restriction_monotone_in_pad():
    profile = CouplingProfile.constant(40, 0.5, 1.0)
    values = [
        restriction_discrepancy(profile, pad, (14, 26), gap_filter, 0.1)
        for pad in (40, 60, 80)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_restriction_requires_enough_padding():
    profile = CouplingProfile.constant(20, 0.5, 1.0)
    with pytest.raises(ValueError):
        restriction_discrepancy(profile, 10, (5, 15), gap_filter, 0.1)


# --- trace norms -----------------------------------------------------------------


def test_trace_norms_vanish_for_constant_switch():
    H = ssh(16, 0.5, 1.0)
    geom = H.geometry
    full = SwitchFunction(geom.length, geom)
    _, comm_norm = anticommutator_trace_norms(H, 0.1, full, gap_filter_blocks(H, 0.1))
    assert comm_norm < 1e-12


def test_trace_norms_reject_a_switch_of_another_geometry():
    # The commutator norm reads (p_A, p_B) of the switch, which are counted on its own geometry.
    H = ssh(16, 0.5, 1.0)
    for other in (make_geometry(12), make_geometry(16, Convention.ALTERNATING_SITES)):
        with pytest.raises(SwitchError, match="different geometry"):
            anticommutator_trace_norms(H, 0.1, switch_function(other, 6), gap_filter_blocks(H, 0.1))


def test_trace_norm_checks_certify_the_raw_norms():
    L, delta, half_gap, corr = 30, 0.05, 0.5, 2.0
    H = ssh(L, 0.5, 1.0)
    sw = switch_function(H.geometry, "middle")
    G = gap_filter_blocks(H, delta)
    certs = trace_norm_checks(H, delta, sw, half_gap, corr, G)
    envelope = math.exp(-2.0 * half_gap / delta) + math.exp(-L / (48.0 * corr))
    names = ("anticommutator_trace_norm", "filter_switch_commutator_trace_norm")
    for cert, name, norm in zip(certs, names, anticommutator_trace_norms(H, delta, sw, G)):
        assert cert.bound_name == name
        assert cert.gamma_star == pytest.approx(norm / envelope, rel=1e-12)
        assert cert.margin == 10.0 * L * L - cert.gamma_star
        assert cert.passed


def test_trace_norms_decay_with_length():
    values = {}
    for L in (30, 60):
        H = ssh(L, 0.5, 1.0)
        values[L] = anticommutator_trace_norms(
            H, 1.0 / 20.0, switch_function(H.geometry, "middle"), gap_filter_blocks(H, 1.0 / 20.0)
        )
    anti30, comm30 = values[30]
    anti60, comm60 = values[60]
    assert anti60 * 5 < anti30
    assert comm60 * 5 < comm30


def test_trace_norms_dimerized_topological():
    H = ssh(30, 0.0, 1.0)
    anti, comm = anticommutator_trace_norms(
        H, 0.05, switch_function(H.geometry, "middle"), gap_filter_blocks(H, 0.05)
    )
    assert anti < 1e-10
    assert comm < 1e-10


def test_trace_norm_dominates_absolute_trace():
    H = ssh(24, 0.5, 1.0)
    delta = 0.1
    sw = switch_function(H.geometry, "middle")
    G = gap_filter(H, delta)
    S = flattened_sign(H, delta)
    signs = sublattice_signs(H.geometry)
    theta = dense_theta(sw)
    A = 0.5 * signs[:, None] * (theta[:, None] * G + G * theta[None, :])
    anti = A @ S + S @ A
    anti_norm, _ = anticommutator_trace_norms(H, delta, sw, gap_filter_blocks(H, delta))
    assert abs(np.trace(anti)) <= anti_norm + 1e-10
    assert anti_norm <= np.abs(anti).sum() + 1e-10


def test_edge_index_error_tracks_trace_norm():
    # The distance of the index from its integer is controlled by the
    # anticommutator smallness; check they shrink together on clean chains.
    errs, norms = [], []
    for L in (20, 40):
        H = ssh(L, 0.5, 1.0)
        sw = switch_function(H.geometry, "middle")
        errs.append(abs(index_report(H, 1.0 / 20.0, sw.transition).edge_index - 1.0))
        norms.append(anticommutator_trace_norms(H, 1.0 / 20.0, sw, gap_filter_blocks(H, 1.0 / 20.0))[0])
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
    cert = edge_filter_decay_check(H, delta, half_gap, corr, gap_filter_blocks(H, delta))
    assert cert.passed


# --- parameter validation ------------------------------------------------------------

_H20 = ssh(20, 0.5, 1.0)
_G20 = gap_filter_blocks(_H20, 0.1)
_BAD = [math.nan, math.inf, -math.inf, -1.0]


def _invalid_parameter_cases():
    """(function, arguments) pairs that must raise ValueError: each puts one invalid
    value into an otherwise valid call on a 20-cell chain."""
    lr = dict(t=0.5, decay_length=1.0, coupling_norm=2.0)
    ef = dict(delta=0.1, half_gap=0.5, correlation_length=2.0, filter_blocks=_G20)
    cases = []
    for name, values in (("t", [math.nan, math.inf]), ("decay_length", _BAD + [0.0]),
                         ("coupling_norm", _BAD)):
        cases += [(lieb_robinson_check, {**lr, name: v}) for v in values]
    for name, values in (("delta", _BAD + [0.0]), ("half_gap", _BAD),
                         ("correlation_length", _BAD + [0.0])):
        cases += [(edge_filter_decay_check, {**ef, name: v}) for v in values]
    cases += [(short_range_constant, {"decay_length": v}) for v in _BAD + [0.0]]
    cl = dict(delta=0.1, decay_length=1.0, coupling_norm=2.0)
    for name, values in (("decay_length", _BAD + [0.0]), ("coupling_norm", _BAD)):
        cases += [(correlation_length, {**cl, name: v}) for v in values]
    return cases


@pytest.mark.parametrize(
    "fn, kwargs", _invalid_parameter_cases(),
    ids=lambda v: v.__name__ if callable(v) else ",".join(f"{k}={x}" for k, x in v.items()),
)
def test_certificate_parameters_must_be_finite_and_positive(fn, kwargs):
    # A NaN or infinite decay length, constant or gap used to give a
    # passing certificate (margin inf) or a NaN instead of an error.
    args = () if fn is correlation_length else (_H20,)
    with pytest.raises(ValueError, match="must be finite"):
        fn(*args, **kwargs)


@pytest.mark.parametrize(
    "name, value", [("half_gap", v) for v in _BAD] + [("correlation_length", v) for v in _BAD + [0.0]]
)
def test_trace_norm_checks_parameters_must_be_finite_and_positive(name, value):
    kwargs = {"half_gap": 0.5, "correlation_length": 2.0, name: value}
    with pytest.raises(ValueError, match="must be finite"):
        trace_norm_checks(
            _H20, 0.1, switch_function(_H20.geometry, "middle"), filter_blocks=_G20, **kwargs
        )


def test_certificates_accept_zero_gap_and_zero_constant():
    # A closed gap (half_gap 0) and the zero chain's constant (K = 0) are valid inputs.
    zero = build_ssh(make_geometry(20), CouplingProfile.constant(20, 0.0, 0.0))
    assert short_range_constant(zero, 1.0) == 0.0
    assert lieb_robinson_check(zero, 0.5, 1.0, 0.0).passed
    assert edge_filter_decay_check(_H20, 0.1, 0.0, 2.0, _G20).gamma_star > 0
    middle = switch_function(_H20.geometry, "middle")
    assert all(c.gamma_star >= 0 for c in trace_norm_checks(_H20, 0.1, middle, 0.0, 2.0, _G20))
    assert correlation_length(0.1, 1.0, 0.0) == 1.0
