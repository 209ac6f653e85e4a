import math

import numpy as np
import pytest

from chiralchain.bounds import (
    anticommutator_trace_norms,
    correlation_length,
    gap_filter_blocks,
    gap_filter_lower_bound,
    trace_norm_checks,
)
from chiralchain.hamiltonian import (
    CouplingProfile,
    ExtraCoupling,
    apply_defect,
    apply_disorder,
    build_ssh,
)
from chiralchain.indices import (
    DeltaMode,
    DeltaPolicy,
    IndexKind,
    index_density,
    index_report,
    resolve_delta,
    windowed_edge_index,
)
from chiralchain.lattice import Convention, SwitchError, SwitchFunction, make_geometry, switch_function
from oracles import dense_theta, gap_filter, restriction_discrepancy, sublattice_signs


def ssh(L, t1, t2, convention=Convention.CELL_C2):
    cells = L if convention is Convention.CELL_C2 else (L + 1) // 2
    return build_ssh(make_geometry(L, convention), CouplingProfile.constant(cells, t1, t2))


def disordered_defect_profile(L, seed):
    profile = apply_disorder(CouplingProfile.constant(L, 0.5, 1.0), seed, 0.1)
    return apply_defect(profile, 0.2)


def random_chiral(L, seed, offsets=(2,)):
    rng = np.random.default_rng(seed)
    extra = tuple(
        ExtraCoupling(k, rng.normal(size=L), rng.normal(size=L)) for k in offsets
    )
    profile = CouplingProfile(rng.normal(size=L), rng.normal(size=L), extra)
    return build_ssh(make_geometry(L), profile)


# --- edge index -------------------------------------------------------------


def test_edge_index_dimerized_topological():
    H = ssh(20, 0.0, 1.0)
    value = index_report(H, 0.05, 10).edge_index
    assert abs(value - 1.0) < 1e-10


def test_edge_index_dimerized_trivial():
    L = 20
    H = ssh(L, 1.0, 0.0)
    value = index_report(H, 0.05, 10).edge_index
    assert abs(value) < 4 * 2 * L * math.exp(-2 / 0.05)


def test_edge_index_disordered_defect_chain():
    L = 30
    H = build_ssh(make_geometry(L), disordered_defect_profile(L, seed=1))
    value = index_report(H, 1.0 / 20.0).edge_index
    assert abs(value - 1.0) < 0.05
    # Frozen from this seeded run; guards against silent drift.
    assert value == pytest.approx(0.9999938632150185, abs=1e-6)


# --- bulk index and the exact correspondence ---------------------------------


def test_bulk_equals_edge_under_cell_convention():
    H = random_chiral(16, seed=0)
    for delta in (1e-3, 0.1, 5.0):
        report = index_report(H, delta, 5)
        assert abs(report.edge_index - report.bulk_index) < 1e-10


@pytest.mark.parametrize("kind", list(IndexKind))
def test_index_density_rejects_a_switch_of_another_geometry(kind):
    # The index diagonals read (p_A, p_B) of the switch, which are counted on its own geometry.
    H = ssh(16, 0.5, 1.0)
    for other in (make_geometry(12), make_geometry(16, Convention.ALTERNATING_SITES)):
        with pytest.raises(SwitchError, match="different geometry"):
            index_density(H, 0.1, switch_function(other, 6), kind)


def test_bulk_index_vanishes_for_constant_switch():
    H = random_chiral(10, seed=1)
    geom = H.geometry
    full = SwitchFunction(geom.length, geom)
    assert abs(index_density(H, 0.2, full, IndexKind.BULK).sum()) < 1e-12


def test_clean_topological_chain_near_one():
    L = 60
    H = ssh(L, 0.5, 1.0)
    delta = 1.0 / math.sqrt(2 * L)
    value = index_report(H, delta).bulk_index
    assert abs(value - 1.0) < 0.01


# --- interpretation oracle ----------------------------------------------------


def sector_oracle_edge_index(H, delta, switch):
    """Edge index from the common eigenbasis of C and H^2, built per sublattice.

    (1 - S^2) is an even function of H, so it is diagonal in any basis of
    H^2 eigenvectors chosen within the A and B sectors; the index is then
    the chirality-signed, switch-weighted sum of sech^2(|E|/delta) densities.
    """
    M = np.asarray(H.matrix)
    geom = H.geometry
    signs = sublattice_signs(geom)
    theta = dense_theta(switch)
    H2 = M @ M
    total = 0.0
    for sign in (1.0, -1.0):
        idx = np.nonzero(signs == sign)[0]
        w2, V = np.linalg.eigh(H2[np.ix_(idx, idx)])
        energies = np.sqrt(np.clip(w2, 0.0, None))
        weight = 1.0 - np.tanh(energies / delta) ** 2
        occupancy = (np.abs(V) ** 2 * theta[idx][:, None]).sum(axis=0)
        total += sign * float(np.dot(weight, occupancy))
    return total


@pytest.mark.parametrize("seed", range(3))
def test_edge_index_matches_sector_oracle(seed):
    H = random_chiral(14, seed=seed, offsets=(2, 3))
    sw = switch_function(H.geometry, 4 + seed)
    delta = 0.31
    assert index_report(H, delta, sw.transition).edge_index == pytest.approx(
        sector_oracle_edge_index(H, delta, sw), abs=1e-9
    )


def test_sector_oracle_on_physical_chain():
    L = 30
    H = build_ssh(make_geometry(L), disordered_defect_profile(L, seed=2))
    sw = switch_function(H.geometry, "middle")
    delta = 1.0 / 20.0
    assert index_report(H, delta, sw.transition).edge_index == pytest.approx(
        sector_oracle_edge_index(H, delta, sw), abs=1e-9
    )


# --- report -------------------------------------------------------------------


def test_report_cell_convention_invariants():
    H = random_chiral(12, seed=3)
    report = index_report(H, 0.2, 6)
    assert report.imbalance == 0
    assert report.correspondence_residual < 1e-10
    assert report.delta == 0.2
    assert report.transition == 6


def test_report_alternating_sites_imbalance():
    H = ssh(40, 0.5, 1.0, Convention.ALTERNATING_SITES)
    for ell, expected in ((19, 1), (20, 0), (21, 1)):
        report = index_report(H, 0.05, ell)
        assert report.imbalance == expected
        assert report.correspondence_residual < 1e-10


def test_report_trivial_chain_classifies_zero():
    H = ssh(60, 1.0, 0.5)
    report = index_report(H, DeltaPolicy.empirical())
    assert report.nearest_integer == 0
    assert report.quantization_error < 0.01


def test_swap_symmetry_toggles_phase():
    L = 60
    topo = index_report(ssh(L, 0.5, 1.0), DeltaPolicy.empirical())
    trivial = index_report(ssh(L, 1.0, 0.5), DeltaPolicy.empirical())
    assert topo.nearest_integer == 1
    assert trivial.nearest_integer == 0


def test_quantization_error_halves_with_doubling_length():
    qs = {}
    for L in (20, 40, 80):
        H = build_ssh(make_geometry(L), disordered_defect_profile(L, seed=1))
        qs[L] = index_report(H, DeltaPolicy.empirical()).quantization_error
    assert qs[40] < qs[20]
    assert qs[80] < qs[40]


def test_half_integer_rounds_away_from_zero():
    from chiralchain.indices import _nearest_integer

    assert _nearest_integer(0.5) == 1
    assert _nearest_integer(-0.5) == -1
    assert _nearest_integer(0.49) == 0
    assert _nearest_integer(1.5) == 2
    assert _nearest_integer(-2.5) == -3


# --- delta policies -----------------------------------------------------------


def test_resolve_empirical():
    assert resolve_delta(DeltaPolicy.empirical(), 32) == pytest.approx(0.125, abs=1e-15)


def test_resolve_theorem_formula():
    policy = DeltaPolicy.theorem(
        half_gap=0.5, decay_length=1.0, coupling_norm=0.5 + 2 * math.e
    )
    assert resolve_delta(policy, 10000) == pytest.approx(0.1949, abs=2e-4)


def test_resolve_manual_passthrough_and_guard():
    assert resolve_delta(DeltaPolicy.manual(0.07)) == 0.07
    with pytest.raises(ValueError):
        resolve_delta(DeltaPolicy.manual(0.0))


def test_resolve_needs_length():
    with pytest.raises(ValueError):
        resolve_delta(DeltaPolicy.empirical())
    assert resolve_delta(DeltaPolicy.empirical(), length=32) == pytest.approx(0.125)


def test_resolve_theorem_requires_positive_inputs():
    policy = DeltaPolicy(DeltaMode.THEOREM, half_gap=-1.0, decay_length=1.0,
                         coupling_norm=1.0)
    with pytest.raises(ValueError):
        resolve_delta(policy, 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["half_gap", "decay_length", "coupling_norm"])
def test_resolve_theorem_rejects_non_finite_inputs(field, bad):
    values = {"half_gap": 0.5, "decay_length": 1.0, "coupling_norm": 2.0, field: bad}
    with pytest.raises(ValueError, match=field):
        resolve_delta(DeltaPolicy.theorem(**values), 100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_resolve_manual_rejects_non_finite_value(bad):
    with pytest.raises(ValueError, match="value"):
        resolve_delta(DeltaPolicy.manual(bad))


# --- densities ----------------------------------------------------------------


def test_density_sums_to_index():
    L = 30
    H = build_ssh(make_geometry(L), disordered_defect_profile(L, seed=1))
    sw = switch_function(H.geometry, "middle")
    delta = 1.0 / 20.0
    edge_density = index_density(H, delta, sw, IndexKind.EDGE)
    bulk_density = index_density(H, delta, sw, IndexKind.BULK)
    report = index_report(H, delta, sw.transition)
    assert edge_density.sum() == pytest.approx(report.edge_index, abs=1e-10)
    assert bulk_density.sum() == pytest.approx(report.bulk_index, abs=1e-10)


def test_density_localization_clean_chain():
    L = 60
    H = ssh(L, 0.5, 1.0)
    sw = switch_function(H.geometry, "middle")
    edge_density = np.abs(index_density(H, 0.1, sw, IndexKind.EDGE))
    bulk_density = np.abs(index_density(H, 0.1, sw, IndexKind.BULK))
    cells = np.arange(L)
    assert edge_density[cells < 10].sum() >= 0.99 * edge_density.sum()
    assert bulk_density[np.abs(cells - 30) < 10].sum() >= 0.99 * bulk_density.sum()


# --- switch-position robustness -------------------------------------------------


def test_index_insensitive_to_switch_position():
    L = 60
    H = ssh(L, 0.5, 1.0)
    values = [
        index_report(H, 0.1, ell).edge_index
        for ell in range(L // 3, 2 * L // 3 + 1)
    ]
    assert max(values) - min(values) < 1e-3


# --- windowed evaluation --------------------------------------------------------


def test_windowed_full_window_is_exact():
    L = 40
    profile = CouplingProfile.constant(L, 0.5, 1.0)
    H = build_ssh(make_geometry(L), profile)
    full = index_report(H, 0.1).edge_index
    assert windowed_edge_index(profile, 0.1, L) == full


def test_windowed_agreement_and_monotone_improvement():
    L = 120
    profile = CouplingProfile.constant(L, 0.5, 1.0)
    H = build_ssh(make_geometry(L), profile)
    full = index_report(H, 0.1).edge_index
    err60 = abs(windowed_edge_index(profile, 0.1, 60) - full)
    err30 = abs(windowed_edge_index(profile, 0.1, 30) - full)
    assert err60 < 1e-6
    assert err60 < err30


def test_windowed_rejects_tiny_window():
    profile = CouplingProfile.constant(20, 0.5, 1.0)
    with pytest.raises(ValueError):
        windowed_edge_index(profile, 0.1, 3)


# --- guards ---------------------------------------------------------------------


# Every public function that takes a delta, called as f(H, switch, delta).
DELTA_TAKERS = {
    "index_density": lambda H, sw, d: index_density(H, d, sw, IndexKind.EDGE),
    "index_report": lambda H, sw, d: index_report(H, d, sw.transition),
    "correlation_length": lambda H, sw, d: correlation_length(d, 1.0, 1.0),
    "restriction_discrepancy": lambda H, sw, d: restriction_discrepancy(
        CouplingProfile.constant(6, 0.5, 1.0), 6, (2, 4), gap_filter, d),
    # The gap filter comes at a valid delta, so that the function's own check meets the bad one.
    "anticommutator_trace_norms": lambda H, sw, d: anticommutator_trace_norms(
        H, d, sw, gap_filter_blocks(H, 0.1)),
    "trace_norm_checks": lambda H, sw, d: trace_norm_checks(H, d, sw, 0.5, 2.0, gap_filter_blocks(H, 0.1)),
    "gap_filter_blocks": lambda H, sw, d: gap_filter_blocks(H, d),
    "gap_filter_lower_bound": lambda H, sw, d: gap_filter_lower_bound(H, d),
}


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", list(DELTA_TAKERS))
def test_delta_must_be_finite_and_positive(name, delta):
    H = ssh(6, 0.5, 1.0)
    with pytest.raises(ValueError, match="delta must be finite and > 0"):
        DELTA_TAKERS[name](H, switch_function(H.geometry, 3), delta)
