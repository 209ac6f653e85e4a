"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at run time; derived
boundary values were frozen from verified seeded runs.
"""


import numpy as np

from chiralchain.bounds import anticommutator_trace_norms, gap_filter_blocks, lieb_robinson_check
from chiralchain.hamiltonian import (
    ChiralHamiltonian,
    CouplingProfile,
    ExtraCoupling,
    apply_defect,
    apply_disorder,
    build_ssh,
    short_range_constant,
)
from chiralchain.indices import (
    DeltaPolicy,
    IndexKind,
    index_density,
    index_report,
    windowed_edge_index,
)
from chiralchain.lattice import Convention, chiral_polarization, make_geometry, switch_function
from chiralchain.cli import reproduce_fig3, reproduce_fig4
from oracles import flattened_sign, tanh_oracle


def _criterion(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {number} failed: {label} ({detail})"


def ssh(L, t1, t2):
    return build_ssh(make_geometry(L), CouplingProfile.constant(L, t1, t2))


def disordered_defect_profile(L, seed):
    profile = apply_disorder(CouplingProfile.constant(L, 0.5, 1.0), seed, 0.1)
    return apply_defect(profile, 0.2)


def random_chiral_hamiltonian(rng):
    """One randomized chiral chain: random banded blocks, either convention."""
    if rng.uniform() < 0.2:
        L = int(rng.integers(4, 65))
        cells = (L + 1) // 2
        profile = CouplingProfile(rng.normal(size=cells), rng.normal(size=cells))
        return build_ssh(make_geometry(L, Convention.ALTERNATING_SITES), profile)
    L = int(rng.integers(4, 65))
    offsets = [k for k in (2, 3) if k < L and rng.uniform() < 0.5]
    complex_blocks = rng.uniform() < 0.1

    def draw():
        values = rng.normal(size=L)
        if complex_blocks:
            values = values + 1j * rng.normal(size=L)
        return values

    extra = tuple(ExtraCoupling(k, draw(), draw()) for k in offsets)
    profile = CouplingProfile(rng.normal(size=L), rng.normal(size=L), extra)
    return build_ssh(make_geometry(L), profile)


def test_criterion_01_exact_bulk_edge_identity():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(100):
        H = random_chiral_hamiltonian(rng)
        geom = H.geometry
        delta = float(10.0 ** rng.uniform(-3, 1))
        ell = int(rng.integers(1, geom.length))
        sw = switch_function(geom, ell)
        report = index_report(H, delta, ell)
        residual = abs(report.edge_index - report.bulk_index - chiral_polarization(geom, sw))
        worst = max(worst, residual)
    _criterion(
        1,
        "exact finite-size bulk-edge identity on 100 random chiral chains",
        worst < 1e-10,
        f"worst residual {worst:.3e} < 1e-10",
    )


def test_criterion_02_dimerized_limits():
    topo = index_report(ssh(20, 0.0, 1.0), 0.05, 10).edge_index
    trivial = index_report(ssh(20, 1.0, 0.0), 0.05, 10).edge_index
    ok = abs(topo - 1.0) < 1e-9 and abs(trivial) < 1e-9
    _criterion(
        2,
        "dimerized-limit quantization",
        ok,
        f"|I-1| = {abs(topo - 1.0):.3e}, |I| = {abs(trivial):.3e} (both < 1e-9)",
    )


def test_criterion_03_clean_phase_classification():
    topo = index_report(ssh(60, 0.5, 1.0), DeltaPolicy.empirical())
    trivial = index_report(ssh(60, 1.0, 0.5), DeltaPolicy.empirical())
    ok = (
        topo.nearest_integer == 1
        and topo.quantization_error < 0.01
        and trivial.nearest_integer == 0
        and trivial.quantization_error < 0.01
    )
    _criterion(
        3,
        "clean-phase classification at L=60",
        ok,
        f"topological -> {topo.nearest_integer} (q={topo.quantization_error:.2e}), "
        f"trivial -> {trivial.nearest_integer} (q={trivial.quantization_error:.2e})",
    )


def test_criterion_04_exponential_convergence_disordered():
    seed = 1
    q = {}
    for L in (20, 40, 80):
        H = build_ssh(make_geometry(L), disordered_defect_profile(L, seed))
        q[L] = index_report(H, DeltaPolicy.empirical()).quantization_error
    ok = q[80] < q[40] < q[20] and q[80] < 1e-2
    _criterion(
        4,
        "exponential convergence on the disordered-defect chain (seed 1)",
        ok,
        f"q(20)={q[20]:.3e} > q(40)={q[40]:.3e} > q(80)={q[80]:.3e} < 1e-2",
    )


def test_criterion_05_localization_profiles():
    L, seed = 30, 1
    H = build_ssh(make_geometry(L), disordered_defect_profile(L, seed))
    sw = switch_function(H.geometry, "middle")
    delta = 1.0 / 20.0
    edge_mass = np.abs(index_density(H, delta, sw, IndexKind.EDGE))
    bulk_mass = np.abs(index_density(H, delta, sw, IndexKind.BULK))
    cells = np.arange(L)
    edge_frac = edge_mass[cells < 10].sum() / edge_mass.sum()
    bulk_frac = bulk_mass[np.abs(cells - sw.transition) <= 8].sum() / bulk_mass.sum()
    ok = edge_frac >= 0.95 and bulk_frac >= 0.95
    _criterion(
        5,
        "localization of the index densities (L=30)",
        ok,
        f"edge mass in [0,10) = {edge_frac:.4f}, bulk mass within 8 of the switch = {bulk_frac:.4f}",
    )


def test_criterion_06_switch_position_robustness():
    H = ssh(30, 0.5, 1.0)
    values = [
        index_report(H, 1.0 / 20.0, ell).edge_index
        for ell in range(10, 21)
    ]
    spread = max(values) - min(values)
    _criterion(
        6,
        "switch-position robustness over [10, 20] at L=30",
        spread < 1e-2,
        f"index spread {spread:.3e} < 1e-2",
    )


def test_criterion_07_delta_tradeoff_window():
    # Near-critical clean chain (t1/t2 = 0.82): the edge modes hybridize at
    # the 1e-3 scale, so both failure modes are visible at L=30.
    L = 30
    H = ssh(L, 0.82, 1.0)
    half_gap = 1.0 - 0.82

    def q_error(delta):
        return index_report(H, delta, "middle").quantization_error

    q_small = q_error(1e-3)
    q_large = q_error(2.0 * half_gap)
    interior = min(q_error(d) for d in np.geomspace(3e-3, 0.1, 25))
    ok = interior < 0.05 and q_small > 0.2 and q_large > 0.2
    _criterion(
        7,
        "delta trade-off window at L=30",
        ok,
        f"q(1e-3)={q_small:.3f} > 0.2, q(2*gap)={q_large:.3f} > 0.2, "
        f"interior min {interior:.4f} < 0.05",
    )


def test_criterion_08_lieb_robinson_certificates():
    chains = {
        "clean": CouplingProfile.constant(40, 0.5, 1.0),
        "disordered": disordered_defect_profile(40, seed=1),
    }
    margins = {}
    ok = True
    for name, profile in chains.items():
        H = build_ssh(make_geometry(40), profile)
        coupling_norm = short_range_constant(H, 1.0)
        for t in (0.1, 0.5, 1.0):
            cert = lieb_robinson_check(H, t, 1.0, coupling_norm)
            margins[(name, t)] = cert.margin
            ok = ok and cert.passed
    worst = min(margins.values())
    _criterion(
        8,
        "propagator bound certificate (clean and disordered, t in {0.1, 0.5, 1})",
        ok,
        f"all margins >= 0, worst {worst:.3e}",
    )


def test_criterion_09_trace_norm_decay():
    delta = 1.0 / 20.0
    norms = {}
    for L in (30, 60):
        H = ssh(L, 0.5, 1.0)
        norms[L] = anticommutator_trace_norms(
            H, delta, switch_function(H.geometry, "middle"), gap_filter_blocks(H, delta)
        )
    anti_ratio = norms[30][0] / norms[60][0]
    comm_ratio = norms[30][1] / norms[60][1]
    ok = anti_ratio >= 5.0 and comm_ratio >= 5.0
    _criterion(
        9,
        "trace norms decay by >= 5x from L=30 to L=60",
        ok,
        f"anticommutator ratio {anti_ratio:.1f}, commutator ratio {comm_ratio:.1f}",
    )


def test_criterion_10_windowed_evaluation():
    L = 120
    profile = CouplingProfile.constant(L, 0.5, 1.0)
    H = build_ssh(make_geometry(L), profile)
    full = index_report(H, 0.1).edge_index
    err60 = abs(windowed_edge_index(profile, 0.1, 60) - full)
    err30 = abs(windowed_edge_index(profile, 0.1, 30) - full)
    ok = err60 < 1e-6 and err60 < err30
    _criterion(
        10,
        "windowed evaluation agrees with the full chain (L=120)",
        ok,
        f"|window60 - full| = {err60:.3e} < 1e-6 and < |window30 - full| = {err30:.3e}",
    )


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 40))
        # A dense random A->B block, one site per basis vector.
        M = np.zeros((n, n))
        M[0::2, 1::2] = rng.normal(size=((n + 1) // 2, n // 2))
        M[1::2, 0::2] = M[0::2, 1::2].T
        H = ChiralHamiltonian.from_matrix(M, make_geometry(n, Convention.ALTERNATING_SITES))
        ratio = float(rng.uniform(0.5, 50.0))
        delta = float(np.linalg.norm(M, 2)) / ratio
        diff = float(np.abs(tanh_oracle(M, delta) - flattened_sign(H, delta)).max())
        worst = max(worst, diff)
    _criterion(
        11,
        "flattened sign matches the expm-based oracle on 20 random chiral matrices",
        worst < 1e-8,
        f"worst max-abs difference {worst:.3e} < 1e-8",
    )


def test_criterion_12_reproduction_determinism():
    renders = []
    for _ in range(2):
        a3, b3 = reproduce_fig3(seed=1)
        a4, b4 = reproduce_fig4(seed=1)
        renders.append(
            tuple(t.render(reproducible=True) for t in (a3, b3, a4, b4))
        )
    ok = renders[0] == renders[1]
    sizes = [len(r) for r in renders[0]]
    _criterion(
        12,
        "figure pipelines are byte-identical across runs at fixed seed",
        ok,
        f"4 tables compared twice, byte sizes {sizes}",
    )


def winding_chain(L, offset, on, disorder):
    """t1 = 0.2, t2 = 0.3 plus one unit coupling at ``offset`` on ``a`` or ``b``, and seed-7 disorder."""
    unit, zero = np.ones(L), np.zeros(L)
    extra = ExtraCoupling(offset, unit if on == "a" else zero, unit if on == "b" else zero)
    profile = apply_disorder(CouplingProfile(np.full(L, 0.2), np.full(L, 0.3), (extra,)), 7, disorder)
    return build_ssh(make_geometry(L), profile)


def test_criterion_13_higher_winding_numbers():
    failures, q80 = [], []
    for w, offset, on in ((-2, 2, "a"), (2, 2, "b"), (3, 3, "b")):
        for disorder in (0.0, 0.05):
            reports = {L: index_report(winding_chain(L, offset, on, disorder), 0.05) for L in (40, 80, 160)}
            for L, r in reports.items():
                if r.nearest_integer != w or not r.correspondence_residual < 1e-10:
                    failures.append(
                        f"w={w} disorder={disorder} L={L}: {r.nearest_integer}, {r.correspondence_residual:.1e}"
                    )
            q = {L: r.quantization_error for L, r in reports.items()}
            if not q[80] < min(q[40], 1e-9):
                failures.append(f"w={w} disorder={disorder}: q(40)={q[40]:.1e}, q(80)={q[80]:.1e}")
            q80.append(q[80])
    _criterion(
        13,
        "winding -2, 2 and 3 chains, clean and disordered, at L = 40, 80, 160 (delta 0.05)",
        not failures,
        "; ".join(failures) or f"nearest integer w, residual < 1e-10, q(80) < q(40) with q(80) <= {max(q80):.1e}",
    )
