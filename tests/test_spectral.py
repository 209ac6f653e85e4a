import math

import numpy as np
import pytest

from chiralchain.hamiltonian import CouplingProfile, build_ssh
from chiralchain.lattice import make_geometry
from chiralchain.spectral import (
    NumericalError,
    OracleRangeError,
    eigh,
    flattened_sign,
    gap_filter,
    matrix_function,
    propagator,
    tanh_oracle,
)


def ssh(L, t1, t2):
    return build_ssh(make_geometry(L), CouplingProfile.constant(L, t1, t2))


def random_hermitian(n, seed, complex_valued=False):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    if complex_valued:
        M = M + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


def test_eigh_diagonal_two_level():
    spec = eigh(np.diag([1.0, -1.0]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(2)[:, ::-1])


def test_eigh_ssh_chiral_pairs():
    spec = eigh(ssh(2, 0.5, 1.0))
    w = spec.eigenvalues
    assert np.allclose(w, -w[::-1], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_eigh_reconstruction_and_orthonormality(seed):
    H = random_hermitian(20, seed, complex_valued=seed % 2 == 1)
    spec = eigh(H)
    assert np.abs(spec.reconstruct() - H).max() < 1e-10
    V = spec.eigenvectors
    assert np.abs(V.conj().T @ V - np.eye(20)).max() < 1e-10


def test_eigh_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError):
        eigh(M)


def test_matrix_function_identity_and_constant():
    H = random_hermitian(12, 3)
    spec = eigh(H)
    assert np.abs(matrix_function(spec, lambda w: w) - H).max() < 1e-10
    assert np.abs(matrix_function(spec, lambda w: np.ones_like(w)) - np.eye(12)).max() < 1e-10


def test_matrix_function_square_matches_matmul():
    H = random_hermitian(15, 4)
    spec = eigh(H)
    assert np.abs(matrix_function(spec, lambda w: w**2) - H @ H).max() < 1e-10


def test_matrix_function_rejects_nan():
    spec = eigh(np.diag([1.0, -1.0]))
    with pytest.raises(NumericalError):
        matrix_function(spec, lambda w: np.where(w > 0, w, np.nan))


def test_flattened_sign_scalar_values():
    gap = 0.7
    S = flattened_sign(np.diag([gap, -gap]), gap)
    assert S[0, 0] == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert S[1, 1] == pytest.approx(-math.tanh(1.0), abs=1e-12)


def test_flattened_sign_of_zero_matrix():
    assert np.all(flattened_sign(np.zeros((4, 4)), 0.3) == 0.0)


def test_flattened_sign_norm_below_one():
    H = ssh(10, 0.5, 1.0)
    S = flattened_sign(H, 0.5)
    assert np.linalg.norm(S, 2) < 1.0
    # At tiny delta, tanh saturates to 1.0 in float64; the norm may only
    # exceed 1 by rounding noise.
    assert np.linalg.norm(flattened_sign(H, 0.05), 2) <= 1.0 + 1e-12


def test_chiral_conjugation_flips_sign():
    H = ssh(12, 0.5, 1.0)
    c = H.geometry.sublattice_signs
    S = flattened_sign(H, 0.1)
    assert np.abs(c[:, None] * S * c[None, :] + S).max() < 1e-10
    G = gap_filter(H, 0.1)
    assert np.abs(c[:, None] * G * c[None, :] - G).max() < 1e-10


def test_flattened_sign_commutes_with_hamiltonian():
    H = ssh(14, 0.5, 1.0).matrix
    S = flattened_sign(H, 0.1)
    scale = np.abs(H).max()
    assert np.abs(S @ H - H @ S).max() < 1e-9 * scale


def test_spectrum_mapping_under_tanh():
    H = random_hermitian(18, 5)
    delta = 0.3
    S = flattened_sign(H, delta)
    mapped = np.sort(np.tanh(eigh(H).eigenvalues / delta))
    assert np.abs(np.sort(np.linalg.eigvalsh(S)) - mapped).max() < 1e-10


def test_gap_filter_small_when_gapped():
    # All eigenvalues at |1|, delta a tenth of the gap.
    H = np.diag([1.0, -1.0, 1.0, -1.0])
    G = gap_filter(H, 0.1)
    assert np.linalg.norm(G, 2) <= 4 * math.exp(-2 / 0.1)


def test_gap_filter_keeps_zero_modes():
    H = ssh(10, 0.0, 1.0)
    psi = np.zeros(20)
    psi[0] = 1.0  # exact zero mode in the dimerized limit
    G = gap_filter(H, 0.05)
    assert np.abs(G @ psi - psi).max() < 1e-12


def test_gap_filter_trace_matches_eigenvalue_sum():
    H = random_hermitian(16, 6)
    delta = 0.2
    G = gap_filter(H, delta)
    expected = float(np.sum(1.0 - np.tanh(eigh(H).eigenvalues / delta) ** 2))
    assert np.trace(G) == pytest.approx(expected, abs=1e-10)


def test_gap_filter_positive_semidefinite():
    H = random_hermitian(20, 7)
    G = gap_filter(H, 0.05)
    assert np.linalg.eigvalsh(G).min() >= -1e-12


def test_propagator_at_zero_time():
    H = random_hermitian(8, 8)
    assert np.abs(propagator(H, 0.0) - np.eye(8)).max() < 1e-12


def test_propagator_pi_rotation():
    U = propagator(np.diag([math.pi]), 1.0)
    assert U[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_propagator_unitary_and_group_law():
    H = random_hermitian(14, 9)
    U1 = propagator(H, 0.7)
    U2 = propagator(H, 1.1)
    U12 = propagator(H, 1.8)
    assert np.abs(U1.conj().T @ U1 - np.eye(14)).max() < 1e-9
    assert np.abs(U1 @ U2 - U12).max() < 1e-9


def test_propagator_requires_finite_time():
    with pytest.raises(ValueError):
        propagator(np.eye(2), math.inf)


def test_tanh_oracle_scalar_case():
    S = tanh_oracle(np.array([[0.3]]), 0.1)
    assert S[0, 0] == pytest.approx(math.tanh(3.0), abs=1e-12)


def test_tanh_oracle_matches_flattened_sign_on_ssh():
    H = ssh(8, 0.5, 1.0)
    delta = 0.5
    diff = np.abs(tanh_oracle(H, delta) - flattened_sign(H, delta)).max()
    assert diff < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_tanh_oracle_near_conditioning_limit(seed):
    H = random_hermitian(24, 10 + seed)
    delta = float(np.linalg.norm(H, 2)) / 50.0
    diff = np.abs(tanh_oracle(H, delta) - flattened_sign(H, delta)).max()
    assert diff < 1e-8


def test_tanh_oracle_range_guard():
    H = np.diag([1.0, -1.0])
    with pytest.raises(OracleRangeError):
        tanh_oracle(H, 1.0 / 500.0)
