import math

import numpy as np
import pytest

from chiralchain.hamiltonian import ChiralHamiltonian, CouplingProfile, build_ssh
from chiralchain.lattice import Convention, make_geometry
from chiralchain.spectral import NumericalError, eigh, even_blocks, odd_block
from oracles import (
    OracleRangeError, dense_eigh, dense_function, flattened_sign, gap_filter, placed, propagator,
    spectrum_values, sublattice_signs, tanh_oracle,
)


def ssh(L, t1, t2):
    return build_ssh(make_geometry(L), CouplingProfile.constant(L, t1, t2))


def chiral(M):
    """The Hamiltonian of a chiral n x n matrix, one site per basis vector."""
    M = np.asarray(M)
    return ChiralHamiltonian.from_matrix(M, make_geometry(M.shape[0], Convention.ALTERNATING_SITES))


def random_chiral(n, seed, complex_valued=False):
    """A random chiral n x n Hamiltonian with a dense A->B block."""
    rng = np.random.default_rng(seed)
    T = rng.normal(size=((n + 1) // 2, n // 2))
    if complex_valued:
        T = T + 1j * rng.normal(size=T.shape)
    M = np.zeros((n, n), dtype=T.dtype)
    M[0::2, 1::2] = T
    M[1::2, 0::2] = T.conj().T
    return chiral(M)


def identity(w):
    return w


def test_eigh_two_level():
    spec = eigh(chiral([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spectrum_values(spec), [-1.0, 1.0])
    assert np.allclose(spec.sigma, [1.0])
    assert np.allclose(np.abs(spec.U), 1.0) and np.allclose(np.abs(spec.W), 1.0)


def test_eigh_ssh_chiral_pairs():
    spec = eigh(ssh(2, 0.5, 1.0))
    w = spectrum_values(spec)
    assert np.allclose(w, -w[::-1], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_eigh_reconstruction_and_orthonormality(seed):
    H = random_chiral(20, seed, complex_valued=seed % 2 == 1)
    spec = eigh(H)
    assert np.abs(placed(spec, odd=identity) - H.matrix).max() < 1e-10
    for Q in (spec.U, spec.W):
        assert np.abs(Q.conj().T @ Q - np.eye(10)).max() < 1e-10


@pytest.mark.parametrize("M", [
    # T is 2 x 1: np.linalg.svd.
    [[0.0, 1e308, 0.0], [1e308, 0.0, 1e307], [0.0, 1e307, 0.0]],
    # T = [[1e308, 0], [1e307, -1e308]] is lower bidiagonal: dstevd.
    [[0.0, 1e308, 0.0, 0.0], [1e308, 0.0, 1e307, 0.0],
     [0.0, 1e307, 0.0, -1e308], [0.0, 0.0, -1e308, 0.0]],
])
def test_eigh_of_entries_near_float_max(M):
    # Sums of two entries overflow here; the solve must neither warn nor lose the spectrum.
    H = chiral(M)
    spec = eigh(H)
    assert np.all(np.isfinite(spectrum_values(spec)))
    assert np.abs(placed(spec, odd=identity) - H.matrix).max() < 1e-12 * 1e308


def test_plain_array_is_type_error():
    with pytest.raises(TypeError, match="ChiralHamiltonian.from_matrix"):
        eigh(np.eye(2))


def test_parity_blocks_identity_and_constant():
    H = random_chiral(12, 3)
    spec = eigh(H)
    assert np.abs(placed(spec, odd=identity) - H.matrix).max() < 1e-10
    assert np.abs(placed(spec, even=np.ones_like) - np.eye(12)).max() < 1e-10


def test_even_blocks_square_matches_matmul():
    H = random_chiral(15, 4)
    M = H.matrix
    assert np.abs(placed(eigh(H), even=lambda w: w**2) - M @ M).max() < 1e-10


@pytest.mark.parametrize("blocks", [even_blocks, odd_block])
def test_parity_blocks_reject_nan(blocks):
    spec = eigh(chiral([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NumericalError):
        blocks(spec, lambda w: np.where(w > 0, np.nan, w))


def test_flattened_sign_scalar_values():
    gap = 0.7
    S = flattened_sign(chiral([[0.0, gap], [gap, 0.0]]), gap)
    assert S[0, 1] == S[1, 0] == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert S[0, 0] == S[1, 1] == 0.0


def test_flattened_sign_of_zero_matrix():
    assert np.all(flattened_sign(chiral(np.zeros((4, 4))), 0.3) == 0.0)


def test_flattened_sign_norm_below_one():
    H = ssh(10, 0.5, 1.0)
    S = flattened_sign(H, 0.5)
    assert np.linalg.norm(S, 2) < 1.0
    # At tiny delta, tanh saturates to 1.0 in float64; the norm may only
    # exceed 1 by rounding noise.
    assert np.linalg.norm(flattened_sign(H, 0.05), 2) <= 1.0 + 1e-12


def test_chiral_conjugation_flips_sign():
    H = ssh(12, 0.5, 1.0)
    c = sublattice_signs(H.geometry)
    S = flattened_sign(H, 0.1)
    assert np.abs(c[:, None] * S * c[None, :] + S).max() < 1e-10
    G = gap_filter(H, 0.1)
    assert np.abs(c[:, None] * G * c[None, :] - G).max() < 1e-10


def test_flattened_sign_commutes_with_hamiltonian():
    H = ssh(14, 0.5, 1.0)
    S, M = flattened_sign(H, 0.1), H.matrix
    assert np.abs(S @ M - M @ S).max() < 1e-9 * np.abs(M).max()


def test_spectrum_mapping_under_tanh():
    H = random_chiral(18, 5)
    delta = 0.3
    S = flattened_sign(H, delta)
    mapped = np.sort(np.tanh(spectrum_values(eigh(H)) / delta))
    assert np.abs(np.sort(np.linalg.eigvalsh(S)) - mapped).max() < 1e-10


def test_gap_filter_small_when_gapped():
    # All eigenvalues at |1| (T is the identity), delta a tenth of the gap.
    H = chiral([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
    G = gap_filter(H, 0.1)
    assert np.linalg.norm(G, 2) <= 4 * math.exp(-2 / 0.1)


def test_gap_filter_keeps_zero_modes():
    H = ssh(10, 0.0, 1.0)
    psi = np.zeros(20)
    psi[0] = 1.0  # exact zero mode in the dimerized limit
    G = gap_filter(H, 0.05)
    assert np.abs(G @ psi - psi).max() < 1e-12


def test_gap_filter_trace_matches_eigenvalue_sum():
    H = random_chiral(16, 6)
    delta = 0.2
    G = gap_filter(H, delta)
    expected = float(np.sum(1.0 - np.tanh(spectrum_values(eigh(H)) / delta) ** 2))
    assert np.trace(G) == pytest.approx(expected, abs=1e-10)


def test_gap_filter_positive_semidefinite():
    G = gap_filter(random_chiral(20, 7), 0.05)
    assert np.linalg.eigvalsh(G).min() >= -1e-12


def test_propagator_at_zero_time():
    assert np.abs(propagator(random_chiral(8, 8), 0.0) - np.eye(8)).max() < 1e-12


def test_propagator_pi_rotation():
    # Energies +-pi: exp(i pi H) = -1.
    U = propagator(chiral([[0.0, math.pi], [math.pi, 0.0]]), 1.0)
    assert np.abs(U + np.eye(2)).max() < 1e-12


def test_propagator_unitary_and_group_law():
    H = random_chiral(14, 9, complex_valued=True)
    U1 = propagator(H, 0.7)
    U2 = propagator(H, 1.1)
    U12 = propagator(H, 1.8)
    assert np.abs(U1.conj().T @ U1 - np.eye(14)).max() < 1e-9
    assert np.abs(U1 @ U2 - U12).max() < 1e-9


# --- the oracles (tests/oracles.py) --------------------------------------------


def random_hermitian(n, seed, complex_valued=False):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    if complex_valued:
        M = M + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_eigh_reconstruction_and_orthonormality(seed):
    M = random_hermitian(20, seed, complex_valued=seed % 2 == 1)
    eig = dense_eigh(M)
    assert np.abs(dense_function(eig, lambda w: w) - M).max() < 1e-10
    V = eig[1]
    assert np.abs(V.conj().T @ V - np.eye(20)).max() < 1e-10


def test_dense_eigh_of_entries_near_float_max():
    # M + M^dag overflows here; the solve must neither warn nor lose the spectrum.
    M = np.array([[0.0, 1e308, 0.0], [1e308, 0.0, 1e307], [0.0, 1e307, -1e308]])
    eig = dense_eigh(M)
    assert np.all(np.isfinite(eig[0]))
    assert np.abs(dense_function(eig, lambda w: w) - M).max() < 1e-12 * 1e308


def test_dense_eigh_rejects_non_hermitian():
    with pytest.raises(NumericalError, match="not Hermitian"):
        dense_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_tanh_oracle_scalar_case():
    S = tanh_oracle(np.array([[0.3]]), 0.1)
    assert S[0, 0] == pytest.approx(math.tanh(3.0), abs=1e-12)


def test_tanh_oracle_matches_flattened_sign_on_ssh():
    H = ssh(8, 0.5, 1.0)
    delta = 0.5
    diff = np.abs(tanh_oracle(H.matrix, delta) - flattened_sign(H, delta)).max()
    assert diff < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_tanh_oracle_near_conditioning_limit(seed):
    H = random_chiral(24, 10 + seed)
    M = H.matrix
    delta = float(np.linalg.norm(M, 2)) / 50.0
    diff = np.abs(tanh_oracle(M, delta) - flattened_sign(H, delta)).max()
    assert diff < 1e-8


def test_tanh_oracle_range_guard():
    with pytest.raises(OracleRangeError):
        tanh_oracle(np.diag([1.0, -1.0]), 1.0 / 500.0)
