"""Hermitian eigendecomposition and matrix functions.

Everything downstream (indices, bound certificates) runs through functions of
one Hermitian matrix: the flattened sign S = tanh(H / delta), the gap filter
1 - S^2, and the propagator exp(i t H).  The primary compute path is a full
eigendecomposition, exact at desk scale.  ``tanh_oracle`` provides a second,
eigendecomposition-free route to S for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .hamiltonian import ChiralHamiltonian, NumericalError

# Relative Hermiticity defect tolerated on input matrices.
HERMITICITY_RTOL = 1e-12

# Largest ||H||_2 / delta the oracle path supports.
ORACLE_MAX_RATIO = 50.0


class OracleRangeError(NumericalError):
    """tanh_oracle called outside its supported conditioning range."""


@dataclass(frozen=True)
class SpectralData:
    """Full eigenpairs of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T


def _as_matrix(H: ChiralHamiltonian | np.ndarray) -> np.ndarray:
    if isinstance(H, ChiralHamiltonian):
        return H.matrix
    return np.asarray(H)


def _as_delta(delta: float) -> float:
    delta = float(delta)
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return delta


def eigh(H: ChiralHamiltonian | np.ndarray) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within 1e-12 relative; it is symmetrized
    before the solve to guard the eigensolver contract.
    """
    M = _as_matrix(H)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {M.shape}")
    defect = float(np.abs(M - M.conj().T).max())
    scale = max(1.0, float(np.abs(M).max()))
    if defect > HERMITICITY_RTOL * scale:
        raise NumericalError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )
    sym = (M + M.conj().T) / 2.0
    w, V = np.linalg.eigh(sym)
    return SpectralData(w, V)


def matrix_function(spec: SpectralData, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """V f(Lambda) V^dagger; Hermitian (symmetrized) when f is real on the spectrum."""
    values = np.asarray(f(spec.eigenvalues))
    if values.shape != spec.eigenvalues.shape:
        values = np.broadcast_to(values, spec.eigenvalues.shape)
    if np.any(np.isnan(values)):
        raise NumericalError("scalar function produced NaN on an eigenvalue")
    V = spec.eigenvectors
    out = (V * values) @ V.conj().T
    if not np.iscomplexobj(values):
        out = (out + out.conj().T) / 2.0
    return out


def _sech_sq(x: np.ndarray) -> np.ndarray:
    # 1 - tanh(x)^2 without cancellation or overflow.
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


def flattened_sign(H: ChiralHamiltonian | np.ndarray, delta: float) -> np.ndarray:
    """S = tanh(H / delta): the band-flattening smooth surrogate for sign(H)."""
    delta = _as_delta(delta)
    return matrix_function(eigh(H), lambda w: np.tanh(w / delta))


def gap_filter(H: ChiralHamiltonian | np.ndarray, delta: float) -> np.ndarray:
    """1 - S^2: positive semidefinite, concentrates weight on near-zero-energy states."""
    delta = _as_delta(delta)
    return matrix_function(eigh(H), lambda w: _sech_sq(w / delta))


def propagator(H: ChiralHamiltonian | np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(i t H)."""
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    return matrix_function(eigh(H), lambda w: np.exp(1j * float(t) * w))


def tanh_oracle(H: ChiralHamiltonian | np.ndarray, delta: float) -> np.ndarray:
    """tanh(H / delta) without an eigendecomposition, as an independent check.

    Uses tanh(y) = (e^{2y} - 1)(e^{2y} + 1)^{-1} on an argument scaled down
    by 2^k so that its norm is at most 1 (scaling-and-squaring expm plus a
    positive-definite solve), then k doubling steps
    tanh(2y) = 2 tanh(y) (1 + tanh(y)^2)^{-1}, each a solve with condition
    number at most 2.  Supported for ||H||_2 / delta <= 50.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    M = _as_matrix(H)
    n = M.shape[0]
    ratio = float(np.linalg.norm(M, 2)) / delta
    if ratio > ORACLE_MAX_RATIO:
        raise OracleRangeError(
            f"||H||/delta = {ratio:.3g} exceeds the supported range {ORACLE_MAX_RATIO:g}"
        )
    identity = np.eye(n, dtype=M.dtype if np.iscomplexobj(M) else float)
    k = 0 if ratio <= 1.0 else int(np.ceil(np.log2(ratio)))
    E = scipy.linalg.expm(2.0 * M / (delta * 2.0**k))
    E = (E + E.conj().T) / 2.0
    T = scipy.linalg.solve(E + identity, E - identity, assume_a="pos")
    for _ in range(k):
        denom = identity + T @ T
        denom = (denom + denom.conj().T) / 2.0
        T = scipy.linalg.solve(denom, 2.0 * T, assume_a="pos")
    return (T + T.conj().T) / 2.0
