"""Spectra of chiral Hamiltonians and the matrix functions built on them.

Everything downstream (indices, bound certificates) runs through functions of
one Hermitian matrix: the flattened sign S = tanh(H / delta), the gap filter
1 - S^2, and the propagator exp(i t H).  In sublattice order a chiral
Hamiltonian is H = [[0, T], [T^dag, 0]], so the production path is one SVD
of the A->B block T = U Sigma W^dag: the spectrum is +-sigma, and every
function of H is assembled from L x L blocks.  Each ``ChiralHamiltonian``
is diagonalized once: ``eigh`` keeps its spectrum on H, and every later
function of that H reuses it.  Callers that need only part of a function of
H (the trace norms of the bound certificates, the gap filter's smallest
eigenvalue) read its L x L blocks from ``chiral_blocks`` instead of the
assembled 2L x 2L matrix.  The dense eigendecomposition of a plain array and
``tanh_oracle``, an eigendecomposition-free route to S, are cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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


@dataclass(frozen=True)
class ChiralSpectrum:
    """H = [[0, T], [T^dag, 0]] with T = H[a][:, b] = U diag(sigma) W^dag.

    ``a`` and ``b`` index the A and B basis vectors.  ``U`` (|A| x |A|) and
    ``W`` (|B| x |B|) are unitary and ``sigma`` holds the min(|A|, |B|)
    singular values.  Column i < len(sigma) of U and W pairs into the
    eigenvectors (u_i, +-w_i) / sqrt(2) at energies +-sigma_i; the remaining
    columns of the larger factor are exact zero modes.
    """

    a: np.ndarray
    b: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        # One spectrum serves every caller of its Hamiltonian, so none may edit it.
        for name in ("a", "b", "U", "sigma", "W"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.a.size + self.b.size)

    @property
    def eigenvalues(self) -> np.ndarray:
        zero_modes = np.zeros(self.dim - 2 * self.sigma.size)
        return np.sort(np.concatenate([-self.sigma, zero_modes, self.sigma]))

    def column_sigma(self, columns: int) -> np.ndarray:
        """Singular value of each of ``columns`` factor columns; zero modes get 0."""
        out = np.zeros(columns)
        out[: self.sigma.size] = self.sigma
        return out


def _as_matrix(H: ChiralHamiltonian | np.ndarray) -> np.ndarray:
    if isinstance(H, ChiralHamiltonian):
        return H.matrix
    return np.asarray(H)


def _as_delta(delta: float) -> float:
    """``delta`` as a float; every smoothing scale must be finite and > 0."""
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    return delta


def eigh(H: ChiralHamiltonian | np.ndarray) -> ChiralSpectrum | SpectralData:
    """Spectrum of a Hermitian matrix.

    The input must be Hermitian within 1e-12 relative.  A ``ChiralHamiltonian``
    gets a ``ChiralSpectrum`` from one SVD of its A->B block; its A-A and B-B
    blocks must be exactly zero.  The first call checks and solves, and the
    spectrum is kept on H: later calls with the same H return it as is.  A
    plain array gets the dense eigendecomposition of its symmetrized form,
    on every call.
    """
    if isinstance(H, ChiralHamiltonian):
        if H._spectrum is None:
            _check_square(H.matrix)
            # H is frozen; its spectrum is derived data, set once.
            object.__setattr__(H, "_spectrum", _chiral_svd(H.matrix, H.geometry.sublattice_signs))
        return H._spectrum
    M = np.asarray(H)
    _check_square(M)
    _check_hermitian(M, M)
    # Halve before adding: M + M^dag overflows for entries above ~9e307.
    w, V = np.linalg.eigh(M / 2.0 + M.conj().T / 2.0)
    return SpectralData(w, V)


def _check_square(M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {M.shape}")


def _check_hermitian(X: np.ndarray, Y: np.ndarray) -> None:
    """Raise unless X = Y^dag within HERMITICITY_RTOL of the largest entry (and of 1)."""
    defect = float(np.abs(X - Y.conj().T).max())
    scale = max(1.0, float(np.abs(X).max()), float(np.abs(Y).max()))
    if defect > HERMITICITY_RTOL * scale:
        raise NumericalError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )


def _chiral_svd(M: np.ndarray, signs: np.ndarray) -> ChiralSpectrum:
    if signs.shape != M.shape[:1]:
        raise NumericalError(f"matrix shape {M.shape} does not match {signs.size} sublattice signs")
    a = np.flatnonzero(signs > 0)
    b = np.flatnonzero(signs < 0)
    if np.any(M[np.ix_(a, a)]) or np.any(M[np.ix_(b, b)]):
        raise NumericalError("matrix is not chiral: its A-A or B-B block is nonzero")
    # With zero A-A and B-B blocks, H = H^dag exactly when T = (H_BA)^dag,
    # and the largest entry of H is the largest entry of T or H_BA.
    T = M[np.ix_(a, b)]
    _check_hermitian(T, M[np.ix_(b, a)])
    try:
        U, sigma, Wh = np.linalg.svd(T, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the A->B block failed: {exc}") from exc
    return ChiralSpectrum(a, b, U, sigma, Wh.conj().T)


def _checked_values(f: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    values = np.asarray(f(w))
    if values.shape != w.shape:
        values = np.broadcast_to(values, w.shape)
    if np.any(np.isnan(values)):
        raise NumericalError("scalar function produced NaN on an eigenvalue")
    return values


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return M / 2.0 + M.conj().T / 2.0


def _sandwich(X: np.ndarray, d: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X diag(d) Y^dag, skipping the product when d is zero."""
    if not np.any(d):
        return np.zeros((X.shape[0], Y.shape[0]), dtype=np.result_type(X, d, Y))
    return (X * d) @ Y.conj().T


def chiral_blocks(
    spec: ChiralSpectrum, f: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sublattice blocks (f(H)_AA, f(H)_BB, f(H)_AB, f(H)_BA) of f(H).

    With f_e/o = (f(sigma) +- f(-sigma)) / 2 and f(0) on the zero-mode
    columns: f(H)_AA = U f_e U^dag, f(H)_BB = W f_e W^dag,
    f(H)_AB = U f_o W^dag and f(H)_BA = W f_o U^dag.  An even f (such as
    sech^2) has zero A-B blocks and an odd f (such as tanh) zero A-A and B-B
    blocks; those come back as zero matrices without a product.  The
    diagonal blocks are symmetrized when f is real on the spectrum.
    """
    U, W, k = spec.U, spec.W, spec.sigma.size
    s = spec.column_sigma(max(U.shape[1], W.shape[1]))
    values = _checked_values(f, np.concatenate([s, -s]))
    plus, minus = values[: s.size], values[s.size :]
    even = plus / 2.0 + minus / 2.0
    odd = (plus / 2.0 - minus / 2.0)[:k]
    AA = _sandwich(U, even[: U.shape[1]], U)
    BB = _sandwich(W, even[: W.shape[1]], W)
    AB = _sandwich(U[:, :k], odd, W[:, :k])
    if not np.iscomplexobj(values):
        return _hermitian_part(AA), _hermitian_part(BB), AB, AB.conj().T
    return AA, BB, AB, _sandwich(W[:, :k], odd, U[:, :k])


def matrix_function(
    spec: ChiralSpectrum | SpectralData, f: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """f(H) in the original basis; Hermitian (symmetrized) when f is real on the spectrum.

    A ``ChiralSpectrum`` places the four blocks of ``chiral_blocks``.
    """
    if isinstance(spec, SpectralData):
        values = _checked_values(f, spec.eigenvalues)
        V = spec.eigenvectors
        out = (V * values) @ V.conj().T
        return out if np.iscomplexobj(values) else _hermitian_part(out)

    AA, BB, AB, BA = chiral_blocks(spec, f)
    a, b = spec.a, spec.b
    out = np.zeros((spec.dim, spec.dim), dtype=np.result_type(AA, BB, AB, BA))
    out[np.ix_(a, a)] = AA
    out[np.ix_(b, b)] = BB
    out[np.ix_(a, b)] = AB
    out[np.ix_(b, a)] = BA
    return out


def _sech_sq(x: np.ndarray) -> np.ndarray:
    # 1 - tanh(x)^2 without cancellation or overflow; exp(-800) is already 0.
    e = np.exp(-2.0 * np.minimum(np.abs(x), 400.0))
    return 4.0 * e / (1.0 + e) ** 2


def _ratio(w: np.ndarray, delta: float) -> np.ndarray:
    """w / delta; an overflow to +-inf is exact for tanh and sech^2."""
    with np.errstate(over="ignore"):
        return w / delta


def flattened_sign(H: ChiralHamiltonian | np.ndarray, delta: float) -> np.ndarray:
    """S = tanh(H / delta): the band-flattening smooth surrogate for sign(H)."""
    delta = _as_delta(delta)
    return matrix_function(eigh(H), lambda w: np.tanh(_ratio(w, delta)))


def gap_filter(H: ChiralHamiltonian | np.ndarray, delta: float) -> np.ndarray:
    """1 - S^2: positive semidefinite, concentrates weight on near-zero-energy states."""
    delta = _as_delta(delta)
    return matrix_function(eigh(H), lambda w: _sech_sq(_ratio(w, delta)))


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
    import scipy.linalg

    delta = _as_delta(delta)
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
