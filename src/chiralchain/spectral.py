"""Spectra of chiral Hamiltonians and the sublattice blocks of functions of them.

Everything downstream (indices, bound certificates) runs through functions of
one Hermitian matrix: S = tanh(H / delta), 1 - S^2 = sech^2(H / delta), and
cos(tH) and sin(tH) for the propagator.  In sublattice order a chiral
Hamiltonian is H = [[0, T], [T^dag, 0]], and a ``ChiralHamiltonian`` stores
only the band of T, ``band[h + k, i] = T[i, i + k]`` for the diagonals -h..h
of T, zero outside T, so ``eigh`` takes one SVD of T = U Sigma W^dag,
directly and with no input checks (they run once, in the constructor): the
spectrum is +-sigma.  A square float64 T whose nonzero entries all lie on
diagonals 0 and -1 (every chain the CLI builds except an odd-length
``sites`` chain) takes one call of LAPACK's tridiagonal divide-and-conquer
eigensolver ``dstevd`` on -T T^T, from the OpenBLAS that numpy.linalg has
loaded (``_lapack``); the dense T is never assembled.  T is first scaled by
a power of two, since the kernel squares its entries.  The eigenvectors are
U, already in descending-sigma order, and ``dstevd`` needs an L^2 workspace
where a bidiagonal SVD that also builds W needs 3 L^2.  W is recovered on
the two bands: w = T^T u / sigma with sigma = ||T^T u||, for every column
with sigma at least 1/8 of the largest scaled entry, BLOCK_ROWS rows at a
time, so that the route's peak stays that workspace and, after it, U and
W.  The remaining columns (the edge modes; all of them for T = 0) take W
as an orthonormal basis of the complement of the recovered ones, and the
small SVD of U^T T W on them pairs the two, so U and W stay orthonormal
and T w = sigma u holds to rounding however many singular values are
small or zero.  Every other T, and a numpy whose LAPACK lacks ``dstevd``,
takes ``np.linalg.svd`` of the assembled dense T.
Each ``ChiralHamiltonian`` is diagonalized once:
``eigh`` keeps its spectrum on H, and every later function of that H
reuses it.  Chiral symmetry makes an even f(H) block-diagonal,
diag(U f(Sigma) U^dag, W f(Sigma) W^dag), and an odd f(H) off-diagonal,
with A-B block U f(Sigma) W^dag: every caller knows which it needs and reads
those L x L blocks from ``even_blocks`` or ``odd_block``.  No 2L x 2L
function of H is assembled.  A plain matrix enters through
``ChiralHamiltonian.from_matrix``.  The tests check this route against a
dense eigendecomposition and the eigendecomposition-free ``tanh_oracle``
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _lapack
from .hamiltonian import ChiralHamiltonian, NumericalError


@dataclass(frozen=True)
class ChiralSpectrum:
    """H = [[0, T], [T^dag, 0]] with T = U diag(sigma) W^dag.

    A is on the even and B on the odd basis vectors.  ``U`` (|A| x |A|) and
    ``W`` (|B| x |B|) are unitary and ``sigma`` holds the min(|A|, |B|)
    singular values.  Column i < len(sigma) of U and W pairs into the
    eigenvectors (u_i, +-w_i) / sqrt(2) at energies +-sigma_i; the remaining
    columns of the larger factor are exact zero modes.
    """

    U: np.ndarray
    sigma: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        # One spectrum serves every caller of its Hamiltonian, so none may edit it.
        for name in ("U", "sigma", "W"):
            getattr(self, name).setflags(write=False)

    def column_sigma(self, columns: int) -> np.ndarray:
        """Singular value of each of ``columns`` factor columns; zero modes get 0."""
        out = np.zeros(columns)
        out[: self.sigma.size] = self.sigma
        return out


def eigh(H: ChiralHamiltonian) -> ChiralSpectrum:
    """The spectrum of H from one SVD of its A->B block T.

    There are no input checks: H is Hermitian and chiral by construction.
    The first call solves, and the spectrum is kept on H: later calls with
    the same H return it as is.
    """
    if not isinstance(H, ChiralHamiltonian):
        raise TypeError(
            f"eigh takes a ChiralHamiltonian, got {type(H).__name__}; "
            "build one from a matrix with ChiralHamiltonian.from_matrix"
        )
    if H._spectrum is None:
        # H is frozen; its spectrum is derived data, set once.
        object.__setattr__(H, "_spectrum", _chiral_svd(H))
    return H._spectrum


def _chiral_svd(H: ChiralHamiltonian) -> ChiralSpectrum:
    band, h = H.band, H.band.shape[0] // 2
    if (
        H.dtype == np.float64
        and H.shape[0] == H.shape[1]
        # Diagonals 0 and -1 hold every nonzero entry.
        and not np.any(band[: max(h - 1, 0)]) and not np.any(band[h + 1 :])
        and (kernel := _lapack.dstevd()) is not None
    ):
        return _bidiagonal_svd(kernel, band[h], band[h - 1, 1:] if h else np.zeros(H.shape[0] - 1))
    try:
        U, sigma, Wh = np.linalg.svd(H.T, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the A->B block failed: {exc}") from exc
    return ChiralSpectrum(U, sigma, Wh.conj().T)


# A column with sigma at least this fraction of the scaled T's largest entry
# takes w = T^T u / sigma; the rest are completed by Rayleigh-Ritz.
_RECOVERED_FRACTION = 0.125

# Rows per block where an n x n product is reduced as it is made, so that no
# second n x n array is live beside the spectrum.
BLOCK_ROWS = 256


def _bidiagonal_svd(kernel, diag: np.ndarray, sub: np.ndarray) -> ChiralSpectrum:
    """The SVD of the real lower-bidiagonal T with diagonal ``diag`` and subdiagonal ``sub``.

    T is first scaled by the power of two at or below its largest entry:
    exact, unless entries underflow, and it keeps every scaled entry below 2.
    U is the eigenvectors of -T T^T; W is recovered as the module docstring
    says, and a sigma tied to rounding with its neighbour is put in order.
    """
    n = diag.size
    largest = np.maximum(np.abs(diag).max(), np.abs(sub).max(initial=0.0))
    if not np.isfinite(largest):
        raise NumericalError("SVD of the A->B block failed: it has non-finite entries")
    scale = 2.0 ** (np.frexp(largest)[1] - 1) if largest > 0 else 1.0
    d, e = diag / scale, sub / scale
    square = d * d
    square[1:] += e * e
    try:
        lam, Ut = _lapack.tridiagonal_eigh(kernel, -square, -(d[:-1] * e))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"bidiagonal SVD of the A->B block failed: {exc}") from exc
    # largest / scale first: the product with the fraction underflows to 0 for the smallest subnormal.
    bound = (_RECOVERED_FRACTION * (largest / scale)) ** 2
    k = int(np.count_nonzero(-lam >= bound)) if largest > 0 else 0
    # Row i of Wt is T^T u_i = d u_i + e u_i[1:]; rows k: are replaced below.
    Wt, sigma = Ut * d, np.empty(n)
    for i in range(0, n, BLOCK_ROWS):
        rows = slice(i, i + BLOCK_ROWS)
        Wt[rows, :-1] += Ut[rows, 1:] * e
        sigma[rows] = np.linalg.norm(Wt[rows], axis=1)
    Wt[:k] /= sigma[:k, None]
    if k < n:
        _complete_rows(Wt, k)
        TWs = Wt[k:] * d  # row j: (T w_j)^T, with (T w)[i] = d_i w_i + e_{i-1} w_{i-1}
        TWs[:, 1:] += Wt[k:, :-1] * e
        B = Ut[k:] @ TWs.T
        if B.size == 1:
            # One edge mode, the common case, needs no LAPACK SVD, whose
            # first call costs about 1 MB of resident memory.
            P, sigma[k:], Qt = np.where(B < 0.0, -1.0, 1.0), np.abs(B[0]), np.ones((1, 1))
        else:
            P, sigma[k:], Qt = np.linalg.svd(B)
        Ut[k:], Wt[k:] = P.T @ Ut[k:], Qt @ Wt[k:]
    if np.any(sigma[1:] > sigma[:-1]):
        order = np.argsort(-sigma, kind="stable")
        Ut, Wt, sigma = Ut[order], Wt[order], sigma[order]
    return ChiralSpectrum(Ut.T, sigma * scale, Wt.T)


def _complete_rows(Q: np.ndarray, k: int) -> None:
    """Fill rows k: of Q with an orthonormal basis of the complement of its orthonormal rows :k.

    Each row starts from the unit vector with the largest part outside the
    rows above it (for k = 0, the identity), which is projected out twice and
    normalized.
    """
    outside = 1.0 - np.einsum("ij,ij->j", Q[:k], Q[:k])
    for row in range(k, Q.shape[0]):
        j, q, above = np.argmax(outside), Q[row], Q[:row]
        np.negative(above[:, j] @ above, out=q)  # e_j projected out once
        q[j] += 1.0
        q -= (above @ q) @ above
        q /= np.linalg.norm(q)
        outside -= q * q


def _checked_values(f: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    # cos(t w) and sin(t w) turn an infinite t w into NaN.
    values = f(w)
    if np.any(np.isnan(values)):
        raise NumericalError("scalar function produced NaN on an eigenvalue")
    return values


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """M / 2 + M^dag / 2 of a product M that no one else holds: M is halved in place."""
    np.divide(M, 2.0, out=M)
    return M + M.conj().T


def _sandwich(X: np.ndarray, d: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X diag(d) Y^dag, skipping the product when d is zero."""
    if not np.any(d):
        return np.zeros((X.shape[0], Y.shape[0]), dtype=np.result_type(X, d, Y))
    return (X * d) @ Y.conj().T


def even_blocks(
    spec: ChiralSpectrum, f: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(f(H)_AA, f(H)_BB) = (U f(Sigma) U^dag, W f(Sigma) W^dag) for an even, real f.

    An even f of H (such as sech^2 or cos) has zero A-B and B-A blocks.
    f(0) goes on the zero-mode columns; both blocks are symmetrized.
    """
    U, W = spec.U, spec.W
    values = _checked_values(f, spec.column_sigma(max(U.shape[1], W.shape[1])))
    return (
        _hermitian_part(_sandwich(U, values[: U.shape[1]], U)),
        _hermitian_part(_sandwich(W, values[: W.shape[1]], W)),
    )


def odd_block(spec: ChiralSpectrum, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """f(H)_AB = U f(Sigma) W^dag for an odd, real f; f(H)_BA is its ``.conj().T``.

    An odd f of H (such as tanh or sin) has zero A-A and B-B blocks, and
    the zero modes do not enter.
    """
    k = spec.sigma.size
    return _sandwich(spec.U[:, :k], _checked_values(f, spec.sigma), spec.W[:, :k])


def _sech_sq(x: np.ndarray) -> np.ndarray:
    # 1 - tanh(x)^2 without cancellation or overflow; exp(-800) is already 0.
    e = np.exp(-2.0 * np.minimum(np.abs(x), 400.0))
    return 4.0 * e / (1.0 + e) ** 2


def _ratio(w: np.ndarray, delta: float) -> np.ndarray:
    """w / delta; an overflow to +-inf is exact for tanh and sech^2."""
    with np.errstate(over="ignore"):
        return w / delta
