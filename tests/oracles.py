"""Dense reference routes that the package's chiral route is checked against.

The package diagonalizes a ``ChiralHamiltonian`` through one SVD of its
A->B block.  The oracles here take the assembled matrix instead:

- ``dense_eigh`` and ``dense_function``: the full eigendecomposition of a
  Hermitian array and f(M) from it;
- ``spectrum_values``: the eigenvalues of H, +-sigma and the zero modes,
  from a ``ChiralSpectrum``;
- ``placed``: a function of H as a 2L x 2L matrix, its blocks placed from
  ``spectral.even_blocks`` and ``spectral.odd_block``, and through it
  ``flattened_sign`` (S = tanh(H / delta)), ``gap_filter`` (1 - S^2) and
  ``propagator`` (exp(itH)), the package route assembled so that tests can take products, spectra
  and norms of it;
- ``tanh_oracle``: tanh(M / delta) with no eigendecomposition at all;
- ``dense_ring``: the ring that ``bulk_gap`` solves, as a dense matrix;
- ``sparse_ring_gap``: the ring's half gap from SuperLU and ARPACK, the
  sparse route that ``bulk_gap`` replaced;
- ``dense_block``: the open chain's T scattered into a dense L x L array,
  the builder that the banded storage replaced;
- ``verify_chiral``: the largest entry of HC + CH of an assembled matrix,
  which ``check`` replaced by reading the stored band of T;
- ``sublattice_signs`` and ``dense_theta``: the diagonals of the chiral
  operator C and of a switch theta, one entry per basis vector, where the
  package reads a step switch as its two counts ``SwitchFunction.split``;
- ``dense_band`` and ``band_grid``: a band of diagonals, as the package
  stores it, read from a dense array and placed back into one.

The forms the bound certificates replaced by exact identities stay here as
their references:

- ``exp_block_norms``: the propagator's block norms from the complex
  blocks of exp(itH);
- ``propagator_block_norms`` and ``full_grid_lieb_robinson``: the
  Lieb-Robinson check on every position pair, with no Chebyshev band;
- ``full_commutator_trace_norm``: ||[G, theta]||_1 from the whole matrix;
- ``dense_trace_norms``: both trace norms of ``bounds.anticommutator_trace_norms``
  from full SVDs of the assembled 2L x 2L matrices, where the package reads
  each block's window around the switch plus a column-norm remainder;
- ``gap_filter_min_eigenvalue``: the smallest eigenvalue of 1 - S^2 from
  ``eigvalsh`` of its two blocks, where ``check`` reads a lower bound of it
  from the spectrum (``bounds.gap_filter_lower_bound``);
- ``full_index_diagonals``: both index diagonals from the whole L x L
  product X = U tanh(Sigma / delta) W^dag and every row of U and W;
- ``block_norms``: the norm of every position block of a matrix given as
  its four dense sublattice blocks, where the package reads only the band
  of diagonals a certificate needs (``hamiltonian._position_band_norms``);
- ``plain_cell_block_norms``: the 2x2 closed form on the whole array at
  once, where the package takes it in chunks.

Two dense checks that no command runs are kept as the tests' checks of the
decay of S and of the bulk restriction: ``decay_profile``, the per-distance
maxima of the block norms of a matrix with their fitted decay rate, and
``restriction_discrepancy``, how far f(H) on a region differs from f of the
padded periodic bulk.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from chiralchain.bounds import BoundCertificate, gap_filter_blocks
from chiralchain.hamiltonian import (
    ChiralHamiltonian, CouplingProfile, ExtraCoupling, NumericalError, _abs2, _as_positive, _block_entries,
    _chain_bonds, _check_hermitian, _ring_bonds, _sublattice_blocks, build_ssh,
)
from chiralchain.lattice import ChainGeometry, Convention, make_geometry
from chiralchain.spectral import ChiralSpectrum, _ratio, _sech_sq, eigh, even_blocks, odd_block

# Largest ||M||_2 / delta that tanh_oracle supports.
ORACLE_MAX_RATIO = 50.0

# m(r) below this is treated as numerically zero when fitting decay rates.
NOISE_FLOOR = 1e-14


class OracleRangeError(NumericalError):
    """tanh_oracle called outside its supported conditioning range."""


def dense_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvectors) of a matrix Hermitian within 1e-12 relative."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {M.shape}")
    _check_hermitian(M, M)
    # Halve before adding: M + M^dag overflows for entries above ~9e307.
    return np.linalg.eigh(M / 2.0 + M.conj().T / 2.0)


def dense_function(eig: tuple[np.ndarray, np.ndarray], f) -> np.ndarray:
    """f(M) from ``dense_eigh(M)``; Hermitian (symmetrized) when f is real on the spectrum."""
    w, V = eig
    values = np.broadcast_to(f(w), w.shape)
    if np.any(np.isnan(values)):
        raise NumericalError("scalar function produced NaN on an eigenvalue")
    out = (V * values) @ V.conj().T
    return out if np.iscomplexobj(values) else out / 2.0 + out.conj().T / 2.0


def spectrum_values(spec: ChiralSpectrum) -> np.ndarray:
    """The eigenvalues of H ascending: +-sigma, and 0 for each zero mode."""
    zero_modes = np.zeros(spec.U.shape[0] + spec.W.shape[0] - 2 * spec.sigma.size)
    return np.sort(np.concatenate([-spec.sigma, zero_modes, spec.sigma]))


def placed(spec: ChiralSpectrum, even=None, odd=None) -> np.ndarray:
    """even(H) + odd(H) in the original basis, placed from ``even_blocks`` and ``odd_block``."""
    n = spec.U.shape[0] + spec.W.shape[0]
    out = np.zeros((n, n), dtype=np.result_type(spec.U, spec.W))
    if even is not None:
        out[0::2, 0::2], out[1::2, 1::2] = even_blocks(spec, even)
    if odd is not None:
        AB = odd_block(spec, odd)
        out[0::2, 1::2], out[1::2, 0::2] = AB, AB.conj().T
    return out


def flattened_sign(H: ChiralHamiltonian, delta: float) -> np.ndarray:
    """S = tanh(H / delta), placed from ``odd_block``."""
    return placed(eigh(H), odd=lambda w: np.tanh(_ratio(w, delta)))


def gap_filter(H: ChiralHamiltonian, delta: float) -> np.ndarray:
    """1 - S^2 = sech^2(H / delta), placed from ``even_blocks``."""
    return placed(eigh(H), even=lambda w: _sech_sq(_ratio(w, delta)))


def propagator(H: ChiralHamiltonian, t: float) -> np.ndarray:
    """exp(itH) = cos(tH) + i sin(tH), placed from ``even_blocks`` and ``odd_block``."""
    spec = eigh(H)
    return placed(spec, even=lambda w: np.cos(t * w)) + 1j * placed(spec, odd=lambda w: np.sin(t * w))


def tanh_oracle(M: np.ndarray, delta: float) -> np.ndarray:
    """tanh(M / delta) of a Hermitian array, without an eigendecomposition.

    Uses tanh(y) = (e^{2y} - 1)(e^{2y} + 1)^{-1} on an argument scaled down
    by 2^k so that its norm is at most 1 (scaling-and-squaring expm plus a
    positive-definite solve), then k doubling steps
    tanh(2y) = 2 tanh(y) (1 + tanh(y)^2)^{-1}, each a solve with condition
    number at most 2.  Supported for ||M||_2 / delta <= 50.
    """
    delta = _as_positive("delta", delta)
    M = np.asarray(M)
    n = M.shape[0]
    ratio = float(np.linalg.norm(M, 2)) / delta
    if ratio > ORACLE_MAX_RATIO:
        raise OracleRangeError(
            f"||M||/delta = {ratio:.3g} exceeds the supported range {ORACLE_MAX_RATIO:g}"
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


def dense_ring(profile, l_ring: int) -> np.ndarray:
    """The ring that ``bulk_gap`` solves, as a dense matrix symmetrized once."""
    rows, cols, values = _ring_bonds(profile, l_ring)
    upper = np.zeros((2 * l_ring, 2 * l_ring), dtype=values.dtype)
    np.add.at(upper, (rows, cols), values)
    return upper + upper.conj().T


def sparse_ring_gap(profile, l_ring: int | None = None) -> float:
    """The ring's half gap from SuperLU and ARPACK, the route ``bulk_gap`` replaced.

    T_ring is placed as a sparse matrix and factored by SuperLU; ARPACK
    finds the largest eigenvalue s^2 / sigma_min^2 of s^2 (T T^dag)^-1 from
    the same fixed-seed start vector, with s the power of two that one solve
    finds.  A ring of 2 cells, below ARPACK's smallest dimension, takes
    |det T| / sigma_max from the pivots; an exactly singular ring gives 0.0.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    if l_ring is None:
        l_ring = 4 * profile.length
    a, b, values = _block_entries(_ring_bonds(profile, l_ring))
    T = scipy.sparse.csc_array((values, (a, b)), shape=(l_ring, l_ring))
    try:
        lu = scipy.sparse.linalg.splu(T)
    except RuntimeError as exc:
        if "exactly singular" in str(exc):
            return 0.0
        raise
    if l_ring == 2:
        pivots = np.abs(lu.U.diagonal())
        return float(pivots[0] / np.linalg.norm(T.toarray(), 2) * pivots[1])
    v0 = np.random.default_rng(0).standard_normal(l_ring)
    growth = np.abs(lu.solve(v0)).max()
    s = math.ldexp(1.0, min(-int(np.frexp(growth)[1]), 1000))
    gram_inverse = scipy.sparse.linalg.LinearOperator(
        (l_ring, l_ring), dtype=values.dtype,
        matvec=lambda v: s * lu.solve(s * lu.solve(v), trans="H"),
    )
    lam = scipy.sparse.linalg.eigsh(gram_inverse, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(s / np.sqrt(lam[0]))


def dense_block(geom: ChainGeometry, profile: CouplingProfile) -> np.ndarray:
    """The open chain's T: its block entries added into an L x L array of zeros, cropped to the geometry."""
    a, b, values = _block_entries(_chain_bonds(profile, ring=False))
    T = np.zeros((profile.length, profile.length), dtype=values.dtype)
    np.add.at(T, (a, b), values)
    return np.ascontiguousarray(T[:, : geom.total_dim // 2])


def _propagator_blocks(H, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C_AA, C_BB, S_AB): the blocks of cos(tH) and sin(tH).

    exp(i 0 H) is read as the identity: cos(0 H) from the eigenvectors
    would carry their rounding off the diagonal.
    """
    if t == 0.0:
        a, b = H.shape
        return np.eye(a), np.eye(b), np.zeros((a, b))
    spec = eigh(H)
    C_AA, C_BB = even_blocks(spec, lambda w: np.cos(t * w))
    return C_AA, C_BB, odd_block(spec, lambda w: np.sin(t * w))


def exp_block_norms(H, t: float) -> np.ndarray:
    """``block_norms`` of exp(itH) = cos(tH) + i sin(tH), read from its four complex blocks."""
    C_AA, C_BB, S_AB = _propagator_blocks(H, float(t))
    return block_norms((C_AA, 1j * S_AB, 1j * S_AB.conj().T, C_BB), H.geometry)


def propagator_block_norms(H, t: float) -> np.ndarray:
    """``block_norms`` of exp(itH) on the full grid, as those of (C_AA, S_AB, S_BA, -C_BB)."""
    C_AA, C_BB, S_AB = _propagator_blocks(H, float(t))
    return block_norms((C_AA, S_AB, S_AB.conj().T, np.negative(C_BB, out=C_BB)), H.geometry)


def full_grid_lieb_robinson(H, t: float, decay_length: float, coupling_norm: float) -> BoundCertificate:
    """``lieb_robinson_check`` read on every pair: the P x P norms, distances, mask and margins."""
    noise_floor = H.geometry.total_dim * float(np.finfo(float).eps)
    lhs_all = propagator_block_norms(H, t)
    x = np.arange(lhs_all.shape[0])
    dist = np.abs(x[:, None] - x[None, :])
    mask = dist >= decay_length
    lhs = lhs_all[mask]
    with np.errstate(over="ignore"):
        rhs = 2.0 * abs(t) * coupling_norm * np.exp(abs(t) * coupling_norm - dist[mask] / decay_length)
    margin = float((rhs - np.maximum(lhs - noise_floor, 0.0)).min(initial=np.inf))
    return BoundCertificate(
        f"lieb_robinson_t{t:g}", lhs, margin, margin >= 0.0, noise_floor=noise_floor
    )


def sublattice_signs(geom: ChainGeometry) -> np.ndarray:
    """+1 on A (even basis vectors), -1 on B (odd ones): the diagonal of the chiral operator C."""
    return np.where(np.arange(geom.total_dim) % 2 == 0, 1.0, -1.0)


def dense_theta(switch) -> np.ndarray:
    """The switch's value on each basis vector: 1.0 where its position is below the transition, 0.0 after."""
    return np.where(switch.geometry.positions < switch.transition, 1.0, 0.0)


def verify_chiral(matrix: np.ndarray, geom: ChainGeometry) -> float:
    """Largest absolute entry of M C + C M (0 for a chiral matrix), C the diagonal of the sublattice signs."""
    signs = sublattice_signs(geom)
    if matrix.shape != (signs.shape[0], signs.shape[0]):
        raise ValueError(f"dimension mismatch: matrix {matrix.shape}, geometry dim {signs.shape[0]}")
    anticomm = matrix * signs[None, :] + signs[:, None] * matrix
    return float(np.abs(anticomm).max())


def full_commutator_trace_norm(G: np.ndarray, theta: np.ndarray) -> float:
    """||G theta - theta G||_1 for a diagonal theta given by its entries, from the n x n matrix."""
    return float(np.linalg.svd(G * theta[None, :] - theta[:, None] * G, compute_uv=False).sum())


def dense_trace_norms(H, delta, switch):
    """The trace norms as first written: SVDs of 2L x 2L matrices assembled from the spectrum."""
    S, G = flattened_sign(H, delta), gap_filter(H, delta)
    signs = sublattice_signs(H.geometry)
    theta = dense_theta(switch)
    A = 0.5 * signs[:, None] * (theta[:, None] * G + G * theta[None, :])
    anti = A @ S + S @ A
    comm = G * theta[None, :] - theta[:, None] * G
    return tuple(float(np.linalg.svd(M, compute_uv=False).sum()) for M in (anti, comm))


def gap_filter_min_eigenvalue(H: ChiralHamiltonian, delta: float) -> float:
    """Smallest eigenvalue of 1 - S^2 (>= 0 in exact arithmetic), from its A-A and B-B blocks."""
    return min(float(np.linalg.eigvalsh(G).min()) for G in gap_filter_blocks(H, delta))


def full_index_diagonals(H, delta: float, switch) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of ``indices._index_diagonals`` for any 0/1 theta, from the full X."""
    theta = dense_theta(switch)
    spec = eigh(H)
    U, W, k = spec.U, spec.W, spec.sigma.size
    a, b = slice(0, None, 2), slice(1, None, 2)
    theta_a, theta_b = theta[a], theta[b]
    x_a = _ratio(spec.column_sigma(U.shape[1]), delta)
    x_b = _ratio(spec.column_sigma(W.shape[1]), delta)
    edge_diag = np.empty(H.geometry.total_dim)
    edge_diag[a] = theta_a * (_abs2(U) @ _sech_sq(x_a))
    edge_diag[b] = -theta_b * (_abs2(W) @ _sech_sq(x_b))
    X2 = _abs2((U[:, :k] * np.tanh(x_a[:k])) @ W[:, :k].conj().T)
    bulk_diag = np.empty(H.geometry.total_dim)
    bulk_diag[a] = 0.5 * (X2 @ theta_b - theta_a * X2.sum(axis=1))
    bulk_diag[b] = -0.5 * (X2.T @ theta_a - theta_b * X2.sum(axis=0))
    return edge_diag, bulk_diag


def dense_band(M: np.ndarray, h: int) -> np.ndarray:
    """Diagonals -h..h of a dense M as the package stores a band: ``band[h + k, i] = M[i, i + k]``, zero outside M."""
    band = np.zeros((2 * h + 1, M.shape[0]), M.dtype)
    for k in range(-h, h + 1):
        d = np.diagonal(M, k)
        band[h + k, max(0, -k) : max(0, -k) + d.size] = d
    return band


def band_grid(band: np.ndarray, n: int) -> np.ndarray:
    """The n x n array whose diagonals -h..h are those of ``band`` (``grid[x, x + k] = band[h + k, x]``), zero past them."""
    h = band.shape[0] // 2
    grid = np.zeros((n, n), band.dtype)
    for k in range(-h, h + 1):
        x = np.arange(max(0, -k), min(n, n - k))
        grid[x, x + k] = band[h + k, x]
    return grid


def block_norms(blocks: tuple[np.ndarray, ...], geom: ChainGeometry) -> np.ndarray:
    """Operator norms of the position-space blocks of M, one per position pair.

    M is given as its four sublattice blocks (M_AA, M_AB, M_BA, M_BB), A on
    the even and B on the odd basis vectors.  Exact 2x2 spectral norms under
    CELL_C2 (``plain_cell_block_norms``), absolute entries placed by basis
    parity under ALTERNATING_SITES.
    """
    n = geom.total_dim
    a, b = (n + 1) // 2, n // 2
    shapes = [np.shape(m) for m in blocks]
    if shapes != [(a, a), (a, b), (b, a), (b, b)]:
        raise ValueError(f"sublattice blocks of shapes {shapes} do not match geometry dim {n}")
    if geom.convention is Convention.CELL_C2:
        return plain_cell_block_norms(*blocks)
    mags = [np.abs(m) for m in blocks]
    out = np.empty((n, n), dtype=np.result_type(*mags))
    out[0::2, 0::2], out[0::2, 1::2], out[1::2, 0::2], out[1::2, 1::2] = mags
    return out


def plain_cell_block_norms(a, b, c, d) -> np.ndarray:
    """Largest singular value of each 2x2 block [[a, b], [c, d]], the closed form as plain expressions."""
    dtype = np.result_type(a, b, c, d, float)
    entries = [e.astype(dtype, copy=False) for e in (a, b, c, d)]
    mags = [np.abs(e) for e in entries]
    scale = np.maximum(np.maximum(mags[0], mags[1]), np.maximum(mags[2], mags[3]))
    tiny = np.finfo(float).tiny
    a, b, c, d = (
        np.divide(e, scale, out=np.zeros_like(e), where=scale >= tiny) for e in entries
    )
    p = _abs2(a) + _abs2(c)
    r = _abs2(b) + _abs2(d)
    q = np.abs(a.conj() * b + c.conj() * d)
    norms = scale * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))
    subnormal = (scale > 0) & (scale < tiny)
    if subnormal.any():
        norms[subnormal] = plain_cell_block_norms(*(e[subnormal] * 2.0**54 for e in entries)) / 2.0**54
    return norms


@dataclass(frozen=True)
class DecayProfile:
    """Per-distance maxima of block norms with a fitted exponential rate.

    ``max_block_norm[r]`` = max over |x - y| = r of ||M_{x,y}||; ``rate`` is
    the least-squares slope of log max_block_norm over the fit window,
    using only values above the noise floor (NaN if fewer than two survive).
    """

    max_block_norm: np.ndarray
    rate: float
    fit_window: tuple[int, int]


def decay_profile(
    M: np.ndarray,
    geom: ChainGeometry,
    fit_window: tuple[int, int] | None = None,
) -> DecayProfile:
    """Distance-resolved maxima of ||M_{x,y}|| and their fitted log-slope."""
    norms = block_norms(_sublattice_blocks(np.asarray(M)), geom)
    P = norms.shape[0]
    x = np.arange(P)
    dist = np.abs(x[:, None] - x[None, :])
    maxima = np.zeros(P)
    np.maximum.at(maxima, dist, norms)
    if fit_window is None:
        fit_window = (1, P - 1)
    lo, hi = fit_window
    if not (0 <= lo <= hi < P):
        raise ValueError(f"fit window {fit_window} outside available distances [0, {P - 1}]")
    r = np.arange(lo, hi + 1)
    m = maxima[lo : hi + 1]
    keep = m > NOISE_FLOOR
    if keep.sum() >= 2:
        rate = float(np.polyfit(r[keep], np.log(m[keep]), 1)[0])
    else:
        rate = float("nan")
    return DecayProfile(maxima, rate, (int(lo), int(hi)))


def restriction_discrepancy(
    profile: CouplingProfile,
    pad: int,
    cells: tuple[int, int],
    kind: Callable[[ChiralHamiltonian, float], np.ndarray],
    delta: float,
) -> float:
    """||chi_Omega (f(H) - f(restricted bulk))|| for f = ``kind``(H, delta).

    ``kind`` is ``gap_filter`` or ``flattened_sign`` above.  The
    infinite bulk is emulated by the periodic extension of the profile,
    padded by ``pad`` cells on each side, then truncated back to the window.
    ``cells`` = (start, stop) selects the rows Omega.  Exponentially small in
    the distance between Omega and the edges once pad >= L.
    """
    length = profile.length
    if pad < length:
        raise ValueError(f"pad must be at least the chain length, got pad={pad} < L={length}")
    start, stop = cells
    if not 0 <= start < stop <= length:
        raise ValueError(f"cell range {cells} outside [0, {length})")
    delta = _as_positive("delta", delta)

    geom = make_geometry(length, Convention.CELL_C2)
    H_open = build_ssh(geom, profile)
    padded_geom = make_geometry(length + 2 * pad, Convention.CELL_C2)
    # Rolled by pad, so that the window's cells get the couplings of cells 0..L-1 of the profile.
    rolled = CouplingProfile(
        np.roll(profile.t1, pad), np.roll(profile.t2, pad),
        tuple(ExtraCoupling(blk.offset, np.roll(blk.a, pad), np.roll(blk.b, pad)) for blk in profile.extra),
    )
    H_pad = build_ssh(padded_geom, rolled.tiled(length + 2 * pad))

    F_open = kind(H_open, delta)
    window = slice(2 * pad, 2 * (pad + length))
    F_bulk = kind(H_pad, delta)[window, window]

    row_mask = np.repeat((np.arange(length) >= start) & (np.arange(length) < stop), 2)
    masked = (F_open - F_bulk) * row_mask[:, None]
    return float(np.linalg.norm(masked, 2))
