"""Numerical certificates for the locality estimates behind the indices.

Each check reads a function of H only as its sublattice blocks: those of
an even function from ``spectral.even_blocks``, the A-B block of an odd one
from ``spectral.odd_block``.  One pair of 1 - S^2 blocks
(``gap_filter_blocks``) serves the edge filter and both trace norms.  The
propagator check makes the same products only on the band of diagonals it
reads (``_band_product``), and the positivity of 1 - S^2 is bounded from
the spectrum alone (``gap_filter_lower_bound``).  Each check compares
measured norms against a proven envelope and reports the margin honestly:
a certificate that fails is reported failing.  The big-O style statements
are certified as "a polynomially bounded constant exists": gamma_star, the
largest ratio of a norm to its envelope (floored at 1e-300), must stay
under 10 L^2, the polynomial allowance of the quantization statement.

Floating point caveat, documented rather than hidden: the propagator bound
is an exact-arithmetic theorem, so at position pairs where the envelope
drops below the eigensolver's rounding noise (~1e-16) the comparison uses a
noise floor, fixed at dim * machine epsilon.  The floor is recorded in the
certificate.  Past the band of its Chebyshev expansion the propagator is
not read at all: there the bound on each block is the expansion's proven
tail, at most 2^-20 of the floor, not a rounding-noise reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ChiralHamiltonian, _abs2, _adjoint_band, _as_positive, _position_band_norms
from .lattice import Convention, SwitchFunction
from .spectral import (
    BLOCK_ROWS, ChiralSpectrum, _checked_values, _ratio, _sech_sq, eigh, even_blocks, odd_block,
)

BOUND_CSV_HEADER = ["bound_name", "L", "delta", "margin", "gamma_star", "pass"]


@dataclass(frozen=True)
class BoundCertificate:
    """Outcome of one bound check: passes iff margin >= 0."""

    bound_name: str
    lhs: np.ndarray
    margin: float
    passed: bool
    gamma_star: float | None = None
    noise_floor: float | None = None

    def csv_row(self, length: int, delta: float | None) -> list:
        return [
            self.bound_name, length, delta, self.margin,
            self.gamma_star, self.passed,
        ]


def correlation_length(delta: float, decay_length: float, coupling_norm: float) -> float:
    """decay_length * max(1, 4 coupling_norm / (pi delta)).

    The length governing the off-diagonal decay of tanh(H / delta) for a
    Hamiltonian with short-range constant ``coupling_norm`` at ``decay_length``.
    """
    delta = _as_positive("delta", delta)
    decay_length = _as_positive("decay_length", decay_length)
    coupling_norm = _as_positive("coupling_norm", coupling_norm, zero_ok=True)
    return decay_length * max(1.0, 4.0 * coupling_norm / (math.pi * delta))


def _envelope_certificate(name: str, lhs: np.ndarray, envelope, length: int) -> BoundCertificate:
    """Passes when gamma_star = max(lhs / envelope) stays under 10 L^2."""
    gamma_star = float((lhs / np.maximum(envelope, 1e-300)).max())
    margin = float(10.0 * length * length - gamma_star)
    return BoundCertificate(name, lhs, margin, margin >= 0.0, gamma_star=gamma_star)


# The Chebyshev tail of the propagator is held this far below the noise floor.
_TAIL_FRACTION = 2.0**-20


def lieb_robinson_check(
    H: ChiralHamiltonian, t: float, decay_length: float, coupling_norm: float
) -> BoundCertificate:
    """Check ||exp(itH)_{x,y}|| <= 2 |t| K exp(|t| K - |x-y|/d) at all pairs |x-y| >= d.

    K must be the short-range constant measured at the same decay length d;
    the inequality is proven, so with a correct K a failure beyond the
    numerical floor signals an implementation bug.  The certificate is named
    ``lieb_robinson_t{t:g}``.

    Only pairs within the reach of ``_propagator_band`` are read.  Every
    farther block is bounded by the band's Chebyshev tail, so those pairs
    reduce to the farthest one, P - 1 positions apart, whose envelope is the
    smallest.  ``lhs`` holds the norms of the in-band pairs at distance
    >= d, one diagonal y - x = k after the other.

    The block norms of exp(itH) = cos(tH) + i sin(tH) are read from cos(tH),
    which is even (only A-A and B-B blocks), and sin(tH), which is odd (only
    A-B and B-A blocks).  Each 2x2 block of exp(itH) is
    [[a, ib], [ic, d]] = diag(1, i) [[a, b], [c, -d]] diag(1, i) with a, d
    from cos and b, c from sin, and the unitary diagonal factors keep the
    largest singular value of a cell block and every absolute entry.  So
    the norms are those of (C_AA, S_AB, S_BA, -C_BB): real matrices for a
    real T, from three products instead of four complex ones, each made only
    on the diagonals up to the reach (``_propagator_blocks``).
    """
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    t = float(t)
    decay_length = _as_positive("decay_length", decay_length)
    coupling_norm = _as_positive("coupling_norm", coupling_norm, zero_ok=True)
    noise_floor = H.geometry.total_dim * float(np.finfo(float).eps)
    last = H.geometry.length - 1
    reach, tail = _propagator_band(H, t, noise_floor)
    cells = H.geometry.convention is Convention.CELL_C2
    # A site diagonal 2m or 2m + 1 reads sublattice diagonals m and -(m + 1).
    half_width = reach if cells else (reach + 1) // 2
    norms = _position_band_norms(_propagator_blocks(eigh(H), t, half_width), H.geometry, reach)
    k, x = np.arange(-reach, reach + 1), np.arange(last + 1)
    checked = np.abs(k) >= decay_length
    # The in-band pairs at distance >= d, one diagonal y - x = k after the other, each in ascending x.
    lhs = norms[(x >= -k[:, None]) & (x <= last - k[:, None]) & checked[:, None]]
    # The largest norm on each in-band diagonal and, past the band, the tail at the farthest pair.
    far = reach < last and last >= decay_length
    dist = np.abs(np.append(k[checked], [last] if far else []))
    worst = np.append(norms.max(axis=1)[checked], [tail] if far else [])
    with np.errstate(over="ignore"):
        rhs = 2.0 * abs(t) * coupling_norm * np.exp(abs(t) * coupling_norm - dist / decay_length)
    # No pair at distance d or more leaves nothing to check: margin inf.
    margin = float((rhs - np.maximum(worst - noise_floor, 0.0)).min(initial=np.inf))
    return BoundCertificate(
        f"lieb_robinson_t{t:g}", lhs, margin, margin >= 0.0, noise_floor=noise_floor
    )


def _propagator_band(H: ChiralHamiltonian, t: float, noise_floor: float) -> tuple[int, float]:
    """(reach, tail): exp(itH) is within ``tail`` of a polynomial in H that is zero past ``reach``.

    exp(itH) = J_0(x) + 2 sum_{n>=1} i^n J_n(x) T_n(H / a) with x = |t| a
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), where a, the
    larger of the largest row and column sums of |T|, bounds ||H||.  As
    ||T_n(H / a)|| <= 1, every block of the terms past degree N is at most
    2 sum_{n>N} |J_n(x)| <= ``exp(_chebyshev_log_tail(x, N))``.  H couples
    basis vectors at most w = 2 r + 1 apart, r the half width of T's band, so
    the first N terms are zero past basis distance N w: past
    (N w + 1) // 2 cells or N w sites, the reach.  N is the smallest degree
    whose tail is at most _TAIL_FRACTION * noise_floor, so the tail never
    moves a margin; rounding in the row sums moves a by a few ulp, far
    inside that fraction.  Once the reach covers the chain, as it does for
    a non-finite x, every pair is read: (P - 1, 0.0).
    """
    # A sum that overflows makes x infinite: then every pair is read.
    with np.errstate(over="ignore"):
        # Both sums run in ascending k: T[j - k, j] sits in row h - k of T^dag's band, read bottom up.
        rows = np.abs(H.band).sum(axis=0)
        cols = np.abs(_adjoint_band(H.band, H.shape[1]))[::-1].sum(axis=0)
    x = abs(t) * float(max(rows.max(), cols.max()))
    width = H.band.shape[0]
    cells = H.geometry.convention is Convention.CELL_C2
    last = H.geometry.length - 1
    log_target = math.log(_TAIL_FRACTION * noise_floor)
    degree = 0
    while (reach := (degree * width + 1) // 2 if cells else degree * width) < last:
        if degree + 2 > x / 2 and (log_tail := _chebyshev_log_tail(x, degree)) <= log_target:
            return reach, math.exp(log_tail)
        degree += 1
    return last, 0.0


def _chebyshev_log_tail(x: float, degree: int) -> float:
    """log of 2 (x/2)^(N+1) / (N+1)! / (1 - x / (2 (N+2))) >= log(2 sum_{n>N} |J_n(x)|), N = degree.

    |J_n(x)| <= (x/2)^n / n! (Abramowitz & Stegun 9.1.62), and past n = N + 1
    those bounds fall by at least x / (2 (N + 2)) < 1 per step, a geometric
    series.  Taken in log space, so that no x overflows, and raised by a
    relative 2^-30 that covers its own rounding; -inf at x = 0.
    """
    if x == 0.0:
        return -math.inf
    return (
        math.log(2.0) + (degree + 1) * (math.log(x) - math.log(2.0)) - math.lgamma(degree + 2)
        - math.log1p(-x / (2.0 * (degree + 2))) + 2.0**-30
    )


def _propagator_blocks(spec: ChiralSpectrum, t: float, half_width: int) -> tuple[np.ndarray, ...]:
    """The bands of (C_AA, S_AB, S_BA, -C_BB) of exp(itH), of half width ``half_width``.

    Each entry is made as ``even_blocks`` and ``odd_block`` make it: C_AA
    and C_BB are the Hermitian parts of U cos(t Sigma) U^dag and
    W cos(t Sigma) W^dag (cos(0) on the zero modes), halved before they are
    added, S_AB is U sin(t Sigma) W^dag and S_BA its conjugate transpose;
    only their bands are computed.
    """
    U, W, k = spec.U, spec.W, spec.sigma.size
    cos = _checked_values(lambda w: np.cos(t * w), spec.column_sigma(max(U.shape[1], W.shape[1])))
    S = _band_product(U[:, :k], _checked_values(lambda w: np.sin(t * w), spec.sigma), W[:, :k], half_width)
    S_BA = _adjoint_band(S, W.shape[0])
    # Each Hermitian part is formed as soon as its product is made, so one padded band at a time is live.
    C_A, C_B = (_hermitian_band(_band_product(X, cos[: X.shape[1]], X, half_width)) for X in (U, W))
    return C_A, S, S_BA, np.negative(C_B, out=C_B)


def _hermitian_band(band: np.ndarray) -> np.ndarray:
    """The band of M / 2 + M^dag / 2 from that of a square M, in place, as ``spectral._hermitian_part`` adds them."""
    np.divide(band, 2.0, out=band)
    band += _adjoint_band(band, band.shape[1])
    return band


# Rows of X per product of ``_band_product``: each reaches the columns of the
# band beside it, so work falls with the rows until the calls' overhead rises.
_BAND_ROWS = 64


def _band_product(X: np.ndarray, d: np.ndarray, Y: np.ndarray, half_width: int) -> np.ndarray:
    """Diagonals -h..h of M = X diag(d) Y^dag, h = half_width: ``band[h + k, i] = M[i, i + k]``.

    M is made _BAND_ROWS rows at a time, each row block against only the
    rows of Y its band reaches, in one reused buffer: every entry is the dot
    product of the full product, and no array of M's size is formed.  Entries
    of ``band`` that fall outside M are zero, and so is all of it for a zero
    d, as ``spectral`` skips that product.
    """
    m, n, h = X.shape[0], Y.shape[0], half_width
    dtype = np.result_type(X, d, Y)
    band = np.empty((2 * h + 1, m), dtype)
    if not np.any(d):
        band.fill(0.0)
        return band
    rows = min(m, _BAND_ROWS)
    scaled = np.empty_like(X[:rows], dtype)  # X's layout, so BLAS is called as for X * d
    block = np.empty((rows, rows + 2 * h), dtype)  # column c holds M's column i - h + c
    strides = (block.strides[0] + block.strides[1], block.strides[1])
    for i in range(0, m, rows):
        r = min(rows, m - i)
        lo, hi = max(0, i - h), min(n, i + r + h)
        np.multiply(X[i : i + r], d, out=scaled[:r])
        np.matmul(scaled[:r], Y[lo:hi].conj().T, out=block[:r, lo - i + h : hi - i + h])
        block[:r, : lo - i + h] = block[:r, hi - i + h :] = 0.0  # M's columns before 0 and from n
        # Row p of the block holds diagonal k of M at column p + h + k: a view one column further per row.
        band[:, i : i + r] = np.ndarray((r, 2 * h + 1), dtype, block, strides=strides).T
    return band


def edge_filter_decay_check(
    H: ChiralHamiltonian, delta: float, half_gap: float, correlation_length: float,
    filter_blocks: tuple[np.ndarray, np.ndarray],
) -> BoundCertificate:
    """Certify ||(1-S^2)_{x,y}|| <= gamma * (e^{-max(d_x,d_y)/(2 d')} + e^{-2 Delta/delta}).

    Reports gamma_star, the largest measured ratio against the envelope, and
    passes when it stays under 10 L^2.  ``filter_blocks`` is
    ``gap_filter_blocks(H, delta)``.  1 - S^2 is even in H, so its A-B and
    B-A blocks are zero, and under CELL_C2 the norm of each cell block
    [[a, 0], [0, d]] is max(|a|, |d|) exactly.

    An overstated half gap is caught only where the edge term
    e^{-L / (4 d')} at mid-chain falls below the sech^2 norms there by more
    than 10 L^2.  At the correlation length the CLI derives that takes long
    chains: for the SSH chain t1 = 0.5, t2 = 1 at delta = 0.1 and decay
    length 1, d' is 75.6 cells, and chains of 30, 60 and up to 3000 cells
    pass with half gap 5 just as with the true 0.5 (gamma_star 0.75 in
    both, set at the edges).
    """
    delta = _as_positive("delta", delta)
    half_gap = _as_positive("half_gap", half_gap, zero_ok=True)
    correlation_length = _as_positive("correlation_length", correlation_length)
    geom = H.geometry
    G_A, G_B = filter_blocks
    if geom.convention is Convention.CELL_C2:
        lhs = np.abs(G_A)
        np.maximum(lhs, np.abs(G_B), out=lhs)
    else:  # the absolute entries, A on the even and B on the odd sites
        lhs = np.zeros((geom.total_dim, geom.total_dim))
        np.abs(G_A, out=lhs[0::2, 0::2])
        np.abs(G_B, out=lhs[1::2, 1::2])
    P = lhs.shape[0]
    x = np.arange(P)
    edge_dist = np.minimum(x, P - 1 - x)
    # exp is monotone, so e^{-max(d_x, d_y)/(2 d')} is the smaller of the two per-position values.
    decay = np.exp(-edge_dist / (2.0 * correlation_length))
    envelope = np.minimum.outer(decay, decay) + np.exp(-2.0 * half_gap / delta)
    return _envelope_certificate("edge_filter_decay", lhs, envelope, geom.length)


def _trace_norm(M: np.ndarray) -> float:
    return float(np.linalg.svd(M, compute_uv=False).sum())


def anticommutator_trace_norms(
    H: ChiralHamiltonian, delta: float, switch: SwitchFunction, filter_blocks: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float]:
    """Trace norms of {A, S} with A = (1/2) C {theta, 1-S^2}, and of [1-S^2, theta].

    Both are exponentially small in the chain size and in the gap-to-delta
    ratio; they control the deviation of the indices from an integer.
    Computed exactly from singular values of L x L blocks.  In sublattice
    order 1 - S^2 = diag(G_A, G_B), given as ``filter_blocks`` =
    ``gap_filter_blocks(H, delta)``, and S = [[0, X], [X^dag, 0]], so with
    P = (1/2) {theta_A, G_A} and Q = (1/2) {theta_B, G_B},
    {A, S} = [[0, Y], [Y^dag, 0]] for Y = P X - X Q, whose trace norm is
    2 ||Y||_1, and ||[1-S^2, theta]||_1 = ||[G_A, theta_A]||_1 + ||[G_B, theta_B]||_1.
    """
    steps = switch.split(H.geometry)
    delta = _as_positive("delta", delta)
    X = odd_block(eigh(H), lambda e: np.tanh(_ratio(e, delta)))
    P, Q = (_step_anticommutator(G, p) for G, p in zip(filter_blocks, steps))
    norm_anti = 2.0 * _trace_norm(P @ X - X @ Q)
    norm_comm = sum(_step_commutator_trace_norm(G, p) for G, p in zip(filter_blocks, steps))
    return norm_anti, norm_comm


def _step_anticommutator(G: np.ndarray, p: int) -> np.ndarray:
    """(1/2) {theta, G} for a step theta, 1 on the first p entries and 0 after.

    Entry (i, j) is (theta_i + theta_j) G_ij / 2: G itself where both are 1,
    half of it where one is, and zero where neither is.
    """
    P = G.copy()
    P[p:, p:] = 0.0
    P[:p, p:] *= 0.5
    P[p:, :p] *= 0.5
    return P


def _step_commutator_trace_norm(G: np.ndarray, p: int) -> float:
    """||[G, theta]||_1 for a Hermitian G and a step theta: 1 on the first p entries, 0 after.

    [G, theta] = [[0, -G[:p, p:]], [G[p:, :p], 0]] with G[p:, :p] = G[:p, p:]^dag,
    so its singular values are those of the p x (n - p) block, twice.
    """
    return 2.0 * _trace_norm(G[:p, p:])


def trace_norm_checks(
    H: ChiralHamiltonian, delta: float, switch: SwitchFunction,
    half_gap: float, correlation_length: float, filter_blocks: tuple[np.ndarray, np.ndarray],
) -> tuple[BoundCertificate, BoundCertificate]:
    """Certify both ``anticommutator_trace_norms`` against e^{-2 Delta/delta} + e^{-L/(48 d')}."""
    half_gap = _as_positive("half_gap", half_gap, zero_ok=True)
    correlation_length = _as_positive("correlation_length", correlation_length)
    norms = anticommutator_trace_norms(H, delta, switch, filter_blocks)  # checks delta and the switch
    L = H.geometry.length
    envelope = float(np.exp(-2.0 * half_gap / delta) + np.exp(-L / (48.0 * correlation_length)))
    names = ("anticommutator_trace_norm", "filter_switch_commutator_trace_norm")
    return tuple(
        _envelope_certificate(name, np.asarray(norm), envelope, L) for name, norm in zip(names, norms)
    )


def gap_filter_blocks(H: ChiralHamiltonian, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(G_A, G_B): the A-A and B-B blocks of 1 - S^2 = sech^2(H / delta), its only nonzero ones."""
    delta = _as_positive("delta", delta)
    return even_blocks(eigh(H), lambda e: _sech_sq(_ratio(e, delta)))


def gap_filter_lower_bound(H: ChiralHamiltonian, delta: float) -> float:
    """A lower bound of the smallest eigenvalue of 1 - S^2, read from the spectrum of H.

    1 - S^2 = diag(G_A, G_B) with G_A = U g U^dag, where g = sech^2(sigma / delta)
    on U's columns (1 on its zero modes), and G_B = W g W^dag.  Write
    U^dag U = I + E.  G_A = B B^dag with B = U g^{1/2}, so it has the
    eigenvalues of B^dag B = g + g^{1/2} E g^{1/2}, and by Weyl's inequality
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 6.3)
    the smallest is at least min g - ||g^{1/2} E g^{1/2}||_F; the same holds
    for W.  The smaller of the two bounds is returned: >= 0 up to rounding
    for orthonormal factors.  Where the dense G_A is PSD for any U, the
    bound also reads a factor's defect on the columns where g is not small.
    No L x L function of H is formed and no eigensolver runs.
    """
    delta = _as_positive("delta", delta)
    spec = eigh(H)
    g = _sech_sq(_ratio(spec.column_sigma(max(spec.U.shape[1], spec.W.shape[1])), delta))
    return min(
        float(g[: X.shape[1]].min()) - _weighted_orthogonality_defect(X, g[: X.shape[1]])
        for X in (spec.U, spec.W)
    )


def _weighted_orthogonality_defect(X: np.ndarray, g: np.ndarray) -> float:
    """||g^{1/2} (X^dag X - I) g^{1/2}||_F for a square X and weights g >= 0.

    X^dag X is Hermitian, so it is made BLOCK_ROWS rows at a time, each row
    block only from the column of its first row on: the block's square on the
    diagonal counts once and the entries right of it twice, for their mirror
    images below.  No second n x n array is live.
    """
    n, total = X.shape[1], 0.0
    for i in range(0, n, BLOCK_ROWS):
        b = min(BLOCK_ROWS, n - i)
        E = X[:, i : i + b].conj().T @ X[:, i:]
        E[np.arange(b), np.arange(b)] -= 1.0
        w = _abs2(E)
        total += float(g[i : i + b] @ (w[:, :b] @ g[i : i + b] + 2.0 * (w[:, b:] @ g[i + b :])))
    return math.sqrt(total)
