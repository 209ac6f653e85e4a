"""Numerical certificates for the locality estimates behind the indices.

Each check compares measured block norms against a proven envelope and
reports the margin honestly: a certificate that fails is reported failing.
The big-O style statements are certified as "a polynomially bounded constant
exists", with caller-configurable thresholds (default 10 L^2).

Floating point caveat, documented rather than hidden: the propagator bound
is an exact-arithmetic theorem, so at position pairs where the envelope
drops below the eigensolver's rounding noise (~1e-16) the comparison uses a
noise floor (default dim * machine epsilon).  The floor is recorded in the
certificate.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ChiralHamiltonian, CouplingProfile, block_norms, build_ssh
from .lattice import ChainGeometry, Convention, SwitchFunction, check_switch_compatible, make_geometry
from .spectral import ChiralSpectrum, _as_delta, _ratio, _sech_sq, chiral_blocks, eigh, gap_filter, propagator

# m(r) below this is treated as numerically zero when fitting decay rates.
NOISE_FLOOR = 1e-14

BOUND_CSV_HEADER = ["bound_name", "L", "delta", "margin", "gamma_star", "pass"]


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


@dataclass(frozen=True)
class BoundCertificate:
    """Outcome of one bound check: passes iff margin >= 0."""

    bound_name: str
    lhs: np.ndarray
    rhs: np.ndarray
    margin: float
    passed: bool
    gamma_star: float | None = None
    threshold: float | None = None
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
    delta = _as_delta(delta)
    return decay_length * max(1.0, 4.0 * coupling_norm / (math.pi * delta))


def _distances(count: int) -> np.ndarray:
    x = np.arange(count)
    return np.abs(x[:, None] - x[None, :])


def decay_profile(
    M: np.ndarray,
    geom: ChainGeometry,
    fit_window: tuple[int, int] | None = None,
) -> DecayProfile:
    """Distance-resolved maxima of ||M_{x,y}|| and their fitted log-slope."""
    norms = block_norms(np.asarray(M), geom)
    P = norms.shape[0]
    dist = _distances(P)
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


def lieb_robinson_check(
    H: ChiralHamiltonian,
    t: float,
    decay_length: float,
    coupling_norm: float,
    noise_floor: float | None = None,
) -> BoundCertificate:
    """Check ||exp(itH)_{x,y}|| <= 2 |t| K exp(|t| K - |x-y|/d) at all pairs |x-y| >= d.

    K must be the short-range constant measured at the same decay length d;
    the inequality is proven, so with a correct K a failure beyond the
    numerical floor signals an implementation bug.
    """
    geom = H.geometry
    if noise_floor is None:
        noise_floor = geom.total_dim * float(np.finfo(float).eps)
    U = propagator(H, t)
    lhs_all = block_norms(U, geom)
    dist = _distances(lhs_all.shape[0])
    mask = dist >= decay_length
    lhs = lhs_all[mask]
    with np.errstate(over="ignore"):
        rhs = (
            2.0 * abs(t) * coupling_norm
            * np.exp(abs(t) * coupling_norm - dist[mask] / decay_length)
        )
    if lhs.size == 0:
        return BoundCertificate(
            "lieb_robinson", lhs, rhs, float("inf"), True, noise_floor=noise_floor
        )
    margin = float((rhs - np.maximum(lhs - noise_floor, 0.0)).min())
    return BoundCertificate(
        "lieb_robinson", lhs, rhs, margin, margin >= 0.0, noise_floor=noise_floor
    )


def edge_filter_decay_check(
    H: ChiralHamiltonian,
    delta: float,
    half_gap: float,
    correlation_length: float,
    threshold: float | None = None,
) -> BoundCertificate:
    """Certify ||(1-S^2)_{x,y}|| <= gamma * (e^{-max(d_x,d_y)/(2 d')} + e^{-2 Delta/delta}).

    Reports gamma_star, the largest measured ratio against the envelope, and
    passes when it stays under the threshold (default 10 L^2, the polynomial
    allowance of the quantization statement).
    """
    geom = H.geometry
    L = geom.length
    if threshold is None:
        threshold = 10.0 * L * L
    G = gap_filter(H, delta)
    lhs = block_norms(G, geom)
    P = lhs.shape[0]
    x = np.arange(P)
    edge_dist = np.minimum(x, P - 1 - x)
    pair_dist = np.maximum(edge_dist[:, None], edge_dist[None, :])
    envelope = np.exp(-pair_dist / (2.0 * correlation_length)) + np.exp(
        -2.0 * half_gap / delta
    )
    envelope = np.maximum(envelope, 1e-300)
    gamma_star = float((lhs / envelope).max())
    margin = float(threshold - gamma_star)
    return BoundCertificate(
        "edge_filter_decay",
        lhs,
        threshold * envelope,
        margin,
        margin >= 0.0,
        gamma_star=gamma_star,
        threshold=float(threshold),
    )


def restriction_discrepancy(
    profile: CouplingProfile,
    length: int,
    pad: int,
    cells: tuple[int, int],
    kind: Callable[[ChiralHamiltonian, float], np.ndarray],
    delta: float,
) -> float:
    """||chi_Omega (f(H) - f(restricted bulk))|| for f = ``kind``(H, delta).

    ``kind`` is ``spectral.gap_filter`` or ``spectral.flattened_sign``.  The
    infinite bulk is emulated by the periodic extension of the profile,
    padded by ``pad`` cells on each side, then truncated back to the window.
    ``cells`` = (start, stop) selects the rows Omega.  Exponentially small in
    the distance between Omega and the edges once pad >= length.
    """
    if pad < length:
        raise ValueError(f"pad must be at least the chain length, got pad={pad} < L={length}")
    if length != profile.length:
        profile = profile.truncate(length)
    start, stop = cells
    if not 0 <= start < stop <= length:
        raise ValueError(f"cell range {cells} outside [0, {length})")
    delta = _as_delta(delta)

    geom = make_geometry(length, Convention.CELL_C2)
    H_open = build_ssh(geom, profile)
    padded_geom = make_geometry(length + 2 * pad, Convention.CELL_C2)
    H_pad = build_ssh(padded_geom, profile.tiled(length + 2 * pad, shift=pad))

    F_open = kind(H_open, delta)
    window = slice(2 * pad, 2 * (pad + length))
    F_bulk = kind(H_pad, delta)[window, window]

    row_mask = np.repeat((np.arange(length) >= start) & (np.arange(length) < stop), 2)
    masked = (F_open - F_bulk) * row_mask[:, None]
    return float(np.linalg.norm(masked, 2))


def _filter_blocks(spec: ChiralSpectrum, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The A-A and B-B blocks of 1 - S^2; its A-B blocks are zero."""
    G_A, G_B, _, _ = chiral_blocks(spec, lambda e: _sech_sq(_ratio(e, delta)))
    return G_A, G_B


def _trace_norm(M: np.ndarray) -> float:
    return float(np.linalg.svd(M, compute_uv=False).sum())


def anticommutator_trace_norms(
    H: ChiralHamiltonian, delta: float, switch: SwitchFunction
) -> tuple[float, float]:
    """Trace norms of {A, S} with A = (1/2) C {theta, 1-S^2}, and of [1-S^2, theta].

    Both are exponentially small in the chain size and in the gap-to-delta
    ratio; they control the deviation of the indices from an integer.
    Computed exactly from singular values of L x L blocks.  In sublattice
    order 1 - S^2 = diag(G_A, G_B) and S = [[0, X], [X^dag, 0]], so with
    P = (1/2) {theta_A, G_A} and Q = (1/2) {theta_B, G_B},
    {A, S} = [[0, Y], [Y^dag, 0]] for Y = P X - X Q, whose trace norm is
    2 ||Y||_1, and ||[1-S^2, theta]||_1 = ||[G_A, theta_A]||_1 + ||[G_B, theta_B]||_1.
    """
    geom = H.geometry
    check_switch_compatible(geom, switch)
    delta = _as_delta(delta)
    spec = eigh(H)
    G_A, G_B = _filter_blocks(spec, delta)
    X = chiral_blocks(spec, lambda e: np.tanh(_ratio(e, delta)))[2]
    theta = switch.basis_values()
    theta_a, theta_b = theta[spec.a], theta[spec.b]
    P = 0.5 * (theta_a[:, None] * G_A + G_A * theta_a[None, :])
    Q = 0.5 * (theta_b[:, None] * G_B + G_B * theta_b[None, :])
    norm_anti = 2.0 * _trace_norm(P @ X - X @ Q)
    norm_comm = sum(
        _trace_norm(G * t[None, :] - t[:, None] * G) for G, t in ((G_A, theta_a), (G_B, theta_b))
    )
    return norm_anti, norm_comm


def gap_filter_min_eigenvalue(H: ChiralHamiltonian, delta: float) -> float:
    """Smallest eigenvalue of 1 - S^2 (>= 0 in exact arithmetic), from its A-A and B-B blocks."""
    delta = _as_delta(delta)
    return min(float(np.linalg.eigvalsh(G).min()) for G in _filter_blocks(eigh(H), delta))

