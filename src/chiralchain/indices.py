"""Finite-size bulk and edge indices for open chiral chains.

The edge index is Tr(C theta(X) (1 - S^2)) and the bulk index is
(1/2) Tr(C S [theta(X), S]) with S = tanh(H / delta).  They obey an exact
finite-size correspondence,

    edge_index - bulk_index = Tr(C theta(X)),

which is plain algebra, so the residual must vanish to machine precision for
every chiral Hamiltonian, every delta and every step switch.  Under the
cell convention Tr(C theta) is identically zero; with parity-encoded
sublattices it is the integer A/B imbalance over the switch support.

Both indices drift exponentially close to the same integer as the chain
grows, provided delta is chosen between the edge-mode splitting and the bulk
gap.  ``DeltaPolicy`` packages the two shipped choices plus manual override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hamiltonian import ChiralHamiltonian, CouplingProfile, _abs2, _as_positive, build_ssh
from .lattice import SwitchFunction, chiral_polarization, make_geometry, switch_function
from .spectral import BLOCK_ROWS, _ratio, _sech_sq, eigh

INDEX_CSV_HEADER = [
    "L", "seed", "delta", "ell",
    "I_bulk", "I_edge", "imbalance", "residual", "nearest_int", "q_error",
]


class IndexKind(Enum):
    BULK = "bulk"
    EDGE = "edge"


class DeltaMode(Enum):
    THEOREM = "theorem"
    EMPIRICAL = "empirical"
    MANUAL = "manual"


@dataclass(frozen=True)
class DeltaPolicy:
    """How to pick the smoothing scale delta.

    THEOREM: sqrt(128 * half_gap * decay_length * coupling_norm / L), the
    conservative choice from the quantization bound (at small L it can land
    above the gap).  EMPIRICAL: 1 / sqrt(2 L), which mirrors how the indices
    behave in practice and is the default in the experiment runner.
    MANUAL: an explicit positive value.  ``decay_length`` is also the decay
    length of the bound certificates, so it is set in every mode.
    """

    mode: DeltaMode = DeltaMode.EMPIRICAL
    value: float | None = None
    half_gap: float | None = None
    decay_length: float = 1.0
    coupling_norm: float | None = None

    @classmethod
    def manual(cls, value: float) -> "DeltaPolicy":
        return cls(DeltaMode.MANUAL, value=value)

    @classmethod
    def empirical(cls) -> "DeltaPolicy":
        return cls(DeltaMode.EMPIRICAL)

    @classmethod
    def theorem(
        cls, half_gap: float, decay_length: float, coupling_norm: float
    ) -> "DeltaPolicy":
        return cls(
            DeltaMode.THEOREM,
            half_gap=half_gap,
            decay_length=decay_length,
            coupling_norm=coupling_norm,
        )


def resolve_delta(policy: DeltaPolicy, length: int | None = None) -> float:
    """Concrete delta for a policy on a chain of ``length`` cells (or sites)."""
    if policy.mode is DeltaMode.MANUAL:
        if policy.value is None or not math.isfinite(policy.value) or policy.value <= 0:
            raise ValueError(f"manual delta value must be finite and > 0, got {policy.value}")
        return float(policy.value)
    if length is None or length <= 0:
        raise ValueError(f"delta policy {policy.mode.value} needs a positive length")
    if policy.mode is DeltaMode.EMPIRICAL:
        return 1.0 / math.sqrt(2.0 * length)
    for name in ("half_gap", "decay_length", "coupling_norm"):
        v = getattr(policy, name)
        if v is None or not math.isfinite(v) or v <= 0:
            raise ValueError(f"theorem delta policy needs finite positive {name}, got {v}")
    return math.sqrt(
        128.0 * policy.half_gap * policy.decay_length * policy.coupling_norm / length
    )


@dataclass(frozen=True)
class IndexReport:
    """Both indices at one (H, delta, switch) point plus derived diagnostics.

    ``correspondence_residual`` is |edge - bulk - imbalance| and must sit at
    machine precision.  ``nearest_integer`` rounds half away from zero; a
    report with quantization_error exactly 0.5 classifies no phase.
    """

    bulk_index: float
    edge_index: float
    imbalance: int
    correspondence_residual: float
    nearest_integer: int
    quantization_error: float
    delta: float
    transition: int
    length: int

    def csv_row(self, seed: int | None = None) -> list:
        return [
            self.length, seed, self.delta, self.transition,
            self.bulk_index, self.edge_index, self.imbalance,
            self.correspondence_residual, self.nearest_integer,
            self.quantization_error,
        ]


def _index_diagonals(
    H: ChiralHamiltonian, delta: float, switch: SwitchFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Per-basis diagonals of C theta (1-S^2) and (1/2) C S [theta, S].

    With T = U Sigma W^dag, 1 - S^2 = diag(U g U^dag, W g W^dag) for
    g = sech^2(Sigma / delta) (1 on zero modes), and S = [[0, X], [X^dag, 0]]
    for X = U tanh(Sigma / delta) W^dag, so
    (S [theta, S])_ii = sum_j |X_ij|^2 (theta_j - theta_i) over the other
    sublattice: only pairs that straddle the switch contribute.  theta is 1
    on the first p_A A and p_B B states, so the edge diagonal reads only
    those rows of U and W, and the bulk diagonal only the two quadrants
    X[:p_A, p_B:] and X[p_A:, :p_B].
    """
    delta = _as_positive("delta", delta)
    geom = H.geometry
    p_a, p_b = switch.split(geom)
    spec = eigh(H)
    U, W, k = spec.U, spec.W, spec.sigma.size
    n_a, n_b = U.shape[0], W.shape[0]
    x = _ratio(spec.column_sigma(max(n_a, n_b)), delta)
    g, t, Wk = _sech_sq(x), np.tanh(x[:k]), W[:, :k].conj()
    edge_diag, bulk_diag = np.zeros(geom.total_dim), np.empty(geom.total_dim)
    # Views of the A (even) and B (odd) basis vectors.
    edge_a, edge_b, bulk_a, bulk_b = edge_diag[0::2], edge_diag[1::2], bulk_diag[0::2], bulk_diag[1::2]
    edge_a[:p_a] = _abs2(U[:p_a]) @ g[:n_a]
    edge_b[:p_b] = -(_abs2(W[:p_b]) @ g[:n_b])
    inside_rows, inside_cols = _quadrant_sums(U[:p_a, :k], t, Wk[p_b:])  # |X[:p_A, p_B:]|^2
    outside_rows, outside_cols = _quadrant_sums(U[p_a:, :k], t, Wk[:p_b])  # |X[p_A:, :p_B]|^2
    bulk_a[:p_a], bulk_a[p_a:] = -0.5 * inside_rows, 0.5 * outside_rows
    bulk_b[:p_b], bulk_b[p_b:] = 0.5 * outside_cols, -0.5 * inside_cols
    return edge_diag, bulk_diag


def _quadrant_sums(U: np.ndarray, t: np.ndarray, Wk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of |X|^2 for X = (U * t) @ Wk.T, BLOCK_ROWS rows of X at a time.

    A block is squared in place when real.  Up to BLOCK_ROWS rows this is
    the whole product, bit for bit.  Past that the sums can move by an ulp
    or so: BLAS may round a block's entries differently from the whole
    product's, and the column sums are added block by block, in another
    order than one sum over all rows.
    """
    rows, cols = np.empty(U.shape[0]), np.zeros(Wk.shape[0])
    for i in range(0, U.shape[0], BLOCK_ROWS):
        X = (U[i : i + BLOCK_ROWS] * t) @ Wk.T
        X2 = np.multiply(X, X, out=X) if X.dtype == np.float64 else _abs2(X)
        rows[i : i + BLOCK_ROWS] = X2.sum(axis=1)
        cols += X2.sum(axis=0)
    return rows, cols


def _nearest_integer(value: float) -> int:
    # Round half away from zero, deterministically.
    return int(math.copysign(math.floor(abs(value) + 0.5), value))


def index_report(
    H: ChiralHamiltonian,
    delta_policy: DeltaPolicy | float,
    transition: int | str = "middle",
) -> IndexReport:
    """Evaluate both indices, the correspondence residual and the quantization error."""
    geom = H.geometry
    if isinstance(delta_policy, DeltaPolicy):
        delta = resolve_delta(delta_policy, geom.length)
    else:
        delta = _as_positive("delta", delta_policy)
    switch = switch_function(geom, transition)
    edge_diag, bulk_diag = _index_diagonals(H, delta, switch)
    edge = float(edge_diag.sum())
    bulk = float(bulk_diag.sum())
    imbalance = chiral_polarization(geom, switch)
    nearest = _nearest_integer(edge)
    return IndexReport(
        bulk_index=bulk,
        edge_index=edge,
        imbalance=imbalance,
        correspondence_residual=abs(edge - bulk - imbalance),
        nearest_integer=nearest,
        quantization_error=abs(edge - nearest),
        delta=delta,
        transition=switch.transition,
        length=geom.length,
    )


def index_density(
    H: ChiralHamiltonian, delta: float, switch: SwitchFunction, kind: IndexKind
) -> np.ndarray:
    """Per-cell (or per-site) diagonal contributions; sums to the matching index."""
    edge_diag, bulk_diag = _index_diagonals(H, delta, switch)
    diag = edge_diag if kind is IndexKind.EDGE else bulk_diag
    return np.bincount(H.geometry.positions, weights=diag)


def windowed_edge_index(
    profile: CouplingProfile, delta: float, window: int
) -> float:
    """Edge index of the chain truncated to its first ``window`` cells.

    Rebuilds the Hamiltonian on the truncated geometry (open boundary at the
    cut) with the switch jumping at window // 2.  The truncation error
    decays exponentially in the window size only when the profile is
    uniform beyond the window; a profile that varies across the bulk (such
    as a wide defect) leaves an error that no window size removes.
    """
    if window < 4:
        raise ValueError(f"window must be at least 4 cells, got {window}")
    H = build_ssh(make_geometry(window), profile.truncate(window))
    return index_report(H, delta, window // 2).edge_index
