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

from .hamiltonian import ChiralHamiltonian, CouplingProfile, build_ssh
from .lattice import (
    Convention,
    SwitchFunction,
    check_switch_compatible,
    chiral_polarization,
    make_geometry,
    switch_function,
)
from .spectral import _sech_sq, eigh, matrix_function

# Residual above which a supposedly real trace is rejected.
IMAG_TOL = 1e-12

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


def _real_trace(values: np.ndarray, what: str) -> np.ndarray:
    if np.iscomplexobj(values):
        worst = float(np.abs(values.imag).max()) if values.size else 0.0
        if worst > IMAG_TOL:
            raise ValueError(f"{what} has imaginary part {worst:.3e} above {IMAG_TOL:.0e}")
        return values.real
    return values


def _index_diagonals(
    H: ChiralHamiltonian, delta: float, switch: SwitchFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Per-basis diagonals of C theta (1-S^2) and (1/2) C S [theta, S]."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    geom = H.geometry
    check_switch_compatible(geom, switch)
    signs = geom.sublattice_signs
    theta = switch.basis_values()
    spec = eigh(H)
    w, V = spec.eigenvalues, spec.eigenvectors
    # Edge side only needs diag(1 - S^2).
    gap_diag = (np.abs(V) ** 2) @ _sech_sq(w / delta)
    edge_diag = signs * theta * gap_diag
    S = matrix_function(spec, lambda e: np.tanh(e / delta))
    comm = theta[:, None] * S - S * theta[None, :]
    bulk_diag = 0.5 * signs * _real_trace(np.einsum("ij,ji->i", S, comm), "bulk index")
    return _real_trace(edge_diag, "edge index"), bulk_diag


def edge_index(H: ChiralHamiltonian, delta: float, switch: SwitchFunction) -> float:
    """Tr(C theta(X) (1 - S^2)): chiral density of low-energy states left of the switch."""
    edge_diag, _ = _index_diagonals(H, delta, switch)
    return float(edge_diag.sum())


def bulk_index(H: ChiralHamiltonian, delta: float, switch: SwitchFunction) -> float:
    """(1/2) Tr(C S [theta(X), S]): the finite-size analogue of the winding number."""
    _, bulk_diag = _index_diagonals(H, delta, switch)
    return float(bulk_diag.sum())


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
        delta = float(delta_policy)
        if delta <= 0:
            raise ValueError(f"delta must be > 0, got {delta}")
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
    geom = H.geometry
    if geom.convention is Convention.CELL_C2:
        return diag.reshape(geom.length, 2).sum(axis=1)
    return diag.copy()


def windowed_edge_index(
    profile: CouplingProfile, delta: float, window: int
) -> float:
    """Edge index of the chain truncated to its first ``window`` cells.

    Rebuilds the Hamiltonian on the truncated geometry (open boundary at the
    cut) with the switch jumping at window // 2.  Because the index is
    carried by the left edge region, the truncation error decays
    exponentially in the window size.
    """
    if window < 4:
        raise ValueError(f"window must be at least 4 cells, got {window}")
    truncated = profile.truncate(window)
    geom = make_geometry(window, Convention.CELL_C2)
    H = build_ssh(geom, truncated)
    return edge_index(H, delta, switch_function(geom, window // 2))
