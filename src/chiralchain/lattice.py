"""Chain geometry, switch functions and sublattice bookkeeping.

Two basis conventions are supported.  Under ``CELL_C2`` the chain has L unit
cells with two internal states (A, B) per cell and the basis is ordered
cell-major: ``(0,A), (0,B), (1,A), (1,B), ...``.  Under ``ALTERNATING_SITES``
the chain has L single-state sites and the sublattice is encoded in the site
parity, A on even sites.  Both conventions are fixed so that matrix dumps are
bit-comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class GeometryError(ValueError):
    """Raised for an unusable chain geometry."""


class SwitchError(ValueError):
    """Raised for an out-of-range or incompatible switch function."""


class Convention(Enum):
    CELL_C2 = "cell"
    ALTERNATING_SITES = "sites"


@dataclass(frozen=True)
class ChainGeometry:
    """A finite open chain.

    ``length`` counts unit cells under CELL_C2 (total dimension 2L) and
    sites under ALTERNATING_SITES (total dimension L).
    """

    length: int
    convention: Convention = Convention.CELL_C2

    @property
    def total_dim(self) -> int:
        if self.convention is Convention.CELL_C2:
            return 2 * self.length
        return self.length

    @property
    def cells(self) -> int:
        """Cells of the coupling profile; L sites are the first L states of (L + 1) // 2 cells."""
        return (self.total_dim + 1) // 2

    @property
    def positions(self) -> np.ndarray:
        """Cell/site coordinate of each basis vector."""
        if self.convention is Convention.CELL_C2:
            return np.repeat(np.arange(self.length), 2)
        return np.arange(self.length)

    @property
    def sublattice_signs(self) -> np.ndarray:
        """+1 on A (even basis vectors), -1 on B (odd ones): the diagonal of the chiral operator C."""
        return np.where(np.arange(self.total_dim) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class SwitchFunction:
    """Step profile on cell/site coordinates: 1 below ``transition``, 0 from it on."""

    values: np.ndarray
    transition: int
    geometry: ChainGeometry

    def basis_values(self) -> np.ndarray:
        """Expand the per-position profile to one value per basis vector."""
        return self.values[self.geometry.positions]


def make_geometry(length: int, convention: Convention = Convention.CELL_C2) -> ChainGeometry:
    if not isinstance(length, (int, np.integer)) or isinstance(length, bool):
        raise GeometryError(f"chain length must be an integer, got {length!r}")
    if length < 2:
        raise GeometryError(f"chain length must be at least 2, got {length}")
    return ChainGeometry(int(length), convention)


def switch_function(geom: ChainGeometry, transition: int | str = "middle") -> SwitchFunction:
    """Step function that is 1 left of ``transition`` and 0 from it onwards.

    ``transition`` may be the sentinel ``"middle"`` (floor(L/2)) or an integer
    strictly inside the chain, 0 < transition < L.
    """
    L = geom.length
    if transition == "middle":
        transition = L // 2
    if not isinstance(transition, (int, np.integer)) or isinstance(transition, bool):
        raise SwitchError(f"switch transition must be an integer or 'middle', got {transition!r}")
    ell = int(transition)
    if not 0 < ell < L:
        raise SwitchError(f"switch transition must satisfy 0 < transition < {L}, got {ell}")
    values = np.where(np.arange(L) < ell, 1.0, 0.0)
    return SwitchFunction(values, ell, geom)


def check_switch_compatible(geom: ChainGeometry, switch: SwitchFunction) -> None:
    if switch.geometry != geom or switch.values.shape != (geom.length,):
        raise SwitchError("switch function was built for a different geometry")


def step_length(theta: np.ndarray) -> int:
    """p for a step theta, 1 on its first p entries and 0 after; any other theta is a SwitchError."""
    p = int(np.count_nonzero(theta))
    # With p nonzeros, the first p entries all 1 leave only zeros after them.
    if not (theta[:p] == 1.0).all():
        raise SwitchError("switch function is not a step")
    return p


def chiral_polarization(geom: ChainGeometry, switch: SwitchFunction) -> int:
    """A-minus-B count over the region where the switch is 1.

    Identically zero under CELL_C2 (each cell carries one A and one B);
    under ALTERNATING_SITES this is the sublattice imbalance entering the
    finite-size index correspondence.
    """
    check_switch_compatible(geom, switch)
    per_basis = switch.basis_values() * geom.sublattice_signs
    return int(round(float(per_basis.sum())))
