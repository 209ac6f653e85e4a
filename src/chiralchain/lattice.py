"""Chain geometry and the step switch function.

Two basis conventions are supported.  Under ``CELL_C2`` the chain has L unit
cells with two internal states (A, B) per cell and the basis is ordered
cell-major: ``(0,A), (0,B), (1,A), (1,B), ...``.  Under ``ALTERNATING_SITES``
the chain has L single-state sites and the sublattice is encoded in the site
parity, A on even sites.  Both conventions are fixed so that matrix dumps are
bit-comparable across runs.  In both, A is on the even and B on the odd basis
vectors, so a step switch, 1 below its transition and 0 from it on, is 1 on
the first p_A A and the first p_B B vectors: ``SwitchFunction.split`` gives
that pair, and it is all the indices and the trace norms read of the switch.
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


@dataclass(frozen=True)
class SwitchFunction:
    """Step profile on cell/site coordinates: 1 below ``transition``, 0 from it on."""

    transition: int
    geometry: ChainGeometry

    def split(self, geom: ChainGeometry) -> tuple[int, int]:
        """(p_A, p_B): the A (even) and B (odd) basis vectors whose position is below the transition.

        Positions do not decrease along the basis, so those are its first p_A + p_B vectors.
        """
        if geom != self.geometry:
            raise SwitchError("switch function was built for a different geometry")
        below = int(np.count_nonzero(geom.positions < self.transition))
        return (below + 1) // 2, below // 2


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
    return SwitchFunction(ell, geom)


def chiral_polarization(geom: ChainGeometry, switch: SwitchFunction) -> int:
    """A-minus-B count over the region where the switch is 1.

    Identically zero under CELL_C2 (each cell carries one A and one B);
    under ALTERNATING_SITES this is the sublattice imbalance entering the
    finite-size index correspondence.
    """
    p_a, p_b = switch.split(geom)
    return p_a - p_b
