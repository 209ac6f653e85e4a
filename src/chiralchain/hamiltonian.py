"""Chiral tight-binding Hamiltonians on open chains.

Builds SSH-type chains (alternating couplings t1, t2) plus optional
longer-range chiral blocks and edge coupling perturbations, applies seeded
disorder and defect profiles, closes chains into rings for bulk-gap
estimates, and measures the short-range constant that controls all the
locality bounds.

One builder places every bond, as (row, col, value) triplets of the upper
triangle.  The open chain and ``periodic_closure`` scatter them into dense
matrices; ``bulk_gap`` assembles them into a sparse ring, so its cost grows
with L * coupling_range.  The ring is the open chain of the periodically
tiled profile plus the wrap bonds x -> (x + k) mod L, and the ``sites``
chain of L sites is the cell chain of (L + 1) // 2 cells cropped to its
first L basis states.

Chirality is structural here: every constructed matrix has nonzero entries
only between A and B basis vectors, so ``H C + C H = 0`` holds with exact
zeros, not cancellation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .lattice import ChainGeometry, Convention

# Bond-kind tags for the disorder streams; fixed so a draw depends only on
# (seed, kind, cell index).
_KIND_INTRA = 0
_KIND_INTER = 1


@dataclass(frozen=True)
class ExtraCoupling:
    """Additional chiral block at cell offset ``offset`` >= 1.

    ``a[x]`` couples (x, A) to (x+offset, B) and ``b[x]`` couples (x, B)
    to (x+offset, A); the A-A and B-B components are zero by construction.
    """

    offset: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a)))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b)))


@dataclass(frozen=True)
class CouplingProfile:
    """Per-cell couplings of an SSH-type chain.

    ``t1[x]`` is the intra-cell A-B coupling, ``t2[x]`` the inter-cell
    coupling from (x, B) to (x+1, A); on an open chain the last t2 entry is
    unused, on a ring it closes the loop.  ``boundary`` is an optional
    chirality-preserving perturbation added to t1 near the chain ends
    (support width must stay below L/4).
    """

    t1: np.ndarray
    t2: np.ndarray
    extra: tuple[ExtraCoupling, ...] = ()
    boundary: np.ndarray | None = None

    def __post_init__(self):
        t1 = np.atleast_1d(np.asarray(self.t1))
        t2 = np.atleast_1d(np.asarray(self.t2))
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        if t1.ndim != 1 or t1.shape != t2.shape:
            raise ValueError("t1 and t2 must be 1-d arrays of equal length")
        _require_finite("t1", t1)
        _require_finite("t2", t2)
        L = t1.shape[0]
        for i, blk in enumerate(self.extra):
            if blk.offset < 1:
                raise ValueError(f"extra[{i}].offset must be >= 1, got {blk.offset}")
            for name in ("a", "b"):
                arr = getattr(blk, name)
                if arr.shape != (L,):
                    raise ValueError(f"extra[{i}].{name} must have length {L}")
                _require_finite(f"extra[{i}].{name}", arr)
        if self.boundary is not None:
            boundary = np.atleast_1d(np.asarray(self.boundary))
            object.__setattr__(self, "boundary", boundary)
            if boundary.shape != (L,):
                raise ValueError(f"boundary must have length {L}")
            _require_finite("boundary", boundary)
            support = np.nonzero(boundary)[0]
            if support.size:
                # Edge width needed to cover each support point from its nearer edge.
                widths = np.minimum(support + 1, L - support)
                if int(widths.max()) >= L / 4:
                    raise ValueError(
                        "boundary perturbation must be supported within L/4 of an edge"
                    )

    @property
    def length(self) -> int:
        return int(self.t1.shape[0])

    @property
    def coupling_range(self) -> int:
        """Largest cell offset carrying a coupling (1 for plain SSH)."""
        return max([1, *(blk.offset for blk in self.extra)])

    @classmethod
    def constant(cls, length: int, t1: float, t2: float) -> "CouplingProfile":
        return cls(np.full(length, float(t1)), np.full(length, float(t2)))

    def truncate(self, cells: int) -> "CouplingProfile":
        """Profile restricted to the first ``cells`` cells."""
        if not 0 < cells <= self.length:
            raise ValueError(f"cannot truncate length-{self.length} profile to {cells} cells")
        extra = tuple(
            ExtraCoupling(blk.offset, blk.a[:cells], blk.b[:cells]) for blk in self.extra
        )
        boundary = None if self.boundary is None else self.boundary[:cells]
        return CouplingProfile(self.t1[:cells], self.t2[:cells], extra, boundary)

    def tiled(self, cells: int, shift: int = 0) -> "CouplingProfile":
        """Periodic extension to ``cells`` cells: cell x gets the couplings of (x - shift) mod L.

        Boundary perturbations are an open-chain feature, so they are dropped.
        """
        idx = (np.arange(cells) - shift) % self.length
        extra = tuple(
            ExtraCoupling(blk.offset, blk.a[idx], blk.b[idx]) for blk in self.extra
        )
        return CouplingProfile(self.t1[idx], self.t2[idx], extra)


@dataclass(frozen=True)
class ChiralHamiltonian:
    """Dense Hermitian matrix with structurally exact chiral symmetry."""

    matrix: np.ndarray
    geometry: ChainGeometry

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


class NumericalError(RuntimeError):
    """A numerical contract was violated (non-Hermitian input, NaN values, solver failure, ...)."""


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def build_ssh(geom: ChainGeometry, profile: CouplingProfile) -> ChiralHamiltonian:
    """Open-chain Hamiltonian for the given couplings.

    CELL_C2: t1[x] couples (x,A)-(x,B) and t2[x] couples (x,B)-(x+1,A).
    ALTERNATING_SITES: bond x-(x+1) carries t1[x//2] on even x and t2[x//2]
    on odd x (the same chain, one state per site); extra blocks and boundary
    perturbations are CELL_C2-only features.
    """
    if profile.length != geom.cells:
        raise ValueError(
            f"profile has {profile.length} cells but geometry needs {geom.cells}"
        )
    if geom.convention is Convention.ALTERNATING_SITES and (
        profile.extra or profile.boundary is not None
    ):
        raise ValueError(
            "extra couplings and boundary perturbations are only supported "
            "under the CELL_C2 convention"
        )
    n = geom.total_dim
    H = _dense(_chain_bonds(profile, ring=False), 2 * profile.length)[:n, :n]
    return ChiralHamiltonian(H, geom)


_Bonds = tuple[np.ndarray, np.ndarray, np.ndarray]


def _chain_bonds(profile: CouplingProfile, ring: bool) -> _Bonds:
    """Upper-triangle bonds of the profile in the cell basis, as (rows, cols, values).

    A block of offset k bonds cell x to cell (x + k) mod L.  The open chain
    keeps only x < L - k (no bonds at all for k >= L); the ring keeps every
    x, which needs every offset below L.  The Hermitian matrix is the sum of
    the bonds plus its conjugate transpose; bonds on the same entry add up
    in the order listed.
    """
    L = profile.length
    t1 = profile.t1 if profile.boundary is None else profile.t1 + profile.boundary
    dtype = np.result_type(
        t1, profile.t2, *(np.result_type(b.a, b.b) for b in profile.extra), float
    )
    x = np.arange(L)
    rows, cols, values = [2 * x], [2 * x + 1], [t1]
    # t2 is the offset-1 block from (x, B) to (x+1, A), with no A-B part.
    blocks = [(1, None, profile.t2)] + [(blk.offset, blk.a, blk.b) for blk in profile.extra]
    for k, a, b in blocks:
        if k >= L:
            continue
        src = x if ring else x[: L - k]
        dst = (src + k) % L
        if a is not None:
            rows.append(2 * src)
            cols.append(2 * dst + 1)
            values.append(a[src])
        rows.append(2 * src + 1)
        cols.append(2 * dst)
        values.append(b[src])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values).astype(dtype)


def _dense(bonds: _Bonds, n: int) -> np.ndarray:
    """The n x n Hermitian matrix of the bonds, symmetrized once."""
    rows, cols, values = bonds
    upper = np.zeros((n, n), dtype=values.dtype)
    np.add.at(upper, (rows, cols), values)
    return upper + upper.conj().T


def _uniform_stream(seed: int, kind: int, count: int, amplitude: float) -> np.ndarray:
    key = np.array([int(seed) % (1 << 64), kind], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.uniform(-amplitude, amplitude, size=count)


def apply_disorder(profile: CouplingProfile, seed: int, amplitude: float) -> CouplingProfile:
    """Add i.i.d. uniform[-amplitude, amplitude] noise to t1 and t2.

    Draws come from counter-based streams keyed by (seed, bond kind), so the
    draw at cell x is the x-th variate of its stream: enlarging the chain
    extends the realization instead of reshuffling it.
    """
    if amplitude < 0:
        raise ValueError(f"disorder amplitude must be >= 0, got {amplitude}")
    # The draws span an interval of width 2 * amplitude, which must be a float.
    if not math.isfinite(2.0 * amplitude):
        raise ValueError(f"disorder amplitude must keep 2 * amplitude finite, got {amplitude}")
    if amplitude == 0:
        return profile
    L = profile.length
    return dataclasses.replace(
        profile,
        t1=profile.t1 + _uniform_stream(seed, _KIND_INTRA, L, amplitude),
        t2=profile.t2 + _uniform_stream(seed, _KIND_INTER, L, amplitude),
    )


def apply_defect(
    profile: CouplingProfile,
    height: float,
    center_frac: float = 0.5,
    width_param: float = 1.0,
) -> CouplingProfile:
    """Add a Gaussian bump height * exp(-((x - c) 4 / (L w))^2) to t1, c = center_frac * L."""
    if width_param <= 0:
        raise ValueError(f"defect width must be > 0, got {width_param}")
    L = profile.length
    x = np.arange(L)
    bump = height * np.exp(-(((x - center_frac * L) * 4.0) / (L * width_param)) ** 2)
    return dataclasses.replace(profile, t1=profile.t1 + bump)


def _ring_bonds(profile: CouplingProfile, l_ring: int) -> _Bonds:
    r = profile.coupling_range
    if l_ring < 2 * r or l_ring < 2:
        raise ValueError(f"ring of {l_ring} cells is too small for coupling range {r}")
    return _chain_bonds(profile.tiled(l_ring), ring=True)


def periodic_closure(profile: CouplingProfile, l_ring: int) -> np.ndarray:
    """Ring Hamiltonian with the same bulk blocks and wrap-around bonds.

    The profile is tiled periodically when ``l_ring`` differs from its
    length; boundary perturbations are an open-chain feature and excluded.
    Returns a plain Hermitian matrix of dimension 2 * l_ring.
    """
    return _dense(_ring_bonds(profile, l_ring), 2 * l_ring)


def bulk_gap(profile: CouplingProfile, l_ring: int | None = None) -> float:
    """Half-width of the spectral gap around zero, estimated on a periodic ring.

    A finite-ring estimate of the true bulk gap; defaults to a ring of four
    times the profile length.  The ring is assembled as a sparse matrix from
    the bonds of ``periodic_closure`` and solved by ARPACK shift-invert about
    zero, so time and memory grow with l_ring * coupling_range.  Chirality
    makes the spectrum symmetric about zero, so the half gap is the smallest
    positive eigenvalue: the algebraically largest eigenvalue of the inverse.
    The start vector is a fixed-seed Gaussian (a constant vector lies in one
    symmetry sector of a clean ring).  An exactly singular ring (a closed
    gap) gives 0.0; an ARPACK failure, such as the overflow a gap near the
    float underflow causes, raises NumericalError.  Clean, translation-
    invariant rings converge slowly, because their band edge is a
    near-continuum.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    if l_ring is None:
        l_ring = 4 * profile.length
    rows, cols, values = _ring_bonds(profile, l_ring)
    n = 2 * l_ring
    ring = scipy.sparse.csc_array(
        (np.concatenate([values, values.conj()]),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    )
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w = scipy.sparse.linalg.eigsh(
            ring, k=1, sigma=0, which="LA", v0=v0, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise NumericalError(f"bulk gap of a {l_ring}-cell ring: {exc}") from exc
    except RuntimeError as exc:
        # SuperLU's report of a zero pivot: zero is an eigenvalue.
        if "exactly singular" in str(exc):
            return 0.0
        raise NumericalError(f"bulk gap of a {l_ring}-cell ring: {exc}") from exc
    return float(w[0])


def block_norms(matrix: np.ndarray, geom: ChainGeometry) -> np.ndarray:
    """Operator norms of the position-space blocks, one per position pair.

    Exact 2x2 spectral norms under CELL_C2 (largest singular value, in
    closed form), absolute entries under ALTERNATING_SITES.
    """
    n = geom.total_dim
    if matrix.shape != (n, n):
        raise ValueError(f"matrix shape {matrix.shape} does not match geometry dim {n}")
    if geom.convention is Convention.ALTERNATING_SITES:
        return np.abs(matrix)
    # Block [[a, b], [c, d]] per cell pair, scaled by its largest absolute
    # entry so that squares neither overflow nor underflow.  Its largest
    # singular value squared is the largest eigenvalue of the Gram matrix
    # [[p, q], [conj(q), r]]; every term of that closed form is non-negative,
    # so nothing cancels.
    matrix = matrix.astype(np.result_type(matrix, float), copy=False)
    entries = [matrix[0::2, 0::2], matrix[0::2, 1::2], matrix[1::2, 0::2], matrix[1::2, 1::2]]
    mags = [np.abs(e) for e in entries]
    scale = np.maximum(np.maximum(mags[0], mags[1]), np.maximum(mags[2], mags[3]))
    a, b, c, d = (
        np.divide(e, scale, out=np.zeros_like(e), where=scale > 0) for e in entries
    )
    p = _abs2(a) + _abs2(c)
    r = _abs2(b) + _abs2(d)
    q = np.abs(a.conj() * b + c.conj() * d)
    return scale * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))


def _abs2(z: np.ndarray) -> np.ndarray:
    return (z * z.conj()).real


def short_range_constant(H: ChiralHamiltonian, decay_length: float) -> float:
    """max_x sum_y ||H_{x,y}|| exp(|x-y| / decay_length), exact for banded chains.

    Only the nonzero blocks are weighted, so a long chain never multiplies a
    zero block by an overflowed weight.
    """
    if decay_length <= 0:
        raise ValueError(f"decay length must be > 0, got {decay_length}")
    norms = block_norms(np.asarray(H.matrix), H.geometry)
    x, y = np.nonzero(norms)
    # A weight that overflows makes the constant infinite, which is its value.
    with np.errstate(over="ignore"):
        weighted = norms[x, y] * np.exp(np.abs(x - y) / decay_length)
    return float(np.bincount(x, weights=weighted, minlength=norms.shape[0]).max())


def verify_chiral(H: ChiralHamiltonian) -> float:
    """Largest absolute entry of H C + C H (0 for structurally chiral matrices).

    C is the diagonal of the geometry's sublattice signs.
    """
    matrix = H.matrix
    signs = H.geometry.sublattice_signs
    if matrix.shape != (signs.shape[0], signs.shape[0]):
        raise ValueError(
            f"dimension mismatch: matrix {matrix.shape}, geometry dim {signs.shape[0]}"
        )
    anticomm = matrix * signs[None, :] + signs[:, None] * matrix
    return float(np.abs(anticomm).max())
