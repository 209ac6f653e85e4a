"""Chiral tight-binding Hamiltonians on open chains.

Builds SSH-type chains (alternating couplings t1, t2) plus optional
longer-range chiral blocks and edge coupling perturbations, applies seeded
disorder and defect profiles, closes chains into rings for bulk-gap
estimates, and measures the short-range constant that controls all the
locality bounds.

One builder places every bond, as (row, col, value) triplets of the upper
triangle, and both chains read them as entries of their A->B block.  The
open chain adds them into the band of T, ``band[h + k, i] = T[i, i + k]``
for the diagonals -h..h of T, zero outside T, h its farthest nonzero
diagonal: the only data a ``ChiralHamiltonian`` stores.  Every chain the
CLI builds is banded, so that is about 3L numbers where the dense T would
hold L^2 and the 2L x 2L matrix 4 L^2.  ``bulk_gap`` places the ring's
into a band T_ring, folded so that the wrap bonds stay in the band, and
takes its smallest singular value by Lanczos on the inverse of
T_ring T_ring^dag, applied through one band LU factorization, so its cost
grows with L * coupling_range.  The ring is the open chain of the
periodically tiled profile plus the wrap bonds x -> (x + k) mod L, and the
``sites`` chain of L sites is the cell chain of (L + 1) // 2 cells cropped
to its first L basis states.

Norms of position blocks, which the short-range constant and the bound
certificates read, come from bands in that layout, one per sublattice
block M: ``band[h + k, i] = M[i, i + k]``, zero outside M.
``_position_band_norms`` turns the bands of the four sublattice blocks into
``out[h + k, x] = ||M_{x, x + k}||`` in either convention, and
``_adjoint_band`` gives the band of M^dag from that of M.

Chirality and Hermiticity are structural here: H = [[0, T], [T^dag, 0]] in
sublattice order, so ``H C + C H = 0`` and ``H = H^dag`` hold exactly.  A
matrix from elsewhere is checked once, by ``ChiralHamiltonian.from_matrix``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
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
            if not isinstance(blk.offset, (int, np.integer)) or isinstance(blk.offset, bool):
                raise ValueError(f"extra[{i}].offset must be an integer, got {blk.offset!r}")
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
            # The chain adds it to t1, and two finite values can sum past the float range.
            with np.errstate(over="ignore"):
                _require_finite("t1 + boundary", t1 + boundary)
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

    def tiled(self, cells: int) -> "CouplingProfile":
        """Periodic extension to ``cells`` cells: cell x gets the couplings of x mod L.

        Boundary perturbations are an open-chain feature, so they are dropped.
        """
        idx = np.arange(cells) % self.length
        extra = tuple(
            ExtraCoupling(blk.offset, blk.a[idx], blk.b[idx]) for blk in self.extra
        )
        return CouplingProfile(self.t1[idx], self.t2[idx], extra)


@dataclass(frozen=True)
class ChiralHamiltonian:
    """H = [[0, T], [T^dag, 0]], stored as the band of its |A| x |B| block T = H[A, B].

    ``band[h + k, i] = T[i, i + k]`` for the diagonals -h..h of T, zero
    outside T: a (2h + 1) x |A| array.  A is on the even and B on the odd
    basis vectors in both conventions, so H is Hermitian and chiral by
    construction.  ``from_matrix`` validates an n x n matrix; ``T`` and
    ``matrix`` assemble the dense arrays on each read.  The band is
    read-only: the first ``spectral.eigh(H)`` stores the spectrum in
    ``_spectrum``, so it lives and dies with H.  ``dataclasses.replace``
    starts with no spectrum.
    """

    band: np.ndarray
    geometry: ChainGeometry
    _spectrum: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        band, (a, b) = self.band, self.shape
        if not isinstance(band, np.ndarray):
            raise ValueError(f"band must be a numpy array, got {type(band).__name__}")
        if band.ndim != 2 or band.shape[0] % 2 == 0 or band.shape[1] != a:
            raise ValueError(
                f"band of shape {band.shape} is not (2h + 1) x {a} for geometry dim {self.geometry.total_dim}"
            )
        # Only the corners can fall outside T: i + k < 0 in the first h
        # columns, i + k >= |B| in the last h + 1.
        h = band.shape[0] // 2
        w = min(h + 1, a)
        c_k = np.arange(-h, h + 1)[:, None] + np.arange(w)  # column + k in either slice
        if band[:, :w][c_k < 0].any() or band[:, a - w :][c_k >= b - a + w].any():
            raise ValueError("band has a nonzero entry outside T")
        band.setflags(write=False)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, geometry: ChainGeometry) -> "ChiralHamiltonian":
        """The Hamiltonian of an n x n matrix: exactly zero A-A and B-B blocks, Hermitian within 1e-12."""
        M = np.asarray(matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise NumericalError(f"expected a square matrix, got shape {M.shape}")
        if M.shape[0] != geometry.total_dim:
            raise NumericalError(f"matrix shape {M.shape} does not match {geometry.total_dim} sublattice signs")
        # NaN compares False with every tolerance below, and inf - inf is NaN.
        if not np.all(np.isfinite(M)):
            raise NumericalError("matrix has non-finite entries")
        AA, T, BA, BB = _sublattice_blocks(M)
        if np.any(AA) or np.any(BB):
            raise NumericalError("matrix is not chiral: its A-A or B-B block is nonzero")
        # With zero A-A and B-B blocks, M = M^dag exactly when T = (M_BA)^dag.
        _check_hermitian(T, BA)
        rows, cols = np.nonzero(T)
        h = int(np.abs(cols - rows).max(initial=0))
        band = np.zeros((2 * h + 1, T.shape[0]), T.dtype)
        inside, i, j = _band_entries(h, T.shape)
        band[inside] = T[i, j]
        return cls(band, geometry)

    @property
    def shape(self) -> tuple[int, int]:
        """(|A|, |B|), the shape of T."""
        n = self.geometry.total_dim
        return (n + 1) // 2, n // 2

    @property
    def dim(self) -> int:
        return self.geometry.total_dim

    @property
    def dtype(self) -> np.dtype:
        return self.band.dtype

    @property
    def T(self) -> np.ndarray:
        """The dense |A| x |B| block, assembled read-only on every read."""
        T = np.zeros(self.shape, self.dtype)
        inside, i, j = _band_entries(self.band.shape[0] // 2, self.shape)
        T[i, j] = self.band[inside]
        T.setflags(write=False)
        return T

    @property
    def matrix(self) -> np.ndarray:
        """The n x n matrix of H, assembled on every read."""
        T = self.T
        M = np.zeros((self.dim, self.dim), dtype=self.dtype)
        M[0::2, 1::2] = T
        # Added to zeros, as a symmetrized sum adds it: no -0.0 entries.
        M[1::2, 0::2] += T.conj().T
        return M


def _band_entries(h: int, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inside, i, j): the entries ``band[inside]`` of a half-width-h band of an M of this shape are M[i, j]."""
    j = np.arange(shape[0]) + np.arange(-h, h + 1)[:, None]
    inside = (j >= 0) & (j < shape[1])
    return inside, np.nonzero(inside)[1], j[inside]


def _sublattice_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views of the blocks (M_AA, M_AB, M_BA, M_BB) of M; A on the even, B on the odd basis vectors."""
    return M[0::2, 0::2], M[0::2, 1::2], M[1::2, 0::2], M[1::2, 1::2]


class NumericalError(RuntimeError):
    """A numerical contract was violated (non-Hermitian input, NaN values, solver failure, ...)."""


# Relative Hermiticity defect tolerated on input matrices.
HERMITICITY_RTOL = 1e-12


def _check_hermitian(X: np.ndarray, Y: np.ndarray) -> None:
    """Raise unless X = Y^dag within HERMITICITY_RTOL of the largest entry (and of 1)."""
    defect = float(np.abs(X - Y.conj().T).max())
    scale = max(1.0, float(np.abs(X).max()), float(np.abs(Y).max()))
    if defect > HERMITICITY_RTOL * scale:
        raise NumericalError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def _as_positive(name: str, value: float, zero_ok: bool = False) -> float:
    """``value`` as a float; it must be finite and > 0 (>= 0 when ``zero_ok``)."""
    value = float(value)
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")
    return value


def build_ssh(geom: ChainGeometry, profile: CouplingProfile) -> ChiralHamiltonian:
    """Open-chain Hamiltonian for the given couplings.

    CELL_C2: t1[x] couples (x,A)-(x,B) and t2[x] couples (x,B)-(x+1,A).
    ALTERNATING_SITES: bond x-(x+1) carries t1[x//2] on even x and t2[x//2]
    on odd x (the same chain, one state per site); extra blocks and boundary
    perturbations are CELL_C2-only features.  A bond (x,A)->(y,B) lands at
    T[x, y] and a bond (x,B)->(y,A) at T[y, x], conjugated; the two kinds
    never share an entry, so T is bit-identical to the symmetrized sum.
    The entries are added into T's band, starting from zeros as a dense T
    would, in the order listed; the band is then cut to the farthest
    diagonal with a nonzero entry.  The odd ``sites`` chain drops the last
    cell's B state, the entries past T's last column.
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
    a, b, values = _block_entries(_chain_bonds(profile, ring=False))
    kept = b < geom.total_dim // 2
    a, k, values = a[kept], (b - a)[kept], values[kept]
    h = int(np.abs(k).max(initial=0))
    band = np.zeros((2 * h + 1, profile.length), values.dtype)
    np.add.at(band, (h + k, a), values)
    nonzero = np.flatnonzero(band.any(axis=1))
    r = max(h - nonzero[0], nonzero[-1] - h) if nonzero.size else 0
    # A copy once cut, so that H does not keep the zero rows alive.
    return ChiralHamiltonian(band if r == h else band[h - r : h + r + 1].copy(), geom)


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


def _block_entries(bonds: _Bonds) -> _Bonds:
    """The bonds as entries (a, b, value) of the A->B block; a bond (x,B)->(y,A) is conjugated."""
    rows, cols, values = bonds
    from_a = rows % 2 == 0
    a = np.where(from_a, rows, cols) // 2
    b = np.where(from_a, cols, rows) // 2
    return a, b, np.where(from_a, values, values.conj())


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
    # A narrow bump squares to inf off its center; exp(-inf) = 0 is the exact value there.
    with np.errstate(over="ignore"):
        bump = height * np.exp(-(((x - center_frac * L) * 4.0) / (L * width_param)) ** 2)
    return dataclasses.replace(profile, t1=profile.t1 + bump)


def _ring_bonds(profile: CouplingProfile, l_ring: int) -> _Bonds:
    r = profile.coupling_range
    if l_ring < 2 * r or l_ring < 2:
        raise ValueError(f"ring of {l_ring} cells is too small for coupling range {r}")
    return _chain_bonds(profile.tiled(l_ring), ring=True)


def bulk_gap(profile: CouplingProfile, l_ring: int | None = None) -> float:
    """Half-width of the spectral gap around zero, estimated on a periodic ring.

    A finite-ring estimate of the true bulk gap; defaults to a ring of four
    times the profile length.  The ring is chiral, so its spectrum is
    +-sigma for the singular values sigma of its A->B block T_ring, and the
    half gap is sigma_min.  T_ring (l_ring x l_ring) is placed from the
    ring's bonds (``_ring_bonds``) as ``build_ssh`` places the open chain's,
    in folded order (``_folded_order``), where the ring's cyclic band of
    width r is an ordinary band of width at most 2r.  It is factored once
    by LAPACK's band LU with partial pivoting (``gbtrf``, through
    ``_lapack``), and an exactly zero pivot (a closed gap) gives 0.0.
    Lanczos (``_top_eigenvalue``) then finds the largest eigenvalue
    s^2 / sigma_min^2 of s^2 (T_ring T_ring^dag)^-1, applied by two solves
    with those factors; s is the power of two near sigma_min that one solve
    finds, so the scaling is exact and the operator stays near 1 where
    1 / sigma_min^2 would overflow.  Time and memory grow with
    l_ring * coupling_range, times the Lanczos steps for time: 29 to 75 for
    disordered-defect rings of 1000 to 40000 cells, and about l_ring / 4 for a clean,
    translation-invariant ring, whose band edge is a near-continuum.  The
    start vector is a fixed-seed Gaussian (a constant vector lies in one
    symmetry sector of a clean ring).  A solve that overflows (a gap near the float underflow),
    and Lanczos that does not converge, raise NumericalError.  A numpy
    whose LAPACK lacks the band kernels takes the smallest singular value
    of the dense T_ring instead (``_dense_ring_gap``), on rings of at most
    _DENSE_RING_CELLS cells.
    """
    if l_ring is None:
        l_ring = 4 * profile.length
    a, b, values = _block_entries(_ring_bonds(profile, l_ring))
    dtype = np.dtype(np.complex128 if np.iscomplexobj(values) else np.float64)
    if _lapack.band_kernels(dtype) is None:
        return _dense_ring_gap(a, b, values, l_ring, dtype)
    fold = _folded_order(l_ring)
    rows, cols = fold[a], fold[b]
    kl, ku = int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))
    band = np.zeros((l_ring, 2 * kl + ku + 1), dtype)
    np.add.at(band, (cols, kl + ku + rows - cols), values)
    lu = _lapack.BandLU(band, kl)
    if lu.singular:
        # An exactly zero pivot: zero is a singular value.
        return 0.0

    def checked(x):
        if not np.isfinite(x).all():
            raise NumericalError("the inverse overflows")
        return x

    def gram_inverse(v):
        # s^2 (T T^dag)^-1 v, scaled by s and checked after each solve.
        x = lu.solve(v)
        x *= s
        x = lu.solve(checked(x), trans=b"C")
        x *= s
        return checked(x)

    v0 = np.random.default_rng(0).standard_normal(l_ring)
    try:
        # max |T^-1 v0| is about 1 / sigma_min; capped so that s stays finite.
        growth = np.abs(checked(lu.solve(v0))).max()
        s = math.ldexp(1.0, min(-int(np.frexp(growth)[1]), 1000))
        top = _top_eigenvalue(gram_inverse, v0)
    except NumericalError as exc:
        raise NumericalError(f"bulk gap of a {l_ring}-cell ring: {exc}") from exc
    return float(s / np.sqrt(top))


# Largest ring the dense fallback of ``bulk_gap`` takes: its T_ring and the
# SVD's workspace then stay within tens of MB.
_DENSE_RING_CELLS = 1024


def _dense_ring_gap(a, b, values, l_ring: int, dtype: np.dtype) -> float:
    """Smallest singular value of the dense T_ring; 0.0 where it is within rounding of zero.

    A dense SVD resolves singular values only to about eps * sigma_max, so
    one at or below that reads as a closed gap, as an exact zero pivot does
    on the band route.
    """
    if l_ring > _DENSE_RING_CELLS:
        raise NumericalError(
            f"bulk gap of a {l_ring}-cell ring: numpy's LAPACK lacks the band kernels, "
            f"and the dense fallback takes at most {_DENSE_RING_CELLS} cells"
        )
    T = np.zeros((l_ring, l_ring), dtype)
    np.add.at(T, (a, b), values)
    try:
        sigma = np.linalg.svd(T, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"bulk gap of a {l_ring}-cell ring: {exc}") from exc
    return 0.0 if sigma[-1] <= np.finfo(float).eps * sigma[0] else float(sigma[-1])


def _folded_order(n: int) -> np.ndarray:
    """Position of each ring cell when the ring is folded flat.

    Cell x goes to 2x in the first half and to 2(n - 1 - x) + 1 in the
    second, so cells k apart around the ring, across the wrap too, end up
    at most 2k apart: a cyclic band of width r becomes a band of width 2r.
    """
    x = np.arange(n)
    return np.where(x < (n + 1) // 2, 2 * x, 2 * (n - 1 - x) + 1)


# The top Ritz value is accepted when its residual meets ARPACK's test
# r <= eps theta.
_RITZ_TOL = float(np.finfo(float).eps)

# Basis vectors Lanczos keeps; when they are all in use it restarts from
# the top half of its Ritz vectors.
_LANCZOS_BASIS = 64

# Lanczos gives up after this many steps per ring cell; a clean ring, the
# slowest to converge, takes about one step per four cells.
_LANCZOS_STEPS_PER_CELL = 10


def _top_eigenvalue(apply, start: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian positive-definite operator ``apply``, by thick-restart Lanczos.

    Each new vector is orthogonalized against the whole basis by classical
    Gram-Schmidt, twice.  The projected matrix H is the Lanczos tridiagonal,
    and the Ritz values are its eigenvalues, computed at every step: near
    the tolerance the residual estimate of the top one reaches its minimum
    and then grows again, so a step skipped there can cost a restart.  When
    the basis is full it is replaced by the top half of the Ritz vectors and
    the residual direction (Wu and Simon's thick restart), which couples to
    each Ritz vector by its residual: H starts again as their diagonal of
    Ritz values and that arrow, and memory stays at _LANCZOS_BASIS vectors.
    """
    n = start.size
    m = min(n, _LANCZOS_BASIS)
    q, basis, H, k = start / np.linalg.norm(start), None, None, 0
    for _ in range(_LANCZOS_STEPS_PER_CELL * n):
        w = apply(q)
        if basis is None:
            basis, H = np.empty((m, n), w.dtype), np.zeros((m, m), w.dtype)
        basis[k] = q
        H[k, k] = np.vdot(q, w).real
        k += 1
        Q = basis[:k]
        for _ in range(2):
            w -= (Q @ w.conj()).conj() @ Q
        r = math.sqrt(np.vdot(w, w).real)
        if k < m:
            H[k, k - 1] = H[k - 1, k] = r
        theta, Y = np.linalg.eigh(H[:k, :k])
        top = theta[-1]
        if k == n or r * abs(Y[-1, -1]) <= _RITZ_TOL * top:
            return float(top)
        if k == m:
            k = m // 2
            basis[:k] = Y[:, -k:].T @ basis
            H[:] = 0.0
            H[range(k), range(k)] = theta[-k:]
            H[k, :k] = r * Y[-1, -k:]
            H[:k, k] = H[k, :k].conj()
        q = w / r
    raise NumericalError(f"Lanczos did not converge in {_LANCZOS_STEPS_PER_CELL * n} steps")


# Entries per pass of the closed form: its dozen temporaries then stay far
# below glibc's mmap threshold (128 KB at start), so they are reused from the
# heap instead of being mapped, page-faulted and returned on every call.
_CHUNK_ENTRIES = 4096


def _cell_block_norms(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Largest singular value of each 2x2 block [[a, b], [c, d]] of four equal-shape arrays."""
    rows = max(1, _CHUNK_ENTRIES // max(1, math.prod(np.shape(a)[1:])))
    if len(a) <= rows:
        return _closed_form_norms(a, b, c, d)
    out = np.empty(np.shape(a))
    for i in range(0, len(a), rows):
        out[i : i + rows] = _closed_form_norms(*(e[i : i + rows] for e in (a, b, c, d)))
    return out


def _closed_form_norms(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    # Each block is scaled by its largest absolute entry so that squares
    # neither overflow nor underflow.  Its largest singular value squared is
    # the largest eigenvalue of the Gram matrix [[p, q], [conj(q), r]]; every
    # term of that closed form is non-negative, so nothing cancels.
    dtype = np.result_type(a, b, c, d, float)
    entries = [e.astype(dtype, copy=False) for e in (a, b, c, d)]
    mags = [np.abs(e) for e in entries]
    scale = np.maximum(np.maximum(mags[0], mags[1]), np.maximum(mags[2], mags[3]))
    tiny = np.finfo(float).tiny
    a, b, c, d = (np.divide(e, scale, out=np.zeros_like(e), where=scale >= tiny) for e in entries)
    p = _abs2(a) + _abs2(c)
    r = _abs2(b) + _abs2(d)
    q = np.abs(a.conj() * b + c.conj() * d)
    norms = scale * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))
    subnormal = (scale > 0) & (scale < tiny)
    if subnormal.any():
        # numpy divides complex by real through 1 / scale, which overflows: lift by an exact 2^54.
        norms[subnormal] = _closed_form_norms(*(e[subnormal] * 2.0**54 for e in entries)) / 2.0**54
    return norms


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 entrywise; for complex z two squares and a sum, each rounded once."""
    # numpy's complex multiply rounds z * conj(z) one way in its vector loop
    # and another in its scalar loop, which a one-entry output in place takes.
    if np.iscomplexobj(z):
        return z.real**2 + z.imag**2
    return z * z


def _adjoint_band(band: np.ndarray, n: int) -> np.ndarray:
    """The band of M^dag from the band of M, m x n: ``out[h + k, j] = conj(M[j + k, j])``.

    Bands are stored as ``band[h + k, i] = M[i, i + k]``, zero outside M.
    The result is a view into an array padded by h zero columns on each
    side, into which the conjugated ``band`` is written through a strided
    view in one pass.
    """
    h, m = band.shape[0] // 2, band.shape[1]
    padded = np.zeros((2 * h + 1, h + max(m, n) + h), band.dtype)
    # band[r, i] = M[i, i + r - h] is M^dag[i + r - h, i]: row 2h - r, column i + r of padded.
    rows, cols = padded.strides
    np.conjugate(band, out=np.lib.stride_tricks.as_strided(padded[::-1], band.shape, (cols - rows, cols)))
    return padded[:, h : h + n]


def _position_band_norms(blocks: tuple[np.ndarray, ...], geom: ChainGeometry, h: int) -> np.ndarray:
    """``out[h + k, x] = ||M_{x, x + k}||`` for |k| <= h, 0 where x + k leaves the chain.

    M is given as the bands of its sublattice blocks (M_AA, M_AB, M_BA,
    M_BB), A on the even and B on the odd basis vectors, so it is never
    assembled.  Under CELL_C2 the bands have half width h and hold the
    entries of the cell blocks, whose exact 2x2 spectral norms come from the
    closed form.  Under ALTERNATING_SITES they have half width (h + 1) // 2
    and the norms are the absolute entries: site diagonal k = 2m holds the
    A-A and B-B diagonals m, and k = 2m + 1 the A-B diagonal m and the B-A
    diagonal m + 1, each on its own parity of x.
    """
    if geom.convention is Convention.CELL_C2:
        return _cell_block_norms(*blocks)
    AA, AB, BA, BB = blocks
    out = np.empty((2 * h + 1, geom.total_dim))
    p = h % 2  # row of the first even k
    even, odd = out[p::2], out[1 - p :: 2]
    np.abs(AA[p : p + len(even)], out=even[:, 0::2])
    np.abs(BB[p : p + len(even)], out=even[:, 1::2])
    np.abs(AB[: len(odd)], out=odd[:, 0::2])
    np.abs(BA[1 : 1 + len(odd)], out=odd[:, 1::2])
    return out


def short_range_constant(H: ChiralHamiltonian, decay_length: float) -> float:
    """max_x sum_y ||H_{x,y}|| exp(|x-y| / decay_length), exact for banded chains.

    Only the band of T is read, so the cost grows with L times the coupling
    range.  The position blocks of H are those of the sublattice blocks
    (0, T, T^dag, 0), through ``_position_band_norms``.  Each row is summed
    down the band, in ascending y as the full grid sums it, and only the
    nonzero blocks are weighted, so a long chain never multiplies a zero
    block by an overflowed weight.
    """
    decay_length = _as_positive("decay_length", decay_length)
    r, (a, b) = H.band.shape[0] // 2, H.shape
    if H.geometry.convention is Convention.CELL_C2:
        h, T = r, H.band
    else:
        # T[a, a + k] sits at sites 2a and 2a + 2k + 1, so the site band reaches
        # 2r + 1, and the sublattice bands it reads r + 1: one zero row more on each side.
        h, T = 2 * r + 1, np.zeros((2 * r + 3, a), H.dtype)
        T[1:-1] = H.band
    zero = np.zeros_like(T)
    norms = _position_band_norms((zero, T, _adjoint_band(T, b), zero[:, :b]), H.geometry, h)
    # A weight that overflows makes the constant infinite, which is its value.
    with np.errstate(over="ignore"):
        weights = np.exp(np.abs(np.arange(-h, h + 1)) / decay_length)
    np.multiply(norms, weights[:, None], out=norms, where=norms != 0)
    return float(norms.sum(axis=0).max())
