"""LAPACK kernels of the OpenBLAS that numpy.linalg has loaded, called through ctypes.

numpy's wheels ship an OpenBLAS whose LAPACK takes 64-bit integers and is
exported under the ``scipy_`` prefix and the ``64_`` suffix; after the
declared arguments, each character argument takes its hidden length.  Every
symbol is resolved on first use, and a resolver returns None where numpy's
LAPACK does not export it: its caller then takes a numpy route, within the
limits that caller states.  A kernel
that reports a numerical failure raises ``np.linalg.LinAlgError``, as
numpy.linalg does, for its caller to put in its own terms.  Nothing here
loads scipy.

- ``dstevd`` and ``tridiagonal_eigh``: the symmetric tridiagonal
  divide-and-conquer eigensolver, run on one OpenBLAS thread below order
  ``SERIAL_ORDER`` (``openblas_threads`` gets and sets the count);
- ``band_kernels`` and ``BandLU``: the LU factorization of a general band
  matrix with partial pivoting (``dgbtrf``/``zgbtrf``) and its solves
  (``dgbtrs``/``zgbtrs``).
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# The symmetric tridiagonal divide-and-conquer eigensolver.
DSTEVD_SYMBOL = "scipy_dstevd_64_"

# Band LU factorization and solve, by dtype; {kind} is d (float64) or z (complex128).
BAND_SYMBOLS = ("scipy_{kind}gbtrf_64_", "scipy_{kind}gbtrs_64_")

# Below this order the solve runs on one OpenBLAS thread.  From n = 26 on,
# dstevd's merges wake OpenBLAS's other threads, which then spin: through
# repeated small solves a second core stayed busy and the slowest of them
# got longer.  From about this order on, two threads are faster.
SERIAL_ORDER = 128


def _library():
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@functools.cache
def openblas_threads():
    """OpenBLAS's thread-count getter and setter in numpy's LAPACK, or None."""
    try:
        lib = _library()
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def dstevd():
    """numpy's own LAPACK ``dstevd``, or None where its LAPACK does not export it."""
    try:
        kernel = getattr(_library(), DSTEVD_SYMBOL)
    except (AttributeError, OSError):
        return None
    kernel.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
    kernel.restype = None
    return kernel


def tridiagonal_eigh(kernel, diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvectors as rows) of the symmetric tridiagonal (diag, off).

    ``dstevd`` overwrites ``diag`` with the eigenvalues and ``off`` as
    workspace; ``off`` is declared with n - 1 entries, so the 1 x 1 matrix
    gets one as well.  Its workspace is n^2 + 4n + 1 numbers.
    """
    n = diag.size
    e = np.zeros(max(n - 1, 1))
    e[: n - 1] = off
    # A column-major n x n factor read back row-major is its transpose.
    Zt = np.empty((n, n))
    work = np.empty(n * n + 4 * n + 1)
    iwork = np.empty(5 * n + 3, dtype=np.int64)
    size, info = ctypes.c_int64(n), ctypes.c_int64(0)
    threads = openblas_threads() if n < SERIAL_ORDER else None
    if threads:
        saved = threads[0]()
        threads[1](1)
    try:
        kernel(
            b"V", ctypes.byref(size), diag.ctypes.data, e.ctypes.data,
            Zt.ctypes.data, ctypes.byref(size), work.ctypes.data, ctypes.byref(ctypes.c_int64(work.size)),
            iwork.ctypes.data, ctypes.byref(ctypes.c_int64(iwork.size)), ctypes.byref(info), 1,
        )
    finally:
        if threads:
            threads[1](saved)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dstevd info = {info.value}")
    return diag, Zt


@functools.cache
def band_kernels(dtype: np.dtype):
    """numpy's own (gbtrf, gbtrs) for float64 or complex128 band matrices, or None."""
    kind = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}.get(np.dtype(dtype))
    if kind is None:
        return None
    try:
        lib = _library()
        factor, solve = (getattr(lib, name.format(kind=kind)) for name in BAND_SYMBOLS)
    except (AttributeError, OSError):
        return None
    factor.argtypes, factor.restype = [ctypes.c_void_p] * 8, None
    solve.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
    solve.restype = None
    return factor, solve


class BandLU:
    """LU factors, with partial pivoting, of an n x n band matrix with kl sub- and ku superdiagonals.

    ``ab`` is LAPACK's band storage read row-major: an n x (2 kl + ku + 1)
    array whose row j holds column j of the matrix, entry (i, j) at
    ab[j, kl + ku + i - j], with the first kl places of each row left for
    the fill-in of the pivoting.  It is factored in place, by the kernels
    of ``band_kernels`` for its dtype.  ``singular`` is True when a pivot
    is exactly zero: the matrix is then exactly singular, and it must not
    be solved with.
    """

    def __init__(self, ab: np.ndarray, kl: int):
        kernels = band_kernels(ab.dtype)
        if kernels is None:
            raise ValueError(f"numpy's LAPACK has no band kernels for {ab.dtype}")
        self._factor, self._solve = kernels
        n, width = ab.shape
        if not ab.flags.c_contiguous or width < 2 * kl + 1:
            raise ValueError(f"band storage of shape {ab.shape} does not hold {kl} subdiagonals")
        self.ab, self.n = ab, n
        self.pivots = np.empty(n, dtype=np.int64)
        # n, kl, ku, the leading dimension and 1, passed by reference.
        self._ints = [ctypes.byref(ctypes.c_int64(v)) for v in (n, kl, width - 2 * kl - 1, width, 1)]
        info = ctypes.c_int64(0)
        size, lower, upper, ldab = self._ints[:4]
        self._factor(size, size, lower, upper, ab.ctypes.data, ldab, self.pivots.ctypes.data, ctypes.byref(info))
        if info.value < 0:
            raise ValueError(f"gbtrf rejected argument {-info.value}")
        self.singular = info.value > 0

    def solve(self, b: np.ndarray, trans: bytes = b"N") -> np.ndarray:
        """A^-1 b (``trans`` b"N") or A^-H b (b"C"), as a new array of the matrix's dtype."""
        x = np.array(b, dtype=self.ab.dtype)
        if x.shape != (self.n,):
            raise ValueError(f"right-hand side of shape {x.shape} for an order-{self.n} matrix")
        if self.singular:
            raise ValueError("an exactly singular matrix has no solve")
        size, lower, upper, ldab, one = self._ints
        info = ctypes.c_int64(0)
        self._solve(trans, size, lower, upper, one, self.ab.ctypes.data, ldab, self.pivots.ctypes.data,
                    x.ctypes.data, size, ctypes.byref(info), 1)
        if info.value != 0:
            raise ValueError(f"gbtrs rejected argument {-info.value}")
        return x
