"""Local unitaries: the deterministic uniform-spreading operator and CUE samples.

Unitaries use the same level-to-offset convention as the state matrices
(offset i = q + N for level q).  Random unitaries are drawn from the circular
unitary ensemble (Haar measure) via QR decomposition of a complex Ginibre
matrix with the standard diagonal phase correction, and are reproducible:
the same :class:`RngStream` always yields the same matrix for a fixed
numpy/BLAS build.  Where numpy links scipy-openblas64 (numpy's wheels) the QR
calls its LAPACK directly (``_qr``), in place and bit-equal to
``np.linalg.qr`` (tested); elsewhere it is ``np.linalg.qr``.  Under OpenBLAS
the QR runs on one BLAS thread (``_one_blas_thread``), so the draws do not
depend on the BLAS thread count; the engine's runs enter the same scope
(``ensemble._collect``).  The module also binds that library's
``cblas_dgemm`` (``_dgemm``), with which the engine's walk adds each
rank-2 update into its Gram in one call (``ensemble._walk``).
"""

from __future__ import annotations

import ctypes
import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .statespace import _check_int

__all__ = ["RngStream", "uniform_spreading_unitary", "sample_cue"]

logger = logging.getLogger(__name__)


# numpy's linalg extension links its BLAS, so a lookup on it also searches the BLAS library; where
# numpy links no shared BLAS and LAPACK, every binding below is None and its caller falls back to numpy.
try:
    _lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
except OSError:
    _lib = None

# OpenBLAS 0.3.27 on exports a setter of the BLAS thread count that returns the previous count.
try:
    _set_blas_threads = _lib.openblas_set_num_threads_local
    _set_blas_threads.argtypes, _set_blas_threads.restype = [ctypes.c_int], ctypes.c_int
except AttributeError:  # another BLAS, an older OpenBLAS or no library
    _set_blas_threads = None


# numpy's wheels link scipy-openblas64, whose LAPACK names carry a scipy_ prefix and take 64-bit
# integers (ILP64); where either name is missing, the draw's QR is np.linalg.qr's (``_qr``).
try:
    _geqrf, _ungqr = (getattr(_lib, f"scipy_z{name}_64_") for name in ("geqrf", "ungqr"))
except AttributeError:
    _geqrf = _ungqr = None
else:
    _int, _array = ctypes.POINTER(ctypes.c_int64), np.ctypeslib.ndpointer(complex, flags="F_CONTIGUOUS")
    # zgeqrf(m, n, a, lda, tau, work, lwork, info) and zungqr(m, n, k, a, lda, tau, work, lwork, info)
    _geqrf.argtypes = [_int, _int, _array, _int, _array, _array, _int, _int]
    _ungqr.argtypes = [_int, _int, _int, _array, _int, _array, _array, _int, _int]
    _geqrf.restype = _ungqr.restype = None

# The same library's cblas_dgemm(order, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
# the call numpy's float matmul makes, takes its enums as C ints and its sizes as 64-bit integers.
# It has no argtypes: the engine's walk builds every argument as a ctypes object once per run
# (``_dgemm_calls``), since at n = 51 a call that converts them took 3.5 µs, against 2.0 µs.
_dgemm = getattr(_lib, "scipy_cblas_dgemm64_", None)
if _dgemm is not None:
    _dgemm.restype = None


_blas_lock = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    Without the setter the block runs as it is.  It scopes two things: each
    Haar draw's QR (``sample_cue``) and each whole engine run
    (``ensemble._collect``), so no output byte of a run depends on the BLAS
    thread count.  A one-thread complex QR takes 0.6-0.99 of its two-thread
    time for n = 101 to 301 and the same at n = 51; it is slower from about
    n = 400, a size no workload draws.  A run's products are small enough
    that the second thread mostly spins.  The setter acts on the calling
    thread alone only in OpenBLAS's OpenMP builds; its pthreads builds
    (numpy's wheels among them) keep one count for the process.  The lock is
    re-entrant, so a draw's scope nests inside its run's, and it keeps scopes
    entered from two Python threads from interleaving: each restore pairs
    with its own set, runs and draws from several threads take turns, and
    BLAS calls that other threads make meanwhile also run on one thread.  So
    the worker thread of a pipelined run, which reads while the run's own
    thread draws, must not enter the scope: the run holds the lock until its
    worker is done.  It sets its own count to one instead, which an OpenMP
    build needs and a pthreads build already has.
    """
    if _set_blas_threads is None:
        yield
        return
    with _blas_lock:
        previous = _set_blas_threads(1)
        try:
            yield
        finally:
            _set_blas_threads(previous)


@dataclass(frozen=True)
class RngStream:
    """Addressable, reproducible random stream.

    A stream is identified by a master seed (any integer ≥ 0, of any width;
    ``SeedSequence`` takes every bit of it) plus a tuple key; the key
    is fed to ``numpy.random.SeedSequence`` as the spawn key, so distinct
    keys give statistically independent streams and identical keys reproduce
    bit-identical draws.  Ensemble code derives one stream per realization
    (``base.child(j)``) and further children for the two subsystems.
    """

    master_seed: int
    key: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_int("master_seed", self.master_seed, 0)

    def child(self, *indices: int) -> "RngStream":
        """Sub-stream addressed by appending ``indices`` to this stream's key."""
        return RngStream(self.master_seed, self.key + indices)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(seq))


def uniform_spreading_unitary(n: int) -> np.ndarray:
    """Unitary spreading every basis state uniformly over all n levels.

    Entry (l, k) is exp(i·2π·k·l/n)/√n for levels l, k ∈ {−N, …, N}: a
    discrete Fourier kernel on the symmetric level range.  Every column is an
    equal-magnitude superposition (|U_{l,k}|² = 1/n), i.e. the columns form a
    basis mutually unbiased with the computational one.
    """
    _check_int("n", n, 3, odd=True)
    levels = np.arange(-(n // 2), n // 2 + 1)
    return np.exp(2j * np.pi * np.outer(levels, levels) / n) / np.sqrt(n)


def _dgemm_calls(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[list[tuple]]:
    """The ``_dgemm`` arguments of c[r] ← a[r, k]·b[r, k] + c[r], for every k (outer list) and r.

    ``c`` is an (R, M, N), ``a`` an (R, K, M, p) and ``b`` an (R, K, p, N)
    float stack.  Each call passes raw addresses, so the last two axes of all
    three must be C-contiguous (asserted).  One call makes the product
    numpy's matmul makes and adds it into c[r] with β = 1, the same bits as
    ``c[r] += a[r, k] @ b[r, k]`` without the product's scratch array.
    """
    for x in (c, a, b):
        assert x.dtype == float and (x.strides[-2:] == (x.shape[-1] * 8, 8) or not x.size), x.strides
    m, n, p = (ctypes.c_int64(size) for size in (*c.shape[1:], a.shape[-1]))
    one, at = ctypes.c_double(1.0), ctypes.c_void_p
    (c0, cr, _, _), (a0, ar, ak, _, _), (b0, br, bk, _, _) = ((x.ctypes.data, *x.strides) for x in (c, a, b))
    cs = [at(c0 + r * cr) for r in range(len(c))]
    # 101, 111: CblasRowMajor, CblasNoTrans
    return [[(101, 111, 111, m, n, p, one, at(a0 + r * ar + k * ak), p, at(b0 + r * br + k * bk), n,
              one, c_r, n) for r, c_r in enumerate(cs)] for k in range(a.shape[1])]


def _lapack(routine, *args) -> None:
    """Call ``_geqrf`` or ``_ungqr`` on ``args`` and the info argument, integers by reference."""
    info = ctypes.c_int64()
    routine(*(ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int) else a for a in args), ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} returned info={info.value}")


@cache
def _lwork(n: int) -> tuple[int, int]:
    """The lwork numpy's QR passes to zgeqrf and zungqr at n×n: max(n, optimal), from a query.

    Blocked LAPACK code (n > 128 in reference LAPACK) needs the optimal size;
    given less, it runs unblocked and rounds differently.
    """
    query = np.empty(1, complex)
    _lapack(_geqrf, n, n, query, n, query, query, -1)
    geqrf = int(query[0].real)
    _lapack(_ungqr, n, n, n, query, n, query, query, -1)
    return max(n, geqrf), max(n, int(query[0].real))


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and R's diagonal of the QR of the Fortran-ordered n×n ``a``, bit-equal to ``np.linalg.qr``'s.

    With the LAPACK binding the factorization overwrites ``a``, which is
    returned as Q: numpy's QR runs the same two routines with the same lwork,
    between copies of the input, of Q and of all of R.
    """
    if _geqrf is None:
        q, r = np.linalg.qr(a)
        return q, np.diagonal(r)
    n, (geqrf, ungqr) = len(a), _lwork(len(a))
    tau, work = np.empty(n, complex), np.empty(max(geqrf, ungqr), complex)  # per call: two threads draw
    _lapack(_geqrf, n, n, a, n, tau, work, geqrf)
    diag = a.diagonal().copy()
    _lapack(_ungqr, n, n, n, a, n, tau, work, ungqr)
    return a, diag


def sample_cue(n: int, stream: RngStream) -> np.ndarray:
    """Draw an n×n Haar-distributed unitary from the given stream.

    Standard construction: an n×n matrix of independent standard complex
    Gaussians (x + iy)/√2 is QR-factorized and the columns of Q are rescaled
    by R_jj/|R_jj|, which makes the factorization the unique one with a
    positive-diagonal R and hence Q exactly Haar.  In the measure-zero event
    that some |R_jj| underflows to 0 the draw is retried on the next
    sub-stream (logged), keeping the result a pure function of ``stream``.
    The QR runs inside ``_one_blas_thread()``; it is LAPACK's zgeqrf and
    zungqr called directly on a Fortran-ordered matrix where numpy links
    scipy-openblas64, bit-equal to ``np.linalg.qr`` (tested), and
    ``np.linalg.qr`` elsewhere (``_qr``).  The result is Fortran-ordered on
    the first path and C-ordered on the second.
    """
    _check_int("n", n, 3, odd=True)
    attempt = 0
    while True:
        source = stream if attempt == 0 else stream.child(attempt)
        rng = source.generator()
        # filled in place, the same bits as (x + 1j·y)/√2: fresh n×n temporaries cost page faults
        ginibre = np.empty((n, n), dtype=complex, order="F")
        ginibre.real = rng.standard_normal((n, n))
        ginibre.imag = rng.standard_normal((n, n))
        ginibre /= np.sqrt(2)
        with _one_blas_thread():
            q, diag = _qr(ginibre)
        if not np.any(np.abs(diag) == 0.0):
            q *= diag / np.abs(diag)
            return q
        attempt += 1
        logger.warning(
            "degenerate QR draw (zero diagonal) for n=%d stream=%s; retrying on sub-stream %d",
            n,
            stream,
            attempt,
        )
