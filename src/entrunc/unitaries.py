"""Local unitaries: the deterministic uniform-spreading operator and CUE samples.

Unitaries use the same level-to-offset convention as the state matrices
(offset i = q + N for level q).  Random unitaries are drawn from the circular
unitary ensemble (Haar measure) via QR decomposition of a complex Ginibre
matrix with the standard diagonal phase correction, and are reproducible:
the same :class:`RngStream` always yields the same matrix for a fixed
numpy/BLAS build.  The module is the one that binds the BLAS library numpy
links (``_bind``) and knows which routines are bound: its QR (``_qr``), its
``cblas_dgemm`` (``_dgemm_calls``, for ``ensemble._walk``) and its thread
setter (``_one_blas_thread``).
"""

from __future__ import annotations

import ctypes
import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .statespace import _check_int

__all__ = ["RngStream", "uniform_spreading_unitary", "sample_cue"]

logger = logging.getLogger(__name__)


# numpy's linalg extension links its BLAS, so a lookup on it also searches the BLAS library.
try:
    _lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
except OSError:
    _lib = None


def _bind(name: str, argtypes=None, restype=None):
    """The routine ``name`` of ``_lib`` with its signature set, or None where it is not there."""
    routine = getattr(_lib, name, None)
    if routine is not None:
        routine.argtypes, routine.restype = argtypes, restype
    return routine


# OpenBLAS 0.3.27 on exports a setter of the BLAS thread count that returns the previous count.
_set_blas_threads = _bind("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int)

# numpy's wheels link scipy-openblas64, whose LAPACK names carry a scipy_ prefix and take 64-bit integers:
# zgeqrf(m, n, a, lda, tau, work, lwork, info) and zungqr(m, n, k, a, lda, tau, work, lwork, info).
_int, _array = ctypes.POINTER(ctypes.c_int64), np.ctypeslib.ndpointer(complex, flags="F_CONTIGUOUS")
_geqrf = _bind("scipy_zgeqrf_64_", [_int, _int, _array, _int, _array, _array, _int, _int])
_ungqr = _bind("scipy_zungqr_64_", [_int, _int, _int, _array, _int, _array, _array, _int, _int])

# The same library's cblas_dgemm(order, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
# the call numpy's float matmul makes, takes its enums as C ints and its sizes as 64-bit integers. It
# has no argtypes: converting the arguments on each call costs more than the call (``_dgemm_calls``).
_dgemm = _bind("scipy_cblas_dgemm64_")


_blas_lock = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    Without the setter the block runs as it is.  It scopes each Haar draw's
    QR (``sample_cue``) and each whole engine run (``ensemble._collect``), so
    no output byte of a run depends on the BLAS thread count.  On one thread
    ``_qr`` took 0.5-1.03 of its two-thread time for n = 51 to 501 (0.83 at
    n = 201).  A run's products are small, so a second thread mostly spins:
    without the setter, at two threads, medians of 6 alternating perfbench
    pairs rose from 0.29 to 0.55 s CPU on ``sweep51``, 0.16 to 0.34 s on
    ``sweep201`` and 0.15 to 0.44 s on ``loss201``; wall time held or rose.
    OpenBLAS's pthreads builds (numpy's wheels) keep one count per process,
    so the lock is re-entrant, letting a draw's scope nest in its run's, and
    keeps two Python threads' scopes from interleaving: each restore pairs
    with its own set, and runs and draws from several threads take turns.  A
    pipelined run's worker thread must not enter the scope, which the run
    holds until its worker is done; it sets its own count to one, as
    OpenBLAS's OpenMP builds (a count per thread) need.
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


def _dgemm_calls(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[list[partial]]:
    """A zero-argument call of c[r] ← a[r, k]·b[r, k] + c[r] for every slot k (outer list) and r.

    ``c`` is an (R, M, N), ``a`` an (R, K, M, p) and ``b`` an (R, K, p, N)
    float stack, whose last two axes must be C-contiguous (asserted).  With the
    ``_dgemm`` binding a call passes raw addresses to it, with β = 1, and
    gives the bits of ``c[r] += a[r, k] @ b[r, k]`` without the product's
    scratch array (tested).  Without it a call is that matmul into one M×N
    scratch, which every call shares, and a ``+=`` into ``c[r]``.
    ``ensemble._workspace`` builds them once per run for the K slots of one
    block of walk steps, whose factors are refilled in place block by block.
    """
    for x in (c, a, b):
        assert x.dtype == float and (x.strides[-2:] == (x.shape[-1] * 8, 8) or not x.size), x.strides
    if _dgemm is None:
        scratch = np.empty(c.shape[1:])
        return [[partial(_add_product, c[r], a[r, k], b[r, k], scratch) for r in range(len(c))]
                for k in range(a.shape[1])]
    m, n, p = (ctypes.c_int64(size) for size in (*c.shape[1:], a.shape[-1]))
    one, at = ctypes.c_double(1.0), ctypes.c_void_p
    (c0, cr, _, _), (a0, ar, ak, _, _), (b0, br, bk, _, _) = ((x.ctypes.data, *x.strides) for x in (c, a, b))
    cs = [at(c0 + r * cr) for r in range(len(c))]
    # 101, 111: CblasRowMajor, CblasNoTrans
    return [[partial(_dgemm, 101, 111, 111, m, n, p, one, at(a0 + r * ar + k * ak), p,
                     at(b0 + r * br + k * bk), n, one, c_r, n) for r, c_r in enumerate(cs)]
            for k in range(a.shape[1])]


def _add_product(c: np.ndarray, a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> None:
    """c += a·b through ``scratch``: ``_dgemm_calls``' call without the binding."""
    c += np.matmul(a, b, out=scratch)


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

    Where numpy links scipy-openblas64 (numpy's wheels), LAPACK's zgeqrf and
    zungqr run on ``a`` in place, and ``a`` is returned as Q: numpy's QR runs
    the same two routines with the same lwork, between copies of the input, of
    Q and of all of R (bit-equality is tested).  At one BLAS thread it took
    3.1 ms at n = 201 against 4.3-4.4 ms through ``np.linalg.qr``, and 0.125
    against 0.130 ms at n = 51.  Unless both routines are bound, it is
    ``np.linalg.qr``.
    """
    if _geqrf is None or _ungqr is None:
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
    Gaussians (x + iy)/√2 is QR-factorized (``_qr``, on one BLAS thread) and
    the columns of Q are rescaled by R_jj/|R_jj|, which makes the
    factorization the unique one with a positive-diagonal R and hence Q
    exactly Haar.  In the measure-zero event that some |R_jj| underflows to 0
    the draw is retried on the next sub-stream (logged), keeping the result a
    pure function of ``stream``.  The result is Fortran-ordered with the
    LAPACK binding and C-ordered without it.
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
