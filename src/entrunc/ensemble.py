"""Monte Carlo engine: (m, s) sweeps under uniform-spreading or Haar dynamics.

A *realization* draws one pair of local unitaries and evaluates every
requested m against it.  Each reader writes a window's trace moments
(w, q) = (tr G, tr G²), G the Gram of its central s×s block, into the run's
one record; ``_collect`` alone forms K = w²/q from it, and ``_reduce`` every
mean and population std.  The chain ``truncate → reduced_purity →
schmidt_number`` is the single-window reference the tests hold every window to.

Each engine rule and its measured reason are stated once, in the docstring of:

* ``_plan``: which reader takes each window; where the weight rule is checked.
* ``_small_route``: walk or m×m Grams, from (n, m).
* ``_outside_read``: an anchor read off the rows outside it, from (n, s).
* ``_chunk``: how many draws the kernel reads together.
* ``_workspace`` and ``_read_small``: how many walk steps and window levels a
  reader holds at once.
* ``_pipelined``: when a worker thread reads draw j while the run draws j + 1.
* ``_walk``, ``_read_small``, ``_read_outside`` and ``_windows``: the readers.
* ``unitaries._one_blas_thread`` and ``unitaries._qr``: BLAS threads, the QR.

Reproducibility contract: realization j draws from ``base.child(j, 0)`` and
``base.child(j, 1)`` for the two subsystems and serves every m, so cells of
different m in one run are correlated.  A window's value depends only on the
draw and (n, m, s): not on the other windows requested (:func:`loss_sweep`
is exactly the diagonal of :func:`run_ensemble`), the chunk, the readers'
block sizes or the thread.  Draws and reductions go in index order, so the
output is bit-identical for a fixed master seed, numpy build, OpenBLAS
kernel and engine version, and row j of a run's record equals
``run_cell(…, base.child(j))``.  Where OpenBLAS has its thread setter, no
output byte depends on the BLAS thread count (``unitaries._one_blas_thread``).
A run raises the error the serial order meets first, and logs a progress
line with rate and ETA at most every ``PROGRESS_EVERY_S`` seconds.
``workers`` (:func:`run_ensemble`, :func:`loss_sweep`) is accepted for
compatibility and has no effect.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from functools import cached_property
from time import monotonic
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTruncationError, DimensionError
from .pipeline import _check_weight, truncate
from .statespace import HilbertDims, _check_int, _encoding_entries
from .unitaries import (
    RngStream, _dgemm_calls, _one_blas_thread, _set_blas_threads, sample_cue, uniform_spreading_unitary,
)

__all__ = [
    "UnitaryKind",
    "SweepConfig",
    "EnsembleStats",
    "LossPoint",
    "run_cell",
    "run_ensemble",
    "loss_sweep",
]

logger = logging.getLogger(__name__)

#: Least wall time between two progress lines, so runs shorter than this log none.
PROGRESS_EVERY_S = 10.0


class UnitaryKind(enum.Enum):
    """Which local dynamics a sweep applies."""

    UNIFORM_SPREADING = "uniform"
    RANDOM_CUE = "random"


def _check_values(name: str, values: tuple[int, ...]) -> None:
    """The list rules of a sweep axis; each entry's bounds are ``HilbertDims``'s."""
    if not values:
        raise DimensionError(f"{name} must not be empty")
    if None in values:  # HilbertDims reads s=None as s=n; a sweep names every window
        raise DimensionError(f"{name} must hold integers, got {values}")
    if list(values) != sorted(set(values)):
        raise DimensionError(f"{name} must be strictly ascending, got {values}")


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep.

    ``realizations`` and ``master_seed`` are ignored for the deterministic
    uniform-spreading kind.  ``independent_ab`` chooses whether the two
    subsystems get independent Haar draws (the default) or share one.
    """

    n: int
    m_values: tuple[int, ...]
    s_values: tuple[int, ...]
    unitary_kind: UnitaryKind = UnitaryKind.RANDOM_CUE
    realizations: int = 100
    master_seed: int = 0
    independent_ab: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "m_values", tuple(self.m_values))
        object.__setattr__(self, "s_values", tuple(self.s_values))
        _check_values("m_values", self.m_values)
        for m in self.m_values:  # checks n first, then each m
            HilbertDims(self.n, m)
        _check_values("s_values", self.s_values)
        for s in self.s_values:  # every m is valid by now, and the s rules do not depend on m
            HilbertDims(self.n, self.m_values[0], s)
        _check_int("realizations", self.realizations, 1)
        _check_int("master_seed", self.master_seed, 0)


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """The per-realization record of one sweep of ``config``, and its statistics.

    ``K`` and ``captured_weight`` are the record: the Schmidt number and the
    weight of every draw at every cell, arrays of shape (realizations,
    len(config.m_values), len(config.s_values)); row j is realization j (one
    draw for the deterministic uniform kind).  ``mean_K``, ``std_K``
    (population standard deviation; all zeros for the deterministic kind) and
    ``mean_captured_weight`` are reduced from it by ``_reduce`` on first read
    and kept (``K`` once, for both of its statistics), each of shape
    (len(config.m_values), len(config.s_values)).
    """

    config: SweepConfig
    K: np.ndarray
    captured_weight: np.ndarray

    @property
    def realizations(self) -> int:
        """The number of draws run (1 for the deterministic uniform kind)."""
        return len(self.K)

    @cached_property
    def _K_moments(self) -> tuple[np.ndarray, np.ndarray]:
        return _reduce(self.K)

    mean_K = property(lambda self: self._K_moments[0])
    std_K = property(lambda self: self._K_moments[1])

    @cached_property
    def mean_captured_weight(self) -> np.ndarray:
        return _reduce(self.captured_weight)[0]

    def cell(self, m: int, s: int) -> tuple[float, float, float]:
        """(mean_K, std_K, mean_captured_weight) of the (m, s) cell."""
        i = self.config.m_values.index(m)
        j = self.config.s_values.index(s)
        return (
            float(self.mean_K[i, j]),
            float(self.std_K[i, j]),
            float(self.mean_captured_weight[i, j]),
        )


class LossPoint(NamedTuple):
    """Entanglement loss of one encoding dimension truncated onto itself (s = m)."""

    m: int
    mean_loss: float
    std_loss: float
    mean_K: float
    mean_captured_weight: float


def _draw(
    n: int, unitary_kind: UnitaryKind, stream: RngStream | None, independent_ab: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The (U_A, U_B) pair of one realization; ``stream`` is unused for the uniform kind."""
    if unitary_kind is UnitaryKind.UNIFORM_SPREADING:
        u = uniform_spreading_unitary(n)
        return u, u
    if stream is None:
        raise ValueError("a stream is required for random-unitary cells")
    u_a = sample_cue(n, stream.child(0))
    return u_a, sample_cue(n, stream.child(1)) if independent_ab else u_a


def _read(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, q) = (tr G, tr G²) of a window off the Gram G = B·B† of its unnormalized block B.

    G is Hermitian, so tr G² = ‖G‖²_F: the float view sums Re² + Im².  Leading
    axes of ``gram`` stack Grams; w and q carry those axes.
    """
    parts = gram.view(float)
    return np.trace(gram, axis1=-2, axis2=-1).real, np.einsum("...ij,...ij->...", parts, parts)


def _block(a: np.ndarray, b: np.ndarray, s: int) -> np.ndarray:
    """The central s×s block of the state a·bᵀ (a and b share their central row).

    One product sized by (s, m) alone, however many rows a and b hold: BLAS
    gives different bits for the same entries at different shapes, so a
    block sliced off a wider product would make a window's value depend on
    which other windows are requested.
    """
    i = (len(a) - s) // 2
    return a[i:i + s] @ b[i:i + s].T


#: Bytes of a walk workspace's factor stacks (``_workspace``).
_STEP_BLOCK_BYTES = 3 * 2**18


def _workspace(count: int, n: int, widest: int) -> tuple:
    """The walk's buffers for up to ``count`` stacked n×n states up to window ``widest``.

    The row Gram, the evolved states, the two factors of one block of steps,
    and each slot's rank-2 update calls (``_dgemm_calls``).  ``_collect`` keeps
    one per run: fresh factor stacks cost every walk their page faults again,
    and the calls took 96 µs to build at n = 51 (R = 6, one BLAS thread), as
    long as 7 of the walk's 24 steps there.

    A block holds as many steps as ``_STEP_BLOCK_BYTES`` does, at 96·R·n bytes
    a step: three times the bytes of a chunk's 2¹⁴ complex entries (``_chunk``).
    A whole walk's factors take under 48·R·n² bytes, so every walk up to
    n = 128, each chunk of 6 at n = 51 among them, stays one block and makes
    the calls it made with all steps held.  Blocks of 16 steps (with blocks of
    16 levels in ``_read_small``) took ``sweep51`` 0.18-0.24 s wall against
    0.17-0.18 s (4 of 4 alternating perfbench pairs).  At n = 201 a block
    holds 40 of the 99 steps, 0.77 MB against 1.9 MB, and a walk at one BLAS
    thread took 4.2 ms at m = 51 either way and 5.0 against 4.9 ms at m = 201
    (minima of 30).
    """
    gram = np.empty((count, n, n), complex)
    steps = (widest - 3) // 2
    block = min(steps, max(1, _STEP_BLOCK_BYTES // (96 * count * n)))
    left, right = np.empty((count, block, n, 4)), np.empty((count, block, 4, 2 * n))
    return gram, np.empty_like(gram), left, right, _dgemm_calls(gram.view(float), left, right)


def _walk(plan: tuple, pairs: list[tuple], workspace: tuple, out: np.ndarray) -> None:
    """Evolve each (U_A, U_B) draw of ``pairs``, walk them, and write the walked (w, q) into ``out``.

    ``plan`` (``_plan``) names the walked windows, at least one; ``out`` is
    the (2, R, len(s_values)) slice of the run's record for these R draws;
    ``workspace`` (``_workspace``) holds at least R states up to the widest
    walked window.  Each n×n state C = U_A[:, E]·β_E·U_B[:, E′]ᵀ (E, E′ the
    encoding's columns) costs O(n²m), and its walk O(n³) whatever m is: from
    the row Gram of window s = 3 over every row of C, widened two columns at a
    time, each window s is read (``_read``) off its central s×s block.  No
    value depends on the other windows, nor on R: each step makes per state
    the BLAS call a lone state makes.

    A step adds p·p† for the n×2 pair p of new columns as one real
    (n×4)·(4×2n) product into the Gram's float view (Re and Im interleaved):
    per state one of the calls of ``_dgemm_calls``.  Row i of the row factor is
    ℓ_i = (Re p_i1, Im p_i1, Re p_i2, Im p_i2); the column factor is the float
    view of the complex 4×n stack [p̄₁; i·p̄₁; p̄₂; i·p̄₂], so entry 2k of row i
    is Re(p_i·p̄_k) and entry 2k + 1 is Im(p_i·p̄_k).  The product is real
    because OpenBLAS serves a complex one with an inner dimension of 2 poorly
    (CHANGES.md keeps the timings); at one BLAS thread a step took 21 µs at
    n = 201 and 13 µs for R = 6 at n = 51.  The workspace holds the factors of
    one block of B steps (``_workspace``): four calls fill a block's at its
    first step, and step k uses slot k mod B.  A fill copies and conjugates
    entries, so no bit depends on B.
    """
    (rows, cols, coeffs), s_values, walked, *_ = plan
    count, n = len(pairs), len(pairs[0][0])
    *buffers, calls = workspace
    gram, evolved, left, right = (buffer[:count] for buffer in buffers)
    for (u_a, u_b), state in zip(pairs, evolved):  # evolve(beta, u_a, u_b), one draw at a time
        a = u_a[:, rows]
        a *= coeffs
        np.matmul(a, u_b[:, cols].T, out=state)
    lo, block = (n - 3) // 2, left.shape[1]
    strip = evolved[..., lo:lo + 3]
    np.matmul(strip, strip.conj().swapaxes(-1, -2), out=gram)
    new = left.view(complex)  # (R, block, n, 2): ℓ_i = p_i as floats
    spread = right.view(complex)  # (R, block, 4, n): rows p̄₁, i·p̄₁, p̄₂, i·p̄₂
    for k, s in enumerate(range(3, walked[-1] + 1, 2), -1):
        if s > 3:  # two more columns, lo and lo + s − 1: a rank-2 update
            lo, slot = lo - 1, k % block
            if not slot:  # the next steps add columns lo, lo − 1, … and lo + s − 1, lo + s, …
                size = min(block, (walked[-1] - s) // 2 + 1)
                new[:, :size, :, 0] = evolved[..., lo - size + 1:lo + 1][..., ::-1].swapaxes(-1, -2)
                new[:, :size, :, 1] = evolved[..., lo + s - 1:lo + s - 1 + size].swapaxes(-1, -2)
                np.conjugate(new[:, :size].swapaxes(-1, -2), out=spread[:, :size, ::2])
                np.multiply(spread[:, :size, ::2], 1j, out=spread[:, :size, 1::2])
            for call in calls[slot][:count]:
                call()
        if s in walked:
            out[:, :, s_values.index(s)] = _read(gram[:, lo:lo + s, lo:lo + s])


def _small_route(n: int, m: int) -> bool:
    """Whether the windows of (n, m) are read off m×m Grams (``_read_small``), not walked.

    The walk (``_walk``) costs O(n³) whatever m is; the m×m route O(n m²)
    plus O(m³) per window.  At the run's one BLAS thread, on every odd window
    of one draw (minima of 100 draws, in rounds), they are level near
    m = 43-45 at n = 201 (m = 26: 1.75 ms m×m, 4.3 ms walked; m = 40: 3.5 and
    4.3 ms; m = 47: 5.4-5.6 and 4.4-4.6 ms) and, with chunks of 6 draws
    batching the walk, at m = 13 for n = 51 (0.19 ms per draw), where walking
    every m left ``sweep51`` level (each faster in 5 of 10 alternating
    perfbench pairs).  The rule, m² ≤ 8n, stays below the first (m ≤ 40 at
    n = 201) and reaches past the second (m ≤ 20 at n = 51); moving it would
    change the bits of the m it moves.  It reads (n, m) alone, so a window's
    value depends only on the draw and (n, m, s).
    """
    return m * m <= 8 * n


def _shell_grams(x: np.ndarray, top: int, block: int):
    """X_W†X_W of every window W of half-width 0 … ``top``, ``block`` half-widths at a time.

    Shell S holds rows c − S and c + S of the n×m ``x`` (c the centre row):
    one batched product gives a block's m×m shell increments, and a cumsum
    over them, started from the last Gram of the block before, sums them into
    the Grams of the nested windows.  Each sum is made in the order of one
    cumsum over every shell, so no bit depends on ``block``.  Every block is
    yielded in the same buffer, which the next one overwrites.
    """
    c, m = len(x) // 2, x.shape[1]
    down, up = x[c::-1], x[c:]
    grams = np.empty((min(block, top + 1), m, m), complex)
    for first in range(0, top + 1, block):
        here = grams[:top + 1 - first]
        shells = np.stack([down[first:first + len(here)], up[first:first + len(here)]], axis=1)
        total = grams[-1].copy()  # the last Gram of the block before
        np.matmul(shells.conj().transpose(0, 2, 1), shells, out=here)
        if first:
            here[0] += total
        else:
            here[0] *= 0.5  # the centre row is in both halves of shell 0
        yield np.cumsum(here, axis=0, out=here)


#: Bytes of one block of m×m Grams (``_read_small``).
_LEVEL_BLOCK_BYTES = 2**18


def _read_small(a: np.ndarray, b: np.ndarray, wanted: list[int]) -> np.ndarray:
    """(w, q) of the rank-m state a·bᵀ at each window of ``wanted`` (ascending): shape (2, |wanted|).

    With P = A_W†A_W and Q = B_W†B_W, the window's Gram G = A_W·Q̄·A_W† has
    w = tr G = tr(P·Q̄) and q = tr G² = tr((P·Q̄)²), so every window costs O(m³).

    The levels S = s // 2 go in blocks of as many m×m Grams as
    ``_LEVEL_BLOCK_BYTES`` holds (``_shell_grams``), and each block takes one
    P·Q̄ product and its traces over every level it holds, wanted or not.  So
    a sparse ``wanted`` costs what every window up to its widest costs: at one
    BLAS thread (minima of 50 calls, in five rounds), windows 3, 99 and 199 at
    n = 201, m = 40 took 3.2-3.3 ms against 3.3-3.4 ms for every window and
    2.1-2.5 ms with a product per run of wanted levels, and 3 and 51 at
    n = 51, m = 20 took 0.21 against 0.16-0.19 ms; no benchmark, CI or README
    run sends this route a sparse list past one block.  The route holds three
    blocks whatever n is: a 0.95 MB traced peak at n = 201, m = 25, against
    3.2 MB with the Grams of every level stacked (1.0 against 8.0 MB at
    m = 40).  The budget, 2¹⁴ complex entries as in a chunk (``_chunk``), keeps
    every route at n = 51 (m ≤ 20, 26 levels) in one block; at 2¹⁶ bytes the
    m = 13 route there splits in two and took 0.17 against 0.13 ms.  At one
    BLAS thread, over every window at n = 201, a call took 1.25-1.35 ms at
    m = 25 with 2 minor page faults, against 2.4 ms and 747 with the whole
    stacks, and 3.3-3.4 against 5.3-5.5 ms at m = 40; at 2¹⁷ bytes, 1.42 and
    4.0 ms, at the same ``sweep201`` peak RSS.
    """
    top, m = wanted[-1] // 2, a.shape[1]
    block = max(1, _LEVEL_BLOCK_BYTES // (16 * m * m))
    pq, traces = np.empty((min(block, top + 1), m, m), complex), []
    for p, q in zip(_shell_grams(a, top, block), _shell_grams(b.conj(), top, block)):
        here = np.matmul(p, q, out=pq[:len(p)])
        traces.append((np.einsum("kii->k", here).real, np.einsum("kij,kji->k", here, here).real))
    return np.concatenate(traces, axis=1)[:, [s // 2 for s in wanted]]


def _outside_read(n: int, s: int) -> bool:
    """Whether anchor window s is read off the n − s rows outside it (``_read_outside``).

    The anchor's own block and its Gram cost O(s²m + s³), the rows outside
    O((n − s)²m).  With m = s, on one draw at the run's one BLAS thread, they
    break even near s = 29-31 at n = 51 (3s ≈ 1.8n) and s = 135-139 at
    n = 201 (3s ≈ 2.05n).  With every anchor read off its block, ``loss201``
    took 0.17-0.22 s wall against 0.08-0.11 s (6 of 6 alternating perfbench
    pairs).  The rule, 3s ≥ 2n, reads (n, s) alone, so a window's value
    depends only on the draw and (n, m, s).
    """
    return 3 * s >= 2 * n


def _read_outside(y_a: np.ndarray, y_b: np.ndarray, alpha: float) -> tuple[float, float]:
    """(w, q) of a window off the r rows y_a and y_b of A and B outside it, in O(r²m).

    A†A = αI (α = |β|² = 1/m for the encoding) and B†B = I, so
    P = A_W†A_W = αI − y_a†y_a and Q̄ = I − y_bᵀȳ_b, and X = P·Q̄ = αI + L·R
    with L = [y_a† | y_bᵀ] = Z† for Z = [y_a ; ȳ_b] and
    R = [(y_a·y_bᵀ)·ȳ_b − y_a ; −α·ȳ_b] = T·Z, T = [[−I, y_a·y_bᵀ], [0, −αI]].
    So w = tr X = αm + tr(RL) and q = tr X² = α²m + 2α·tr(RL) + tr((RL)²),
    where RL = T·ZZ† is only 2r×2r.  At r = 0 that is the closed form
    (αm, α²m).
    """
    r, m = y_a.shape
    z = np.concatenate((y_a, y_b.conj()))
    h = z @ z.conj().T  # [[y_a·y_a†, y_a·y_bᵀ], [ȳ_b·y_a†, ȳ_b·y_bᵀ]]
    rl = np.concatenate((h[:r, r:] @ h[r:] - h[:r], -alpha * h[r:]))
    t = float(np.trace(rl).real)
    w = alpha * m + t
    return w, alpha * (w + t) + float(np.einsum("ij,ji->", rl, rl).real)


def _plan(n: int, m: int, s_values: tuple[int, ...]) -> tuple:
    """How (n, m) reads the windows ``s_values``: the one place the route rules apply.

    Returns (entries, s_values, walked, small, nested, anchor, blocks, wide),
    all that the readers take of m; ``entries`` are the encoding's
    (rows, cols, β[rows, cols]) (``_encoding_entries``).  Every window but the
    anchor s* = m | 1 (the smallest odd s ≥ m) is walked (``walked``) or,
    where ``_small_route`` holds, read off m×m Grams (``small``); ``nested``
    masks them in ``s_values``.  ``wide``: the anchor is requested and read off
    its outside rows (``_outside_read``).  Nested windows only gain weight, so
    the degenerate-weight rule is checked once per (draw, m), on the narrowest
    window: by ``truncate`` of its block (``blocks`` holds it and a narrow
    anchor), or by ``pipeline._check_weight`` on the w of a wide anchor, which
    has no block.  A loss sweep (s = m) thus takes neither route.  The rules
    read (n, m, s) alone, so ``_collect`` plans each m once per run.
    """
    anchor = m | 1
    nested = [s for s in s_values if s != anchor]
    wide = anchor in s_values and _outside_read(n, anchor)
    blocks = {s_values[0], anchor} & set(s_values) - ({anchor} if wide else set())
    walked, small = ([], nested) if _small_route(n, m) else (nested, [])
    return (_encoding_entries(HilbertDims(n, m)), s_values, walked, small,
            np.array(s_values) != anchor, anchor, blocks, wide)


def _windows(plan: tuple, u_a: np.ndarray, u_b: np.ndarray, out: np.ndarray) -> None:
    """Write (w, q) of every window the walk does not read into ``out``; check the weight rule.

    ``out`` is this draw's (2, len(s_values)) row of the run's record, and
    ``plan`` is ``_plan(n, m, s_values)``.  Those windows are the anchor and
    the m×m route's; all but a wide anchor are read off one gather of the
    central rows of the widest of them, which also gives the narrowest
    window's block.  One draw at a time keeps errors in realization order;
    stacked m×m Grams would save calls but cost more in page faults.
    """
    (rows, cols, coeffs), s_values, _, small, nested, anchor, blocks, wide = plan
    n, narrowest = len(u_a), s_values[0]
    if wide:  # a wide anchor gets no block
        lo = (n - anchor) // 2
        outside = np.arange(-lo, lo)[:, None]  # the last lo rows and the first lo
        out[:, s_values.index(anchor)] = _read_outside(u_a[outside, rows] * coeffs,
                                                       u_b[outside, cols], 1 / len(rows))
    if blocks or small:  # the one gather of central rows
        lo = (n - max(blocks | set(small))) // 2
        a, b = u_a[lo:n - lo, rows], u_b[lo:n - lo, cols]
        a *= coeffs
        if small:
            out[:, nested] = _read_small(a, b, small)
        # one block serves the narrowest window and a narrow anchor when they coincide, as in a loss sweep
        block = {s: _block(a, b, s) for s in blocks}
        # freed before truncate's copy and the anchor's Gram: held, they cost a
        # loss sweep a quarter more page faults
        del a, b
    if blocks:  # the narrowest window is in it
        truncate(block[narrowest], narrowest)  # the degenerate-weight rule for every window
        if anchor in block:
            out[:, s_values.index(anchor)] = _read(block[anchor] @ block[anchor].conj().T)
    else:  # the narrowest window is a wide anchor: the same rule on its weight
        _check_weight(out[0, 0], narrowest)


def run_cell(
    n: int,
    m: int,
    s_values: tuple[int, ...],
    unitary_kind: UnitaryKind,
    stream: RngStream | None = None,
    independent_ab: bool = True,
) -> list[tuple[int, float, float]]:
    """One realization of one m at every window; returns (s, K, weight) triples.

    ``s_values`` obeys the list rules of ``SweepConfig.s_values``.  The cell is
    a one-draw run of ``stream``, so it equals row j of a sweep's record when
    ``stream`` is that sweep's ``RngStream(master_seed).child(j)``.
    """
    HilbertDims(n, m)  # names m itself, not the config's m_values
    # every rule is checked before the pair is drawn
    config = SweepConfig(n, (m,), s_values, unitary_kind, independent_ab=independent_ab)
    k, w = _collect(config, [config.s_values], [stream])
    return list(zip(config.s_values, k[0, 0].tolist(), w[0, 0].tolist()))


def _chunk(n: int) -> int:
    """Realizations drawn and evaluated together: about 2¹⁴ state entries, one draw from n = 91.

    At small n the kernels cost their numpy call overhead more than their
    arithmetic, and one call serves a whole chunk: ``_walk`` walks its draws
    together.  ``_windows`` still reads draw by draw.  With chunks of one
    draw, ``sweep51`` (n = 51) took 0.36-0.43 s wall against 0.26-0.31 s, in
    6 of 6 alternating perfbench pairs, for 1.5 MB less peak RSS.
    """
    return max(1, 2**14 // (n * n))


def _streams(config: SweepConfig) -> list[RngStream | None]:
    """Realization j's stream, ``RngStream(master_seed).child(j)``; the uniform kind draws once."""
    if config.unitary_kind is UnitaryKind.UNIFORM_SPREADING:
        return [None]
    return [RngStream(config.master_seed).child(j) for j in range(config.realizations)]


def _pipelined(n: int, draws: int) -> bool:
    """Whether a run reads draw j on a worker thread while it draws j + 1 (``_collect``).

    Where a chunk is one draw (``_chunk``) and there are at least two, the
    Haar draws run alongside the reads of the draw before; no value changes.
    With the pipeline off, in alternating perfbench pairs, ``loss201`` took
    0.105-0.134 s wall against 0.080-0.091 s (6 of 6; 10% less CPU) and
    ``sweep201`` 0.111-0.150 s against 0.107-0.136 s (9 of 10; CPU level),
    each for 2-3 MB less peak RSS.  Pipelined chunks do not pay: they raised
    ``sweep51``'s CPU time from 0.24-0.31 s to 0.31-0.36 s (6 of 6) for a
    wall time within noise.  A loss grid of 40 draws ran slower pipelined at
    n = 71 (chunks of 3) in 5 of 6 alternating runs, and faster at n = 91:
    0.127-0.134 s against 0.153-0.178 s serial.
    """
    return draws >= 2 and _chunk(n) == 1


@_one_blas_thread()
def _collect(
    config: SweepConfig, windows: list[tuple[int, ...]], streams: list[RngStream | None]
) -> tuple[np.ndarray, np.ndarray]:
    """The record (K, weight) of one draw per stream of ``streams``, for every m.

    ``windows[i]`` are the windows of ``config.m_values[i]``, equally many for
    every m.  A chunk (``_chunk``) draws its pairs, one per stream (unused for
    the uniform kind), in index order, walks each m that walks (``_walk``),
    then reads every other window draw by draw, m by m (``_windows``), so
    errors and progress lines keep realization order.  Where ``_pipelined``
    holds, one worker thread reads chunk j while this thread, which holds the
    run's ``_one_blas_thread`` scope, draws j + 1 and waits for read j before
    it hands j + 1 over: one workspace and at most two pairs are alive, and an
    error of read j wins over one of draw j + 1.  Returns K = w²/q, formed
    once over the run's (w, q) array, and w, each of shape (len(streams),
    len(config.m_values), len(windows[0])).
    """
    n, draws = config.n, len(streams)
    plans = [_plan(n, m, s_values) for m, s_values in zip(config.m_values, windows)]
    record = np.empty((2, draws, len(windows), len(windows[0])))
    chunk = min(draws, _chunk(n))
    widest = max((plan[2][-1] for plan in plans if plan[2]), default=0)  # the widest walked window
    workspace = _workspace(chunk, n, widest) if widest else None
    start = reported = monotonic()

    def draw(first: int) -> list[tuple[np.ndarray, np.ndarray]]:
        return [_draw(n, config.unitary_kind, stream, config.independent_ab)
                for stream in streams[first:first + chunk]]

    def read(first: int, pairs: list[tuple[np.ndarray, np.ndarray]]) -> None:
        nonlocal reported
        for i, plan in enumerate(plans):
            if plan[2]:  # an m that walks
                _walk(plan, pairs, workspace, record[:, first:first + chunk, i])
        for j, (u_a, u_b) in enumerate(pairs, first):
            for i, (m, plan) in enumerate(zip(config.m_values, plans)):
                try:
                    _windows(plan, u_a, u_b, record[:, j, i])
                except DegenerateTruncationError as err:
                    raise DegenerateTruncationError(f"realization {j}, m={m}: {err}") from err
            now = monotonic()
            if now - reported >= PROGRESS_EVERY_S:
                reported, rate = now, (j + 1) / (now - start)
                logger.info("realization %d/%d, %.2f/s, ETA %.0f s",
                            j + 1, draws, rate, (draws - j - 1) / rate)

    if not _pipelined(n, draws):
        for first in range(0, draws, chunk):
            read(first, draw(first))  # a lone draw is freed before the next one allocates its own
    else:
        # imported here: its 4 ms would go to the start-up of every run_cell and small-n run
        from concurrent.futures import ThreadPoolExecutor

        # an OpenMP BLAS keeps a count per thread: the reader sets its own to the run's one
        with ThreadPoolExecutor(1, initializer=_set_blas_threads, initargs=(1,)) as reader:
            reading = reader.submit(read, 0, draw(0))
            for j in range(1, draws):
                try:
                    pairs = draw(j)
                finally:  # read j − 1 comes before draw j in the serial order, and so do its errors
                    reading.result()
                reading = reader.submit(read, j, pairs)
            reading.result()
    logger.debug("n=%d: %d realization(s) over %d m value(s)", n, draws, len(plans))
    w, q = record
    return w * w / q, w


def _reduce(record: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std over the draws (axis 0) of a record, reduced in index order.

    A cell whose draws are all bit-identical reads that value and 0.0:
    numpy's mean of identical values can round off them (at n = m = s = 105
    every draw gives K = 104.99999999999999, whose mean over 10 draws is
    104.99999999999997, with a std of 1.4e-14).
    """
    same = (record == record[0]).all(axis=0)
    return np.where(same, record[0], record.mean(axis=0)), np.where(same, 0.0, record.std(axis=0))


def run_ensemble(config: SweepConfig, workers: int = 1) -> EnsembleStats:
    """Sweep the full (m, s) grid of ``config`` and aggregate statistics.

    ``workers`` is accepted for compatibility and has no effect.
    """
    return EnsembleStats(config, *_collect(config, [config.s_values] * len(config.m_values),
                                           _streams(config)))


def loss_sweep(config: SweepConfig, workers: int = 1) -> list[LossPoint]:
    """Entanglement loss Δ = m − mean K with the window matched to the encoding (s = m).

    Requires ``config.s_values == config.m_values`` (both odd, ascending);
    only the diagonal cells are computed.  ``workers`` is accepted for
    compatibility and has no effect.
    """
    if config.s_values != config.m_values:
        raise DimensionError(
            "loss sweeps require s_values == m_values (truncation onto the encoding subspace)"
        )
    k, w = _collect(config, [(m,) for m in config.m_values], _streams(config))
    (mean_k, std_k), (mean_w, _) = _reduce(k), _reduce(w)
    return [
        LossPoint(
            m=m,
            mean_loss=float(m - k),
            std_loss=float(std),
            mean_K=float(k),
            mean_captured_weight=float(w),
        )
        for m, k, std, w in zip(config.m_values, mean_k[:, 0], std_k[:, 0], mean_w[:, 0])
    ]
