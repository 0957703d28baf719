"""Monte Carlo engine: (m, s) sweeps under uniform-spreading or Haar dynamics.

A *realization* draws one pair of local unitaries and evaluates every
requested m against it.  A run keeps one record, the Schmidt number K and the
weight w of every (realization, m, s), and its statistics (per-(m, s) means
and population standard deviations) are reduced from that record by
``_reduce``, which reads a cell whose draws are all identical as that value
with a spread of 0.0.

Window kernel.  Per (realization, m) the state is C = A·Bᵀ with
A = U_A[R, E]·β_E and B = U_B[R, E′], gathered through the m encoding
columns E, E′ (read once per run, with β_E, from the sparse definition of β)
and over only the rows R that a read needs: all n rows for the walk below,
the rows outside a wide anchor, and for every other window of the draw one
gather of the central rows of the widest of them.  Window s has the trace
moments w = tr G = tr ρ̃ (its weight) and q = tr G² = ‖G‖²_F = tr ρ̃², with
G = C_W·C_W† the Gram of its central s×s block C_W.  Every path below
writes the pair (w, q) into one (2, draws, |m|, |windows|) array of the run,
and ``_collect`` alone forms the Schmidt number K = w²/q from it, once, over
the whole array.  The windows are nested, so the kernel grows their Grams
outward one shell (two levels) at a time from s = 3, by one of two routes
that ``_small_route`` picks from (n, m) alone: m² ≤ 8n, fitted to the
measured cost of both at n = 51 and n = 201.

* The walk evolves the n×n state C in O(n²m), the only route that does,
  keeps the n×n row Gram C[:, W]·C[:, W]† of the window's columns W, adds
  two columns per shell as a rank-2 update, and reads window s off its
  central block through ``_read``: O(n³) per m.  Each update is one
  real (n×4)·(4×2n) product added into the Gram's float view by one BLAS
  call, dgemm with β = 1, where numpy links scipy-openblas64
  (``unitaries._dgemm``); elsewhere it is numpy's matmul and a ``+=``.
  BLAS runs a complex product with an inner dimension of 2 several times
  slower (see ``_walk``).
* The m×m route uses that C has rank m.  With P = A_W†A_W and
  Q = B_W†B_W, w = tr(P·Q̄) and q = tr((P·Q̄)²): one batched product
  gives every shell's m×m increment, one cumsum sums them into every P and
  Q̄, and one batched P·Q̄ reads every window, in O(n m²) plus O(m³) per
  window.

Either route passes every requested window but the anchor s* = m | 1 (the
smallest odd s ≥ m).  A narrow anchor is read by ``_read`` off the Gram
C_W·C_W† of its own central block, a product A_W·B_Wᵀ sized by (s, m) alone
(``_block``).  A wide one, 3s* ≥ 2n (``_outside_read``, a rule of (n, s*)
alone), is read by ``_read_outside`` off the r = n − s* rows of A and B
outside the window: A†A = αI (α = 1/m) and B†B = I make P·Q̄ the sum of αI
and a term of rank 2r, so (w, q) cost O(r²m) in place of the block's
O(s²m + s³), and at s* = n they are the closed form (αm, α²m).  The
degenerate-weight rule is checked once per (realization, m), on the
narrowest requested window: nested windows only gain weight, so that one
check covers all.  Where that window has a block (it is not a wide anchor),
the check is a ``truncate`` of it, and one block serves it and a narrow
anchor when they coincide; a wide anchor has no block, and its w goes
through ``pipeline._check_weight``, the rule ``truncate`` applies.  So a
loss sweep (s = m) takes neither route and allocates no n×n array beyond
the Haar pair.  ``_plan`` is the one place that applies these rules: once
per (run, m), it splits the requested windows among the walk, the m×m
Grams, the blocks and the outside read, and its plan, which also carries the
encoding's entries, is all that the readers take of m.  The
public chain ``truncate → reduced_purity → schmidt_number`` stays the
single-window reference that the tests compare every window against.

Chunks.  ``_collect`` draws realizations in chunks of R = ``_chunk(n)``,
max(1, ⌊2¹⁴/n²⌋): 6 at n = 51, 1 from n = 91, and splits the kernel into
batched and per-draw work.  ``_walk`` does the batched work and nothing
else: it evolves the R states of one walk-route m into one stack, walks
them together, so each step is one batched product for the chunk, and writes
each walked window straight into the record; its buffers come from one
``_workspace`` per run.  ``_windows`` does the rest, draw by draw in
realization order: the m×m route (stacked over a chunk, its Grams cost more
in page faults than they save in calls), the narrowest window's block and a
narrow anchor, all off the draw's one gather of central rows, and a wide
anchor off its outside rows; then it checks the degenerate-weight rule, so
its errors keep realization order.  Where a chunk is one draw and a run has
more than one (``_pipelined``), the run's one worker thread reads draw j
while the caller's thread draws j + 1, which it hands over once read j is
done; the draws, their index order and every value stay as they are.
:func:`run_cell` is a run of one draw: ``_collect`` over its one stream, so
it never pipelines.

Reproducibility contract: realization j uses the streams ``base.child(j, 0)``
and ``base.child(j, 1)`` for the two subsystems, for every m; the pair is
drawn once, so cells of different m in one run are correlated.  A window's
value depends only on the draw and (n, m, s), not on which other windows
are requested, so :func:`loss_sweep` equals the diagonal of
:func:`run_ensemble` exactly; nor on the chunk it ran in, since a batched
product makes per draw the BLAS call a lone draw makes.  Realizations are
drawn in index order, and statistics are reduced in fixed index order — so
the output is bit-identical for a fixed master seed and numpy/BLAS build,
and :func:`run_cell` replays any realization of any m in isolation: row j of
a run's record equals ``run_cell(…, base.child(j))``, on the pipelined path
too, since a read on the worker thread makes the calls a serial read makes.
Under an OpenBLAS with its thread setter, ``_collect`` runs each whole run,
its worker thread included, on one BLAS thread
(``unitaries._one_blas_thread``) and restores the caller's count after it,
so no output byte depends on the BLAS thread count either; without the
setter a run uses the caller's count, which can change the last digits.
A pipelined run raises the error the serial order meets first, and its
worker thread ends with the run, raising or not.  Runs log a progress line
with rate and ETA at most every ``PROGRESS_EVERY_S`` seconds.  The
``workers`` argument of :func:`run_ensemble` and :func:`loss_sweep` is
accepted for compatibility and has no effect: a run's one worker thread
does not depend on it.
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
    RngStream, _dgemm, _dgemm_calls, _one_blas_thread, _set_blas_threads, sample_cue,
    uniform_spreading_unitary,
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
    and kept, each of shape (len(config.m_values), len(config.s_values)).
    """

    config: SweepConfig
    K: np.ndarray
    captured_weight: np.ndarray

    @property
    def realizations(self) -> int:
        """The number of draws run (1 for the deterministic uniform kind)."""
        return len(self.K)

    @cached_property
    def mean_K(self) -> np.ndarray:
        return _reduce(self.K)[0]

    @cached_property
    def std_K(self) -> np.ndarray:
        return _reduce(self.K)[1]

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


def _workspace(count: int, n: int, widest: int) -> tuple:
    """The walk's buffers for up to ``count`` stacked n×n states up to window ``widest``.

    Its row Gram, the evolved states, the row and column factors of every
    step, and the ``_dgemm`` arguments that add each step's product into the
    Gram (``unitaries._dgemm_calls``; None without the binding, where each
    product goes into the evolved states' buffer, read by then, and a
    ``+=`` adds it).  ``_collect`` keeps one per run: fresh factor stacks
    cost every walk their page faults again, and the arguments cost about
    100 µs to build, as much as a walk at n = 51 saves by them.
    """
    gram = np.empty((count, n, n), complex)
    steps = (widest - 3) // 2
    left, right = np.empty((count, steps, n, 4)), np.empty((count, steps, 4, 2 * n))
    calls = None if _dgemm is None else _dgemm_calls(gram.view(float), left, right)
    return gram, np.empty_like(gram), left, right, calls


def _walk(plan: tuple, pairs: list[tuple], workspace: tuple, out: np.ndarray) -> None:
    """Evolve each (U_A, U_B) draw of ``pairs``, walk them, and write the walked (w, q) into ``out``.

    ``plan`` (from ``_plan``) names the walked windows, at least one;
    ``_windows`` reads every other window.  ``out`` is the
    (2, R, len(s_values)) slice of the run's record for these R draws.  Their
    R evolved n×n states are walked together, each step one batched product
    for all of them (R ``_dgemm`` calls where it is bound), with the buffers
    and call arguments of ``workspace`` (from ``_workspace``,
    for at least R states and the widest walked window).

    Starts from the row Gram of window s = 3 over every row of the state and
    widens it two columns at a time; window s is its central s×s block.  The
    Gram at step s does not depend on the other windows, so neither does any
    value.

    Each step adds p·p† for the n×2 pair p of new columns, as one real
    (n×4)·(4×2n) product added into the Gram's float view (Re and Im
    interleaved): per state one ``_dgemm`` call with β = 1, the bits of
    numpy's matmul and a ``+=`` (tested), which is the fallback.
    Row i of its row factor is ℓ_i = (Re p_i1, Im p_i1, Re p_i2, Im p_i2); its
    column factor is the float view of the complex 4×n stack
    [p̄₁; i·p̄₁; p̄₂; i·p̄₂], whose column k holds ℓ_k in its real parts and
    (−Im p_k1, Re p_k1, −Im p_k2, Re p_k2) in its imaginary ones, so entry 2k
    of row i is Re(p_i·p̄_k) and entry 2k + 1 is Im(p_i·p̄_k).  OpenBLAS
    serves a complex product with an inner dimension of 2 poorly: at n = 201
    (OpenBLAS 0.3.31, 2 cores) the complex step with its ``+=`` took 65 µs
    at one thread and 107 µs at two, the real product with its ``+=`` 49 µs
    and the one ``_dgemm`` call 20 µs at either.
    """
    (rows, cols, coeffs), s_values, walked, *_ = plan
    count, n, steps = len(pairs), len(pairs[0][0]), (walked[-1] - 3) // 2
    *buffers, calls = workspace
    gram, evolved, left, right = (buffer[:count] for buffer in buffers)
    left, right = left[:, :steps], right[:, :steps]
    for (u_a, u_b), state in zip(pairs, evolved):  # evolve(beta, u_a, u_b), one draw at a time
        a = u_a[:, rows]
        a *= coeffs
        np.matmul(a, u_b[:, cols].T, out=state)
    lo = (n - 3) // 2
    strip = evolved[..., lo:lo + 3]
    np.matmul(strip, strip.conj().swapaxes(-1, -2), out=gram)
    # both factors of every step, filled in place: step k adds columns lo − k − 1 and lo + k + 3
    new = left.view(complex)  # (R, steps, n, 2): ℓ_i = p_i as floats
    new[..., 0] = evolved[..., lo - steps:lo][..., ::-1].swapaxes(-1, -2)
    new[..., 1] = evolved[..., lo + 3:lo + 3 + steps].swapaxes(-1, -2)
    spread = right.view(complex)  # (R, steps, 4, n): rows p̄₁, i·p̄₁, p̄₂, i·p̄₂
    np.conjugate(new.swapaxes(-1, -2), out=spread[..., ::2, :])
    np.multiply(spread[..., ::2, :], 1j, out=spread[..., 1::2, :])
    flat, step = gram.view(float), evolved.view(float)  # without _dgemm, the products overwrite the states
    for k, s in enumerate(range(3, walked[-1] + 1, 2), -1):
        if s > 3:  # two more columns: a rank-2 update
            lo -= 1
            if calls is None:
                flat += np.matmul(left[:, k], right[:, k], out=step)
            else:
                for args in calls[k][:count]:
                    _dgemm(*args)
        if s in walked:
            out[:, :, s_values.index(s)] = _read(gram[:, lo:lo + s, lo:lo + s])


def _small_route(n: int, m: int) -> bool:
    """Whether the windows of (n, m) are read off m×m Grams (``_read_small``), not walked.

    The walk costs O(n³) whatever m is; the m×m route grows with m.  Timed
    on one draw at the run's one BLAS thread, the two break even near m = 21
    at n = 51 and m = 43 at n = 201, both near m² = 9n.
    """
    return m * m <= 8 * n


def _shell_grams(x: np.ndarray, levels: list[int]) -> np.ndarray:
    """X_W†X_W of every window W of half-width S in ``levels`` (ascending), stacked.

    Shell S holds rows c − S and c + S of the n×m ``x`` (c the centre row):
    one batched product gives every shell's m×m increment, and one cumsum over
    shells sums them into the Grams of the nested windows.
    """
    c = x.shape[0] // 2
    shells = np.stack([x[c::-1], x[c:]], axis=1)[:levels[-1] + 1]
    grams = shells.conj().transpose(0, 2, 1) @ shells
    grams[0] *= 0.5  # the centre row is in both halves of shell 0
    return np.cumsum(grams, axis=0, out=grams)[levels]


def _read_small(a: np.ndarray, b: np.ndarray, wanted: list[int]) -> np.ndarray:
    """(w, q) of the rank-m state a·bᵀ at each window of ``wanted`` (ascending): shape (2, |wanted|).

    With P = A_W†A_W and Q = B_W†B_W, the window's Gram G = A_W·Q̄·A_W† has
    w = tr G = tr(P·Q̄) and q = tr G² = tr((P·Q̄)²), so every window costs O(m³).
    """
    levels = [s // 2 for s in wanted]
    pq = _shell_grams(a, levels) @ _shell_grams(b.conj(), levels)
    return np.stack((np.einsum("kii->k", pq).real, np.einsum("kij,kji->k", pq, pq).real))


def _outside_read(n: int, s: int) -> bool:
    """Whether anchor window s is read off the n − s rows outside it (``_read_outside``).

    The anchor's own block and its Gram cost O(s²m + s³), the rows outside
    O((n − s)²m).  Timed with m = s on one draw at the run's one BLAS
    thread, the two break even near s = 30 at n = 51 and s = 125 at
    n = 201, a little below 3s = 2n.  The rule reads (n, s) alone, so a
    window's value still depends only on the draw and (n, m, s).
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
    everything the readers take for one m.  ``entries`` are the encoding's
    (rows, cols, β[rows, cols]) (``_encoding_entries``).  Every window but the
    anchor s* = m | 1 goes to the walk (``walked``) or, where ``_small_route``
    holds, to the m×m Grams (``small``); the other list is empty, and
    ``nested`` masks both in ``s_values``.  ``blocks`` are the windows read off
    their own block: the narrowest, for the degenerate-weight rule, unless it
    is a wide anchor, and a narrow anchor.  ``wide`` says whether the anchor is
    requested and read off its outside rows (``_outside_read``).  The rules
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
    the windows of the m×m Grams.  All but a wide anchor are read off one
    gather of the central rows of the widest of them, which also gives the
    block of the narrowest window for the degenerate-weight rule (module doc).
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

    At small n the window kernels cost their numpy call overhead more than
    their arithmetic, and one call serves a whole chunk.
    """
    return max(1, 2**14 // (n * n))


def _streams(config: SweepConfig) -> list[RngStream | None]:
    """Realization j's stream, ``RngStream(master_seed).child(j)``; the uniform kind draws once."""
    if config.unitary_kind is UnitaryKind.UNIFORM_SPREADING:
        return [None]
    return [RngStream(config.master_seed).child(j) for j in range(config.realizations)]


def _pipelined(n: int, draws: int) -> bool:
    """Whether a run reads draw j on a worker thread while it draws j + 1 (``_collect``).

    Where a chunk is one draw (n ≥ 91) and there are at least two, the Haar
    draw, about 55% of a serial ``loss201`` pass (0.045-0.070 of 0.086-0.126 s,
    2 cores), runs alongside the reads of the draw before it.  Timed serial → pipelined on loss grids: n = 51 0.050 → 0.079 s
    (its chunks of 6 batch the reads instead), n = 71 level, n = 91 0.075 →
    0.064 s, n = 131 0.107 → 0.074 s.  Where walks make most of the reads
    (README's n = 201 grid) the gain is small: a walk slows down while a
    draw runs alongside it.
    """
    return draws >= 2 and _chunk(n) == 1


@_one_blas_thread()
def _collect(
    config: SweepConfig, windows: list[tuple[int, ...]], streams: list[RngStream | None]
) -> tuple[np.ndarray, np.ndarray]:
    """The record (K, weight) of one draw per stream of ``streams``, for every m.

    ``windows[i]`` are the windows of ``config.m_values[i]``, equally many for
    every m; the run plans each m once (``_plan``) and sizes its walk buffers
    from the walked windows.  Realization j draws its pair once, from
    ``streams[j]`` (unused for the deterministic uniform kind), and evaluates
    every m against it.  Realizations run in chunks of ``_chunk(n)``: a chunk
    draws its pairs in index order, walks the walked windows of each m that
    walks through ``_walk`` at once, then reads every other window
    realization by realization, m by m, through ``_windows`` (so the
    degenerate-weight check, its errors and the progress lines keep
    realization order).  Where ``_pipelined`` holds, one
    worker thread of the run reads chunk j (one draw) while this thread draws
    j + 1, and this thread waits for read j before it hands over j + 1: one
    workspace and at most two pairs are alive, and an error of read j wins
    over one of draw j + 1, as in the serial order.  The draws stay on this
    thread, which holds the run's BLAS scope (``sample_cue`` enters it too).
    Both write (w, q) into one array of shape (2, len(streams),
    len(config.m_values), len(windows[0])), over which K = w²/q is formed
    once.  Returns K and w, each of the record's shape (len(streams),
    len(config.m_values), len(windows[0])).  The whole run is one
    ``_one_blas_thread`` scope, so no value depends on the BLAS thread count.
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
