"""Monte Carlo engine: (m, s) sweeps under uniform-spreading or Haar dynamics.

A *realization* draws one pair of local unitaries and evaluates every
requested m against it.  Ensembles aggregate the Schmidt number over
realizations into per-(m, s) means and population standard deviations.

Window kernel.  Per (realization, m) the state is evolved once, through its
m encoding columns only: C = A·Bᵀ with A = U_A[:, E]·β_E and B = U_B[:, E′],
both n×m, in O(n²m), with E, E′ and β_E read once per run from
:func:`make_initial_state`.  Window s has the trace moments w = tr G = tr ρ̃
(its weight) and q = tr G² = ‖G‖²_F = tr ρ̃², with G = C_W·C_W† the Gram of
its central s×s block C_W.  Every path below yields the pair (w, q), and
``_windows`` alone forms the Schmidt number K = w²/q from it.  The windows
are nested, so the kernel grows their Grams outward one shell (two levels)
at a time from s = 3, by one of two routes that ``_small_route`` picks from
(n, m) alone: m² ≤ 8n, fitted to the measured cost of both at n = 51 and
n = 201.

* The walk keeps the n×n row Gram C[:, W]·C[:, W]† of the window's columns
  W, adds two columns per shell as a rank-2 update, and reads window s off
  its central block through ``_read``: O(n³) per m.  Each update is one
  real (n×4)·(4×2n) product into the Gram's float view, because BLAS runs
  a complex product with an inner dimension of 2 two to three times slower
  (see ``_walk``).
* The m×m route uses that C has rank m.  With P = A_W†A_W and
  Q = B_W†B_W, w = tr(P·Q̄) and q = tr((P·Q̄)²): one batched product
  gives every shell's m×m increment, one cumsum sums them into every P and
  Q̄, and one batched P·Q̄ reads every window, in O(n m²) plus O(m³) per
  window.

Either route passes every requested window but the anchor s* = m | 1 (the
smallest odd s ≥ m), which ``_read`` reads off the Gram B·B† of its own
central block B, so a loss sweep (s = m) takes neither route and never
builds an n×n Gram.  The engine calls ``truncate`` once per
(realization, m), on the narrowest requested window: nested windows only
gain weight, so that one call applies the degenerate-weight rule to all.
The public chain ``truncate → reduced_purity → schmidt_number`` stays the
single-window reference that the tests compare every window against.

Reproducibility contract: realization j uses the streams ``base.child(j, 0)``
and ``base.child(j, 1)`` for the two subsystems, for every m; the pair is
drawn once, so cells of different m in one run are correlated.  A window's
value depends only on the draw and (n, m, s), not on which other windows
are requested, so :func:`loss_sweep` equals the diagonal of
:func:`run_ensemble` exactly.  Realizations run one after another in index
order, and statistics are reduced in fixed index order — so the output is
bit-identical for a fixed master seed, numpy/BLAS build and BLAS thread
count, and :func:`run_cell` replays any realization of any m in isolation.
Runs log a progress line with rate and ETA at most every
``PROGRESS_EVERY_S`` seconds.  The ``workers`` argument of
:func:`run_ensemble` and :func:`loss_sweep` is accepted for compatibility
and has no effect.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from time import monotonic
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTruncationError, DimensionError
from .pipeline import truncate
from .statespace import HilbertDims, _check_int, make_initial_state
from .unitaries import RngStream, sample_cue, uniform_spreading_unitary

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
    """Per-(m, s) Schmidt-number statistics of one sweep of ``config``.

    ``realizations`` is the number of draws run (1 for the deterministic
    uniform kind).  ``mean_K``, ``std_K`` (population standard deviation; all
    zeros for the deterministic kind) and ``mean_captured_weight`` are arrays
    of shape (len(config.m_values), len(config.s_values)).
    """

    config: SweepConfig
    realizations: int
    mean_K: np.ndarray
    std_K: np.ndarray
    mean_captured_weight: np.ndarray

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


def _read(gram: np.ndarray) -> tuple[float, float]:
    """(w, q) = (tr G, tr G²) of a window off the Gram G = B·B† of its unnormalized block B.

    G is Hermitian, so tr G² = ‖G‖²_F: the float view sums Re² + Im².
    """
    parts = gram.view(float)
    return float(np.trace(gram).real), float(np.einsum("ij,ij->", parts, parts))


def _walk(evolved: np.ndarray, wanted: list[int]) -> dict[int, tuple[float, float]]:
    """(w, q) of ``_read`` at each window of ``wanted`` (ascending).

    Starts from the row Gram of window s = 3 over every row of the state and
    widens it two columns at a time; window s is its central s×s block.  The
    Gram at step s does not depend on ``wanted``, so neither does any value.

    Each step adds p·p† for the n×2 pair p of new columns, as one real
    (n×4)·(4×2n) product into the Gram's float view (Re and Im interleaved):
    with ℓ_i the float row (Re p_i1, Im p_i1, Re p_i2, Im p_i2), entry 2k of
    row i is ℓ_i·ℓ_k = Re(p_i·p̄_k) and entry 2k + 1 is
    ℓ_i·view(i·p_k) = Im(p_i·p̄_k).  OpenBLAS serves a complex product with an
    inner dimension of 2 poorly: at n = 201 (OpenBLAS 0.3.31, 2 cores) one
    such step took 77 µs at one thread and 113 µs at two, the real product
    39 µs at either.
    """
    n = evolved.shape[0]
    lo = (n - 3) // 2
    strip = evolved[:, lo:lo + 3]
    gram = strip @ strip.conj().T
    update = np.empty_like(gram)  # reused: a fresh n×n product per step is slower
    # both factors of every step, built once: step k (s = 2k + 5) adds columns lo − k − 1 and lo + k + 3
    steps = np.arange(1, (wanted[-1] - 1) // 2)
    pairs = np.take(evolved, np.stack([lo - steps, lo + 2 + steps], axis=1), axis=1)
    rows = pairs.transpose(1, 0, 2).copy().view(float)  # (steps, n, 4): ℓ_i = p_i as floats
    ell = rows.transpose(0, 2, 1)
    cols = np.empty((len(steps), 4, n, 2))  # filled in place: fresh temporaries cost page faults
    cols[..., 0] = ell
    np.negative(ell[:, 1::2], out=cols[:, 0::2, :, 1])  # view(i·p) = (−Im p, Re p)
    cols[:, 1::2, :, 1] = ell[:, 0::2]
    cols = cols.reshape(len(steps), 4, 2 * n)
    flat, step = gram.view(float), update.view(float)
    out = {}
    for k, s in enumerate(range(3, wanted[-1] + 1, 2), -1):
        if s > 3:  # two more columns: a rank-2 update
            lo -= 1
            flat += np.matmul(rows[k], cols[k], out=step)
        if s in wanted:
            out[s] = _read(gram[lo:lo + s, lo:lo + s])
    return out


def _small_route(n: int, m: int) -> bool:
    """Whether the windows of (n, m) are read off m×m Grams (``_read_small``), not walked.

    The walk costs O(n³) whatever m is; the m×m route grows with m.  Timed
    on one draw at n = 51 and n = 201, the two break even between m² = 9n
    and m² = 10n at one BLAS thread, and later at two.
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


def _read_small(a: np.ndarray, b: np.ndarray, wanted: list[int]) -> dict[int, tuple[float, float]]:
    """(w, q) at each window of ``wanted`` (ascending) of the state a·bᵀ of rank m.

    With P = A_W†A_W and Q = B_W†B_W, the window's Gram G = A_W·Q̄·A_W† has
    w = tr G = tr(P·Q̄) and q = tr G² = tr((P·Q̄)²), so every window costs O(m³).
    """
    levels = [s // 2 for s in wanted]
    pq = _shell_grams(a, levels) @ _shell_grams(b.conj(), levels)
    weights = np.einsum("kii->k", pq).real
    squares = np.einsum("kij,kji->k", pq, pq).real
    return dict(zip(wanted, zip(weights.tolist(), squares.tolist())))


def _encoding(dims: HilbertDims) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(m, rows, cols, β[rows, cols]): the m nonzero entries of ``make_initial_state(dims)``.

    Read once per run and m: allocating and scanning the mostly-zero n×n β
    for every realization was a measurable share of a loss sweep.
    """
    beta = make_initial_state(dims)
    rows, cols = np.nonzero(beta)
    return dims.m, rows, cols, beta[rows, cols]


def _windows(
    encoding: tuple, s_values: tuple[int, ...], u_a: np.ndarray, u_b: np.ndarray
) -> list[tuple[int, float, float]]:
    """(s, K, weight) of the state of one ``_encoding`` at every window (see the module doc).

    Every route yields the moments (w, q) = (tr G, tr G²) of a window's Gram;
    K = w²/q is formed here and nowhere else.
    """
    m, rows, cols, coeffs = encoding
    anchor = m | 1
    walked = [s for s in s_values if s != anchor]
    a, b = u_a[:, rows] * coeffs, u_b[:, cols]
    evolved = a @ b.T  # evolve(beta, u_a, u_b)
    small = _small_route(len(evolved), m)
    moments = _read_small(a, b, walked) if walked and small else {}
    # freed before the walk's factor stacks and truncate's block copy: held, they
    # tripled a loss sweep's page faults
    del a, b
    if walked and not small:
        moments = _walk(evolved, walked)
    truncate(evolved, s_values[0])  # the degenerate-weight rule for every window
    if anchor in s_values:
        lo = (evolved.shape[0] - anchor) // 2
        block = evolved[lo:lo + anchor, lo:lo + anchor]
        moments[anchor] = _read(block @ block.conj().T)
    return [(s, w * w / q, w) for s, (w, q) in zip(s_values, map(moments.get, s_values))]


def run_cell(
    n: int,
    m: int,
    s_values: tuple[int, ...],
    unitary_kind: UnitaryKind,
    stream: RngStream | None = None,
    independent_ab: bool = True,
) -> list[tuple[int, float, float]]:
    """One realization of one m at every window; returns (s, K, weight) triples.

    ``s_values`` obeys the list rules of ``SweepConfig.s_values``.
    """
    dims = HilbertDims(n, m)  # names m itself, not the config's m_values
    config = SweepConfig(n, (m,), s_values)  # every rule is checked before the pair is drawn
    return _windows(_encoding(dims), config.s_values,
                    *_draw(n, unitary_kind, stream, independent_ab))


def _collect(
    config: SweepConfig, windows: list[tuple[int, ...]]
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Realizations evaluated for every m and reduced per window.

    ``windows[i]`` are the windows of ``config.m_values[i]``, equally many for
    every m.  Realization j draws its pair once (one draw, stream unused, for
    the deterministic uniform kind) and evaluates every m against it.
    Returns the number of realizations run and the mean K, the population
    std of K and the mean captured weight, each of shape
    (len(config.m_values), len(windows[0])).
    """
    draws = 1 if config.unitary_kind is UnitaryKind.UNIFORM_SPREADING else config.realizations
    encodings = [_encoding(HilbertDims(config.n, m)) for m in config.m_values]
    k_values = np.empty((draws, len(windows), len(windows[0])))
    weights = np.empty_like(k_values)
    base = RngStream(config.master_seed)
    start = reported = monotonic()
    for j in range(draws):
        u_a, u_b = _draw(config.n, config.unitary_kind, base.child(j), config.independent_ab)
        for i, (encoding, s_values) in enumerate(zip(encodings, windows)):
            try:
                row = _windows(encoding, s_values, u_a, u_b)
            except DegenerateTruncationError as err:
                raise DegenerateTruncationError(f"realization {j}, m={encoding[0]}: {err}") from err
            _, k_values[j, i], weights[j, i] = zip(*row)
        del u_a, u_b  # free this pair before the next draw allocates its own
        now = monotonic()
        if now - reported >= PROGRESS_EVERY_S:
            reported, rate = now, (j + 1) / (now - start)
            logger.info("realization %d/%d, %.2f/s, ETA %.0f s",
                        j + 1, draws, rate, (draws - j - 1) / rate)
    logger.debug("n=%d: %d realization(s) over %d m value(s)", config.n, draws, len(encodings))
    return draws, k_values.mean(axis=0), k_values.std(axis=0), weights.mean(axis=0)


def run_ensemble(config: SweepConfig, workers: int = 1) -> EnsembleStats:
    """Sweep the full (m, s) grid of ``config`` and aggregate statistics.

    ``workers`` is accepted for compatibility and has no effect.
    """
    return EnsembleStats(config, *_collect(config, [config.s_values] * len(config.m_values)))


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
    _, mean_k, std_k, mean_w = _collect(config, [(m,) for m in config.m_values])
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
