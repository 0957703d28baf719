"""Monte Carlo engine: (m, s) sweeps under uniform-spreading or Haar dynamics.

A *realization* draws one pair of local unitaries and evaluates every
requested m against it.  Ensembles aggregate the Schmidt number over
realizations into per-(m, s) means and population standard deviations.

Window kernel.  Per (realization, m) the state is evolved once, and only
through its m encoding columns: the evolved coefficients are
``(U_A[:, E]·β_E)·U_B[:, E′]ᵀ`` over all n rows and columns, in O(n²m), with
E, E′ and β_E read once per run from :func:`make_initial_state`.  The
windows are nested, so the kernel walks outward one shell (two levels) at a
time: it keeps the row Gram R = C[:, W]·C[:, W]† of the window's columns W
over every row of the state, adds the two new columns as a rank-2 update,
and reads window s off its central s×s block G.  Every window's weight
w = tr G = tr ρ̃ and Schmidt number K = w²/‖G‖²_F = w²/tr ρ̃² come from one
readout of its Gram, ``_read``.  There is one walk: it starts from the Gram
of the s = 3 strip and passes every requested window but the anchor
s* = m | 1 (the smallest odd s ≥ m).  The anchor is read off the Gram
B·B† of its own central block B, so a loss sweep (s = m) never walks and
never builds an n×n Gram.  The engine calls ``truncate`` once per
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
    """(K, weight) of a window off the Gram G = B·B† of its unnormalized block B.

    w = tr G and K = w²/‖G‖²_F; the float view sums Re² + Im².
    """
    weight = float(np.trace(gram).real)
    parts = gram.view(float)
    return weight * weight / float(np.einsum("ij,ij->", parts, parts)), weight


def _walk(evolved: np.ndarray, wanted: list[int]) -> dict[int, tuple[float, float]]:
    """(K, weight) at each window of ``wanted`` (ascending).

    Starts from the row Gram of window s = 3 over every row of the state and
    widens it two columns at a time; window s is its central s×s block.  The
    Gram at step s does not depend on ``wanted``, so neither does any value.
    """
    lo = (evolved.shape[0] - 3) // 2
    strip = evolved[:, lo:lo + 3]
    gram = strip @ strip.conj().T
    update = np.empty_like(gram)  # reused: a fresh n×n product per step is slower
    out = {}
    for s in range(3, wanted[-1] + 1, 2):
        if s > 3:  # two more columns: a rank-2 update
            lo -= 1
            pair = evolved[:, [lo, lo + s - 1]]
            gram += np.matmul(pair, pair.conj().T, out=update)
        if s in wanted:
            out[s] = _read(gram[lo:lo + s, lo:lo + s])
    return out


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
    """(s, K, weight) of the state of one ``_encoding`` at every window (see the module doc)."""
    m, rows, cols, coeffs = encoding
    anchor = m | 1
    evolved = (u_a[:, rows] * coeffs) @ u_b[:, cols].T  # evolve(beta, u_a, u_b)
    truncate(evolved, s_values[0])  # the degenerate-weight rule for every window
    values = {}
    if anchor in s_values:
        lo = (evolved.shape[0] - anchor) // 2
        block = evolved[lo:lo + anchor, lo:lo + anchor]
        values[anchor] = _read(block @ block.conj().T)
    walked = [s for s in s_values if s != anchor]
    if walked:
        values.update(_walk(evolved, walked))
    return [(s, *values[s]) for s in s_values]


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
    config = SweepConfig(n, (m,), s_values)  # every rule is checked before the pair is drawn
    return _windows(_encoding(HilbertDims(n, m)), config.s_values,
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
