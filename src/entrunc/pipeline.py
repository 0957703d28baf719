"""The evolve → truncate → purity chain.

Local evolution of a coefficient matrix B under unitaries (U_A, U_B) is the
matrix sandwich B′ = U_A · B · U_Bᵀ (plain transpose on the B side), which
applies each unitary to its own subsystem.  Truncation keeps the central
s×s block of levels {−S, …, S}, records the captured weight N² = Σ|β′|²
inside the window and renormalizes by N, modeling a post-selected detector
of finite cross section.  Entanglement is quantified through the reduced
density matrix ρ_A = B′·B′†: purity P = tr(ρ_A²) and Schmidt number K = 1/P,
the effective number of entangled dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruncationError, DimensionError, DomainError
from .statespace import _check_int

__all__ = [
    "TruncatedState",
    "evolve",
    "truncate",
    "reduced_density",
    "reduced_purity",
    "schmidt_number",
]

#: Below this captured weight, renormalization is considered ill-defined.
DEGENERATE_WEIGHT = 1e-12


@dataclass(frozen=True)
class TruncatedState:
    """Renormalized central block of a state plus its pre-normalization weight.

    ``entries`` is the s×s complex coefficient block with unit Frobenius
    norm; ``captured_weight`` is the squared norm the window captured before
    renormalization (1.0 means nothing was cut away).
    """

    entries: np.ndarray
    captured_weight: float

    def __post_init__(self) -> None:
        _require_square(self.entries, "entries")
        if not 0.0 < self.captured_weight <= 1.0 + 1e-12:
            raise DomainError(f"captured_weight must lie in (0, 1], got {self.captured_weight}")
        norm = np.linalg.norm(self.entries)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError(f"entries must have unit Frobenius norm, got {norm!r}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _require_square(matrix: np.ndarray, name: str) -> int:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {matrix.shape}")
    return matrix.shape[0]


def evolve(state: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Apply local unitaries to both subsystems: B′ = U_A · B · U_Bᵀ.

    Norm-preserving for unitary inputs; the entanglement of the full state is
    unchanged (local operations cannot change Schmidt coefficients).
    """
    n = _require_square(state, "state")
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        if _require_square(u, name) != n:
            raise DimensionError(
                f"{name} has dimension {u.shape[0]}, state has dimension {n}"
            )
    return u_a @ state @ u_b.T


def truncate(state: np.ndarray, s: int) -> TruncatedState:
    """Project onto the central s×s level window and renormalize.

    Raises DegenerateTruncationError when the window captures less than
    ``DEGENERATE_WEIGHT`` of the state's weight.
    """
    n = _require_square(state, "state")
    _check_int("s", s, 3, n, odd=True)
    lo = (n - s) // 2
    block = state[lo:lo + s, lo:lo + s]
    weight = float(np.vdot(block, block).real)
    _check_weight(weight, s)
    return TruncatedState(entries=block / np.sqrt(weight), captured_weight=weight)


def _check_weight(weight: float, s: int) -> None:
    """The degenerate-weight rule: window s must capture at least ``DEGENERATE_WEIGHT``."""
    if weight < DEGENERATE_WEIGHT:
        raise DegenerateTruncationError(
            f"truncation window s={s} captures weight {weight:.3e} < {DEGENERATE_WEIGHT:.0e}"
        )


def reduced_density(state: TruncatedState) -> np.ndarray:
    """Reduced density matrix of subsystem A: ρ_A = B′·B′† (Hermitian, trace 1)."""
    block = state.entries
    return block @ block.conj().T


def reduced_purity(state: TruncatedState) -> float:
    """Purity P = tr(ρ_A²) of the reduced state; 1/s ≤ P ≤ 1.

    Evaluated through the Gram matrix G = B′·B′† as Σ|G_{ij}|² (G is
    Hermitian, so this equals tr(G²)) in O(s³) — identical in value to the
    quadruple sum over coefficient pairs, and to Σ σ_i⁴ over the singular
    values of B′.
    """
    gram = reduced_density(state)
    return float(np.vdot(gram, gram).real)


def schmidt_number(purity: float) -> float:
    """K = 1/P: 1 for a separable state up to d for maximal entanglement in d."""
    if not 0.0 < purity < math.inf:
        raise DomainError(f"purity must be positive and finite, got {purity}")
    return 1.0 / purity
