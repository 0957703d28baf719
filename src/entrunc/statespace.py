"""Dimension bookkeeping and the initial maximally entangled state.

Bipartite pure states live on two local Hilbert spaces of odd dimension
n = 2N + 1 spanned by levels q ∈ {−N, …, N}.  A state is stored as its
coefficient matrix β over the product basis |q⟩_A |r⟩_B, as an n×n complex
ndarray with the symmetric level range mapped to array offsets via
``i = q + N`` (the same convention is used for every matrix in the package).

The initial state entangles an m-dimensional encoding subspace maximally,
pairing level q of subsystem A with level −q of subsystem B:

    β_{q,r} = [ 1(|q| ≤ M and r = −q) − f_m · 1(q = 0 and r = 0) ] / √m

where M = m // 2 and f_m = 1 for even m, 0 for odd m.  For even m the parity
term removes the central |0,0⟩ contribution so exactly m anti-diagonal
entries of magnitude 1/√m remain.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = ["HilbertDims", "parity_flag", "make_initial_state"]


def _check_int(name: str, value: int, low: int, high: int | None = None, odd: bool = False) -> None:
    """The one integer, range, parity and sign check: ``low <= value <= high``, odd if ``odd``.

    Any ``numbers.Integral`` but a ``bool`` passes the type test (numpy
    integers included; a float such as ``9.0`` does not, nor does ``True``,
    which would run as 1).  The DimensionError message starts with ``name``;
    the CLI maps that word to its flag.
    """
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low
            or (high is not None and value > high) or (odd and value % 2 == 0)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        kind = "an odd integer" if odd else "an integer"
        raise DimensionError(f"{name} must be {kind} {bounds}, got {value}")


@dataclass(frozen=True)
class HilbertDims:
    """Validated dimension triple (n, m, s): the one statement of the dimension rules.

    Sweep configurations, single-realization replays and parsed result
    tables that give n all check their dimensions by building one of these.

    n : odd total local dimension, n = 2N + 1
    m : encoding dimension, 2 <= m <= n
    s : odd truncation dimension, 3 <= s <= n (defaults to n: no truncation)
    """

    n: int
    m: int
    s: int | None = None

    def __post_init__(self) -> None:
        if self.s is None:
            object.__setattr__(self, "s", self.n)
        _check_int("n", self.n, 3, odd=True)
        _check_int("m", self.m, 2, self.n)
        _check_int("s", self.s, 3, self.n, odd=True)

    @property
    def half_width(self) -> int:
        """N in n = 2N + 1."""
        return (self.n - 1) // 2

    @property
    def window_half_width(self) -> int:
        """S in s = 2S + 1."""
        return (self.s - 1) // 2

    @property
    def encoding_half_width(self) -> int:
        """M: encoding levels span {-M, ..., M} (center removed for even m)."""
        return self.m // 2


def parity_flag(m: int) -> float:
    """Parity factor f_m = [(-1)^m + 1] / 2: 1.0 for even m, 0.0 for odd m."""
    return 1.0 if m % 2 == 0 else 0.0


def _encoding_entries(dims: HilbertDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values): the m nonzero entries of β in row order, its one definition.

    Level q of A pairs with level −q of B for |q| ≤ M, each with coefficient
    1/√m; for even m the parity term removes the centre q = 0.
    """
    q = np.arange(-dims.encoding_half_width, dims.encoding_half_width + 1)
    if parity_flag(dims.m):
        q = q[q != 0]
    return q + dims.half_width, dims.half_width - q, np.full(dims.m, 1.0 / np.sqrt(dims.m), dtype=complex)


def make_initial_state(dims: HilbertDims) -> np.ndarray:
    """Coefficient matrix of the maximally entangled encoding state.

    Returns an n×n complex array with exactly ``dims.m`` nonzero entries of
    magnitude 1/√m on the anti-diagonal r = −q, Frobenius norm 1, and reduced
    purity 1/m.
    """
    rows, cols, values = _encoding_entries(dims)
    beta = np.zeros((dims.n, dims.n), dtype=complex)
    beta[rows, cols] = values
    return beta
