"""Entanglement of truncated bipartite states.

Simulates maximally entangled states of two n-level systems evolved under
local unitaries (deterministic uniform spreading or Haar-random draws) and
truncated to a central s×s level window, quantifying the surviving
entanglement through the Schmidt number K = 1/purity.  Exact closed forms,
an additive conjectured model for the Haar-ensemble mean, a reproducible
Monte Carlo engine and CSV/JSON/SVG emission are included; the ``entrunc``
console script exposes the sweeps.
"""

# Assigned before the submodule imports: ``results`` reads it when imported.
__version__ = "0.1.0"

from .analytics import (
    analytic_beta_uniform,
    analytic_purity_m2,
    conjectured_purity,
    conjectured_schmidt_number,
    entanglement_loss,
    linear_approx_K,
    sinc,
)
from .ensemble import (
    EnsembleStats,
    LossPoint,
    SweepConfig,
    UnitaryKind,
    loss_sweep,
    run_cell,
    run_ensemble,
)
from .errors import (
    DegenerateTruncationError,
    DimensionError,
    DomainError,
    EntruncError,
)
from .pipeline import (
    TruncatedState,
    evolve,
    reduced_density,
    reduced_purity,
    schmidt_number,
    truncate,
)
from .plotting import emit_plot, render_svg
from .results import (
    ResultRow,
    ResultTable,
    emit_table,
    parse_table,
    render_csv,
    render_json,
    table_from_loss,
    table_from_stats,
)
from .statespace import HilbertDims, make_initial_state, parity_flag
from .unitaries import RngStream, sample_cue, uniform_spreading_unitary

__all__ = [
    "__version__",
    # statespace
    "HilbertDims",
    "make_initial_state",
    "parity_flag",
    # unitaries
    "RngStream",
    "uniform_spreading_unitary",
    "sample_cue",
    # pipeline
    "TruncatedState",
    "evolve",
    "truncate",
    "reduced_density",
    "reduced_purity",
    "schmidt_number",
    # analytics
    "sinc",
    "analytic_beta_uniform",
    "analytic_purity_m2",
    "conjectured_purity",
    "conjectured_schmidt_number",
    "entanglement_loss",
    "linear_approx_K",
    # ensemble
    "UnitaryKind",
    "SweepConfig",
    "EnsembleStats",
    "LossPoint",
    "run_cell",
    "run_ensemble",
    "loss_sweep",
    # io
    "ResultRow",
    "ResultTable",
    "table_from_stats",
    "table_from_loss",
    "render_csv",
    "render_json",
    "emit_table",
    "parse_table",
    "render_svg",
    "emit_plot",
    # errors
    "EntruncError",
    "DimensionError",
    "DegenerateTruncationError",
    "DomainError",
]
