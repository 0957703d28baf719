"""Entanglement of truncated bipartite states.

Simulates maximally entangled states of two n-level systems evolved under
local unitaries (deterministic uniform spreading or Haar-random draws) and
truncated to a central s×s level window, quantifying the surviving
entanglement through the Schmidt number K = 1/purity.  Exact closed forms,
an additive conjectured model for the Haar-ensemble mean, a reproducible
Monte Carlo engine and CSV/JSON/SVG emission are included; the ``entrunc``
console script exposes the sweeps.
"""

# The one home of the version (pyproject.toml reads it); it tags which engine wrote a
# result.  Assigned before the submodule imports: ``results`` reads it when imported.
__version__ = "0.2.8"

from . import analytics, ensemble, errors, pipeline, plotting, results, statespace, unitaries
from .analytics import *  # noqa: F403 -- each module's __all__ is its one list of public names
from .ensemble import *  # noqa: F403
from .errors import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .plotting import *  # noqa: F403
from .results import *  # noqa: F403
from .statespace import *  # noqa: F403
from .unitaries import *  # noqa: F403

__all__ = ["__version__"] + [
    name
    for module in (analytics, ensemble, errors, pipeline, plotting, results, statespace, unitaries)
    for name in module.__all__
]
