"""Correctness checks on every output a benchmark pass produces.

Each check is counted as attempted; the ones that fail are counted and
described.  Invariants hold for any seed.  Reference tables were generated
for :data:`workloads.DEFAULT_SEED` at the commit that introduced the
benchmark (see ``make_reference.py``); they are compared only for that seed.
"""

from __future__ import annotations

import math
from pathlib import Path

#: Relative tolerance on mean_K and captured_weight against the reference.
REF_REL = 1e-12
#: Absolute tolerance on std_K against the reference; at s = n it is roundoff.
REF_STD_ABS = 1e-9
#: Relative slack on K bounds, and the tolerance of K = m at s = n.
K_REL = 1e-9
#: Tolerance of captured weight = 1 at s = n, and slack above 1 elsewhere.
WEIGHT_ABS = 1e-12
#: Failure messages kept per run; the count of failures is always exact.
KEEP_MESSAGES = 20


class Checker:
    """Counts attempted and failed checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < KEEP_MESSAGES:
                self.failures.append(what)
        return ok


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def check_table(checker: Checker, workload, seed: int, path: Path, reference=None) -> None:
    """Check one output table of ``workload`` run with ``seed``.

    ``reference`` is the parsed reference table, or None to check invariants only.
    """
    from entrunc.errors import EntruncError
    from entrunc.results import parse_table

    try:
        table = parse_table(path)
    except (EntruncError, OSError, ValueError, KeyError) as err:
        checker.check(False, f"{path.name}: parse_table failed: {err!r}")
        return
    checker.check(True, "parse")
    md = table.metadata
    checker.check(
        (md.get("n"), md.get("realizations"), md.get("master_seed"))
        == (str(workload.n), str(workload.realizations), str(seed)),
        f"{path.name}: metadata {md} does not match the request",
    )
    grid = workload.grid()
    cells = [(r.m, r.s) for r in table.rows]
    if not checker.check(
        cells == grid, f"{path.name}: {len(cells)} rows, expected the {len(grid)} cells of the grid"
    ):
        return
    n = workload.n
    for row in table.rows:
        cell = f"{path.name} (m={row.m}, s={row.s})"
        k, w = row.mean_K, row.captured_weight
        checker.check(
            1.0 - K_REL <= k <= min(row.m, row.s) * (1.0 + K_REL),
            f"{cell}: mean_K={k!r} outside [1, min(m, s)]",
        )
        checker.check(0.0 < w <= 1.0 + WEIGHT_ABS, f"{cell}: captured_weight={w!r} outside (0, 1]")
        if row.s == n:
            checker.check(_rel(k, row.m) <= K_REL, f"{cell}: mean_K={k!r} != m at s = n")
            checker.check(abs(w - 1.0) <= WEIGHT_ABS, f"{cell}: captured_weight={w!r} != 1 at s = n")
    if reference is None:
        return
    for row, ref in zip(table.rows, reference.rows):
        cell = f"{path.name} (m={row.m}, s={row.s})"
        checker.check(
            _rel(row.mean_K, ref.mean_K) <= REF_REL
            and _rel(row.captured_weight, ref.captured_weight) <= REF_REL
            and row.std_K is not None
            and abs(row.std_K - ref.std_K) <= REF_STD_ABS
            and row.analytic_K is not None
            and math.isclose(row.analytic_K, ref.analytic_K, rel_tol=REF_REL),
            f"{cell}: {row} differs from reference {ref}",
        )


def check_svg(checker: Checker, path: Path) -> int:
    """Check that a plot is a complete SVG document; returns its size in bytes."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        checker.check(False, f"{path.name}: unreadable: {err!r}")
        return 0
    checker.check(
        text.startswith("<svg") and text.rstrip().endswith("</svg>") and "<polyline" in text,
        f"{path.name}: not a complete SVG plot",
    )
    return len(text.encode("utf-8"))
