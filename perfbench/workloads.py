"""The benchmark's workloads: fixed CLI invocations of ``entrunc``.

Each workload is one *pass*: a list of ``entrunc`` command lines run in-process
through ``entrunc.cli.main``.  The ``(n, m, s, workers)`` shape is fixed; the
realization count sets how long one pass takes and was chosen so that a pass
lasts about 2-3 s on a 2-core machine, giving ten or more passes per 30 s run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Seed used by the README, the acceptance tests and the reference tables.
DEFAULT_SEED = 7

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _odd(lo: int, hi: int, step: int = 2) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1, step))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep-random" or "loss"
    n: int
    m_values: tuple[int, ...]
    realizations: int
    workers: int
    plot: bool

    @property
    def s_values(self) -> tuple[int, ...]:
        """Windows per realization; a loss sweep evaluates only s = m."""
        return _odd(3, self.n) if self.command == "sweep-random" else ()

    def grid(self) -> list[tuple[int, int]]:
        """The (m, s) cells of the output table, in file order."""
        if self.command == "loss":
            return [(m, m) for m in self.m_values]
        return [(m, s) for m in self.m_values for s in self.s_values]

    @property
    def window_evals(self) -> int:
        """Truncation windows evaluated in one pass: realizations × |m| × |s|."""
        return self.realizations * len(self.grid())

    def warmup_windows(self) -> tuple[int, ...]:
        """Windows of the set-up ``run_cell`` (first m, all of its windows)."""
        return self.s_values or (self.m_values[0],)

    def argvs(self, seed: int, table: Path, svg: Path) -> list[list[str]]:
        """The CLI command lines of one pass."""
        sweep = [
            self.command,
            "--n", str(self.n),
            "--m", ",".join(map(str, self.m_values)),
            "--realizations", str(self.realizations),
            "--seed", str(seed),
            "--workers", str(self.workers),
            "--out", str(table),
        ]
        return [sweep, ["plot", str(table), "--out", str(svg)]] if self.plot else [sweep]

    @property
    def reference(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv"


# Why each workload was chosen is recorded in BENCHMARK.json ("workloads").
WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance-gate sweep (100 realizations): small matrices, so the
        # per-window object construction and re-validation show.
        Workload(
            name="sweep51",
            command="sweep-random",
            n=51,
            m_values=(5, 13, 25, 38, 51),
            realizations=100,
            workers=1,
            plot=False,
        ),
        # The README full-scale grid, sized to 2 cores: the nested-window loop
        # dominates, worker threads compete with BLAS threads, and it is the
        # only workload that reads the table back and plots it.
        Workload(
            name="sweep201",
            command="sweep-random",
            n=201,
            m_values=(5, 25, 51, 101, 151, 201),
            realizations=2,
            workers=2,
            plot=True,
        ),
        # Every 4th odd level, one matched window each: Haar sampling dominates
        # and the window loop is minor, so a window-engine change should leave
        # it unchanged while sharing draws across m shows in full.
        Workload(
            name="loss201",
            command="loss",
            n=201,
            m_values=_odd(3, 195, 8),
            realizations=5,
            workers=1,
            plot=False,
        ),
    )
}
