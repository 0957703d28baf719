"""Command-line front end.

Subcommands
-----------
sweep-uniform    deterministic uniform-spreading sweep over (m, s)
sweep-random     Haar-random ensemble sweep over (m, s)
check-conjecture compare a random ensemble against the additive purity model
loss             entanglement loss at s = m over a grid of odd m
plot             render a saved result table (CSV/JSON) to SVG

Exit codes: 0 success; 2 usage error (a bad flag value, an --out that names
no file, a missing --out directory, an --out that is a directory or cannot be
written, or a plot input that cannot be read or parsed, is empty, names a
column twice, holds a row that breaks the dimension rules or, in a
``run_kind=loss`` table, holds a row with s ≠ m); 3
numerical failure only (a window capturing no state weight, a non-finite
purity); 4 conjecture check failed the tolerance.

The conjecture check reports every cell's relative deviation
(analytic − mean)/mean and how many cells fall outside mean ± 2·std/√R.
Narrow windows (s ≤ 11) are labelled expected-deviation — the additive model
systematically underestimates the mean Schmidt number there — and rows with
m < 5 are informational; the pass/fail verdict against --tolerance counts
only cells with m ≥ 5 and s ≥ 13.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .ensemble import SweepConfig, UnitaryKind, loss_sweep, run_ensemble
from .errors import DegenerateTruncationError, DimensionError, DomainError, EntruncError
from .plotting import emit_plot
from .results import (
    ResultRow,
    ResultTable,
    emit_table,
    parse_table,
    render_table,
    table_from_loss,
    table_from_stats,
)

__all__ = ["main", "SMALL_WINDOW_LIMIT"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_CONJECTURE = 4

#: Windows at or below this size are reported as expected-deviation cells.
SMALL_WINDOW_LIMIT = 11


# ---------------------------------------------------------------------------
# conjecture check


def _rel_dev(row: ResultRow) -> float:
    return (row.analytic_K - row.mean_K) / row.mean_K


def _outside_se(row: ResultRow, realizations: int) -> bool:
    return abs(row.analytic_K - row.mean_K) > 2.0 * row.std_K / realizations**0.5


def _counted(row: ResultRow) -> bool:
    return row.m >= 5 and row.s > SMALL_WINDOW_LIMIT


def _worst(rows: list[ResultRow]) -> ResultRow:
    return max(rows, key=lambda row: abs(_rel_dev(row)))


def _verdict(table: ResultTable, realizations: int, tolerance: float) -> tuple[list[str], bool]:
    """The report lines of an ensemble table checked against the additive model, and the verdict.

    A cell is *counted* toward the verdict when m ≥ 5 and s > SMALL_WINDOW_LIMIT;
    the report still lists the deviation and the ±2·std/√R status of every cell.
    The check passes when the worst counted cell lies within ``tolerance``.
    """
    rows = table.rows
    lines = []
    for m in sorted({r.m for r in rows}):
        group = [r for r in rows if r.m == m]
        worst = _worst(group)
        counted = [r for r in group if _counted(r)]
        outside = sum(_outside_se(r, realizations) for r in group)
        expected = len(group) - len(counted)
        line = (
            f"m={m:3d}: max |rel dev| {abs(_rel_dev(worst)):6.2%} at s={worst.s};"
            f" {outside}/{len(group)} cells outside 2*std/sqrt(R);"
            f" {expected} expected-deviation/informational cell(s)"
        )
        if counted:
            worst_counted = _worst(counted)
            line += f"; counted max {abs(_rel_dev(worst_counted)):6.2%} at s={worst_counted.s}"
        lines.append(line)
    counted = [r for r in rows if _counted(r)]
    if not counted:
        lines.append("verdict: PASS — no counted cells (all m < 5 or s <= "
                     f"{SMALL_WINDOW_LIMIT}); deviations are informational")
        return lines, True
    worst = _worst(counted)
    passed = abs(_rel_dev(worst)) <= tolerance
    lines.append(
        f"verdict: {'PASS' if passed else 'FAIL'} — worst counted deviation"
        f" {abs(_rel_dev(worst)):.2%} at (m={worst.m}, s={worst.s}) vs tolerance {tolerance:.2%}"
    )
    return lines, passed


# ---------------------------------------------------------------------------
# argument handling


def _int_list(parser: argparse.ArgumentParser, flag: str, text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list (got {text!r})")
    return values


#: Flag of each SweepConfig field and dimension; that name starts every DimensionError message.
_FLAGS = {"n": "--n", "m": "--m", "s": "--s", "m_values": "--m", "s_values": "--s",
          "realizations": "--realizations", "master_seed": "--seed"}


def _config(parser, args) -> SweepConfig:
    """Build the SweepConfig of a sweep subcommand; invalid values exit 2 naming the flag."""
    m_values = _int_list(parser, "--m", args.m)
    loss = args.command == "loss"
    if loss:
        s_values = m_values
    elif args.s is None:
        s_values = tuple(range(3, args.n + 1, 2))
    else:
        s_values = _int_list(parser, "--s", args.s)
    draws = {}
    if args.kind is UnitaryKind.RANDOM_CUE:
        if args.workers < 1:
            parser.error(f"--workers must be >= 1 (got {args.workers})")
        draws = dict(realizations=args.realizations, master_seed=args.seed,
                     independent_ab=not args.shared_unitary)
    try:
        return SweepConfig(n=args.n, m_values=m_values, s_values=s_values,
                           unitary_kind=args.kind, **draws)
    except DimensionError as err:
        field, _, rest = str(err).partition(" ")
        flag = "--m" if loss and field in ("s", "s_values") else _FLAGS[field]
        parser.error(f"{flag} {rest}")


def _write_output(table, args) -> None:
    if args.out is None:
        sys.stdout.write(render_table(table, args.format))
    else:
        emit_table(table, args.format, args.out)
        logger.info("wrote %s", args.out)


def _add_grid_flags(sub: argparse.ArgumentParser, with_s: bool = True) -> None:
    sub.add_argument("--n", type=int, required=True, help="total local dimension (odd)")
    sub.add_argument("--m", required=True, help="comma-separated encoding dimensions")
    if with_s:
        sub.add_argument("--s", default=None,
                         help="comma-separated odd window sizes (default: all odd 3..n)")


def _add_random_flags(sub: argparse.ArgumentParser) -> None:
    sub.set_defaults(kind=UnitaryKind.RANDOM_CUE)
    sub.add_argument("--realizations", type=int, default=100, help="random draws per cell")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    sub.add_argument("--shared-unitary", action="store_true",
                     help="apply one draw to both subsystems instead of independent draws")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_sweep(parser, args) -> int:
    _write_output(table_from_stats(run_ensemble(_config(parser, args))), args)
    return EXIT_OK


def cmd_check_conjecture(parser, args) -> int:
    config = _config(parser, args)
    if not 0 < args.tolerance < 1:
        parser.error(f"--tolerance must lie in (0, 1) (got {args.tolerance})")
    table = table_from_stats(run_ensemble(config))
    if args.out is not None:
        _write_output(table, args)
    print(f"conjecture check: n={config.n} realizations={config.realizations} "
          f"seed={config.master_seed} tolerance={args.tolerance:.2%}")
    lines, passed = _verdict(table, config.realizations, args.tolerance)
    for line in lines:
        print(line)
    return EXIT_OK if passed else EXIT_CONJECTURE


def cmd_loss(parser, args) -> int:
    config = _config(parser, args)
    _write_output(table_from_loss(loss_sweep(config), config), args)
    return EXIT_OK


def cmd_plot(parser, args) -> int:
    emit_plot(parse_table(args.table), args.out)
    logger.info("wrote %s", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrunc",
        description="Entanglement of truncated bipartite states: sweeps, model checks, plots.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("sweep-uniform",
                                help="deterministic uniform-spreading sweep")
    _add_grid_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_sweep, kind=UnitaryKind.UNIFORM_SPREADING)

    sub = subparsers.add_parser("sweep-random", help="Haar-random ensemble sweep")
    _add_grid_flags(sub)
    _add_random_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser("check-conjecture",
                                help="compare ensemble means against the additive purity model")
    _add_grid_flags(sub)
    _add_random_flags(sub)
    _add_output_flags(sub)
    sub.add_argument("--tolerance", type=float, default=0.05,
                     help="relative-deviation tolerance for counted cells (default 0.05)")
    sub.set_defaults(func=cmd_check_conjecture)

    sub = subparsers.add_parser("loss", help="entanglement loss at s = m")
    _add_grid_flags(sub, with_s=False)
    _add_random_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_loss)

    sub = subparsers.add_parser("plot", help="render a result table to SVG")
    sub.add_argument("table", help="CSV or JSON result file")
    sub.add_argument("--out", required=True, help="SVG output path")
    sub.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is not None:
        if not os.path.basename(args.out):
            parser.error(f"--out names no file: {args.out!r}")
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(out_dir):
            parser.error(f"--out directory does not exist: {out_dir}")
        if os.path.exists(args.out) and not os.path.isfile(args.out):
            parser.error(f"--out exists and is not a regular file: {args.out}")
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(parser, args)
    except (EntruncError, OSError) as err:  # OSError: reading a plot input or writing --out
        print(f"error: {err}", file=sys.stderr)
        numerical = isinstance(err, (DegenerateTruncationError, DomainError))
        return EXIT_NUMERICAL if numerical else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
