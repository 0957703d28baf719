"""Haar-random ensemble sweep compared against the additive purity model.

For each encoding dimension the script prints where the model
K = 1/(2/s + 1/m - 2/n) sits relative to the ensemble mean.  Wide windows
agree to within a couple of percent; narrow windows (s at or below
``entrunc.cli.SMALL_WINDOW_LIMIT``, the limit ``entrunc check-conjecture``
reports as expected deviation) show the model's known systematic
underestimate, which this demo makes visible instead of hiding.
"""

import argparse
from pathlib import Path

import numpy as np

from entrunc import (
    SweepConfig,
    UnitaryKind,
    conjectured_schmidt_number,
    emit_plot,
    emit_table,
    run_ensemble,
    table_from_stats,
)
from entrunc.cli import SMALL_WINDOW_LIMIT


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=51)
    ap.add_argument("--realizations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", type=Path, default=Path("demo_output"))
    args = ap.parse_args()

    m_values = tuple(m for m in (5, 13, 25) if m <= args.n) or (args.n,)
    config = SweepConfig(
        n=args.n,
        m_values=m_values,
        s_values=tuple(range(3, args.n + 1, 2)),
        unitary_kind=UnitaryKind.RANDOM_CUE,
        realizations=args.realizations,
        master_seed=args.seed,
    )
    stats = run_ensemble(config)

    print(f"Haar ensemble, n={args.n}, R={args.realizations}, seed={args.seed}")
    for i, m in enumerate(config.m_values):
        model = np.array([conjectured_schmidt_number(args.n, m, s) for s in config.s_values])
        rel = (model - stats.mean_K[i]) / stats.mean_K[i]
        narrow = [j for j, s in enumerate(config.s_values) if s <= SMALL_WINDOW_LIMIT]
        wide = [j for j, s in enumerate(config.s_values) if s > SMALL_WINDOW_LIMIT]
        line = (f"m={m:3d}: model vs mean — narrow windows (s<={SMALL_WINDOW_LIMIT}) "
                f"max {abs(rel[narrow]).max():6.2%}")
        if wide:
            line += f", wide windows max {abs(rel[wide]).max():6.2%}"
        print(line)

    args.outdir.mkdir(parents=True, exist_ok=True)
    table = table_from_stats(stats)
    stem = f"random_n{args.n}_r{args.realizations}_seed{args.seed}"
    emit_table(table, "csv", args.outdir / f"{stem}.csv")
    emit_plot(table, args.outdir / f"{stem}.svg")
    print(f"wrote {args.outdir}/{stem}.csv and .svg"
          " (dashed lines in the figure are the model)")


if __name__ == "__main__":
    main()
