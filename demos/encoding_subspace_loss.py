"""Entanglement loss when the window is matched to the encoding (s = m).

Sweeps odd m at fixed n, prints the mean loss m - <K> next to the closed
form 2m(m-n)/(2m-3n), and reports where each peaks.  The two are different
losses: the closed form is m - 1/P_ann, with P_ann = <tr r^2>/<tr r>^2 the
annealed purity of the truncated state r that the additive model describes
(acceptance criterion 6).  For narrow windows m - <K> falls below it (by
about 7% at m = 5, n = 51; see ``entanglement_loss``), so a negative gap
there is expected and is not a model error.

A figure worth a caveat: the loss maximum is often quoted at
m ~ (2-sqrt(3))*n ~ 0.27*n, but setting the closed form's derivative to zero
actually gives m = (3-sqrt(3))/2 * n ~ 0.634*n — and both the formula
evaluated on the grid and the measured curve peak there, not at 0.27*n.
"""

import argparse
import math
from pathlib import Path

from entrunc import (
    SweepConfig,
    UnitaryKind,
    emit_plot,
    emit_table,
    entanglement_loss,
    loss_sweep,
    table_from_loss,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=51)
    ap.add_argument("--realizations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", type=Path, default=Path("demo_output"))
    args = ap.parse_args()

    grid = tuple(range(3, args.n + 1, 2))
    config = SweepConfig(
        n=args.n,
        m_values=grid,
        s_values=grid,
        unitary_kind=UnitaryKind.RANDOM_CUE,
        realizations=args.realizations,
        master_seed=args.seed,
    )
    points = loss_sweep(config)

    print(f"loss at s=m, n={args.n}, R={args.realizations}, seed={args.seed}")
    print("mean loss = m - <K>; formula = m - 1/P_ann, the annealed loss, which"
          " m - <K> undershoots for small m")
    print("  m   mean loss    formula       gap")
    for p in points:
        formula = entanglement_loss(args.n, p.m)
        print(f"{p.m:4d}  {p.mean_loss:9.4f}  {formula:9.4f}  {p.mean_loss - formula:+8.4f}")

    measured_peak = max(points, key=lambda p: p.mean_loss).m
    formula_peak = max(grid, key=lambda m: entanglement_loss(args.n, m))
    stationary = (3 - math.sqrt(3)) / 2 * args.n
    print(f"\nmeasured peak: m={measured_peak}"
          f" | formula's grid peak: m={formula_peak}"
          f" | formula's stationary point: {stationary:.1f}")

    args.outdir.mkdir(parents=True, exist_ok=True)
    table = table_from_loss(points, config)
    stem = f"loss_n{args.n}_r{args.realizations}_seed{args.seed}"
    emit_table(table, "csv", args.outdir / f"{stem}.csv")
    emit_plot(table, args.outdir / f"{stem}.svg")
    print(f"wrote {args.outdir}/{stem}.csv and .svg")


if __name__ == "__main__":
    main()
