"""Acceptance gate: one test per shipping criterion, numbered and self-contained.

Each test asserts a single end-to-end claim about the package at fixed sizes,
seeds, and tolerances.  Failure messages enumerate every violating cell so a
red criterion documents exactly where and by how much the claim breaks.
"""

import math
import time

import numpy as np
import pytest

from entrunc import (
    HilbertDims,
    RngStream,
    SweepConfig,
    TruncatedState,
    UnitaryKind,
    analytic_beta_uniform,
    analytic_purity_m2,
    conjectured_purity,
    entanglement_loss,
    evolve,
    loss_sweep,
    make_initial_state,
    reduced_purity,
    render_csv,
    run_cell,
    run_ensemble,
    schmidt_number,
    table_from_stats,
    truncate,
    uniform_spreading_unitary,
)

from oracles import quadruple_sum_purity

GRID_51 = tuple(range(3, 52, 2))


def annealed_purity(k, w):
    """Ensemble purity ⟨tr ρ̃²⟩ / ⟨tr ρ̃⟩² over axis 0, with its standard error.

    ρ̃ is the truncated state before renormalization: a realization with
    captured weight w and Schmidt number K has tr ρ̃ = w and tr ρ̃² = w²/K.
    This ratio of averages is what the additive model 2/s + 1/m − 2/n
    describes; the mean of the per-realization purities is not.  The error
    is the delta-method one, linearizing x̄/ȳ² about the sample means.
    """
    x, y = w**2 / k, w
    x_bar, y_bar = x.mean(axis=0), y.mean(axis=0)
    purity = x_bar / y_bar**2
    influence = (x - x_bar) / y_bar**2 - 2.0 * purity * (y - y_bar) / y_bar
    return purity, influence.std(axis=0, ddof=1) / math.sqrt(len(k))


@pytest.fixture(scope="module")
def sweep51():
    """The n=51 reference ensemble shared by criteria 5, 7 and 9."""
    config = SweepConfig(
        n=51,
        m_values=(5, 13, 25, 38, 51),
        s_values=GRID_51,
        unitary_kind=UnitaryKind.RANDOM_CUE,
        realizations=100,
        master_seed=7,
    )
    start = time.perf_counter()
    stats = run_ensemble(config, workers=1)
    elapsed = time.perf_counter() - start
    return config, stats, elapsed


def test_criterion_01_closed_form_coefficients_match_pipeline():
    start = time.perf_counter()
    worst = 0.0
    for n in (7, 9, 15, 21):
        u = uniform_spreading_unitary(n)
        half = (n - 1) // 2
        q, r = np.meshgrid(
            np.arange(-half, half + 1), np.arange(-half, half + 1), indexing="ij"
        )
        for m in range(2, n + 1):
            evolved = evolve(make_initial_state(HilbertDims(n, m)), u, u)
            gap = np.abs(analytic_beta_uniform(n, m, q, r) - evolved).max()
            worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst coefficient gap {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_two_level_purity_curve_at_full_scale():
    start = time.perf_counter()
    u = uniform_spreading_unitary(201)
    evolved = evolve(make_initial_state(HilbertDims(201, 2)), u, u)
    worst = 0.0
    for s in range(3, 202, 2):
        numeric = reduced_purity(truncate(evolved, s))
        worst = max(worst, abs(numeric - analytic_purity_m2(201, s)))
    k_mid = schmidt_number(reduced_purity(truncate(evolved, 101)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst purity gap {worst:.3e}"
    assert abs(k_mid - 2.0) / 2.0 < 0.01, f"K at s=101 is {k_mid:.6f}"
    assert elapsed < 120.0, f"took {elapsed:.2f} s"


def test_criterion_03_full_encoding_gives_K_equal_s():
    row = run_cell(21, 21, tuple(range(3, 22, 2)), UnitaryKind.UNIFORM_SPREADING)
    worst = max(abs(k - s) for s, k, _ in row)
    assert worst < 1e-9, f"worst |K − s| = {worst:.3e}"


def test_criterion_04_local_unitaries_leave_untruncated_K_at_m():
    base = RngStream(123)
    worst = 0.0
    for m in (2, 13, 25, 51):
        for draw in range(10):
            (_, k, _), = run_cell(51, m, (51,), UnitaryKind.RANDOM_CUE, base.child(m, draw))
            worst = max(worst, abs(k - m))
    assert worst < 1e-8, f"worst |K − m| = {worst:.3e}"


def test_criterion_05_additive_purity_model_tracks_every_cell(sweep51):
    config, stats, elapsed = sweep51
    # The record holds realization j as its own replay through run_cell;
    # the first and last draw of every m stand for all of them.
    for i, m in enumerate(config.m_values):
        for j in (0, config.realizations - 1):
            row = run_cell(config.n, m, config.s_values, UnitaryKind.RANDOM_CUE,
                           RngStream(config.master_seed).child(j))
            _, k, w = np.array(row).T
            assert np.array_equal(k, stats.K[j, i]) and np.array_equal(
                w, stats.captured_weight[j, i]
            ), f"record differs from the replay of m={m}, realization {j}"
    # The documented small-window exception covers only m < 5, and every m
    # in this sweep is >= 5 — so every cell counts.
    violations = []
    for i, m in enumerate(config.m_values):
        purity, se = annealed_purity(stats.K[:, i], stats.captured_weight[:, i])
        for j, s in enumerate(config.s_values):
            model = conjectured_purity(config.n, m, s)
            allowed = max(0.05 * purity[j], 2.0 * se[j])
            if abs(model - purity[j]) > allowed:
                violations.append(
                    f"  m={m:2d} s={s:2d}: purity={purity[j]:.4f} model={model:.4f} "
                    f"allowed=±{allowed:.4f}"
                )
    assert elapsed < 600.0, f"took {elapsed:.2f} s"
    assert not violations, "model outside tolerance at:\n" + "\n".join(violations)


def test_criterion_06_loss_formula_and_peak_location():
    config = SweepConfig(
        n=51,
        m_values=GRID_51,
        s_values=GRID_51,
        unitary_kind=UnitaryKind.RANDOM_CUE,
        realizations=100,
        master_seed=7,
    )
    points = loss_sweep(config, workers=1)
    stats = run_ensemble(config, workers=1)
    problems = []
    for i, p in enumerate(points):
        # a loss point is the full grid's diagonal cell s = m, bit for bit
        diagonal = (stats.mean_K[i, i], stats.std_K[i, i], stats.mean_captured_weight[i, i])
        if (p.mean_K, p.std_loss, p.mean_captured_weight) != diagonal:
            problems.append(f"  m={p.m:2d}: loss point {p} vs diagonal {diagonal}")
        if p.m < 5:
            continue
        purity, se = annealed_purity(stats.K[:, i, i], stats.captured_weight[:, i, i])
        loss = p.m - 1.0 / purity
        loss_se = se / purity**2
        predicted = entanglement_loss(config.n, p.m)
        # absolute floor keeps the zero-variance endpoint m = n meaningful
        allowed = max(0.05 * abs(predicted), 2.0 * loss_se, 1e-9)
        if abs(loss - predicted) > allowed:
            problems.append(
                f"  m={p.m:2d}: loss {loss:8.4f} vs formula {predicted:8.4f} "
                f"(allowed ±{allowed:.4f})"
            )
    losses = [p.mean_loss for p in points]
    peak_m = points[int(np.argmax(losses))].m
    target = (3.0 - math.sqrt(3.0)) / 2.0 * config.n
    if abs(peak_m - target) > 2.0:
        problems.append(
            f"  empirical peak at m={peak_m}, expected within one grid step of {target:.2f}"
        )
    assert not problems, "loss curve deviates:\n" + "\n".join(problems)


def test_criterion_07_error_bars_shrink_with_m_and_s(sweep51):
    config, stats, _ = sweep51
    # K spans 1..min(m, s), so concentration of measure shrinks the spread
    # relative to K across m, not the absolute spread.
    relative_by_m = (stats.std_K / stats.mean_K).mean(axis=1)
    i5 = config.m_values.index(5)
    i25 = config.m_values.index(25)
    quarter = len(config.s_values) // 4
    std_by_s = stats.std_K.mean(axis=0)
    bottom = float(std_by_s[:quarter].mean())
    top = float(std_by_s[-quarter:].mean())
    assert relative_by_m[i25] < relative_by_m[i5], (
        f"avg std_K/mean_K over s: m=25 gives {relative_by_m[i25]:.4f}, "
        f"m=5 gives {relative_by_m[i5]:.4f} (expected the former to be strictly smaller)"
    )
    assert top < bottom, f"avg std_K over m: top-quartile s {top:.4f} vs bottom {bottom:.4f}"


def test_criterion_08_quadruple_sum_equals_gram_purity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 10))
        raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        raw /= np.linalg.norm(raw)
        block = TruncatedState(raw, float(rng.uniform(0.05, 1.0)))
        worst = max(worst, abs(quadruple_sum_purity(block.entries) - reduced_purity(block)))
    assert worst < 1e-10, f"worst purity mismatch {worst:.3e}"


def test_criterion_09_csv_bytes_identical_across_parallelism(sweep51):
    config, stats, _ = sweep51
    parallel = run_ensemble(config, workers=4)
    serial_csv = render_csv(table_from_stats(stats))
    parallel_csv = render_csv(table_from_stats(parallel))
    assert serial_csv.encode("utf-8") == parallel_csv.encode("utf-8")
