import itertools
import logging
from fractions import Fraction

import numpy as np
import pytest

import entrunc.ensemble as ensemble
import entrunc.pipeline as pipeline
from entrunc import (
    DimensionError,
    HilbertDims,
    RngStream,
    SweepConfig,
    UnitaryKind,
    evolve,
    loss_sweep,
    make_initial_state,
    reduced_purity,
    run_cell,
    run_ensemble,
    sample_cue,
    schmidt_number,
    truncate,
    uniform_spreading_unitary,
)

from oracles import SCHMIDT_N201_S101, TINY_ENSEMBLE, exact_annealed_purity


# --- configuration validation ----------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=8, m_values=(3,), s_values=(3,)),
        dict(n=21, m_values=(), s_values=(3,)),
        dict(n=21, m_values=(1,), s_values=(3,)),
        dict(n=21, m_values=(5, 3), s_values=(3,)),
        dict(n=21, m_values=(3, 3), s_values=(3,)),
        dict(n=21, m_values=(3,), s_values=(4,)),
        dict(n=21, m_values=(3,), s_values=(23,)),
        dict(n=21, m_values=(3,), s_values=(3,), realizations=0),
        dict(n=21, m_values=(3,), s_values=(3,), master_seed=-1),
        dict(n=9, m_values=(2.5,), s_values=(3,)),
        dict(n=9.0, m_values=(3,), s_values=(3,)),
        dict(n=9, m_values=(3,), s_values=(None,)),
    ],
)
def test_config_rejects_bad_input(kwargs):
    with pytest.raises(DimensionError):
        SweepConfig(**kwargs)


def test_config_coerces_lists_to_tuples():
    config = SweepConfig(n=9, m_values=[2, 3], s_values=[3, 5])
    assert config.m_values == (2, 3)
    assert config.s_values == (3, 5)


# --- single cells -----------------------------------------------------------


def test_uniform_cell_full_encoding_gives_K_equal_s():
    row = run_cell(21, 21, (3, 9, 15, 21), UnitaryKind.UNIFORM_SPREADING)
    for s, k, w in row:
        assert k == pytest.approx(s, abs=1e-9)
        assert w == pytest.approx(s / 21, abs=1e-12)


def test_uniform_cell_m2_revival_near_half_n():
    (_, k, _), = run_cell(201, 2, (101,), UnitaryKind.UNIFORM_SPREADING)
    assert k == pytest.approx(SCHMIDT_N201_S101, rel=1e-8)
    assert abs(k - 2.0) / 2.0 < 0.01


@pytest.mark.parametrize("m", [2, 7, 15])
def test_random_cell_full_window_gives_K_equal_m(m):
    row = run_cell(15, m, (15,), UnitaryKind.RANDOM_CUE, RngStream(5))
    (_, k, w), = row
    assert k == pytest.approx(m, abs=1e-8)
    assert w == pytest.approx(1.0, abs=1e-12)


def test_random_cell_requires_stream():
    with pytest.raises(ValueError, match="stream"):
        run_cell(9, 3, (3,), UnitaryKind.RANDOM_CUE)


def test_run_cell_checks_windows_before_drawing(monkeypatch):
    draws = []

    def counting_cue(n, stream):
        draws.append(stream)
        return sample_cue(n, stream)

    monkeypatch.setattr(ensemble, "sample_cue", counting_cue)
    with pytest.raises(DimensionError):
        run_cell(9, 3, (3, 4), UnitaryKind.RANDOM_CUE, RngStream(1))
    assert draws == []


@pytest.mark.parametrize("s_values", [(), (5, 3), (3, 3), (None,)])
def test_run_cell_applies_the_window_list_rules_before_drawing(monkeypatch, s_values):
    draws = []
    monkeypatch.setattr(ensemble, "sample_cue", lambda n, stream: draws.append(stream))
    with pytest.raises(DimensionError, match="s_values"):
        run_cell(9, 3, s_values, UnitaryKind.RANDOM_CUE, RngStream(1))
    assert draws == []


def test_run_cell_names_its_own_m():
    with pytest.raises(DimensionError, match=r"^m must be an integer in \[2, 9\], got None$"):
        run_cell(9, None, (3,), UnitaryKind.RANDOM_CUE, RngStream(1))


def test_run_cell_accepts_numpy_integers():
    replay = run_cell(np.int64(9), np.int64(3), (np.int64(5),), UnitaryKind.RANDOM_CUE, RngStream(4))
    assert replay == run_cell(9, 3, (5,), UnitaryKind.RANDOM_CUE, RngStream(4))


def _reference_chain(n, m, s, u_a, u_b):
    """(K, weight) of one window through the public single-window functions."""
    block = truncate(evolve(make_initial_state(HilbertDims(n, m)), u_a, u_b), s)
    return schmidt_number(reduced_purity(block)), block.captured_weight


@pytest.mark.parametrize("independent_ab", [True, False])
@pytest.mark.parametrize("kind", list(UnitaryKind))
@pytest.mark.parametrize("n, m_values", [(9, (2, 3, 4, 9)), (11, (2, 5, 6, 10, 11)),
                                         (15, (2, 7, 8, 14, 15)), (51, (5, 20, 21, 38, 50, 51))])
def test_window_value_depends_only_on_draw_and_dimensions(n, m_values, kind, independent_ab):
    # The kernel grows one Gram from s = 3, through and past the anchor m | 1,
    # which it reads off the Gram of its own block; whichever windows are
    # requested, each window's (K, weight) must come out bit for bit the same,
    # on either route.  The grid holds an m of each route that n admits.
    assert ({ensemble._small_route(n, m) for m in m_values}
            == {ensemble._small_route(n, m) for m in range(2, n + 1)} == {True, False})
    windows = tuple(range(3, n + 1, 2))
    for j in range(2):
        stream = RngStream(31).child(j)
        u_a, u_b = ensemble._draw(n, kind, stream, independent_ab)
        for m in m_values:
            full = run_cell(n, m, windows, kind, stream, independent_ab)
            assert [s for s, _, _ in full] == list(windows)
            assert run_cell(n, m, windows[1:], kind, stream, independent_ab) == full[1:]
            for i, (s, k, w) in enumerate(full):
                assert run_cell(n, m, (s,), kind, stream, independent_ab) == [full[i]]
                k_ref, w_ref = _reference_chain(n, m, s, u_a, u_b)
                assert k == pytest.approx(k_ref, rel=1e-12, abs=0)
                assert w == pytest.approx(w_ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("n, m_values", [(51, (5, 13, 20, 21, 25, 38)), (201, (5, 25, 40, 41, 51))])
def test_small_encoding_route_agrees_with_the_walk(n, m_values):
    assert {ensemble._small_route(n, m) for m in m_values} == {True, False}
    u_a, u_b = ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(7).child(0), True)
    windows = list(range(3, n + 1, 2))
    for m in m_values:
        _, rows, cols, coeffs = ensemble._encoding(HilbertDims(n, m))
        a, b = u_a[:, rows] * coeffs, u_b[:, cols]
        walked, small = ensemble._walk(a @ b.T, windows), ensemble._read_small(a, b, windows)
        for s in windows:
            assert small[s] == pytest.approx(walked[s], rel=1e-13, abs=0), (m, s)


@pytest.mark.parametrize("independent_ab", [True, False])
@pytest.mark.parametrize("kind", list(UnitaryKind))
def test_every_window_obeys_the_weight_and_rank_bounds(kind, independent_ab):
    # Odd and even m on both routes; every full window list also holds the anchor m | 1.
    for n, m_values in [(9, (2, 5, 9)), (51, (13, 20, 21, 38)), (201, (40, 41, 200))]:
        assert {ensemble._small_route(n, m) for m in m_values} == {True, False}
        for m in m_values:
            cell = run_cell(n, m, tuple(range(3, n + 1, 2)), kind, RngStream(5).child(m),
                            independent_ab)
            weights = [w for _, _, w in cell]
            # nested windows only gain weight: the single narrowest-window truncate relies on it
            assert all(b >= a - 1e-14 for a, b in zip(weights, weights[1:])), (n, m)
            for s, k, w in cell:
                assert 0 < w <= 1 + 1e-12, (n, m, s)
                assert 1 - 1e-12 <= k <= min(m, s) * (1 + 1e-12), (n, m, s)
            _, k_full, w_full = cell[-1]
            assert abs(w_full - 1) <= 1e-12 and abs(k_full - m) <= 1e-12 * m, (n, m)


def test_shared_unitary_differs_from_independent():
    base = RngStream(11)
    (_, k_ind, _), = run_cell(9, 3, (5,), UnitaryKind.RANDOM_CUE, base, independent_ab=True)
    (_, k_shr, _), = run_cell(9, 3, (5,), UnitaryKind.RANDOM_CUE, base, independent_ab=False)
    assert k_ind != k_shr


def test_captured_weight_matches_exact_haar_moment():
    # For independent Haar draws E|c_ij|^2 = 1/n^2 for every amplitude of the
    # evolved state, so E[captured weight] = s^2/n^2 whatever m is.  The gate
    # is a z-test at 4 sample standard errors (k fixed before the first run),
    # so it holds for any engine that samples the same distribution.
    n, m, s_values, realizations = 21, 5, (3, 7, 11), 300
    assert ensemble._small_route(n, m)  # the gate checks the m×m route
    base = RngStream(2024)
    weights = np.array([
        [w for _, _, w in run_cell(n, m, s_values, UnitaryKind.RANDOM_CUE, base.child(j))]
        for j in range(realizations)
    ])
    exact = np.array(s_values) ** 2 / n**2
    stderr = weights.std(axis=0, ddof=1) / np.sqrt(realizations)
    assert np.all(np.abs(weights.mean(axis=0) - exact) <= 4 * stderr)


@pytest.mark.parametrize("n, m", [(5, 2), (9, 3), (21, 15), (51, 13), (201, 201)])
def test_exact_annealed_purity_is_one_over_m_for_the_whole_space(n, m):
    # At s = n nothing is truncated: a = 1, b = 0, and the state has purity 1/m exactly.
    assert exact_annealed_purity(Fraction(n), m, n) == Fraction(1, m)
    assert exact_annealed_purity(Fraction(n), m, 3) > Fraction(1, m)


def test_walk_samples_the_exact_annealed_purity():
    # P_ann = ⟨q⟩/⟨w⟩² with q = tr ρ̃² = w²/K, against its exact Haar value on the
    # walk route.  Delta-method standard error of the ratio of means; the seed,
    # the draw count and the 4-SE threshold were fixed before the first run.
    n, m, s_values, realizations = 21, 15, (3, 7, 11), 2000
    assert not ensemble._small_route(n, m)  # the gate checks the walk
    base = RngStream(31)
    cells = np.array([
        [(k, w) for _, k, w in run_cell(n, m, s_values, UnitaryKind.RANDOM_CUE, base.child(j))]
        for j in range(realizations)
    ])
    k, w = cells[..., 0], cells[..., 1]
    q = w * w / k
    q_bar, w_bar = q.mean(axis=0), w.mean(axis=0)
    purity = q_bar / w_bar**2
    influence = (q - q_bar) / w_bar**2 - 2 * purity * (w - w_bar) / w_bar
    stderr = influence.std(axis=0, ddof=1) / np.sqrt(realizations)
    exact = np.array([exact_annealed_purity(n, m, s) for s in s_values])
    assert np.all(np.abs(purity - exact) <= 4 * stderr), (purity - exact) / stderr


# --- frozen reference ensemble ---------------------------------------------


def tiny_config(**overrides):
    t = TINY_ENSEMBLE
    kwargs = dict(
        n=t["n"],
        m_values=(t["m"],),
        s_values=t["s_values"],
        unitary_kind=UnitaryKind.RANDOM_CUE,
        realizations=t["realizations"],
        master_seed=t["master_seed"],
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def test_frozen_per_realization_values():
    t = TINY_ENSEMBLE
    base = RngStream(t["master_seed"])
    for j in range(t["realizations"]):
        row = run_cell(t["n"], t["m"], t["s_values"], UnitaryKind.RANDOM_CUE, base.child(j))
        for s, k, w in row:
            assert k == pytest.approx(t["k_per_realization"][s][j], rel=1e-12)
            assert w == pytest.approx(t["weight_per_realization"][s][j], rel=1e-12)


def test_frozen_ensemble_statistics():
    t = TINY_ENSEMBLE
    stats = run_ensemble(tiny_config())
    np.testing.assert_allclose(stats.mean_K[0], t["mean_K"], rtol=1e-12)
    np.testing.assert_allclose(stats.std_K[0], t["std_K"], rtol=1e-12)
    np.testing.assert_allclose(stats.mean_captured_weight[0], t["mean_captured_weight"], rtol=1e-12)
    for j, s in enumerate(t["s_values"]):
        mean_k, std_k, mean_w = stats.cell(t["m"], s)
        assert mean_k == pytest.approx(t["mean_K"][j], rel=1e-12)
        assert std_k == pytest.approx(t["std_K"][j], rel=1e-12)
        assert mean_w == pytest.approx(t["mean_captured_weight"][j], rel=1e-12)


def test_cell_accessor_rejects_unknown_coordinates():
    stats = run_ensemble(tiny_config())
    with pytest.raises(ValueError):
        stats.cell(7, 3)


# --- determinism ------------------------------------------------------------


def test_reruns_are_bit_identical():
    a = run_ensemble(tiny_config())
    b = run_ensemble(tiny_config())
    assert np.array_equal(a.mean_K, b.mean_K)
    assert np.array_equal(a.std_K, b.std_K)
    assert np.array_equal(a.mean_captured_weight, b.mean_captured_weight)


def test_worker_count_does_not_change_results():
    config = SweepConfig(
        n=11, m_values=(2, 5), s_values=(3, 7, 11), realizations=12, master_seed=40
    )
    serial = run_ensemble(config, workers=1)
    threaded = run_ensemble(config, workers=3)
    assert np.array_equal(serial.mean_K, threaded.mean_K)
    assert np.array_equal(serial.std_K, threaded.std_K)
    assert np.array_equal(serial.mean_captured_weight, threaded.mean_captured_weight)


def _replayed(config, m, windows):
    """(mean K, std K, mean weight) of one m, stacked from run_cell replays."""
    draws = 1 if config.unitary_kind is UnitaryKind.UNIFORM_SPREADING else config.realizations
    rows = [
        run_cell(config.n, m, windows, config.unitary_kind,
                 RngStream(config.master_seed).child(j), config.independent_ab)
        for j in range(draws)
    ]
    k = np.array([[k for _, k, _ in row] for row in rows])
    w = np.array([[w for _, _, w in row] for row in rows])
    return k.mean(axis=0), k.std(axis=0), w.mean(axis=0)


@pytest.mark.parametrize("independent_ab", [True, False])
@pytest.mark.parametrize("kind", list(UnitaryKind))
def test_sweeps_equal_stacked_run_cell_replays(kind, independent_ab):
    common = dict(n=11, unitary_kind=kind, realizations=6, master_seed=23,
                  independent_ab=independent_ab)
    config = SweepConfig(m_values=(2, 3, 7, 11), s_values=(3, 7, 11), **common)
    stats = run_ensemble(config)
    assert stats.config is config
    for i, m in enumerate(config.m_values):
        mean_k, std_k, mean_w = _replayed(config, m, config.s_values)
        assert np.array_equal(stats.mean_K[i], mean_k)
        assert np.array_equal(stats.std_K[i], std_k)
        assert np.array_equal(stats.mean_captured_weight[i], mean_w)
    config = SweepConfig(m_values=(3, 7, 11), s_values=(3, 7, 11), **common)
    for p in loss_sweep(config):
        (mean_k,), (std_k,), (mean_w,) = _replayed(config, p.m, (p.m,))
        assert (p.mean_K, p.std_loss, p.mean_captured_weight) == (mean_k, std_k, mean_w)
        assert p.mean_loss == p.m - mean_k


def test_each_realization_draws_its_pair_once(monkeypatch):
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append(args)
            return original(*args)
        return wrapper

    monkeypatch.setattr(ensemble, "sample_cue", counted(sample_cue))
    monkeypatch.setattr(ensemble, "uniform_spreading_unitary", counted(uniform_spreading_unitary))
    realizations = 4
    sweep = dict(n=9, m_values=(2, 3, 5), s_values=(3, 5, 9), realizations=realizations)
    for kwargs, run, expected in [
        (sweep, run_ensemble, 2 * realizations),
        (dict(sweep, independent_ab=False), run_ensemble, realizations),
        (dict(sweep, m_values=(3, 5, 7), s_values=(3, 5, 7)), loss_sweep, 2 * realizations),
        (dict(sweep, unitary_kind=UnitaryKind.UNIFORM_SPREADING), run_ensemble, 1),
    ]:
        calls.clear()
        run(SweepConfig(**kwargs))
        assert len(calls) == expected, kwargs


def test_engine_truncates_once_per_realization_and_m(monkeypatch):
    # Every window is read off a Gram, the anchor m | 1 included; ``truncate``
    # runs only on the narrowest window, for the degenerate-weight rule.
    calls = {truncate: [], reduced_purity: [], schmidt_number: []}

    def counted(original):
        def wrapper(*args):
            calls[original].append(args)
            return original(*args)
        return wrapper

    for original in calls:
        for module in (ensemble, pipeline):
            monkeypatch.setattr(module, original.__name__, counted(original), raising=False)
    realizations = 4
    sweep = dict(n=9, m_values=(4, 5, 7), s_values=(3, 5, 7, 9), realizations=realizations)
    for kwargs, run in [
        (sweep, run_ensemble),  # no m has the narrowest window s = 3 as its anchor
        (dict(sweep, m_values=(3, 5, 7), s_values=(3, 5, 7)), loss_sweep),
        (dict(sweep, unitary_kind=UnitaryKind.UNIFORM_SPREADING), run_ensemble),
    ]:
        for log in calls.values():
            log.clear()
        config = SweepConfig(**kwargs)
        run(config)
        draws = 1 if config.unitary_kind is UnitaryKind.UNIFORM_SPREADING else realizations
        narrowest = [s if run is loss_sweep else config.s_values[0]
                     for _ in range(draws) for s in config.m_values]
        assert [s for _, s in calls[truncate]] == narrowest, kwargs
        assert calls[reduced_purity] == calls[schmidt_number] == [], kwargs


def test_progress_lines_leave_results_unchanged(monkeypatch, caplog):
    config = SweepConfig(n=9, m_values=(2, 5), s_values=(3, 9), realizations=5, master_seed=3)
    with caplog.at_level(logging.INFO, logger="entrunc.ensemble"):
        quiet = run_ensemble(config)
    assert not caplog.records  # a run shorter than PROGRESS_EVERY_S logs nothing
    ticks = itertools.count(step=6.0)  # every clock read advances 6 s
    monkeypatch.setattr(ensemble, "monotonic", lambda: next(ticks))
    with caplog.at_level(logging.INFO, logger="entrunc.ensemble"):
        logged = run_ensemble(config)
    assert [r.getMessage() for r in caplog.records] == [
        "realization 2/5, 0.17/s, ETA 18 s",
        "realization 4/5, 0.17/s, ETA 6 s",
    ]
    assert np.array_equal(quiet.mean_K, logged.mean_K)
    assert np.array_equal(quiet.std_K, logged.std_K)
    assert np.array_equal(quiet.mean_captured_weight, logged.mean_captured_weight)


def test_uniform_sweep_is_deterministic_single_shot():
    config = SweepConfig(
        n=9,
        m_values=(2, 3, 9),
        s_values=(3, 5, 7),
        unitary_kind=UnitaryKind.UNIFORM_SPREADING,
        realizations=50,  # ignored for the deterministic kind
    )
    stats = run_ensemble(config)
    assert stats.realizations == 1
    assert np.all(stats.std_K == 0.0)


# --- statistical behaviour --------------------------------------------------


def test_mean_K_nondecreasing_in_window_size():
    config = SweepConfig(
        n=51, m_values=(5,), s_values=tuple(range(3, 52, 2)), realizations=100, master_seed=7
    )
    stats = run_ensemble(config)
    assert np.all(np.diff(stats.mean_K[0]) > 0)


def test_relative_spread_shrinks_with_encoding_dimension():
    config = SweepConfig(
        n=51, m_values=(5, 25), s_values=tuple(range(3, 52, 2)), realizations=100, master_seed=7
    )
    stats = run_ensemble(config)
    rel = stats.std_K / stats.mean_K
    assert rel[1].mean() < rel[0].mean()


def test_uniform_monotone_except_small_even_encodings():
    s_values = tuple(range(3, 22, 2))
    for m in (3, 5, 6, 7):
        stats = run_ensemble(
            SweepConfig(n=21, m_values=(m,), s_values=s_values, unitary_kind=UnitaryKind.UNIFORM_SPREADING)
        )
        assert np.all(np.diff(stats.mean_K[0]) > -1e-9), f"m={m} should be non-decreasing"
    # m=2 oscillates: the curve comes back down after its early peak
    stats = run_ensemble(
        SweepConfig(n=51, m_values=(2,), s_values=tuple(range(3, 52, 2)), unitary_kind=UnitaryKind.UNIFORM_SPREADING)
    )
    assert np.any(np.diff(stats.mean_K[0]) < 0)


# --- loss sweeps -------------------------------------------------------------


def test_loss_requires_matched_grids():
    with pytest.raises(DimensionError, match="s_values == m_values"):
        loss_sweep(SweepConfig(n=9, m_values=(3, 5), s_values=(3, 7), realizations=2))


def test_loss_vanishes_without_truncation():
    points = loss_sweep(SweepConfig(n=9, m_values=(9,), s_values=(9,), realizations=3))
    assert points[0].mean_loss == pytest.approx(0.0, abs=1e-10)
    assert points[0].mean_captured_weight == pytest.approx(1.0, abs=1e-12)


def test_loss_points_are_consistent():
    config = SweepConfig(n=11, m_values=(3, 5, 7), s_values=(3, 5, 7), realizations=8, master_seed=1)
    points = loss_sweep(config)
    assert [p.m for p in points] == [3, 5, 7]
    for p in points:
        assert p.mean_loss == pytest.approx(p.m - p.mean_K, abs=1e-12)
        assert 0.0 < p.mean_K <= p.m
        assert p.std_loss >= 0.0


def test_loss_matches_diagonal_of_full_sweep():
    for kind in UnitaryKind:
        config = SweepConfig(n=11, m_values=(3, 5), s_values=(3, 5), unitary_kind=kind,
                             realizations=6, master_seed=9)
        points = loss_sweep(config)
        stats = run_ensemble(config)
        for i, p in enumerate(points):
            assert p.mean_K == stats.mean_K[i, i]
            assert p.std_loss == stats.std_K[i, i]
            assert p.mean_captured_weight == stats.mean_captured_weight[i, i]
