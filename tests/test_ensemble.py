import hashlib
import itertools
import logging
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import entrunc.ensemble as ensemble
import entrunc.pipeline as pipeline
import entrunc.statespace as statespace
import entrunc.unitaries as unitaries
from entrunc import (
    DegenerateTruncationError,
    DimensionError,
    EntruncError,
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
from test_unitaries import _blas_threads, needs_setter


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


@pytest.mark.parametrize("field, value", [("unitary_kind", "uniform"), ("unitary_kind", None),
                                          ("independent_ab", "false"), ("independent_ab", 0)])
def test_config_rejects_a_kind_or_pairing_of_another_type(field, value):
    # "uniform" ran a Haar sweep and "false" independent draws; neither field
    # has a CLI flag, so the error is no DimensionError, which the CLI maps to one.
    with pytest.raises(EntruncError, match=f"^{field} must be ") as raised:
        SweepConfig(n=9, m_values=(3,), s_values=(3, 9), realizations=3, **{field: value})
    assert not isinstance(raised.value, DimensionError)


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


def test_random_cell_requires_stream(monkeypatch):
    draws = []
    monkeypatch.setattr(ensemble, "sample_cue", lambda n, stream: draws.append(stream))
    with pytest.raises(DimensionError, match="^stream must be given"):  # the package's own error, checked before drawing
        run_cell(9, 3, (3,), UnitaryKind.RANDOM_CUE)
    assert draws == []


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


def test_seeds_wider_than_64_bits_replay_bit_identically():
    seed, s_values = 2**70, (3, 5, 9)
    stats = run_ensemble(SweepConfig(n=9, m_values=(3,), s_values=s_values, realizations=2,
                                     master_seed=seed))
    for j in range(2):
        replay = run_cell(9, 3, s_values, UnitaryKind.RANDOM_CUE, RngStream(seed).child(j))
        assert [k for _, k, _ in replay] == stats.K[j, 0].tolist()
        assert [w for _, _, w in replay] == stats.captured_weight[j, 0].tolist()
    # the bits above 64 reach the draw: the seed is not cut to its low 64 bits
    assert replay != run_cell(9, 3, s_values, UnitaryKind.RANDOM_CUE, RngStream(seed % 2**64).child(1))


def _pairings(n, m_values):
    """(m×m route, wide anchor) of each m over every window of n, as ``_plan`` splits them."""
    plans = [ensemble._plan(n, m, tuple(range(3, n + 1, 2))) for m in m_values]
    return {(not walked, wide) for _, _, walked, *_, wide in plans}


def _reference_chain(n, m, s, u_a, u_b):
    """(K, weight) of one window through the public single-window functions."""
    block = truncate(evolve(make_initial_state(HilbertDims(n, m)), u_a, u_b), s)
    return schmidt_number(reduced_purity(block)), block.captured_weight


@pytest.mark.parametrize("independent_ab", [True, False])
@pytest.mark.parametrize("kind", list(UnitaryKind))
@pytest.mark.parametrize("n, m_values", [(9, (2, 3, 4, 7, 9)), (11, (2, 5, 6, 9, 10, 11)),
                                         (15, (2, 7, 8, 10, 14, 15)), (51, (5, 20, 21, 38, 50, 51))])
def test_window_value_depends_only_on_draw_and_dimensions(n, m_values, kind, independent_ab):
    # The kernel grows one Gram from s = 3, through and past the anchor m | 1,
    # which it reads off the Gram of its own block or, when wide, off the rows
    # outside it; whichever windows are requested, each window's (K, weight)
    # must come out bit for bit the same, on either route.  The grid holds an m
    # of each route that n admits, and anchors on both sides of ``_outside_read``;
    # so also, where n admits it (n ≤ 15), an m×m-route m whose anchor is wide.
    assert ({ensemble._small_route(n, m) for m in m_values}
            == {ensemble._small_route(n, m) for m in range(2, n + 1)} == {True, False})
    assert {ensemble._outside_read(n, m | 1) for m in m_values} == {True, False}
    assert _pairings(n, m_values) == _pairings(n, range(2, n + 1))
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
        entries = rows, cols, coeffs = statespace._encoding_entries(HilbertDims(n, m))
        a, b = u_a[:, rows] * coeffs, u_b[:, cols]
        walked = np.empty((2, 1, len(windows)))
        with unitaries._one_blas_thread():  # as a run reads
            # a plan whose walk reads every window, the anchor and the m×m route's too
            ensemble._walk((entries, windows, windows), [(u_a, u_b)], ensemble._workspace(1, n, n), walked)
            small = ensemble._read_small(a, b, windows)
        for i, s in enumerate(windows):
            assert small[:, i] == pytest.approx(walked[:, 0, i], rel=1e-13, abs=0), (m, s)


@pytest.mark.parametrize("n, m_values", [(9, (2, 5, 8)), (21, (3, 7, 12)), (51, (5, 13, 20))])
def test_small_route_bits_do_not_depend_on_its_level_blocks(monkeypatch, n, m_values):
    # Blocks of 1-3 window levels must give the bits of one block over every
    # level: each Gram is summed in the order of one cumsum over all shells.
    # A sparse list must give the bits of the full list's columns, also where
    # its windows fall in different blocks or a block holds none of them.
    u_a, u_b = ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(41).child(n), True)
    windows = list(range(3, n + 1, 2))
    with unitaries._one_blas_thread():
        for m in m_values:
            assert ensemble._small_route(n, m)
            rows, cols, coeffs = statespace._encoding_entries(HilbertDims(n, m))
            a, b = u_a[:, rows] * coeffs, u_b[:, cols]
            monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 16 * m * m * (n // 2 + 1))
            whole = ensemble._read_small(a, b, windows)  # one block over every level
            for levels in (n // 2 + 1, 1, 2, 3):
                monkeypatch.setattr(ensemble, "_BLOCK_BYTES", levels * 16 * m * m)
                for wanted in (windows, [s for s in windows if s != m | 1], windows[1::3], [n],
                               windows[:2] + windows[-2:]):
                    read = ensemble._read_small(a, b, wanted)
                    assert np.array_equal(read, whole[:, [windows.index(s) for s in wanted]]), (m, levels, wanted)
            monkeypatch.undo()


@pytest.mark.parametrize("n", [201, 401])
def test_small_route_memory_does_not_grow_with_the_window_range(n):
    # Past its n×m inputs the route holds three blocks of ``_BLOCK_BYTES``
    # whatever n is: with the m×m Grams of every level stacked, the traced
    # peak at m = 25 was 3.2 MB at n = 201 and grew with n.
    m = 25
    u_a, u_b = ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(7).child(0), True)
    rows, cols, coeffs = statespace._encoding_entries(HilbertDims(n, m))
    a, b = u_a[:, rows] * coeffs, u_b[:, cols]
    tracemalloc.start()
    try:
        ensemble._read_small(a, b, list(range(3, n + 1, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ensemble._BLOCK_BYTES + 2 * a.nbytes, peak


def test_sweep51_readers_take_one_block(monkeypatch):
    # Both budgets keep every n = 51 reader in one block: the m×m routes
    # (m ≤ 20; m = 5 and 13 in sweep51), and walks of 24 steps over chunks of 6.
    blocks, shell_grams = [], ensemble._shell_grams

    def counted(*args):
        for grams in shell_grams(*args):
            blocks.append(len(grams))
            yield grams

    monkeypatch.setattr(ensemble, "_shell_grams", counted)
    u_a, u_b = ensemble._draw(51, UnitaryKind.RANDOM_CUE, RngStream(7).child(0), True)
    for m in (5, 13, 20):
        plan = ensemble._plan(51, m, tuple(range(3, 52, 2)))
        blocks.clear()
        ensemble._windows(plan, u_a, u_b, np.empty((2, len(plan[1]))))
        assert blocks == [26, 26], m  # a's and b̄'s Grams, each in one block
    assert ensemble._chunk(51) == 6
    assert ensemble._workspace(6, 51, 51)[2].shape[1] == 24


def test_one_budget_sizes_chunks_walk_steps_and_window_levels(monkeypatch):
    # ``_BLOCK_BYTES`` alone sizes all three batches, at the sizes of the
    # three separate budgets it replaced: at n = 201 a walk block holds 40 of
    # the 99 steps and an m = 25 route reads 26 levels a block.
    blocks, shell_grams = [], ensemble._shell_grams

    def counted(*args):
        for grams in shell_grams(*args):
            blocks.append(len(grams))
            yield grams

    monkeypatch.setattr(ensemble, "_shell_grams", counted)
    u_a, u_b = ensemble._draw(201, UnitaryKind.RANDOM_CUE, RngStream(7).child(0), True)
    rows, cols, coeffs = statespace._encoding_entries(HilbertDims(201, 25))
    a, b = u_a[:, rows] * coeffs, u_b[:, cols]

    def sizes():
        blocks.clear()
        ensemble._read_small(a, b, list(range(3, 202, 2)))
        return ensemble._chunk(51), ensemble._workspace(1, 201, 201)[2].shape[1], max(blocks)

    assert sizes() == (6, 40, 26)
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", ensemble._BLOCK_BYTES // 2)
    assert sizes() == (3, 20, 13)


@pytest.mark.parametrize("independent_ab", [True, False])
@pytest.mark.parametrize("kind", list(UnitaryKind))
@pytest.mark.parametrize("n", [9, 51, 201])
def test_wide_anchors_read_off_the_outside_rows_agree_with_their_block(n, kind, independent_ab):
    # ``_read_outside`` uses A†A = αI and B†B = I; it must give the (w, q) of the
    # anchor's own block Gram, read through ``_read``, at every wide anchor.
    u_a, u_b = ensemble._draw(n, kind, RngStream(13).child(n), independent_ab)
    wide = [s for s in range(3, n + 1, 2) if ensemble._outside_read(n, s)]
    assert wide and not ensemble._outside_read(n, wide[0] - 2)
    for s, m in [(s, m) for s in wide for m in (s - 1, s)]:
        rows, cols, coeffs = statespace._encoding_entries(HilbertDims(n, m))
        block = ensemble._block(u_a[:, rows] * coeffs, u_b[:, cols], s)
        w_ref, q_ref = ensemble._read(block @ block.conj().T)
        out = np.empty((2, 1))  # this draw's record row, as a run of the one window s passes it
        with unitaries._one_blas_thread():
            ensemble._windows(ensemble._plan(n, m, (s,)), u_a, u_b, out)
        w, q = out[:, 0]
        assert w == pytest.approx(w_ref, rel=1e-13, abs=0), (s, m)
        assert q == pytest.approx(q_ref, rel=1e-13, abs=0), (s, m)


def test_anchor_windows_allocate_only_the_rows_they_read():
    # A loss-sweep m reads one central s×s block: the engine must not evolve the
    # n×n state for it, and frees the encoding columns before that block's Gram.
    # A wide anchor (m = 195) reads only the 6 rows outside it, and builds no block.
    n = 201
    u_a, u_b = ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(7).child(0), True)
    state_bytes = n * n * np.dtype(complex).itemsize
    assert not ensemble._outside_read(n, 51) and ensemble._outside_read(n, 195)
    for m, bound in [(51, state_bytes), (195, state_bytes // 4)]:
        plan, out = ensemble._plan(n, m, (m,)), np.empty((2, 1))  # s = m is the anchor: nothing nested
        tracemalloc.start()
        try:
            ensemble._windows(plan, u_a, u_b, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (m, peak)


@pytest.mark.parametrize("n, m_values, pairings", [
    (51, (13, 25, 38), {(True, False), (False, False), (False, True)}),
    (9, (7,), {(True, True)}),
])
def test_walk_and_windows_write_complementary_windows(n, m_values, pairings):
    # ``_walk`` writes the windows the walk reads and ``_windows`` every
    # other one: for one draw, each window is written by exactly one of them,
    # and together they give the run's record row.  m of each route at n = 51,
    # anchors on both sides of ``_outside_read``, and at n = 9 an m×m-route m
    # whose anchor is wide.
    assert _pairings(n, m_values) == pairings
    windows = tuple(range(3, n + 1, 2))
    stream = RngStream(17).child(0)
    pair = ensemble._draw(n, UnitaryKind.RANDOM_CUE, stream, True)
    for m in m_values:
        plan = ensemble._plan(n, m, windows)
        walked, read = np.full((2, 1, len(windows)), np.nan), np.full((2, len(windows)), np.nan)
        # on the run's one BLAS thread: on some OpenBLAS kernels (Haswell, Sandybridge) the
        # evolution's product gives other bits at two threads, and run_cell reads on one
        with unitaries._one_blas_thread():
            if plan[2]:  # the run calls _walk only for an m that walks
                ensemble._walk(plan, [pair], ensemble._workspace(1, n, n), walked)
            ensemble._windows(plan, *pair, read)
        by_walk, by_windows = ~np.isnan(walked[:, 0]), ~np.isnan(read)
        assert (by_walk[0] == by_walk[1]).all() and (by_windows[0] == by_windows[1]).all(), m
        assert (by_walk[0] != by_windows[0]).all(), m  # complementary, and covering every window
        assert by_walk[0].tolist() == [s in plan[2] for s in windows], m
        w, q = np.where(by_walk, walked[:, 0], read)
        row = run_cell(n, m, windows, UnitaryKind.RANDOM_CUE, stream)
        assert row == list(zip(windows, (w * w / q).tolist(), w.tolist())), m


@given(st.data())
def test_plan_sends_every_window_to_one_reader(data):
    # ``_plan`` is the one place that applies the route rules; it makes no draw.
    n = data.draw(st.integers(4, 30).map(lambda k: 2 * k + 1), label="n")
    m = data.draw(st.integers(2, n), label="m")
    s_values = tuple(sorted(data.draw(st.sets(st.sampled_from(range(3, n + 1, 2)), min_size=1),
                                      label="s_values")))
    entries, planned, walked, small, nested, anchor, blocks, wide = ensemble._plan(n, m, s_values)
    assert planned == s_values and len(entries[0]) == m  # the encoding's m entries
    narrowest = s_values[0]
    readers = [set(walked), set(small), blocks & {anchor}, {anchor} if wide else set()]
    for s in s_values:  # the walk, the m×m Grams, the anchor's block, the outside read
        assert sum(s in reader for reader in readers) == 1, s
    assert set().union(*readers) <= set(s_values)
    assert nested.tolist() == [s in walked or s in small for s in s_values]
    assert walked == sorted(walked) and small == sorted(small)
    # the degenerate-weight rule, once: on the narrowest window's block or on a wide anchor's read
    assert (narrowest in blocks) + (wide and narrowest == anchor) == 1
    assert blocks <= {narrowest, anchor}
    # the walk only off the m×m route, and the m×m Grams only on it
    assert not walked if ensemble._small_route(n, m) else not small


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
    config = SweepConfig(n, (m,), s_values, realizations=realizations, master_seed=2024)
    weights = run_ensemble(config).captured_weight[:, 0]
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
    stats = run_ensemble(SweepConfig(n, (m,), s_values, realizations=realizations, master_seed=31))
    k, w = stats.K[:, 0], stats.captured_weight[:, 0]
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


@pytest.mark.frozen
def test_frozen_per_realization_values():
    t = TINY_ENSEMBLE
    base = RngStream(t["master_seed"])
    for j in range(t["realizations"]):
        row = run_cell(t["n"], t["m"], t["s_values"], UnitaryKind.RANDOM_CUE, base.child(j))
        for s, k, w in row:
            assert k == pytest.approx(t["k_per_realization"][s][j], rel=1e-12)
            assert w == pytest.approx(t["weight_per_realization"][s][j], rel=1e-12)


@pytest.mark.frozen
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


def _record_digests():
    """SHA-256 of the (K, w) record of 2 draws of the README grid and of the ``loss201`` grid."""
    readme = SweepConfig(201, (5, 25, 51, 101, 151, 201), tuple(range(3, 202, 2)),
                         realizations=2, master_seed=7)
    stats = run_ensemble(readme)
    matched = tuple(range(3, 196, 8))
    loss = SweepConfig(201, matched, matched, realizations=5, master_seed=7)
    # the record that ``loss_sweep`` reduces
    records = [(stats.K, stats.captured_weight),
               ensemble._collect(loss, [(m,) for m in matched], ensemble._streams(loss))]
    return [hashlib.sha256(k.tobytes() + w.tobytes()).hexdigest() for k, w in records]


@needs_setter
def test_records_do_not_depend_on_the_blas_thread_count():
    # The m = 201 walk's evolve and the widest anchors are products whose bits
    # follow the BLAS thread count unless the whole run is on one thread.
    here = os.path.dirname(__file__)
    script = "from test_ensemble import _record_digests; print(_record_digests())"
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(here, os.pardir, "src"), here, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        digests.add(out.stdout.strip())
    assert digests == {str(_record_digests())}


@needs_setter
def test_runs_restore_the_callers_blas_thread_count(monkeypatch):
    config = SweepConfig(n=51, m_values=(5, 38), s_values=(3, 5, 51), realizations=13)
    caller = unitaries._set_blas_threads(2)
    try:
        run_ensemble(config)
        assert _blas_threads() == 2
        loss_sweep(SweepConfig(n=51, m_values=(5, 39), s_values=(5, 39), realizations=3))
        assert _blas_threads() == 2
        # every chunk of 6 draws walks m = 38 once, after its draws' own nested scopes
        walk, seen = ensemble._walk, []

        def watched(*args):
            seen.append(_blas_threads())
            return walk(*args)

        monkeypatch.setattr(ensemble, "_walk", watched)
        run_ensemble(config)
        assert seen == [1, 1, 1]
        assert _blas_threads() == 2
        windows, calls = ensemble._windows, []

        def failing(*args):
            calls.append(_blas_threads())
            if len(calls) == 5:
                raise DegenerateTruncationError("degenerate")
            return windows(*args)

        monkeypatch.setattr(ensemble, "_windows", failing)
        with pytest.raises(DegenerateTruncationError, match="realization 2, m=5"):
            run_ensemble(config)
        assert calls == [1] * 5
        assert _blas_threads() == 2
    finally:
        unitaries._set_blas_threads(caller)


def _replayed(config, m, windows):
    """(K, weight) of one m, each of shape (draws, len(windows)), stacked from run_cell replays."""
    draws = 1 if config.unitary_kind is UnitaryKind.UNIFORM_SPREADING else config.realizations
    rows = [
        run_cell(config.n, m, windows, config.unitary_kind,
                 RngStream(config.master_seed).child(j), config.independent_ab)
        for j in range(draws)
    ]
    k = np.array([[k for _, k, _ in row] for row in rows])
    return k, np.array([[w for _, _, w in row] for row in rows])


def _assert_record_equals_replays(stats, i, k, w):
    """Record row j of ``stats.config.m_values[i]`` is replay j, cell for cell, and so are the reductions."""
    assert stats.realizations == len(k)
    assert np.array_equal(stats.K[:, i], k) and np.array_equal(stats.captured_weight[:, i], w)
    (mean_k, std_k), (mean_w, _) = ensemble._reduce(k), ensemble._reduce(w)
    assert np.array_equal(stats.mean_K[i], mean_k)
    assert np.array_equal(stats.std_K[i], std_k)
    assert np.array_equal(stats.mean_captured_weight[i], mean_w)


@pytest.mark.parametrize("independent_ab", [True, False])
@pytest.mark.parametrize("kind", list(UnitaryKind))
def test_sweeps_equal_stacked_run_cell_replays(kind, independent_ab):
    common = dict(n=11, unitary_kind=kind, realizations=6, master_seed=23,
                  independent_ab=independent_ab)
    config = SweepConfig(m_values=(2, 3, 7, 11), s_values=(3, 7, 11), **common)
    stats = run_ensemble(config)
    assert stats.config is config
    for i, m in enumerate(config.m_values):
        _assert_record_equals_replays(stats, i, *_replayed(config, m, config.s_values))
    config = SweepConfig(m_values=(3, 7, 11), s_values=(3, 7, 11), **common)
    for p in loss_sweep(config):
        k, w = _replayed(config, p.m, (p.m,))
        (mean_k,), (std_k,) = ensemble._reduce(k)
        (mean_w,), _ = ensemble._reduce(w)
        assert (p.mean_K, p.std_loss, p.mean_captured_weight) == (mean_k, std_k, mean_w)
        assert p.mean_loss == p.m - mean_k


@pytest.mark.parametrize("independent_ab", [True, False])
@pytest.mark.parametrize("kind", list(UnitaryKind))
def test_sweeps_across_chunk_boundaries_equal_stacked_run_cell_replays(kind, independent_ab):
    # 13 draws at n = 51 run as chunks of 6 + 6 + 1, one m on each route.
    config = SweepConfig(n=51, m_values=(13, 38), s_values=tuple(range(3, 52, 2)),
                         unitary_kind=kind, realizations=13, master_seed=29,
                         independent_ab=independent_ab)
    assert ensemble._chunk(config.n) == 6
    assert [ensemble._small_route(config.n, m) for m in config.m_values] == [True, False]
    stats = run_ensemble(config)
    for i, m in enumerate(config.m_values):
        _assert_record_equals_replays(stats, i, *_replayed(config, m, config.s_values))


def test_pipelined_runs_are_the_n_from_91_runs_of_two_or_more_draws():
    # The rule: a run pipelines where a chunk is one draw and it has a next one.
    assert [ensemble._chunk(n) for n in (51, 71, 89, 91, 201)] == [6, 3, 2, 1, 1]
    assert [ensemble._pipelined(n, draws) for n, draws in [
        (51, 100), (71, 100), (89, 100), (91, 1), (91, 2), (201, 1), (201, 100)]] == [
        False, False, False, False, True, False, True]


@pytest.mark.parametrize("n, draws", [(51, 13), (91, 1), (91, 3), (201, 2)])
def test_pipelined_runs_read_on_one_worker_thread(monkeypatch, n, draws):
    # The draws stay on the caller's thread; the reads move to one thread of
    # the run exactly where ``_pipelined`` holds, and that thread ends with it.
    windows, draw, readers, drawers = ensemble._windows, ensemble._draw, [], []

    def read(*args):
        readers.append(threading.get_ident())
        return windows(*args)

    def drawn(*args):
        drawers.append(threading.get_ident())
        return draw(*args)

    monkeypatch.setattr(ensemble, "_windows", read)
    monkeypatch.setattr(ensemble, "_draw", drawn)
    before = threading.active_count()
    run_ensemble(SweepConfig(n=n, m_values=(5, n), s_values=(5, n), realizations=draws))
    assert threading.active_count() == before
    assert set(drawers) == {threading.get_ident()} and len(readers) == 2 * draws
    assert (set(readers) != set(drawers)) is ensemble._pipelined(n, draws)
    assert len(set(readers)) == 1


@pytest.mark.parametrize("n, m_values, s_values, draws", [
    # each route and each anchor read at n = 91
    (91, (5, 13, 27, 40, 61, 91), tuple(range(3, 92, 2)), 3),
    # the ``loss201`` grid (the record ``loss_sweep`` reduces)
    (201, tuple(range(3, 196, 8)), None, 3),
])
def test_pipelined_runs_equal_run_cell_replays(n, m_values, s_values, draws):
    assert ensemble._pipelined(n, draws)
    config = SweepConfig(n, m_values, s_values or m_values, realizations=draws, master_seed=7)
    assert {ensemble._small_route(n, m) for m in m_values} == {True, False}
    assert {ensemble._outside_read(n, m | 1) for m in m_values} == {True, False}
    windows = [config.s_values] * len(m_values) if s_values else [(m,) for m in m_values]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the two threads trade the interpreter lock 500 times as often
    try:
        k, w = ensemble._collect(config, windows, ensemble._streams(config))
    finally:
        sys.setswitchinterval(interval)
    for i, m in enumerate(m_values):
        k_m, w_m = _replayed(config, m, windows[i])
        assert np.array_equal(k[:, i], k_m) and np.array_equal(w[:, i], w_m), m


def _pipelined_failure(monkeypatch, serial):
    """The error of a failing pipelined run, or of the same run forced serial; checks what it leaves behind."""
    if serial:
        monkeypatch.setattr(ensemble, "_pipelined", lambda n, draws: False)
    config = SweepConfig(n=91, m_values=(5, 40), s_values=(5, 41), realizations=4)
    setter, before = unitaries._set_blas_threads, threading.active_count()
    caller = setter(2) if setter else None
    try:
        with pytest.raises(Exception) as err:
            run_ensemble(config)
        assert threading.active_count() == before
        assert not setter or _blas_threads() == 2
    finally:
        if setter:
            setter(caller)
    return type(err.value), str(err.value)


def test_pipelined_read_errors_are_the_serial_ones(monkeypatch):
    # A read that raises at realization j ≥ 1 gives the serial path's message,
    # and neither the reader thread nor the run's BLAS count outlives the run.
    windows, calls = ensemble._windows, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 5:  # realization 2, m = 5
            raise DegenerateTruncationError("degenerate")
        return windows(*args)

    monkeypatch.setattr(ensemble, "_windows", failing)
    errors = []
    for serial in (False, True):
        calls.clear()
        errors.append(_pipelined_failure(monkeypatch, serial))
    assert errors[0] == errors[1] == (DegenerateTruncationError, "realization 2, m=5: degenerate")


@pytest.mark.parametrize("read_fails", [False, True])
def test_pipelined_draw_errors_wait_for_the_read_in_flight(monkeypatch, read_fails):
    # Draw 2 raises while read 1 is in flight.  The run lets the read finish and
    # then raises what the serial order meets first: read 1's error if it has
    # one, else the draw's.
    windows, draw, calls, draws, drawing = ensemble._windows, ensemble._draw, [], [], threading.Event()

    def read(*args):
        calls.append(args)
        if len(calls) == 3:  # realization 1, m = 5
            if threading.current_thread() is not threading.main_thread():
                assert drawing.wait(60)  # draw 2 has started
            if read_fails:
                raise DegenerateTruncationError("degenerate")
        return windows(*args)

    def failing(*args):
        draws.append(args)
        if len(draws) == 3:
            drawing.set()
            raise RuntimeError("draw failed")
        return draw(*args)

    monkeypatch.setattr(ensemble, "_windows", read)
    monkeypatch.setattr(ensemble, "_draw", failing)
    errors = []
    for serial in (False, True):
        calls.clear()
        draws.clear()
        errors.append(_pipelined_failure(monkeypatch, serial))
        assert len(calls) == 4 - read_fails  # read 1 ran to its end or its error
    expected = ((DegenerateTruncationError, "realization 1, m=5: degenerate") if read_fails
                else (RuntimeError, "draw failed"))
    assert errors[0] == errors[1] == expected


def test_stacked_walk_equals_one_state_at_a_time():
    # Leading axes stack states; each value must equal the one-state walk bit for bit.
    n, m = 51, 38
    plan = ensemble._plan(n, m, tuple(range(3, n + 1, 2)))
    walked = plan[2]
    assert walked == [s for s in range(3, n + 1, 2) if s != m | 1]
    pairs = [ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(3).child(j), True) for j in range(4)]
    stacked = np.full((2, 4, len(plan[1])), np.nan)
    with unitaries._one_blas_thread():
        ensemble._walk(plan, pairs, ensemble._workspace(4, n, walked[-1]), stacked)
        for r, pair in enumerate(pairs):
            single = np.full((2, 1, len(plan[1])), np.nan)
            ensemble._walk(plan, [pair], ensemble._workspace(1, n, walked[-1]), single)
            assert np.array_equal(stacked[:, r], single[:, 0], equal_nan=True), r


@pytest.mark.skipif(unitaries._dgemm is None, reason="numpy links no scipy-openblas64 cblas_dgemm")
@pytest.mark.parametrize("n, m, count", [(51, 38, 6), (201, 201, 1), (201, 101, 1)])
def test_walk_without_the_dgemm_binding_is_bit_identical(monkeypatch, n, m, count):
    # Each fused step C ← A·B + C must give the bits of numpy's matmul into a
    # scratch array and a separate +=: a chunk of 6 stacked draws at n = 51,
    # and at n = 201 the walk of m = 201 (98 steps) and of m = 101 (all 99).
    plan = ensemble._plan(n, m, tuple(range(3, n + 1, 2)))
    pairs = [ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(5).child(j), True) for j in range(count)]
    fused, fallback = (np.full((2, count, len(plan[1])), np.nan) for _ in range(2))
    with unitaries._one_blas_thread():
        ensemble._walk(plan, pairs, ensemble._workspace(count, n, plan[2][-1]), fused)
        monkeypatch.setattr(unitaries, "_dgemm", None)
        ensemble._walk(plan, pairs, ensemble._workspace(count, n, plan[2][-1]), fallback)
    walked = plan[4]
    assert not np.isnan(fused[..., walked]).any()
    assert np.array_equal(fused, fallback, equal_nan=True)


def test_walk_reuses_its_workspace():
    # A walk over a warm workspace allocates no n×n array: the evolved states,
    # the Gram and the factor stacks of every step are the workspace's.  Only
    # the evolution's two n×m column gathers are its own, so m is well below n.
    n, m = 201, 51
    pair = ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(7).child(0), True)
    plan = ensemble._plan(n, m, tuple(range(3, n + 1, 2)))  # every window but the anchor walks
    workspace = ensemble._workspace(1, n, plan[2][-1])
    first, second = np.empty((2, 1, len(plan[1]))), np.empty((2, 1, len(plan[1])))
    with unitaries._one_blas_thread():
        ensemble._walk(plan, [pair], workspace, first)
        tracemalloc.start()
        try:
            ensemble._walk(plan, [pair], workspace, second)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    walked = plan[4]  # the anchor's column is no walk's to write
    assert np.array_equal(second[..., walked], first[..., walked])
    assert peak < n * n * np.dtype(complex).itemsize, peak


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("n, m, count", [(9, 9, 3), (21, 13, 2), (51, 38, 6)])
def test_walk_bits_do_not_depend_on_its_step_blocks(monkeypatch, n, m, count, fused):
    # Factor stacks of 1-3 steps, refilled at each block's first step, must
    # give the bits of one block over the whole walk, through ``_dgemm`` and
    # through its fallback.
    if fused and unitaries._dgemm is None:
        pytest.skip("numpy links no scipy-openblas64 cblas_dgemm")
    if not fused:
        monkeypatch.setattr(unitaries, "_dgemm", None)
    pairs = [ensemble._draw(n, UnitaryKind.RANDOM_CUE, RngStream(43).child(j), True) for j in range(count)]
    steps = (n - 3) // 2
    with unitaries._one_blas_thread():
        for windows in (tuple(range(3, n + 1, 2)), tuple(range(3, n + 1, 4))):
            plan = ensemble._plan(n, m, windows)
            whole = np.full((2, count, len(windows)), np.nan)
            monkeypatch.setattr(ensemble, "_BLOCK_BYTES", steps * 32 * count * n)
            workspace = ensemble._workspace(count, n, n)
            assert workspace[2].shape[1] == steps  # one block
            ensemble._walk(plan, pairs, workspace, whole)
            assert not np.isnan(whole[..., plan[4]]).any()
            for block in (1, 2, 3):
                monkeypatch.setattr(ensemble, "_BLOCK_BYTES", block * 32 * count * n)
                workspace = ensemble._workspace(count, n, n)
                assert workspace[2].shape[1] == min(block, steps)
                split = np.full_like(whole, np.nan)
                ensemble._walk(plan, pairs, workspace, split)
                assert np.array_equal(split, whole, equal_nan=True), (windows, block)


def test_walk_workspace_holds_one_block_of_factors():
    # At n = 201 the factors of all 99 steps took 1.9 MB, three times the Gram;
    # the workspace holds the Gram, the states and three ``_BLOCK_BYTES`` of factors.
    n = 201
    gram = n * n * np.dtype(complex).itemsize
    assert 96 * n * (n - 3) // 2 > 3 * ensemble._BLOCK_BYTES
    tracemalloc.start()
    try:
        workspace = ensemble._workspace(1, n, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert workspace[2].nbytes + workspace[3].nbytes <= 3 * ensemble._BLOCK_BYTES
    assert peak < 2 * gram + 3 * ensemble._BLOCK_BYTES + 2**16, peak


def test_walk_workspace_without_the_dgemm_binding_holds_one_scratch(monkeypatch):
    # Without the binding every update call of a chunk of 6 draws at n = 51 goes
    # through one Gram-sized float scratch: the calls own no other array.
    n, count = 51, 6
    monkeypatch.setattr(unitaries, "_dgemm", None)
    gram, _, left, _, calls = ensemble._workspace(count, n, n)
    assert len(calls) == left.shape[1] and all(len(slot) == count for slot in calls)
    owned = {id(x): x for slot in calls for call in slot for x in call.args if x.base is None}
    assert len(owned) == 1
    (scratch,) = owned.values()
    assert scratch.dtype == float and scratch.shape == gram.view(float).shape[1:] == (n, 2 * n)


def test_each_run_allocates_at_most_one_walk_workspace(monkeypatch):
    # The chunks of a run share one workspace; a run that walks no window allocates none.
    calls, workspace = [], ensemble._workspace

    def counted(*args):
        calls.append(args)
        return workspace(*args)

    monkeypatch.setattr(ensemble, "_workspace", counted)
    windows = tuple(range(3, 52, 2))
    common = dict(n=51, realizations=13, master_seed=29)  # chunks of 6 + 6 + 1
    assert ensemble._chunk(51) == 6
    for config, run, small, expected in [
        (SweepConfig(m_values=(13, 38), s_values=windows, **common), run_ensemble,
         [True, False], 1),
        # walk-route m, but each loss window s = m is its anchor, which no walk reads
        (SweepConfig(m_values=(13, 37, 51), s_values=(13, 37, 51), **common), loss_sweep,
         [True, False, False], 0),
        (SweepConfig(m_values=(5, 13, 20), s_values=windows, **common), run_ensemble,
         [True, True, True], 0),
    ]:
        assert [ensemble._small_route(config.n, m) for m in config.m_values] == small
        calls.clear()
        run(config)
        assert len(calls) == expected, config


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
    # runs only on the narrowest window, for the degenerate-weight rule, and not
    # where that window is a wide anchor, which is read without a block.
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
        (dict(sweep, m_values=(3, 5, 7), s_values=(3, 5, 7)), loss_sweep),  # 7 is wide
        (dict(sweep, m_values=(4, 7, 9), s_values=(7, 9)), run_ensemble),  # 7 is m = 7's
        (dict(sweep, unitary_kind=UnitaryKind.UNIFORM_SPREADING), run_ensemble),
    ]:
        for log in calls.values():
            log.clear()
        config = SweepConfig(**kwargs)
        run(config)
        draws = 1 if config.unitary_kind is UnitaryKind.UNIFORM_SPREADING else realizations
        narrowest = [s for _ in range(draws) for m in config.m_values
                     for s in [m if run is loss_sweep else config.s_values[0]]
                     if not (s == m | 1 and ensemble._outside_read(config.n, s))]
        assert [s for _, s in calls[truncate]] == narrowest, kwargs
        assert calls[reduced_purity] == calls[schmidt_number] == [], kwargs


@pytest.mark.parametrize("s_values", [(7,), (7, 9)])
def test_degenerate_wide_narrowest_window_raises_truncates_message(monkeypatch, s_values):
    # A wide anchor that is also the narrowest window gets no block and no
    # ``truncate``; the degenerate-weight rule applies to the weight of its
    # outside read, with ``truncate``'s message and the realization prefix.
    assert ensemble._outside_read(9, 7)
    state = np.zeros((9, 9), complex)
    state[4, 4] = 1e-13**0.5
    with pytest.raises(DegenerateTruncationError) as expected:
        truncate(state, 7)
    monkeypatch.setattr(ensemble, "_read_outside", lambda y_a, y_b, alpha: (1e-13, 1e-26))
    config = SweepConfig(n=9, m_values=(7,), s_values=s_values, realizations=3)
    with pytest.raises(DegenerateTruncationError) as err:
        run_ensemble(config)
    assert str(err.value) == f"realization 0, m=7: {expected.value}"


def test_std_K_is_exactly_zero_at_the_whole_space():
    # For m ∈ {n − 1, n} the window s = n is the anchor, read in closed form:
    # every realization gives the same K = m, so its spread reads 0.0 exactly,
    # not roundoff.
    for n, realizations in [(51, 100), (201, 10)]:
        assert ensemble._outside_read(n, n)
        config = SweepConfig(n=n, m_values=(n - 1, n), s_values=(3, n),
                             realizations=realizations, master_seed=7)
        stats = run_ensemble(config)
        assert stats.std_K[:, -1].tolist() == [0.0, 0.0], n
        assert stats.mean_K[:, -1].tolist() == [n - 1.0, n], n
        assert stats.mean_captured_weight[:, -1].tolist() == [1.0, 1.0], n


def test_identical_draws_reduce_to_their_value():
    # At n = m = s = 105 the closed form gives every draw the same K, which is
    # not exactly m; the cell must report that value with a spread of 0.0, where
    # numpy's mean of the ten draws rounds off it (104.99999999999997, std 1.4e-14).
    config = SweepConfig(n=105, m_values=(105,), s_values=(105,), realizations=10, master_seed=7)
    (_, k, _), = run_cell(105, 105, (105,), UnitaryKind.RANDOM_CUE, RngStream(7).child(0))
    assert k != 105
    stats = run_ensemble(config)
    assert (stats.mean_K[0, 0], stats.std_K[0, 0]) == (k, 0.0)
    point, = loss_sweep(config)
    assert (point.mean_K, point.std_loss) == (k, 0.0)
    assert np.all(stats.K == k)


def test_stats_reduce_each_record_once(monkeypatch):
    # mean_K and std_K come from one reduction of K, and every statistic is kept after its first read.
    stats = run_ensemble(SweepConfig(n=9, m_values=(3,), s_values=(3, 5), realizations=4, master_seed=2))
    reduced, reduce = [], ensemble._reduce
    monkeypatch.setattr(ensemble, "_reduce", lambda record: reduced.append(record) or reduce(record))
    for _ in range(2):
        stats.mean_K, stats.std_K, stats.mean_captured_weight, stats.cell(3, 5)
    assert [id(record) for record in reduced] == [id(stats.K), id(stats.captured_weight)]


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
