import numpy as np
import pytest

from entrunc import (
    HilbertDims,
    UnitaryKind,
    analytic_beta_uniform,
    analytic_purity_m2,
    conjectured_purity,
    conjectured_schmidt_number,
    entanglement_loss,
    evolve,
    linear_approx_K,
    make_initial_state,
    reduced_purity,
    run_cell,
    sinc,
    truncate,
    uniform_spreading_unitary,
)

from oracles import PURITY_M2_N201_S3, PURITY_M2_N201_S101, SCHMIDT_N201_S101


def test_sinc_convention():
    assert sinc(0.0) == 1.0
    assert sinc(np.pi) == pytest.approx(0.0, abs=1e-15)
    x = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(sinc(x), sinc(-x))
    np.testing.assert_allclose(sinc(2.0), np.sin(2.0) / 2.0)


@pytest.mark.parametrize("n,m", [(7, 2), (9, 3), (21, 14), (21, 21)])
def test_beta_diagonal_reduces_to_sqrt_m_over_n(n, m):
    assert analytic_beta_uniform(n, m, 3, 3) == pytest.approx(np.sqrt(m) / n, abs=1e-15)


def test_beta_n7_m2_is_cosine():
    for delta in range(-6, 7):
        expected = np.sqrt(2) * np.cos(2 * np.pi * delta / 7) / 7
        assert analytic_beta_uniform(7, 2, delta, 0) == pytest.approx(expected, abs=1e-15)


def test_beta_vanishes_on_spread_nodes():
    # n=9, m=3: the numerator sinc hits a zero whenever q−r is a nonzero
    # multiple of 3
    for delta in (3, -3, 6, -6):
        assert abs(analytic_beta_uniform(9, 3, delta, 0)) < 1e-15


@pytest.mark.parametrize("n,m", [(9, 3), (9, 4), (15, 8), (21, 21)])
def test_beta_matches_evolved_pipeline(n, m):
    u = uniform_spreading_unitary(n)
    evolved = evolve(make_initial_state(HilbertDims(n, m)), u, u)
    half = (n - 1) // 2
    q, r = np.meshgrid(np.arange(-half, half + 1), np.arange(-half, half + 1), indexing="ij")
    np.testing.assert_allclose(analytic_beta_uniform(n, m, q, r), evolved.real, atol=1e-12)
    np.testing.assert_allclose(evolved.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [7, 21, 201])
def test_purity_m2_full_window_recovers_half(n):
    assert analytic_purity_m2(n, n) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.frozen
def test_purity_m2_frozen_values():
    assert analytic_purity_m2(201, 3) == pytest.approx(PURITY_M2_N201_S3, rel=1e-14)
    assert analytic_purity_m2(201, 101) == pytest.approx(PURITY_M2_N201_S101, rel=1e-14)
    k = 1.0 / analytic_purity_m2(201, 101)
    assert k == pytest.approx(SCHMIDT_N201_S101, rel=1e-14)
    assert abs(k - 2.0) / 2.0 < 0.01  # within a fraction of a percent of 2


@pytest.mark.parametrize("n", [7, 21])
def test_purity_m2_matches_pipeline(n):
    u = uniform_spreading_unitary(n)
    evolved = evolve(make_initial_state(HilbertDims(n, 2)), u, u)
    for s in range(3, n + 1, 2):
        numeric = reduced_purity(truncate(evolved, s))
        assert numeric == pytest.approx(analytic_purity_m2(n, s), abs=1e-9)


def test_conjectured_purity_full_window_is_exact():
    for m in (2, 13, 25, 51):
        assert conjectured_purity(51, m, 51) == pytest.approx(1.0 / m, rel=1e-14)
        assert conjectured_schmidt_number(51, m, 51) == pytest.approx(m, rel=1e-14)


def test_conjectured_purity_monotone_in_s_and_m():
    s = np.arange(3, 52, 2)
    for m in (5, 25, 51):
        values = conjectured_purity(51, m, s)
        assert np.all(np.diff(values) < 0)
    for s_fixed in (3, 21, 51):
        row = [conjectured_purity(51, m, s_fixed) for m in range(2, 52)]
        assert np.all(np.diff(row) < 0)


def test_conjectured_schmidt_curvature_flips_at_half_n():
    s = np.arange(3, 52, 2)
    concave = np.diff(conjectured_schmidt_number(51, 13, s), n=2)  # m < n/2
    convex = np.diff(conjectured_schmidt_number(51, 38, s), n=2)  # m > n/2
    assert np.all(concave <= 1e-12)
    assert np.all(convex >= -1e-12)


def test_loss_identity_with_conjecture():
    for m in range(2, 52):
        direct = entanglement_loss(51, m)
        via_model = m - 1.0 / conjectured_purity(51, m, m)
        assert direct == pytest.approx(via_model, abs=1e-12)
    assert entanglement_loss(51, 51) == pytest.approx(0.0, abs=1e-15)


def test_loss_curve_shape():
    m = np.arange(2, 202)
    losses = entanglement_loss(201, m)
    peak = int(m[np.argmax(losses)])
    # the analytic maximizer is (3−√3)·n/2 ≈ 0.634·n
    assert abs(peak - (3 - np.sqrt(3)) / 2 * 201) < 1
    assert np.all(np.diff(losses[m <= peak]) > 0)
    assert np.all(np.diff(losses[m >= peak]) < 0)
    # odd grid at n=51 peaks at m=33
    odd = np.arange(3, 52, 2)
    assert odd[np.argmax(entanglement_loss(51, odd))] == 33


def test_linear_approx_exact_at_full_encoding():
    for s in (3, 11, 21):
        assert linear_approx_K(21, 21, s) == pytest.approx(s, rel=1e-15)
    assert linear_approx_K(21, 21, 21) == 21.0


@pytest.mark.parametrize("n,m,s,rel", [(201, 101, 151, 0.01), (201, 51, 101, 0.01), (201, 21, 51, 0.02)])
def test_linear_approx_matches_flat_region(n, m, s, rel):
    (_, k, _), = run_cell(n, m, (s,), UnitaryKind.UNIFORM_SPREADING)
    assert linear_approx_K(n, m, s) == pytest.approx(k, rel=rel)
