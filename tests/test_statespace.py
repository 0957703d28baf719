import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrunc import (
    DimensionError,
    HilbertDims,
    RngStream,
    SweepConfig,
    make_initial_state,
    parity_flag,
    sample_cue,
    statespace,
    truncate,
)


@pytest.mark.parametrize("m,flag", [(2, 1.0), (3, 0.0), (4, 1.0), (201, 0.0)])
def test_parity_flag(m, flag):
    assert parity_flag(m) == flag


def test_initial_state_n7_m2():
    beta = make_initial_state(HilbertDims(7, 2))
    big_n = 3
    expected = 1 / np.sqrt(2)
    assert beta[1 + big_n, -1 + big_n] == pytest.approx(expected)
    assert beta[-1 + big_n, 1 + big_n] == pytest.approx(expected)
    assert beta[big_n, big_n] == 0.0  # parity term removes the center
    assert np.count_nonzero(beta) == 2


def test_initial_state_n7_m3():
    beta = make_initial_state(HilbertDims(7, 3))
    big_n = 3
    for q in (-1, 0, 1):
        assert beta[q + big_n, -q + big_n] == pytest.approx(1 / np.sqrt(3))
    assert np.count_nonzero(beta) == 3


def test_initial_state_n5_m4():
    beta = make_initial_state(HilbertDims(5, 4))
    big_n = 2
    for q in (-2, -1, 1, 2):
        assert beta[q + big_n, -q + big_n] == pytest.approx(0.5)
    assert beta[big_n, big_n] == 0.0
    assert np.count_nonzero(beta) == 4


@pytest.mark.parametrize("n,m", [(9, 2), (9, 3), (9, 9), (201, 4), (201, 195), (51, 50), (51, 51)])
def test_encoding_entries_are_the_nonzero_entries_of_beta(n, m):
    dims = HilbertDims(n, m)
    beta = make_initial_state(dims)
    rows, cols, values = statespace._encoding_entries(dims)
    expected_rows, expected_cols = np.nonzero(beta)
    np.testing.assert_array_equal(rows, expected_rows)
    np.testing.assert_array_equal(cols, expected_cols)
    assert values.dtype == beta.dtype
    np.testing.assert_array_equal(values, beta[expected_rows, expected_cols])


@given(st.integers(min_value=1, max_value=20), st.data())
def test_initial_state_properties(half, data):
    n = 2 * half + 1
    m = data.draw(st.integers(min_value=2, max_value=n))
    beta = make_initial_state(HilbertDims(n, m))
    assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(beta) == m
    # support sits on the anti-diagonal r = -q
    big_n = half
    rows, cols = np.nonzero(beta)
    assert np.all((rows - big_n) == -(cols - big_n))
    # maximal entanglement in dimension m
    rho = beta @ beta.conj().T
    purity = np.vdot(rho, rho).real
    assert purity == pytest.approx(1.0 / m, abs=1e-12)


def test_dims_defaults_and_half_widths():
    dims = HilbertDims(9, 4)
    assert dims.s == 9
    assert dims.half_width == 4
    assert dims.window_half_width == 4
    assert dims.encoding_half_width == 2
    assert HilbertDims(9, 5).encoding_half_width == 2
    assert HilbertDims(9, 5, 3).window_half_width == 1


@pytest.mark.parametrize(
    "n,m,s",
    [
        (8, 2, None),  # even total dimension
        (1, 2, None),  # too small
        (7, 1, None),  # separable encoding rejected
        (7, 8, None),  # m > n
        (7, 2, 4),  # even window
        (7, 2, 9),  # window larger than the space
        (7, 2, 1),  # window too small
    ],
)
def test_dims_validation(n, m, s):
    with pytest.raises(DimensionError):
        HilbertDims(n, m, s)


@pytest.mark.parametrize(
    "name,build",
    [
        ("m", lambda: HilbertDims(9, 12)),
        ("s", lambda: HilbertDims(9, 3, 11)),
        ("realizations", lambda: SweepConfig(n=9, m_values=(3,), s_values=(3,), realizations=0)),
        ("master_seed", lambda: RngStream(-1)),
        ("s", lambda: truncate(make_initial_state(HilbertDims(9, 3)), 4)),
        ("n", lambda: sample_cue(8, RngStream(0))),
        ("m", lambda: HilbertDims(9, 3.5)),
        ("m", lambda: SweepConfig(n=9, m_values=(2.5,), s_values=(3,))),
        ("n", lambda: SweepConfig(n=9.0, m_values=(3,), s_values=(3,))),
        ("s", lambda: SweepConfig(n=9, m_values=(3,), s_values=(11,))),
        # a bool is an Integral, but not an integer of any of these rules
        ("n", lambda: HilbertDims(True, 2)),
        ("m", lambda: SweepConfig(n=9, m_values=(True,), s_values=(3,))),
        ("s", lambda: SweepConfig(n=9, m_values=(3,), s_values=(True,))),
        ("realizations", lambda: SweepConfig(n=9, m_values=(3,), s_values=(3, 9), realizations=True)),
        ("master_seed", lambda: SweepConfig(n=9, m_values=(3,), s_values=(3, 9), master_seed=False)),
        ("master_seed", lambda: RngStream(True)),
    ],
    ids=["HilbertDims-m", "HilbertDims-s", "SweepConfig", "RngStream", "truncate", "sample_cue",
         "HilbertDims-m-float", "SweepConfig-m-float", "SweepConfig-n-float", "SweepConfig-s",
         "HilbertDims-n-bool", "SweepConfig-m-bool", "SweepConfig-s-bool",
         "SweepConfig-realizations-bool", "SweepConfig-master_seed-bool", "RngStream-bool"],
)
def test_integer_checks_name_their_parameter(name, build):
    with pytest.raises(DimensionError) as info:
        build()
    assert str(info.value).startswith(f"{name} must be ")


@given(
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=-2, max_value=17),
    st.integers(min_value=-2, max_value=17),
)
def test_sweep_config_applies_exactly_the_hilbert_dims_rules(n, m, s):
    # One statement of the n, m and s rules: a one-cell sweep is valid exactly
    # when its dimension triple is.
    def rejected(build):
        try:
            build()
        except DimensionError:
            return True
        return False

    assert rejected(lambda: SweepConfig(n=n, m_values=(m,), s_values=(s,))) == rejected(
        lambda: HilbertDims(n, m, s)
    )
