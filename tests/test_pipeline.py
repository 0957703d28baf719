import numpy as np
import pytest

from entrunc import (
    DegenerateTruncationError,
    DimensionError,
    DomainError,
    HilbertDims,
    RngStream,
    TruncatedState,
    evolve,
    make_initial_state,
    reduced_density,
    reduced_purity,
    sample_cue,
    schmidt_number,
    truncate,
    uniform_spreading_unitary,
)

from oracles import CAPTURED_WEIGHT_N7_M2_S3, captured_weight_cosine_n7_s3


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return state / np.linalg.norm(state)


def test_evolve_identity_is_identity():
    beta = make_initial_state(HilbertDims(7, 3))
    eye = np.eye(7, dtype=complex)
    np.testing.assert_allclose(evolve(beta, eye, eye), beta, atol=1e-15)


def test_evolve_uniform_m2_gives_cosine_entries():
    beta = make_initial_state(HilbertDims(7, 2))
    u = uniform_spreading_unitary(7)
    evolved = evolve(beta, u, u)
    q, r = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij")
    expected = np.sqrt(2) * np.cos(2 * np.pi * (q - r) / 7) / 7
    np.testing.assert_allclose(evolved, expected, atol=1e-14)


@pytest.mark.parametrize("n,m,seed", [(9, 3, 0), (21, 5, 1), (51, 25, 2)])
def test_evolve_preserves_norm(n, m, seed):
    beta = make_initial_state(HilbertDims(n, m))
    base = RngStream(seed)
    out = evolve(beta, sample_cue(n, base.child(0)), sample_cue(n, base.child(1)))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("draw", range(10))
def test_entanglement_invariance_under_local_unitaries(draw):
    n, m = 21, 5
    beta = make_initial_state(HilbertDims(n, m))
    base = RngStream(17).child(draw)
    evolved = evolve(beta, sample_cue(n, base.child(0)), sample_cue(n, base.child(1)))
    purity = reduced_purity(truncate(evolved, n))
    assert purity == pytest.approx(1.0 / m, abs=1e-10)


def test_evolve_rejects_mismatched_dims():
    beta = make_initial_state(HilbertDims(7, 2))
    with pytest.raises(DimensionError):
        evolve(beta, np.eye(5, dtype=complex), np.eye(7, dtype=complex))


def test_truncate_full_window_is_identity():
    state = random_state(9, 4)
    out = truncate(state, 9)
    assert out.captured_weight == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.entries, state, atol=1e-12)


def test_truncate_keeps_state_supported_inside_window():
    # the unevolved m=2 encoding lives on levels ±1, inside the s=3 window
    beta = make_initial_state(HilbertDims(7, 2))
    out = truncate(beta, 3)
    assert out.captured_weight == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.entries, beta[2:5, 2:5], atol=1e-12)


def test_truncate_captured_weight_cosine_oracle():
    beta = make_initial_state(HilbertDims(7, 2))
    u = uniform_spreading_unitary(7)
    out = truncate(evolve(beta, u, u), 3)
    assert out.captured_weight == pytest.approx(CAPTURED_WEIGHT_N7_M2_S3, abs=1e-13)
    assert out.captured_weight == pytest.approx(captured_weight_cosine_n7_s3(), abs=1e-13)


def test_truncate_degenerate_window_raises():
    state = np.zeros((7, 7), dtype=complex)
    state[0, 6] = 1.0  # all weight in a corner, none near the center
    with pytest.raises(DegenerateTruncationError):
        truncate(state, 3)


@pytest.mark.parametrize("s", [4, 1, 11])
def test_truncate_rejects_bad_window(s):
    with pytest.raises(DimensionError):
        truncate(random_state(9, 5), s)


def test_truncated_state_validation():
    good = np.eye(3, dtype=complex) / np.sqrt(3)
    with pytest.raises(DomainError):
        TruncatedState(entries=good * 2, captured_weight=0.5)  # not normalized
    with pytest.raises(DomainError):
        TruncatedState(entries=good, captured_weight=1.5)
    with pytest.raises(DimensionError):
        TruncatedState(entries=np.ones((2, 3), dtype=complex), captured_weight=0.5)


def test_reduced_density_maximally_entangled_block():
    block = TruncatedState(np.eye(5, dtype=complex) / np.sqrt(5), 1.0)
    np.testing.assert_allclose(reduced_density(block), np.eye(5) / 5, atol=1e-14)


def test_reduced_density_product_state_is_rank_one():
    entries = np.zeros((3, 3), dtype=complex)
    entries[1, 2] = 1.0
    rho = reduced_density(TruncatedState(entries, 1.0))
    eigenvalues = np.linalg.eigvalsh(rho)
    np.testing.assert_allclose(sorted(eigenvalues), [0, 0, 1], atol=1e-14)


def test_reduced_density_is_hermitian_unit_trace():
    out = truncate(random_state(9, 6), 5)
    rho = reduced_density(out)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_reduced_purity_limits():
    assert reduced_purity(TruncatedState(np.eye(4, dtype=complex) / 2, 1.0)) == pytest.approx(0.25)
    entries = np.zeros((3, 3), dtype=complex)
    entries[0, 0] = 1.0
    assert reduced_purity(TruncatedState(entries, 1.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(5))
def test_reduced_purity_matches_singular_values(seed):
    out = truncate(random_state(11, seed), 7)
    singular = np.linalg.svd(out.entries, compute_uv=False)
    assert reduced_purity(out) == pytest.approx(np.sum(singular**4), abs=1e-12)
    s = out.dim
    assert 1 / s - 1e-12 <= reduced_purity(out) <= 1 + 1e-12


def test_schmidt_number_values():
    assert schmidt_number(1.0) == 1.0
    assert schmidt_number(0.25) == 4.0
    assert schmidt_number(0.5) == 2.0


@pytest.mark.parametrize("purity", [0.0, -0.3, float("nan"), float("inf")])
def test_schmidt_number_rejects_nonpositive(purity):
    with pytest.raises(DomainError):
        schmidt_number(purity)
