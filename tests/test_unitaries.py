import logging

import numpy as np
import pytest

from entrunc import DimensionError, RngStream, sample_cue, uniform_spreading_unitary

from oracles import HAAR_MOMENT


def test_uniform_spreading_zero_column_is_flat():
    u = uniform_spreading_unitary(3)
    # k = 0 column (offset 1): all phases are exp(0), exactly 1/sqrt(3)
    assert np.all(u[:, 1] == 1 / np.sqrt(3))


@pytest.mark.parametrize("n", [3, 7, 21])
def test_uniform_spreading_unitarity(n):
    u = uniform_spreading_unitary(n)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-13)


def test_uniform_spreading_mutually_unbiased():
    u = uniform_spreading_unitary(7)
    np.testing.assert_allclose(np.abs(u) ** 2, np.full((7, 7), 1 / 7), atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 1])
def test_uniform_spreading_rejects_bad_dims(n):
    with pytest.raises(DimensionError):
        uniform_spreading_unitary(n)


@pytest.mark.parametrize("n,key", [(5, ()), (11, (3,)), (21, (7, 1))])
def test_cue_unitarity(n, key):
    u = sample_cue(n, RngStream(99, key))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_cue_is_deterministic_per_stream():
    a = sample_cue(9, RngStream(5, (2, 0)))
    b = sample_cue(9, RngStream(5, (2, 0)))
    np.testing.assert_array_equal(a, b)
    c = sample_cue(9, RngStream(5, (2, 1)))
    assert not np.allclose(a, c)


@pytest.mark.parametrize("n, seed", [(3, 0), (9, 5), (51, 7), (201, 7)])
def test_cue_is_bit_identical_to_the_textbook_formula(n, seed):
    # The in-place fill and phase fix must draw the same bits as the formula they replace.
    stream = RngStream(seed, (0, 1))
    rng = stream.generator()
    q, r = np.linalg.qr((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2))
    diag = np.diagonal(r)
    np.testing.assert_array_equal(sample_cue(n, stream), q * (diag / np.abs(diag)))


def test_cue_rejects_bad_dims():
    with pytest.raises(DimensionError):
        sample_cue(4, RngStream(0))


def test_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_stream_children_extend_key():
    base = RngStream(7)
    assert base.child(3).key == (3,)
    assert base.child(3).child(0).key == (3, 0)
    assert base.child(3, 0).key == (3, 0)


def test_haar_first_moment():
    n, samples = HAAR_MOMENT["n"], HAAR_MOMENT["samples"]
    base = RngStream(HAAR_MOMENT["master_seed"])
    acc = {entry: np.zeros(2) for entry in HAAR_MOMENT["entries"]}
    for j in range(samples):
        u = sample_cue(n, base.child(j, 0))
        for entry in acc:
            acc[entry] += abs(u[entry]) ** np.array([2, 4])
    # Haar moments of one entry: E|U_ij|² = 1/n, E|U_ij|⁴ = 2/(n(n+1)) (so
    # Var|U_ij|² = (n−1)/(n²(n+1))) and E|U_ij|⁸ = 24/(n(n+1)(n+2)(n+3)).
    fourth, eighth = 2 / (n * (n + 1)), 24 / (n * (n + 1) * (n + 2) * (n + 3))
    sigma = np.sqrt(np.array([fourth - 1 / n**2, eighth - fourth**2]) / samples)
    for entry, total in acc.items():
        assert np.all(np.abs(total / samples - [1 / n, fourth]) < 3 * sigma), entry


def test_degenerate_qr_draw_retries_next_substream(monkeypatch, caplog):
    stream = RngStream(13, (0,))
    expected = sample_cue(7, stream.child(1))  # what the retry should produce

    real_qr = np.linalg.qr
    calls = {"count": 0}

    def flaky_qr(matrix):
        calls["count"] += 1
        if calls["count"] == 1:
            q, r = real_qr(matrix)
            r = r.copy()
            r[0, 0] = 0.0
            return q, r
        return real_qr(matrix)

    monkeypatch.setattr(np.linalg, "qr", flaky_qr)
    with caplog.at_level(logging.WARNING, logger="entrunc.unitaries"):
        got = sample_cue(7, stream)
    assert calls["count"] == 2
    np.testing.assert_array_equal(got, expected)
    assert any("degenerate" in record.message for record in caplog.records)
