import hashlib
import logging
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from entrunc import DimensionError, RngStream, sample_cue, uniform_spreading_unitary, unitaries

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


def _textbook_cue(n, stream):
    """The formula ``sample_cue`` implements, its QR on the BLAS threads ``sample_cue`` uses."""
    rng = stream.generator()
    with unitaries._one_blas_thread():
        q, r = np.linalg.qr((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _blas_threads():
    """The BLAS thread count now, read through the setter (which returns the previous count)."""
    count = unitaries._set_blas_threads(1)
    unitaries._set_blas_threads(count)
    return count


needs_setter = pytest.mark.skipif(
    unitaries._set_blas_threads is None, reason="this BLAS has no openblas_set_num_threads_local"
)


@pytest.mark.parametrize("n, seed", [(3, 0), (9, 5), (51, 7), (131, 7), (201, 7)])
def test_cue_is_bit_identical_to_the_textbook_formula(n, seed):
    # The in-place fill, QR and phase fix must draw the same bits as the formula they replace.
    # LAPACK's QR runs unblocked up to n = 128 and blocked above, where its lwork decides the bits.
    stream = RngStream(seed, (0, 1))
    np.testing.assert_array_equal(sample_cue(n, stream), _textbook_cue(n, stream))


def test_cue_without_the_thread_setter_is_the_textbook_formula(monkeypatch):
    monkeypatch.setattr(unitaries, "_set_blas_threads", None)
    stream = RngStream(7, (0, 1))
    np.testing.assert_array_equal(sample_cue(201, stream), _textbook_cue(201, stream))


def test_cue_without_the_lapack_binding_is_the_textbook_formula(monkeypatch):
    monkeypatch.setattr(unitaries, "_geqrf", None)
    stream = RngStream(7, (0, 1))
    np.testing.assert_array_equal(sample_cue(201, stream), _textbook_cue(201, stream))


def test_bind_of_an_absent_symbol_is_none(monkeypatch):
    assert unitaries._bind("entrunc_no_such_routine", [], None) is None
    monkeypatch.setattr(unitaries, "_lib", None)  # numpy links no shared library
    assert unitaries._bind("scipy_cblas_dgemm64_") is None


@pytest.mark.parametrize("unbound", ["_geqrf", "_ungqr"])
def test_qr_without_either_lapack_routine_is_numpys(monkeypatch, unbound):
    # zgeqrf and zungqr are a pair: without either one, _qr is np.linalg.qr, bit for bit.
    monkeypatch.setattr(unitaries, unbound, None)
    rng = np.random.default_rng(7)
    a = np.asfortranarray(rng.standard_normal((131, 131)) + 1j * rng.standard_normal((131, 131)))
    with unitaries._one_blas_thread():
        expected_q, expected_r = np.linalg.qr(a)
        q, diag = unitaries._qr(a.copy(order="F"))
    assert np.array_equal(q, expected_q) and np.array_equal(diag, np.diagonal(expected_r))


@pytest.mark.skipif(unitaries._geqrf is None, reason="numpy links no scipy-openblas64 LAPACK")
def test_cue_allocates_little_beyond_its_result():
    # The draw factors its Ginibre matrix in place: one n×n result plus one n×n
    # float part of the fill.  np.linalg.qr's copies peak at about 4 n×n.
    n = 201
    sample_cue(n, RngStream(7, (0, 1)))  # the lwork query is cached once per n
    tracemalloc.start()
    try:
        sample_cue(n, RngStream(7, (1, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * np.dtype(complex).itemsize, peak


@pytest.mark.skipif(unitaries._geqrf is None, reason="numpy links no scipy-openblas64 LAPACK")
def test_lapack_error_raises_and_names_the_argument(capfd):
    # lda < n is argument 4 of zgeqrf: LAPACK's xerbla reports it and returns info = -4 unwritten.
    n = 5
    a = np.zeros((n, n), complex, order="F")
    tau, work = np.empty(n, complex), np.empty(n, complex)
    with pytest.raises(np.linalg.LinAlgError, match=r"scipy_zgeqrf_64_ returned info=-4$"):
        unitaries._lapack(unitaries._geqrf, n, n, a, n - 1, tau, work, n)
    printed = " ".join("".join(capfd.readouterr()).split())  # xerbla pads the number
    assert "On entry to ZGEQRF parameter number 4 had an illegal value" in printed, printed
    assert not a.any()


@needs_setter
def test_cue_bits_do_not_depend_on_the_blas_thread_count():
    script = (
        "import hashlib; from entrunc import RngStream, sample_cue; "
        "print([hashlib.sha256(sample_cue(n, RngStream(7, (0, 1))).tobytes()).hexdigest() for n in (201, 401)])"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        digests.add(out.stdout.strip())
    here = [hashlib.sha256(sample_cue(n, RngStream(7, (0, 1))).tobytes()).hexdigest() for n in (201, 401)]
    assert digests == {str(here)}


@needs_setter
def test_cue_restores_the_callers_blas_thread_count(monkeypatch):
    caller = unitaries._set_blas_threads(2)
    try:
        sample_cue(201, RngStream(7, (0, 1)))
        assert _blas_threads() == 2
        seen = []

        def failing_qr(matrix):
            seen.append(_blas_threads())
            raise np.linalg.LinAlgError("qr failed")

        monkeypatch.setattr(unitaries, "_qr", failing_qr)
        with pytest.raises(np.linalg.LinAlgError):
            sample_cue(201, RngStream(7, (0, 1)))
        assert seen == [1]
        assert _blas_threads() == 2
    finally:
        unitaries._set_blas_threads(caller)


@needs_setter
def test_concurrent_draws_keep_their_bits_and_the_callers_blas_thread_count(monkeypatch):
    # A slowed QR holds each scope open long enough for the other thread's scope to start.
    streams = [RngStream(7, (j, 1)) for j in range(10)]
    serial = [sample_cue(51, stream) for stream in streams]
    qr, seen = unitaries._qr, []

    def slow_qr(matrix):
        seen.append(_blas_threads())
        time.sleep(0.02)
        seen.append(_blas_threads())
        return qr(matrix)

    monkeypatch.setattr(unitaries, "_qr", slow_qr)
    caller = unitaries._set_blas_threads(2)
    try:
        with ThreadPoolExecutor(2) as pool:
            drawn = list(pool.map(lambda stream: sample_cue(51, stream), streams))
        assert _blas_threads() == 2
    finally:
        unitaries._set_blas_threads(caller)
    assert seen == [1] * 20
    for a, b in zip(drawn, serial):
        np.testing.assert_array_equal(a, b)


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


def test_haar_trace_moments():
    # Moments that see the phases, which the |U_ij| moments above ignore: LAPACK's
    # Q without the phase fix is not Haar and fails these.  For CUE,
    # E|tr U|^(2k) = k! for n ≥ k (Diaconis & Shahshahani, J. Appl. Probab. 31A,
    # 49, 1994), so |tr U|² has mean 1 and variance 1, and |tr U|⁴ mean 2 and
    # variance 4! − 2² = 20 at n ≥ 4; Re U_11 and Im U_11 have mean 0 and
    # variance 1/(2n).
    n, samples = 9, 4_000
    base = RngStream(2003)
    draws = np.array([sample_cue(n, base.child(j, 0)) for j in range(samples)])
    power, corner = np.abs(np.trace(draws, axis1=1, axis2=2)) ** 2, draws[:, 0, 0]
    means = np.array([power.mean(), (power**2).mean(), corner.real.mean(), corner.imag.mean()])
    sigma = np.sqrt(np.array([1, 20, 1 / (2 * n), 1 / (2 * n)]) / samples)
    z = (means - [1, 2, 0, 0]) / sigma
    assert np.all(np.abs(z) <= 4), z


def test_degenerate_qr_draw_retries_next_substream(monkeypatch, caplog):
    stream = RngStream(13, (0,))
    expected = sample_cue(7, stream.child(1))  # what the retry should produce

    real_qr = unitaries._qr
    calls = {"count": 0}

    def flaky_qr(matrix):
        calls["count"] += 1
        if calls["count"] == 1:
            q, diag = real_qr(matrix)
            diag = diag.copy()
            diag[0] = 0.0
            return q, diag
        return real_qr(matrix)

    monkeypatch.setattr(unitaries, "_qr", flaky_qr)
    with caplog.at_level(logging.WARNING, logger="entrunc.unitaries"):
        got = sample_cue(7, stream)
    assert calls["count"] == 2
    np.testing.assert_array_equal(got, expected)
    assert any("degenerate" in record.message for record in caplog.records)
