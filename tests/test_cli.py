import hashlib
import os
import shutil
import subprocess
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import entrunc.ensemble as ensemble
from entrunc import (
    ResultRow,
    ResultTable,
    SweepConfig,
    parse_table,
    render_svg,
    run_ensemble,
    table_from_stats,
)
from entrunc.cli import EXIT_CONJECTURE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def run_main(argv):
    return main(argv)


# --- usage errors -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["sweep-uniform", "--n", "200", "--m", "2"], "--n"),
        (["sweep-uniform", "--n", "9", "--m", "2", "--s", "4"], "--s"),
        (["sweep-uniform", "--n", "9", "--m", "12"], "--m"),
        (["sweep-uniform", "--n", "9", "--m", "2,abc"], "--m"),
        (["sweep-uniform", "--n", "9", "--m", "5,3"], "ascending"),
        (["sweep-random", "--n", "9", "--m", "3", "--seed", "-2"], "--seed"),
        (["sweep-random", "--n", "9", "--m", "3", "--realizations", "0"], "--realizations"),
        (["sweep-random", "--n", "9", "--m", "3", "--workers", "0"], "--workers"),
        (["loss", "--n", "9", "--m", "4"], "odd"),
        (["check-conjecture", "--n", "9", "--m", "5", "--tolerance", "1.5"], "--tolerance"),
        (["sweep-uniform", "--n", "9", "--m", "2", "--bogus"], "--bogus"),
        (["sweep-uniform", "--n", "9"], "--m"),
        ([], "command"),
        (["sweep-uniform", "--n", "9", "--m", "2", "--s", "11"], "error: --s"),
        (["sweep-uniform", "--n", "9", "--m", "1"], "error: --m"),
        (["loss", "--n", "9", "--m", "2"], "error: --m"),
        (["sweep-uniform", "--n", "9", "--m", "2", "--out", "no/such/dir/t.csv"], "error: --out"),
        (["sweep-uniform", "--n", "9", "--m", "2", "--out", "."], "error: --out"),
        (["plot", "t.csv", "--out", "."], "error: --out"),
        (["sweep-uniform", "--n", "9", "--m", "2", "--out", ""], "error: --out"),
        (["sweep-uniform", "--n", "9", "--m", "2", "--out", "new/"], "error: --out"),
        (["plot", "t.csv", "--out", ""], "error: --out"),
    ],
)
def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys, argv, needle):
    monkeypatch.chdir(tmp_path)  # a case that wrongly succeeds writes here, not in the checkout
    with pytest.raises(SystemExit) as info:
        run_main(argv)
    assert info.value.code == 2
    assert needle in capsys.readouterr().err


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        run_main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for command in ("sweep-uniform", "sweep-random", "check-conjecture", "loss", "plot"):
        assert command in out


# --- sweeps -------------------------------------------------------------------


def test_sweep_uniform_stdout_uses_default_window_grid(capsys):
    assert run_main(["sweep-uniform", "--n", "9", "--m", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    data = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert data[0] == "m,s,mean_K,analytic_K,captured_weight"
    assert len(data) == 1 + 4  # header + s in {3, 5, 7, 9}
    assert [int(l.split(",")[1]) for l in data[1:]] == [3, 5, 7, 9]


def test_sweep_stdout_reruns_are_identical(capsys):
    argv = ["sweep-random", "--n", "9", "--m", "2,3", "--s", "3,5", "--realizations", "4"]
    assert run_main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert run_main(argv) == EXIT_OK
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("extra, independent_ab", [([], True), (["--shared-unitary"], False)],
                         ids=["independent", "shared-unitary"])
def test_sweep_random_json_file_matches_library_result(tmp_path, extra, independent_ab):
    out = tmp_path / "sweep.json"
    argv = [
        "sweep-random", "--n", "9", "--m", "3", "--s", "3,5",
        "--realizations", "4", "--seed", "2024", "--out", str(out), "--format", "json",
    ] + extra
    assert run_main(argv) == EXIT_OK
    config = SweepConfig(n=9, m_values=(3,), s_values=(3, 5), realizations=4, master_seed=2024,
                         independent_ab=independent_ab)
    assert parse_table(out) == table_from_stats(run_ensemble(config))


def test_worker_count_leaves_output_bytes_unchanged(tmp_path):
    files = []
    for workers in ("1", "3"):
        path = tmp_path / f"w{workers}.csv"
        argv = [
            "sweep-random", "--n", "11", "--m", "3,5", "--s", "3,7",
            "--realizations", "6", "--workers", workers, "--out", str(path),
        ]
        assert run_main(argv) == EXIT_OK
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_shared_unitary_flag_changes_results(tmp_path):
    outputs = {}
    for name, extra in {"independent": [], "shared": ["--shared-unitary"]}.items():
        path = tmp_path / f"{name}.csv"
        argv = ["sweep-random", "--n", "9", "--m", "3", "--s", "5",
                "--realizations", "3", "--out", str(path)] + extra
        assert run_main(argv) == EXIT_OK
        outputs[name] = parse_table(path)
    assert outputs["independent"].metadata["independent_ab"] == "true"
    assert outputs["shared"].metadata["independent_ab"] == "false"
    assert outputs["independent"].rows[0].mean_K != outputs["shared"].rows[0].mean_K


def test_failed_write_keeps_existing_target_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    table = make_table_file(tmp_path, "sweep")
    svg = tmp_path / "plot.svg"
    svg.write_text("old svg")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    for argv in (["sweep-uniform", "--n", "9", "--m", "2", "--out", str(table)],
                 ["plot", str(table), "--out", str(svg)]):
        assert run_main(argv) == EXIT_USAGE
        assert "error: cannot replace" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- conjecture check -----------------------------------------------------------


def test_check_conjecture_passes_for_large_encoding(capsys):
    assert run_main(["check-conjecture", "--n", "21", "--m", "13"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "m= 13" in out


def test_check_conjecture_fails_under_tight_tolerance(capsys):
    code = run_main(["check-conjecture", "--n", "21", "--m", "13", "--tolerance", "0.001"])
    assert code == EXIT_CONJECTURE
    assert "verdict: FAIL" in capsys.readouterr().out


def test_check_conjecture_small_encoding_is_informational(capsys):
    assert run_main(["check-conjecture", "--n", "21", "--m", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no counted cells" in out
    assert "informational" in out


@pytest.mark.parametrize(
    "argv,code,digest",
    [
        ([], EXIT_OK, "3f3f4b051e00f8be0009cad3bda27806e5163c92774b2c3d4c4e276cdc072727"),
        (["--tolerance", "0.001"], EXIT_CONJECTURE,
         "5329b77c8e45d96576e2c7f4c44e4e9acb926824878f767f4590cc54af94138e"),
        # m < 5 leaves no counted cell.
        (["--m", "3"], EXIT_OK, "8c681fe00c2bd9fcabaf3ecaa343cd56d0d2f82c8aff5ac94606313fb8996033"),
    ],
)
@pytest.mark.frozen
def test_check_conjecture_stdout_is_frozen(capsys, argv, code, digest):
    assert run_main(["check-conjecture", "--n", "21", "--m", "13", *argv]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_check_conjecture_can_save_table(tmp_path):
    out = tmp_path / "cells.csv"
    argv = ["check-conjecture", "--n", "9", "--m", "5", "--s", "3,5",
            "--realizations", "4", "--out", str(out)]
    assert run_main(argv) == EXIT_OK
    table = parse_table(out)
    assert len(table.rows) == 2
    assert table.rows[0].analytic_K is not None


# --- loss ------------------------------------------------------------------------


def test_loss_writes_diagonal_table(tmp_path):
    out = tmp_path / "loss.csv"
    argv = ["loss", "--n", "9", "--m", "3,5,7", "--realizations", "5", "--out", str(out)]
    assert run_main(argv) == EXIT_OK
    table = parse_table(out)
    assert table.metadata["run_kind"] == "loss"
    assert [(r.m, r.s) for r in table.rows] == [(3, 3), (5, 5), (7, 7)]


# --- plot ------------------------------------------------------------------------


def make_table_file(tmp_path, kind):
    path = tmp_path / f"{kind}.csv"
    if kind == "loss":
        argv = ["loss", "--n", "9", "--m", "3,5", "--realizations", "3", "--out", str(path)]
    else:
        argv = ["sweep-random", "--n", "9", "--m", "2,3", "--s", "3,5,7",
                "--realizations", "3", "--out", str(path)]
    assert run_main(argv) == EXIT_OK
    return path


@pytest.mark.parametrize("kind", ["sweep", "loss"])
def test_plot_renders_wellformed_svg(tmp_path, kind):
    table = make_table_file(tmp_path, kind)
    svg = tmp_path / f"{kind}.svg"
    assert run_main(["plot", str(table), "--out", str(svg)]) == EXIT_OK
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    assert svg.stat().st_size > 500


def test_plot_escapes_the_metadata_it_shows(tmp_path):
    kind = "<script>alert(1)</script> & co"
    table, svg = tmp_path / "t.csv", tmp_path / "t.svg"
    table.write_text(f"# unitary_kind={kind}\n# n=9\nm,s,mean_K,captured_weight\n3,3,1.0,0.5\n3,5,1.5,0.7\n")
    assert run_main(["plot", str(table), "--out", str(svg)]) == EXIT_OK
    root = ET.parse(svg).getroot()
    assert f"{kind} sweep, n=9" in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert not [e for e in root.iter() if e.tag.endswith("script")]


def test_plot_is_deterministic(tmp_path):
    table = make_table_file(tmp_path, "sweep")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_main(["plot", str(table), "--out", str(a)]) == EXIT_OK
    assert run_main(["plot", str(table), "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


SWEEP_ROWS = [
    # m, s, mean_K, std_K, analytic_K, captured_weight
    (2, 3, 1.1732, 0.0813, 1.2241, 0.1402),
    (2, 5, 1.4127, 0.1175, 1.4683, 0.2371),
    (2, 7, 1.6389, 0.0952, 1.6912, 0.3318),
    (5, 3, 1.9204, 0.2231, 1.8537, 0.1388),
    (5, 5, 2.7716, 0.3109, 2.6921, 0.2402),
    (5, 7, 3.3852, 0.2647, 3.3013, 0.3297),
]
LOSS_ROWS = [
    (3, 3, 1.6271, 0.3314, 1.5938, 0.2417),
    (5, 5, 2.3018, 0.4127, 2.2462, 0.3562),
    (7, 7, 3.0443, 0.3876, 2.9731, 0.4719),
]


@pytest.mark.parametrize(
    "run_kind,rows,digest",
    [
        ("sweep", SWEEP_ROWS, "d0161cfe7a92c37723c1ddec1861c39da1dae00869839acce7ce75e8c3f4211c"),
        ("loss", LOSS_ROWS, "1a4c71449298975eaa245d1fdf93862aef390ed6e4517bf598aaaa86c55b0d5f"),
        # No error bars, no model line, and a single-point m=5 curve.
        ("sweep", [(3, 3, 1.21, None, None, 0.11), (3, 5, 1.74, None, None, 0.27),
                   (3, 7, 2.05, None, None, 0.52), (5, 5, 2.31, None, None, 0.30)],
         "787bc971d6af068042bb132b8237a5c274537f8bce266d35d35186c66b381361"),
    ],
)
@pytest.mark.frozen
def test_render_svg_bytes_are_frozen(run_kind, rows, digest):
    metadata = {"run_kind": run_kind, "n": "9", "unitary_kind": "random"}
    table = ResultTable(metadata=metadata, rows=tuple(ResultRow(*row) for row in rows))
    assert hashlib.sha256(render_svg(table).encode()).hexdigest() == digest


def test_plot_rejects_foreign_input(tmp_path, capsys):
    one_row = ('{"format": "entrunc-result", "metadata": {},'
               ' "columns": ["m", "s", "mean_K", "captured_weight"], "rows": [[%s]]}')
    inputs = {
        "bogus.csv": "a,b\n1,2\n",
        "short_row.csv": "m,s,mean_K,captured_weight\n3,3,1.0\n",
        "long_row.csv": "m,s,mean_K,captured_weight\n3,3,1.0,0.5,9\n",
        "empty_m.csv": "m,s,mean_K,captured_weight\n,3,1.0,0.5\n",
        "no_weight.csv": "m,s,mean_K\n3,3,1.0\n",
        "not_a_number.csv": "m,s,mean_K,captured_weight\n3,3,abc,0.5\n",
        "short_row.json": '{"format": "entrunc-result", "metadata": {},'
                          ' "columns": ["m", "s", "mean_K", "captured_weight"], "rows": [[3, 3, 1.0]]}',
        "broken.json": "{",
        "missing.csv": None,
        "no_metadata.json": '{"format": "entrunc-result"}',
        "int_rows.json": '{"format": "entrunc-result", "metadata": {},'
                         ' "columns": ["m", "s", "mean_K", "captured_weight"], "rows": 5}',
        "null_columns.json": '{"format": "entrunc-result", "metadata": {},'
                             ' "columns": null, "rows": []}',
        "list_cell.json": '{"format": "entrunc-result", "metadata": {},'
                          ' "columns": ["m", "s", "mean_K", "captured_weight"],'
                          ' "rows": [[[1], 3, 1.0, 0.5]]}',
        "header_only.csv": "m,s,mean_K,captured_weight\n",
        "fractional_m.json": one_row % "3.7, 3, 1.0, 0.5",
        "bool_m.json": one_row % "true, 3, 1.0, 0.5",
        "float_m.json": one_row % "3.0, 3, 1.0, 0.5",
        "bool_mean.json": one_row % "3, 3, true, 0.5",
        "nan_mean.json": one_row % "3, 3, NaN, 0.5",
        "huge_mean.json": one_row % f"3, 3, {'9' * 401}, 0.5",
        "huge_m.json": one_row % f"{'9' * 401}, 3, 1.0, 0.5",
        "nan_mean.csv": "m,s,mean_K,captured_weight\n3,3,nan,0.5\n",
        "inf_weight.csv": "m,s,mean_K,captured_weight\n3,3,1.0,1e400\n",
        "dup_column.csv": "m,m,s,mean_K,captured_weight\n3,5,3,1.0,0.5\n",
        "neg_m.csv": "# run_kind=sweep\nm,s,mean_K,captured_weight\n-4,2,1.0,0.5\n",
        "s_over_n.csv": "# n=9\nm,s,mean_K,captured_weight\n3,11,1.0,0.5\n",
        # int() and float() take these, the writer never emits them: m = 13, s = 5, mean_K = 10.5
        "underscore_digits.csv": "m,s,mean_K,captured_weight\n1_3,5,1_0.5,0.5\n",
        "padded_cell.csv": "m,s,mean_K,captured_weight\n13, 5 ,10.5,0.5\n",
        "arabic_indic_m.csv": "m,s,mean_K,captured_weight\n\u0661\u0663,5,10.5,0.5\n",
        # the metadata n takes the cells' integer grammar: n = 201, and an empty n
        "underscore_n.csv": "# n=2_01\nm,s,mean_K,captured_weight\n3,3,1.0,0.5\n",
        "arabic_indic_n.json": '{"format": "entrunc-result", "metadata": {"n": "\u0662\u0660\u0661"},'
                               ' "columns": ["m", "s", "mean_K", "captured_weight"], "rows": [[3, 3, 1.0, 0.5]]}',
        "empty_n.csv": "# n=\nm,s,mean_K,captured_weight\n3,3,1.0,0.5\n",
        # A loss table holds only s = m rows; these would plot as one m with two points.
        "loss_off_diagonal.json": '{"format": "entrunc-result", "metadata": {"n": "9", "run_kind": "loss"},'
                                  ' "columns": ["m", "s", "mean_K", "captured_weight"],'
                                  ' "rows": [[3, 5, 1.0, 0.5], [3, 7, 1.2, 0.6]]}',
    }
    for name, text in inputs.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        code = run_main(["plot", str(path), "--out", str(tmp_path / "x.svg")])
        assert code == EXIT_USAGE, name
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and name in err, (name, err)
        assert "Traceback" not in err, name


def test_plot_of_a_table_without_n_quotes_only_the_lower_bounds(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("# run_kind=sweep\nm,s,mean_K,captured_weight\n-4,3,1.0,0.5\n")
    assert run_main(["plot", str(path), "--out", str(tmp_path / "x.svg")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}: data row 1: m must be an integer >= 2, got -4 (the table gives no n)" in err
    assert "[2, " not in err


def test_degenerate_window_exits_3(monkeypatch, capsys):
    # Both unitaries move the m=3 encoding levels out of the central s=3 window.
    swap = np.eye(9, dtype=complex)[:, [3, 4, 5, 0, 1, 2, 6, 7, 8]]
    monkeypatch.setattr("entrunc.ensemble.sample_cue", lambda n, stream: swap)
    argv = ["sweep-random", "--n", "9", "--m", "3", "--s", "3", "--realizations", "2"]
    assert run_main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("error: realization 0, m=3: truncation window s=3 captures weight") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("m, s, small", [("5", "3,5", True), ("9", "3,9", False)])
def test_degenerate_narrow_window_below_the_anchor_exits_3(monkeypatch, capsys, m, s, small):
    # The swap of test_degenerate_window_exits_3 leaves the central s=3 window empty for
    # every m; here that window is not the anchor m | 1, on the m×m route and on the walk.
    assert ensemble._small_route(9, int(m)) is small
    swap = np.eye(9, dtype=complex)[:, [3, 4, 5, 0, 1, 2, 6, 7, 8]]
    monkeypatch.setattr("entrunc.ensemble.sample_cue", lambda n, stream: swap)
    argv = ["sweep-random", "--n", "9", "--m", m, "--s", s, "--realizations", "2"]
    assert run_main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count(f"error: realization 0, m={m}: truncation window s=3 captures weight") == 1
    assert "realization 1" not in err and "Traceback" not in err


# --- installed entry point --------------------------------------------------------


@pytest.mark.skipif(shutil.which("entrunc") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["entrunc", "sweep-uniform", "--n", "7", "--m", "2", "--s", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("2,3,")
