import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entrunc import (
    EntruncError,
    ResultRow,
    ResultTable,
    SweepConfig,
    UnitaryKind,
    emit_table,
    loss_sweep,
    parse_table,
    render_csv,
    render_json,
    run_ensemble,
    table_from_loss,
    table_from_stats,
)


def random_table():
    stats = run_ensemble(SweepConfig(n=9, m_values=(2, 3), s_values=(3, 5), realizations=3, master_seed=8))
    return table_from_stats(stats)


def uniform_table(m_values=(2, 3)):
    stats = run_ensemble(
        SweepConfig(n=9, m_values=m_values, s_values=(3, 5), unitary_kind=UnitaryKind.UNIFORM_SPREADING)
    )
    return table_from_stats(stats)


# --- column policy -----------------------------------------------------------


def test_random_sweep_has_all_columns():
    table = random_table()
    assert table.columns == ("m", "s", "mean_K", "std_K", "analytic_K", "captured_weight")
    header = next(l for l in render_csv(table).splitlines() if not l.startswith("#"))
    assert header == "m,s,mean_K,std_K,analytic_K,captured_weight"


def test_uniform_sweep_drops_std_column():
    table = uniform_table(m_values=(2,))
    assert "std_K" not in table.columns
    assert "analytic_K" in table.columns  # exact closed form exists for m=2


def test_uniform_sweep_mixed_m_drops_analytic_column():
    table = uniform_table(m_values=(2, 3))
    assert table.columns == ("m", "s", "mean_K", "captured_weight")


def test_metadata_records_run_provenance():
    table = random_table()
    assert table.metadata["run_kind"] == "sweep"
    assert table.metadata["n"] == "9"
    assert table.metadata["unitary_kind"] == "random"
    assert table.metadata["realizations"] == "3"
    assert table.metadata["master_seed"] == "8"
    assert table.metadata["independent_ab"] == "true"
    assert "realizations" not in uniform_table().metadata


def test_loss_table_is_diagonal():
    config = SweepConfig(n=9, m_values=(3, 5), s_values=(3, 5), realizations=2, master_seed=3)
    table = table_from_loss(loss_sweep(config), config)
    assert table.metadata["run_kind"] == "loss"
    assert [(r.m, r.s) for r in table.rows] == [(3, 3), (5, 5)]


# --- formatting --------------------------------------------------------------


def test_float_cells_use_shortest_repr():
    row = ResultRow(m=3, s=5, mean_K=0.1, std_K=1 / 3, analytic_K=None, captured_weight=2.0)
    table = ResultTable(metadata={}, rows=(row,))
    header, data = render_csv(table).splitlines()
    assert header == "m,s,mean_K,std_K,captured_weight"
    assert data == "3,5,0.1,0.3333333333333333,2.0"


def test_csv_line_count_matches_rows():
    table = random_table()  # 4 cells
    lines = render_csv(table).splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 1 + len(table.rows)
    assert render_csv(table).endswith("\n")


def test_json_payload_shape():
    import json

    payload = json.loads(render_json(random_table()))
    assert payload["format"] == "entrunc-result"
    assert payload["columns"][0] == "m"
    assert len(payload["rows"]) == 4
    assert all(len(record) == len(payload["columns"]) for record in payload["rows"])


# --- round trips --------------------------------------------------------------


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("make", [random_table, uniform_table])
def test_round_trip_is_exact(tmp_path, format, make):
    table = make()
    path = tmp_path / f"table.{format}"
    emit_table(table, format, path)
    assert parse_table(path) == table


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mean=positive_floats,
    std=st.one_of(st.none(), finite_floats),
    analytic=st.one_of(st.none(), finite_floats),
    weight=positive_floats,
    format=st.sampled_from(["csv", "json"]),
)
def test_round_trip_survives_arbitrary_floats(tmp_path, mean, std, analytic, weight, format):
    row = ResultRow(m=4, s=7, mean_K=mean, std_K=std, analytic_K=analytic, captured_weight=weight)
    table = ResultTable(metadata={"run_kind": "sweep", "n": "9"}, rows=(row,))
    path = tmp_path / f"any.{format}"
    emit_table(table, format, path)
    assert parse_table(path).rows[0] == row


# --- failure modes ------------------------------------------------------------


def test_duplicate_cells_rejected():
    row = ResultRow(m=3, s=3, mean_K=1.0, std_K=None, analytic_K=None, captured_weight=0.5)
    with pytest.raises(EntruncError, match="duplicate"):
        ResultTable(metadata={}, rows=(row, row))


def test_empty_table_refused_and_no_file_written(tmp_path):
    table = ResultTable(metadata={"n": "9"}, rows=())
    target = tmp_path / "empty.csv"
    with pytest.raises(EntruncError, match="empty"):
        emit_table(table, "csv", target)
    assert not target.exists()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(EntruncError, match="unknown output format"):
        emit_table(random_table(), "yaml", tmp_path / "t.yaml")


def test_unknown_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,s,mean_K,captured_weight,bogus\n3,3,1.0,0.5,9\n")
    with pytest.raises(EntruncError, match="unknown result columns"):
        parse_table(path)


def test_foreign_json_rejected(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text('{"format": "something-else", "rows": []}\n')
    with pytest.raises(EntruncError, match="entrunc-result"):
        parse_table(path)


def test_headerless_csv_rejected(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("# n=9\n")
    with pytest.raises(EntruncError, match="column header"):
        parse_table(path)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("m,s,mean_K,captured_weight,m\n3,3,1.0,0.5,5\n", "named twice"),
        ("# n=9\nm,s,mean_K,captured_weight\n11,3,1.0,0.5\n",
         "data row 1: m must be an integer in [2, 9]"),
        ("# n=9\nm,s,mean_K,captured_weight\n3,4,1.0,0.5\n",
         "data row 1: s must be an odd integer in [3, 9]"),
        ("# n=8\nm,s,mean_K,captured_weight\n3,3,1.0,0.5\n", "t.csv: n must be an odd integer"),
        ("m,s,mean_K,captured_weight\n1,3,1.0,0.5\n", "data row 1: m must be "),
        ("m,s,mean_K,captured_weight\n3,1,1.0,0.5\n", "data row 1: s must be "),
        ("# run_kind=sweep\nm,s,mean_K,captured_weight\n3,3,1.0,0.5\n-4,2,1.0,0.5\n",
         "t.csv: data row 2: m must be an integer >= 2, got -4 (the table gives no n)"),
    ],
    ids=["repeated-column", "m-above-n", "even-s", "even-n", "m-below-2", "s-below-3",
         "bad-second-row"],
)
def test_parsed_rows_obey_the_writer_dimension_rules(tmp_path, text, needle):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(EntruncError) as info:
        parse_table(path)
    assert needle in str(info.value) and str(path) in str(info.value)


def test_table_without_n_caps_neither_m_nor_s(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("m,s,mean_K,captured_weight\n301,401,1.0,0.5\n")
    assert [(row.m, row.s) for row in parse_table(path).rows] == [(301, 401)]
