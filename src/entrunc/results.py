"""Result tables and their CSV/JSON serialization.

A :class:`ResultTable` is the exchange format between sweeps, files and
plots: string-keyed metadata plus one row per (m, s) cell.  Serialization is
deterministic and round-trip exact — floats are written with ``repr`` (the
shortest string that parses back to the identical double), CSV uses
``# key=value`` comment lines for metadata, and parsing either format
reconstructs a table equal to the source.

Column policy: the canonical column order is
``m,s,mean_K,std_K,analytic_K,captured_weight``; the std_K column is present
only for random-ensemble runs (deterministic sweeps have no spread) and the
analytic_K column only when a closed form applies to the run kind (the
additive purity model for random sweeps and loss runs, the exact m=2 formula
for uniform sweeps over m=2 alone).

Every parsed cell goes through ``_cell``, which accepts exactly what the
writer emits: an integer for m and s, a finite number for every other
column, each in the ASCII digits of a JSON number, and an empty cell (CSV)
or null (JSON) for an absent optional value.  It reads the cell's text, so a
JSON ``3.0`` or ``true`` for m is refused just as the same CSV text is, and
so are padded cells, ``1_3`` and non-ASCII digits, which ``int`` and
``float`` would take.  A header that names a column twice is
refused, and every parsed row must obey the writer's dimension rules, which
``HilbertDims`` states: m >= 2 and odd s >= 3, both at most the metadata's
n when it gives one.  A ``run_kind=loss`` table holds only s = m rows.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .analytics import analytic_purity_m2, conjectured_schmidt_number
from .ensemble import EnsembleStats, LossPoint, SweepConfig, UnitaryKind
from .errors import DimensionError, EntruncError
from .statespace import HilbertDims, _check_int

__all__ = [
    "ResultRow",
    "ResultTable",
    "table_from_stats",
    "table_from_loss",
    "render_csv",
    "render_json",
    "emit_table",
    "parse_table",
]

_OPTIONAL_COLUMNS = ("std_K", "analytic_K")
CANONICAL_COLUMNS = ("m", "s", "mean_K", *_OPTIONAL_COLUMNS, "captured_weight")
_REQUIRED_COLUMNS = tuple(c for c in CANONICAL_COLUMNS if c not in _OPTIONAL_COLUMNS)
FORMAT_NAME = "entrunc-result"
# the text of an integer, and of a JSON number, which covers every repr of a finite float
_INTEGER = re.compile("-?(?:0|[1-9][0-9]*)")
_NUMBER = re.compile(_INTEGER.pattern + "(?:[.][0-9]+)?(?:[eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class ResultRow:
    m: int
    s: int
    mean_K: float
    std_K: float | None
    analytic_K: float | None
    captured_weight: float


@dataclass(frozen=True)
class ResultTable:
    """Ordered metadata (string values) plus per-cell rows."""

    metadata: dict[str, str]
    rows: tuple[ResultRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        seen = set()
        for row in self.rows:
            if (row.m, row.s) in seen:
                raise EntruncError(f"duplicate (m, s) cell ({row.m}, {row.s})")
            seen.add((row.m, row.s))

    @property
    def columns(self) -> tuple[str, ...]:
        """The canonical columns, less each optional one that no row sets."""
        return tuple(
            c
            for c in CANONICAL_COLUMNS
            if c not in _OPTIONAL_COLUMNS or any(getattr(r, c) is not None for r in self.rows)
        )


def _table(config: SweepConfig, run_kind: str, cells) -> ResultTable:
    """Tabulate ``(m, s, mean_K, std_K, captured_weight)`` cells of a run of ``config``.

    This is the one place that applies the column policy of the module
    docstring.
    """
    random = config.unitary_kind is UnitaryKind.RANDOM_CUE
    uniform_m2 = not random and all(m == 2 for m in config.m_values)
    metadata = {
        "version": __version__,
        "run_kind": run_kind,
        "n": str(config.n),
        "unitary_kind": config.unitary_kind.value,
    }
    if random:
        metadata["realizations"] = str(config.realizations)
        metadata["master_seed"] = str(config.master_seed)
        metadata["independent_ab"] = "true" if config.independent_ab else "false"
    rows = []
    for m, s, mean_K, std_K, weight in cells:
        if random:
            analytic = float(conjectured_schmidt_number(config.n, m, s))
        elif uniform_m2:
            analytic = 1.0 / analytic_purity_m2(config.n, s)
        else:
            analytic = None
        rows.append(
            ResultRow(
                m=int(m),
                s=int(s),
                mean_K=float(mean_K),
                std_K=float(std_K) if random else None,
                analytic_K=analytic,
                captured_weight=float(weight),
            )
        )
    return ResultTable(metadata=metadata, rows=tuple(rows))


def table_from_stats(stats: EnsembleStats) -> ResultTable:
    """Tabulate a grid sweep, attaching the applicable analytic K column."""
    return _table(stats.config, "sweep", (
        (m, s, stats.mean_K[i, j], stats.std_K[i, j], stats.mean_captured_weight[i, j])
        for i, m in enumerate(stats.config.m_values)
        for j, s in enumerate(stats.config.s_values)
    ))


def table_from_loss(points: list[LossPoint], config: SweepConfig) -> ResultTable:
    """Tabulate a loss sweep (s = m diagonal); loss Δ = m − mean_K is implicit."""
    return _table(config, "loss", (
        (p.m, p.m, p.mean_K, p.std_loss, p.mean_captured_weight) for p in points
    ))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_csv(table: ResultTable) -> str:
    columns = table.columns
    lines = [f"# {key}={value}" for key, value in table.metadata.items()]
    lines.append(",".join(columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(getattr(row, c)) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(table: ResultTable) -> str:
    columns = table.columns
    payload = {
        "format": FORMAT_NAME,
        "metadata": table.metadata,
        "columns": list(columns),
        "rows": [[getattr(row, c) for c in columns] for row in table.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_table(table: ResultTable, format: str, path) -> None:
    """Write the table to ``path`` as 'csv' or 'json'; refuses empty tables."""
    _write_text(path, render_table(table, format))


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: a sibling temp file, then ``os.replace``.

    The temp file is created with mode "x", so its permissions follow the
    umask as a plain ``open`` would.  It is deleted on any failure, which
    leaves an existing ``path`` with its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # Opened before the try: if "x" refuses an existing tmp, that file is not ours to delete.
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def render_table(table: ResultTable, format: str) -> str:
    if not table.rows:
        raise EntruncError("refusing to write an empty result table")
    if format == "csv":
        return render_csv(table)
    if format == "json":
        return render_json(table)
    raise EntruncError(f"unknown output format {format!r} (expected 'csv' or 'json')")


def _cell(column: str, cell):
    """Read one cell of ``column``, or the metadata ``n``, back from its text.

    An empty or null cell is None; an empty or null ``n`` is refused.
    """
    if cell in ("", None) and column != "n":
        return None
    text, integer = str(cell), column in ("m", "s", "n")
    if not (_INTEGER if integer else _NUMBER).fullmatch(text):
        raise EntruncError(f"{column} must be {'an integer' if integer else 'a number'}, got {text!r}")
    if not math.isfinite(value := float(text)):
        raise EntruncError(f"{column} must be a finite number, got {text}")
    return int(text) if integer else value


def _read_table(metadata: dict[str, str], columns: list[str], records: list[list]) -> ResultTable:
    """The table of ``records`` under ``columns``, each row checked as the writer guarantees.

    Cells go through ``_cell`` and dimensions through ``HilbertDims``, with
    ``n`` from the metadata.  Without an ``n`` nothing caps m or s, so only
    m >= 2 and odd s >= 3 are checked, and a rejection says that the table
    gives no n.  A row that breaks the rules is named by its number.
    """
    if len(set(columns)) < len(columns):
        raise EntruncError(f"a result column is named twice: {columns}")
    unknown = set(columns) - set(CANONICAL_COLUMNS)
    if unknown:
        raise EntruncError(f"unknown result columns: {sorted(unknown)}")
    missing = [c for c in _REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise EntruncError(f"missing result columns {missing}")
    if not records:
        raise EntruncError("no data rows")
    n = _cell("n", metadata["n"]) if "n" in metadata else None
    if n is not None:
        HilbertDims(n, 2)  # the metadata's own n, before any row is blamed for it
    rows = []
    for number, record in enumerate(records, 1):
        data = dict(zip(columns, record))
        if len(record) != len(columns) or any(data[c] in ("", None) for c in _REQUIRED_COLUMNS):
            raise EntruncError(
                f"data row {number} must have {len(columns)} cells with"
                f" {', '.join(_REQUIRED_COLUMNS)} set, got {record}"
            )
        row = ResultRow(**{c: _cell(c, data.get(c)) for c in CANONICAL_COLUMNS})
        try:
            if n is None:  # nothing caps m or s: HilbertDims's lower bounds alone
                _check_int("m", row.m, 2)
                _check_int("s", row.s, 3, odd=True)
            else:
                HilbertDims(n, row.m, row.s)
        except DimensionError as err:
            no_n = " (the table gives no n)" if n is None else ""
            raise EntruncError(f"data row {number}: {err}{no_n}") from err
        if metadata.get("run_kind") == "loss" and row.s != row.m:
            raise EntruncError(f"data row {number} of a loss table must have s = m, got {record}")
        rows.append(row)
    return ResultTable(metadata=metadata, rows=tuple(rows))


def parse_table(path) -> ResultTable:
    """Read a table back from a CSV or JSON file produced by this module.

    Unparsable or empty content, and rows that break the writer's dimension
    rules (see ``HilbertDims``), raise EntruncError naming ``path``.
    """
    try:
        return _parse_text(Path(path).read_text(encoding="utf-8"))
    except KeyError as err:
        raise EntruncError(f"{path}: missing JSON field {err}") from err
    except (EntruncError, TypeError, ValueError) as err:
        raise EntruncError(f"{path}: {err}") from err


def _parse_text(text: str) -> ResultTable:
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if payload.get("format") != FORMAT_NAME:
            raise EntruncError(f"not an {FORMAT_NAME} JSON file")
        return _read_table(dict(payload["metadata"]), list(payload["columns"]), payload["rows"])
    metadata: dict[str, str] = {}
    columns: list[str] = []
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value.strip()
            continue
        if not columns:
            columns = line.split(",")
            continue
        records.append(line.split(","))
    if not columns:
        raise EntruncError("no column header found")
    return _read_table(metadata, columns, records)
