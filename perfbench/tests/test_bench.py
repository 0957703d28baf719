"""Tests of the benchmark itself: self time, the correctness checker, metric names.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import logging
import re
import subprocess
import sys
import threading
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from entrunc.results import ResultTable, parse_table, render_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(id, start, end, parent=None, thread=0, name="x.f"):
    return tracing.Span(id, name, name.split(".")[0], start, end, parent, thread)


# -- self time -----------------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_worker_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 5.0, parent=0, thread=1),
        span(2, 3.0, 8.0, parent=0, thread=2),  # overlaps span 1 on another thread
        span(3, 9.0, 12.0, parent=0, thread=1),  # runs past the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0)  # union [1, 8] plus clipped [9, 10]
    assert selfs[1] == pytest.approx(4.0)


def test_pool_worker_spans_take_the_installing_threads_open_span_as_parent():
    def leaf():
        return 1

    def fan_out():
        worker = threading.Thread(target=lambda: sibling.leaf())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    leaf.__module__ = "pkg.low"
    fan_out.__module__ = "pkg.mid"
    low = types.ModuleType("pkg.low")
    sibling = types.ModuleType("pkg.mid")
    top = types.ModuleType("pkg.top")
    low.leaf, sibling.leaf, top.fan_out = leaf, leaf, fan_out
    tracer = tracing.Tracer()
    tracer.install([low, sibling, top])
    try:
        tracer.call("bench.main", "bench", top.fan_out)
    finally:
        tracer.uninstall()
    spans = {s.name: s for s in tracer.take()}
    assert spans["low.leaf"].parent == spans["mid.fan_out"].id
    assert spans["low.leaf"].thread != spans["mid.fan_out"].thread
    assert spans["mid.fan_out"].parent == spans["bench.main"].id
    assert sibling.leaf is leaf and top.fan_out is fan_out  # uninstall restored the originals


def test_retry_counter_counts_sampler_warnings_only():
    import run

    counter = run.RetryCounter()
    log = logging.getLogger("entrunc.unitaries")
    log.addHandler(counter)
    try:
        log.warning("degenerate QR draw (zero diagonal); retrying on sub-stream 1")
        log.info("not a retry")
    finally:
        log.removeHandler(counter)
    assert counter.count == 1


# -- correctness checker -------------------------------------------------


def checked(tmp_path, table: ResultTable) -> checks.Checker:
    path = tmp_path / "table.csv"
    path.write_text(render_csv(table), encoding="utf-8")
    workload = WORKLOADS["sweep51"]
    checker = checks.Checker()
    checks.check_table(checker, workload, DEFAULT_SEED, path, parse_table(workload.reference))
    return checker


def test_checker_passes_the_reference_table(tmp_path):
    checker = checked(tmp_path, parse_table(WORKLOADS["sweep51"].reference))
    assert checker.failed == 0 and checker.attempted > 0


def test_checker_flags_mean_k_perturbed_by_1e_10(tmp_path):
    table = parse_table(WORKLOADS["sweep51"].reference)
    rows = list(table.rows)
    rows[7] = replace(rows[7], mean_K=rows[7].mean_K * (1 + 1e-10))
    checker = checked(tmp_path, ResultTable(table.metadata, tuple(rows)))
    assert checker.failed == 1
    assert "differs from reference" in checker.failures[0]


def test_checker_flags_a_missing_row(tmp_path):
    table = parse_table(WORKLOADS["sweep51"].reference)
    checker = checked(tmp_path, ResultTable(table.metadata, table.rows[:-1]))
    assert checker.failed == 1
    assert "rows, expected" in checker.failures[0]


def test_checker_flags_broken_invariants_without_a_reference(tmp_path):
    table = parse_table(WORKLOADS["sweep51"].reference)
    rows = list(table.rows)
    last = rows[-1]  # (m=51, s=51): K must equal m and the weight must be 1
    rows[-1] = replace(last, mean_K=last.mean_K * (1 - 1e-6), captured_weight=1.5)
    path = tmp_path / "table.csv"
    path.write_text(render_csv(ResultTable(table.metadata, tuple(rows))), encoding="utf-8")
    checker = checks.Checker()
    checks.check_table(checker, WORKLOADS["sweep51"], DEFAULT_SEED, path)
    assert checker.failed == 3


# -- metric names --------------------------------------------------------


def test_declared_names_are_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep51", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1] for line in lines[:-1] if not line.startswith("#")}
    assert printed == set(declared)
