#!/usr/bin/env python3
"""Benchmark of the ``entrunc`` command line, run in-process through ``entrunc.cli.main``.

Usage, from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload sweep51 [--seed 7] [--seconds 30] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --workload all --out perfbench/results/<label>.json

One run measures ``--seconds`` of back-to-back passes of one workload (see
``workloads.py``), checks every output, and prints as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; no wrapper is installed.
``--trace 1`` alternates plain and traced passes and reports per-layer
metrics from spans recorded around calls between the package's modules (see
``tracing.py``), with ``trace.overhead_s`` = median traced pass wall minus
median plain pass wall.  ``--workload all`` runs every workload in its own
process, plain and traced, prints each end-to-end metric by name with its
unit, and writes the combined record with the environment block to ``--out``.
The exit code is nonzero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import envinfo
import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAYERS = ("statespace", "unitaries", "pipeline", "analytics", "ensemble", "results", "plotting", "cli")
MIN_PASSES = 3

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
from entrunc.ensemble import UnitaryKind, run_cell
from entrunc.unitaries import RngStream
n, m, seed = map(int, sys.argv[1:4])
run_cell(n, m, tuple(map(int, sys.argv[4].split(","))), UnitaryKind.RANDOM_CUE, RngStream(seed))
print(time.perf_counter() - t0)
"""


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine, all CPUs (0 if unknown).

    Recorded with each run, not as a metric: passes that lose their CPUs to
    other tenants run slow, and this tells a reader when that happened.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_entrunc():
    """Import the package from this checkout's ``src/``, and nowhere else."""
    package = SRC / "entrunc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of an entrunc checkout")
    sys.path.insert(0, str(SRC))
    import entrunc

    if Path(entrunc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported entrunc from {entrunc.__file__}, not from {package}")
    return entrunc


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(workload, seed: int) -> float:
    """Seconds to import entrunc and finish one ``run_cell``, in a fresh interpreter."""
    args = [str(workload.n), str(workload.m_values[0]), str(seed),
            ",".join(map(str, workload.warmup_windows()))]
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, *args], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes


def run_pass(cli_main, argvs, tracer=None) -> tuple[float, float, list]:
    """Run one pass; returns (wall seconds, process CPU seconds, exit codes)."""
    codes = []
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in argvs:
        try:
            codes.append(tracer.call("cli.main", "cli", cli_main, argv) if tracer else cli_main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception:  # a crash is a failed check, reported with its traceback
            traceback.print_exc()
            codes.append("exception")
    return time.perf_counter() - t0, time.process_time() - c0, codes


class RetryCounter(logging.Handler):
    """Counts the warnings ``sample_cue`` logs when it redraws a degenerate QR."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1  # Handler.handle holds the handler's lock here


class Health:
    """Numerical-health extremes, fed by tracer hooks on worker threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.max_residual = 0.0
        self.min_weight = float("inf")

    def on_sample(self, u, args) -> None:
        residual = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
        with self._lock:
            self.max_residual = max(self.max_residual, residual)

    def on_truncate(self, block, args) -> None:
        with self._lock:
            self.min_weight = min(self.min_weight, block.captured_weight)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(passes: list[list[tracing.Span]], workload, plain_walls, traced_walls,
                  health: Health, retries: int, table_bytes: int, svg_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics (per-pass means unless a percentile) and a per-function table."""
    count = len(passes)
    by_name: dict[str, list[tracing.Span]] = defaultdict(list)
    layer_busy: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    fn_self: dict[str, float] = defaultdict(float)
    window_us = []
    for spans in passes:
        index = {s.id: s for s in spans}
        selfs = tracing.self_times(spans)
        children = defaultdict(list)
        for span in spans:
            by_name[span.name].append(span)
            layer_self[span.layer] += selfs[span.id]
            fn_self[span.name] += selfs[span.id]
            if span.parent is not None:
                children[span.parent].append(span)
            parent = index.get(span.parent)
            while parent is not None and parent.layer != span.layer:
                parent = index.get(parent.parent)
            if parent is None:  # outermost span of its layer
                layer_busy[span.layer] += span.duration
        for cell in (s for s in spans if s.name == "ensemble.run_cell"):
            kids = children[cell.id]
            windows = sum(k.name == "pipeline.truncate" for k in kids)
            if windows:
                inner = sum(k.duration for k in kids if k.name in (
                    "pipeline.truncate", "pipeline.reduced_purity", "pipeline.schmidt_number"))
                window_us.append(inner / windows * 1e6)

    def calls(name):
        return len(by_name.get(name, ())) / count

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ())) / count

    def ms(name, q):
        return percentile([s.duration * 1e3 for s in by_name.get(name, ())], q)

    fanout = busy("ensemble.run_ensemble") + busy("ensemble.loss_sweep")
    values = {
        "unitaries.sample_cue.calls": calls("unitaries.sample_cue"),
        "unitaries.sample_cue.busy_s": busy("unitaries.sample_cue"),
        "unitaries.sample_cue.ms_p50": ms("unitaries.sample_cue", 50),
        "unitaries.sample_cue.ms_p99": ms("unitaries.sample_cue", 99),
        "unitaries.draws_per_realization": calls("unitaries.sample_cue") / workload.realizations,
        "unitaries.qr_retries": retries,
        "unitaries.max_unitarity_residual": health.max_residual,
        "pipeline.evolve.calls": calls("pipeline.evolve"),
        "pipeline.evolve.busy_s": busy("pipeline.evolve"),
        "pipeline.truncate.calls": calls("pipeline.truncate"),
        "pipeline.truncate.busy_s": busy("pipeline.truncate"),
        "pipeline.reduced_purity.calls": calls("pipeline.reduced_purity"),
        "pipeline.reduced_purity.busy_s": busy("pipeline.reduced_purity"),
        "pipeline.self_s": layer_self["pipeline"] / count,
        "pipeline.window_us_p50": percentile(window_us, 50),
        "pipeline.min_captured_weight": health.min_weight,
        "ensemble.run_cell.calls": calls("ensemble.run_cell"),
        "ensemble.run_cell.ms_p50": ms("ensemble.run_cell", 50),
        "ensemble.run_cell.ms_p99": ms("ensemble.run_cell", 99),
        "ensemble.self_s": layer_self["ensemble"] / count,
        "ensemble.worker_util": busy("ensemble.run_cell") / (fanout * workload.workers),
        "statespace.busy_s": layer_busy["statespace"] / count,
        "analytics.busy_s": layer_busy["analytics"] / count,
        "results.busy_s": layer_busy["results"] / count,
        "results.bytes_written": table_bytes,
        "plotting.busy_s": layer_busy["plotting"] / count,
        "plotting.svg_bytes": svg_bytes,
        "cli.self_s": layer_self["cli"] / count,
        "trace.health_s": busy(tracing.HOOK_SPAN),
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
    }
    breakdown = {
        name: {"calls": len(spans) / count,
               "busy_s": sum(s.duration for s in spans) / count,
               "self_s": fn_self[name] / count}
        for name, spans in sorted(by_name.items())
    }
    return values, breakdown


def write_spans(path: Path, passes: list[list[tracing.Span]]) -> None:
    """Gzipped JSON lines ``[pass, id, parent, name, layer, start_ns, end_ns, thread]``.

    Times are nanoseconds since the first span; threads are numbered in order of appearance.
    """
    origin = min((s.start for spans in passes for s in spans), default=0.0)
    threads: dict[int, int] = {}
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        for number, spans in enumerate(passes):
            for s in spans:
                thread = threads.setdefault(s.thread, len(threads))
                handle.write(json.dumps([number, s.id, s.parent, s.name, s.layer,
                                         round((s.start - origin) * 1e9),
                                         round((s.end - origin) * 1e9), thread]) + "\n")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (result line plus details)."""
    import_entrunc()
    from entrunc import cli
    from entrunc.ensemble import UnitaryKind, run_cell
    from entrunc.results import parse_table
    from entrunc.unitaries import RngStream

    run_cell(workload.n, workload.m_values[0], workload.warmup_windows(),
             UnitaryKind.RANDOM_CUE, RngStream(seed))
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    table, svg = work / "table.csv", work / "plot.svg"
    argvs = workload.argvs(seed, table, svg)
    reference = parse_table(workload.reference) if seed == DEFAULT_SEED else None
    checker = checks.Checker()

    def checked_pass(tracer=None):
        table.unlink(missing_ok=True)
        svg.unlink(missing_ok=True)
        wall, cpu, codes = run_pass(cli.main, argvs, tracer)
        for argv, code in zip(argvs, codes):
            checker.check(code == 0, f"entrunc {argv[0]} exited with {code!r}")
        checks.check_table(checker, workload, seed, table, reference)
        sizes = (table.stat().st_size if table.exists() else 0,
                 checks.check_svg(checker, svg) if workload.plot else 0)
        return wall, cpu, sizes

    modules = [importlib.import_module(f"entrunc.{name}") for name in LAYERS]
    ensemble = modules[LAYERS.index("ensemble")]
    tracer, health, retries = tracing.Tracer(), Health(), RetryCounter()
    tracer.on_result("unitaries.sample_cue", health.on_sample)
    tracer.on_result("pipeline.truncate", health.on_truncate)
    unitaries_log = logging.getLogger("entrunc.unitaries")

    # Set-up samples are taken between passes, so that they and the passes see
    # the machine over the same stretch of time.  The loop stops before an
    # iteration that would overrun ``seconds``.
    setup, walls, cpus, traced_walls, span_passes, wrapped = [], [], [], [], [], []
    start, lap, steal = time.perf_counter(), 0.0, host_steal_s()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + lap <= seconds:
        lap_start = time.perf_counter()
        if not trace:
            setup.append(measure_setup(workload, seed))
        wall, cpu, sizes = checked_pass()
        walls.append(wall)
        cpus.append(cpu)
        if trace:
            tracer.install(modules, own=[(ensemble, "run_cell")])
            wrapped = tracer.wrapped
            unitaries_log.addHandler(retries)
            try:
                wall, _, sizes = checked_pass(tracer)
            finally:
                unitaries_log.removeHandler(retries)
                tracer.uninstall()
            traced_walls.append(wall)
            span_passes.append(tracer.take())
        lap = time.perf_counter() - lap_start

    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "checks": "reference+invariants" if reference is not None else
              f"invariants only (reference tables exist for seed {DEFAULT_SEED} only)",
              "argv": workload.argvs(seed, table.relative_to(ROOT), svg.relative_to(ROOT)),
              "passes": len(walls), "wall_s_samples": walls,
              "cpu_s_samples": cpus, "setup_s_samples": setup,
              "host_steal_s": host_steal_s() - steal}
    if trace:
        values, breakdown = layer_metrics(span_passes, workload, walls, traced_walls, health,
                                          retries.count, *sizes)
        record.update(traced_wall_s_samples=traced_walls, functions=breakdown,
                      wrapped=wrapped)
        spans_path = work / "spans.jsonl.gz"
        write_spans(spans_path, span_passes)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "window_evals_per_s": workload.window_evals / wall,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    record["result"] = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record["failures"] = checker.failures
    return record


# ---------------------------------------------------------------------------
# entry points


def print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{workload:10s} {name:36s} {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, plain then traced; writes the combined record."""
    WORK.mkdir(parents=True, exist_ok=True)
    records, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            part = WORK / f"{name}-trace{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0 or not part.exists():
                sys.stderr.write(done.stderr)
                print(f"# {name} trace={trace}: exited with {done.returncode}")
                ok = False
                continue
            record = json.loads(part.read_text(encoding="utf-8"))
            records[f"{name}/trace{trace}"] = record
            ok &= record["result"]["correct"]
            if not trace:
                print_metrics(name, record["result"]["metrics"])
                print(f"# {name} checks: {record['checks']}, {record['result']['failed']} of "
                      f"{record['result']['attempted']} failed")
    combined = {"environment": envinfo.environment(ROOT), "runs": records}
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload == "all":
        import_entrunc()
        return run_all(args)
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {record['passes']} passes, host steal "
          f"{record['host_steal_s']:.2f} s; checks: {record['checks']}, "
          f"{result['failed']} of {result['attempted']} failed")
    print_metrics(args.workload, result["metrics"])
    if args.out:
        record["environment"] = envinfo.environment(ROOT)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
