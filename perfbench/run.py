#!/usr/bin/env python3
"""The FEAM reproduction's benchmark of record.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 20130101 \\
        --seconds 55 --trace 0

Workloads (see ``workloads.py``): ``paper``, ``fleet-cold`` and
``fleet-warm``.  Each is driven from one thread of one process; the
program's matrix pool keeps its default size.  ``BENCHMARK.json`` gates
``paper`` and ``fleet-cold`` only: ``fleet-warm``'s timed phases last a
tenth of a second, and across runs on a shared two-CPU host they spread
wider (0.29 of the median) than any bound the gate allows.

``--trace 0`` measures with tracing off.  It repeats units until
``--seconds`` would be exceeded, with at least three units.  A unit is
one set-up (fresh inputs) followed by the workload's timed phases on
copies of those inputs (one phase on ``paper``, two cold matrices on
``fleet-cold``, eight warm matrices on ``fleet-warm``).  It reports the
end-to-end metrics: ``setup_s`` (median over units), ``run_s`` and
``cells_per_s`` (medians over timed phases), ``cell_p50_ms`` and
``cell_p99_ms`` (over every
``EvaluationEngine.evaluate_cell`` call of the run; the sample count is
printed), ``peak_rss_mb``, and ``cell_ok_frac``: cells not degraded to
UNKNOWN with failure provenance, over cells attempted.  (The complement,
a fail fraction, reads 0 on every correct run, and a metric that is 0
has no spread or bound to speak of.)

``--trace 1`` runs five units instead: one with layer timers installed
(``layertrace.py``), which gives the per-layer table, then two untraced
units alternating with two under ``repro.obs.capture()``; the ratio of
the fastest of each is the program's own tracing overhead.

Every unit's outputs are checked: units of one seed must agree, no cell
may degrade, cell counts must match the inputs, a warm grid must equal
the cold grid byte for byte, and the output digest must equal the one
stored in ``references.json`` -- at every seed on ``paper``, whose seed
only orders its inputs, and at the default seed on the fleets, whose
grid lists sites in seeded order.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed check exits with status 1, a
missing layer function or a required span with no calls with status 3.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import predictions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: Units per untraced run, at least: set-up time is a median.
MIN_UNITS = 3

EXIT_CHECK_FAILED = 1
EXIT_NO_PROGRAM = 2
EXIT_LAYER_ERROR = 3

WORKLOAD_NAMES = ("paper", "fleet-cold", "fleet-warm")

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
    "cell_p50_ms": ("ms", "lower"),
    "cell_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cell_ok_frac": ("ratio", "higher"),
}

#: Derived per-layer metrics: name -> (unit, better).
DERIVED = {
    "elf.write.mb": ("MB", "lower"),
    "machine.read_elf.miss_ratio": ("ratio", "lower"),
    "fs.probe.calls": ("count", "lower"),
    "loader.probes_per_resolve": ("probes/call", "lower"),
    "tec.assess_stack.per_eval": ("calls/eval", "lower"),
    "engine.description.hit_ratio": ("ratio", "higher"),
    "engine.discovery.hit_ratio": ("ratio", "higher"),
    "engine.evaluation.hit_ratio": ("ratio", "higher"),
    "persist.disk_hit_ratio": ("ratio", "higher"),
    "persist.mb": ("MB", "lower"),
    "engine.cell.overlap": ("ratio", "lower"),
    "obs.capture_overhead_frac": ("ratio", "lower"),
    "traced.cpu_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
}


def per_layer_metrics(span_names) -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    metrics = {}
    for span in span_names:
        metrics[f"{span}.calls"] = ("count", "lower")
        metrics[f"{span}.self_s"] = ("s", "lower")
        metrics[f"{span}.wait_s"] = ("s", "lower")
    metrics.update(DERIVED)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile_ms(walls: list, pct: int) -> float:
    if len(walls) < 2:
        return 1000.0 * walls[0]
    return 1000.0 * statistics.quantiles(
        walls, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- output checks -------------------------------------------------------------

def check_units(workload, units) -> list[str]:
    """Every output check; an empty list means the run is correct."""
    problems = []
    phases = [phase for unit in units for phase in unit.phases]
    digests = sorted({phase.outcome.digest for phase in phases})
    if len(digests) != 1:
        problems.append(f"{len(digests)} different outputs from "
                        f"{len(phases)} phases of one seed")
    for index, unit in enumerate(units):
        if unit.failed:
            problems.append(f"unit {index}: {unit.failed} cell(s) degraded "
                            "to UNKNOWN with no fault plan installed")
        for phase in unit.phases:
            problems.extend(f"unit {index}: {problem}"
                            for problem in phase.outcome.problems)
            if phase.cells != phase.outcome.expected_cells:
                problems.append(f"unit {index}: {phase.cells} cells "
                                f"evaluated, {phase.outcome.expected_cells} "
                                "expected")
    if not workload.seeded_output or workload.seed == workload.default_seed:
        reference = json.loads(REFERENCES.read_text()).get(workload.name)
        label = workload.inputs_label()
        if (reference is None or reference.get("inputs") != label
                or (workload.seeded_output
                    and reference.get("seed") != workload.seed)):
            problems.append(f"no stored reference for {workload.name} "
                            f"seed {workload.seed} ({label})")
        elif digests != [reference["digest"]]:
            problems.append("output digest differs from the stored "
                            "reference")
    return problems


# -- the two kinds of run ------------------------------------------------------

def measure(workload, seconds: float, measure_unit) -> list:
    """Units until the next one would overrun *seconds* (>= MIN_UNITS)."""
    started = time.perf_counter()
    workload.prepare()
    units = []
    while True:
        unit = measure_unit(workload)
        units.append(unit)
        gc.collect()
        elapsed = time.perf_counter() - started
        if (len(units) >= MIN_UNITS
                and elapsed + unit.setup_s + unit.run_s > seconds):
            return units


def end_to_end(units) -> dict:
    walls = [wall for unit in units for wall in unit.cell_walls]
    attempted = sum(unit.cells for unit in units)
    failed = sum(unit.failed for unit in units)
    phases = [phase for unit in units for phase in unit.phases]
    return {
        "setup_s": statistics.median(u.setup_s for u in units),
        "run_s": statistics.median(p.run_s for p in phases),
        "cells_per_s": statistics.median(p.cells / p.run_s for p in phases),
        "cell_p50_ms": 1000.0 * statistics.median(walls),
        "cell_p99_ms": percentile_ms(walls, 99),
        "peak_rss_mb": peak_rss_mb(),
        "cell_ok_frac": 1.0 - _ratio(failed, attempted),
    }


def check_required(stats: dict, required) -> None:
    """Fail when a span predicted for the workload recorded no calls."""
    silent = [span for span in required
              if span not in stats or not stats[span].calls]
    if silent:
        raise layertrace.LayerError("span(s) with zero calls on this workload: "
                         + ", ".join(silent))


def layer_table(tracer, traced, span_names) -> dict:
    """Per-layer metrics from the traced unit (overhead aside)."""
    stats = tracer.stats()
    metrics = {}
    self_cpu = 0.0
    for span in span_names:
        span_stats = stats.get(span)
        calls = span_stats.calls if span_stats else 0
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = span_stats.self_cpu_s if calls else 0.0
        metrics[f"{span}.wait_s"] = span_stats.wait_s if calls else 0.0
        self_cpu += metrics[f"{span}.self_s"]
    outcomes = [phase.outcome for phase in traced.phases]

    def hit_ratio(layer: str) -> float:
        hits = sum(getattr(o.stats, f"{layer}_hits") for o in outcomes)
        misses = sum(getattr(o.stats, f"{layer}_misses") for o in outcomes)
        return _ratio(hits, hits + misses)

    stores = [o.store for o in outcomes if o.store is not None]
    metrics.update({
        "elf.write.mb": stats["elf.write"].result_bytes / 1e6
        if "elf.write" in stats else 0.0,
        "machine.read_elf.miss_ratio": _ratio(
            tracer.pair_calls("machine.read_elf", "elf.parse"),
            metrics["machine.read_elf.calls"]),
        "fs.probe.calls": tracer.counter("fs.probe"),
        "loader.probes_per_resolve": _ratio(
            tracer.counter("fs.probe@loader.resolve"),
            metrics["loader.resolve.calls"]),
        "tec.assess_stack.per_eval": _ratio(
            metrics["tec.assess_stack.calls"],
            metrics["tec.evaluate.calls"]),
        "engine.description.hit_ratio": hit_ratio("description"),
        "engine.discovery.hit_ratio": hit_ratio("discovery"),
        "engine.evaluation.hit_ratio": hit_ratio("evaluation"),
        "persist.disk_hit_ratio": _ratio(
            sum(store["disk_hits"] for store in stores),
            metrics["persist.load.calls"]),
        "persist.mb": stores[-1]["bytes"] / 1e6 if stores else 0.0,
        "engine.cell.overlap": _ratio(
            stats["engine.cell"].wall_s if "engine.cell" in stats else 0.0,
            traced.run_s),
        "traced.cpu_s": traced.cpu_s,
        "unattributed_s": traced.cpu_s - self_cpu,
    })
    return metrics


def trace(workload, measure_unit) -> tuple[dict, list]:
    from repro import obs

    workload.prepare()
    tracer = layertrace.Tracer()
    with layertrace.LayerTimers(tracer, layertrace.BOUNDARIES,
                                layertrace.PROBES):
        traced = measure_unit(workload)
    leftovers = layertrace.leftover_wrappers()
    if leftovers:
        raise layertrace.LayerError("wrappers left installed: "
                                    + ", ".join(leftovers))
    if tracer.open_spans():
        raise layertrace.LayerError("spans left open after the unit")
    check_required(tracer.stats(), predictions.REQUIRED_SPANS[workload.name])
    # Untraced and captured units alternate, twice each; the faster of
    # each pair's runs damps a one-off stall on either side.
    plain, captured = [], []
    for _ in range(2):
        gc.collect()
        plain.append(measure_unit(workload))
        gc.collect()
        with obs.capture():
            captured.append(measure_unit(workload))
    names = layertrace.span_names()
    metrics = layer_table(tracer, traced, names)
    metrics["obs.capture_overhead_frac"] = (
        min(u.run_s for u in captured) / min(u.run_s for u in plain) - 1.0)
    return metrics, [traced] + plain + captured


# -- entry point ---------------------------------------------------------------

def run_all(args) -> int:
    """Run every workload in its own process; metrics are prefixed with
    the workload's name in the combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark the FEAM reproduction end to end and "
                    "layer by layer.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",),
                        help="'all' (the default) runs each workload in "
                             "a process of its own")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own: "
                             "20130101 for paper, 7 for the fleets)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measurement time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is not at {src}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    workdir = workloads.make_workdir(str(ROOT))
    try:
        workload = cls(seed, workdir)
        if args.trace:
            try:
                metrics, units = trace(workload, workloads.measure_unit)
            except layertrace.LayerError as exc:
                print(f"error: traced run failed: {exc}", file=sys.stderr)
                return EXIT_LAYER_ERROR
            declared = per_layer_metrics(layertrace.span_names())
        else:
            units = measure(workload, args.seconds, workloads.measure_unit)
            metrics = end_to_end(units)
            declared = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = check_units(workload, units)
    walls = sum(unit.cells for unit in units)
    print(f"workload {workload.name}  seed {seed}  units {len(units)}  "
          f"cell samples {walls}  "
          f"digest {units[0].phases[0].outcome.digest}")
    for index, unit in enumerate(units):
        runs = " ".join(f"{phase.run_s:.3f}" for phase in unit.phases)
        print(f"  unit {index}: setup {unit.setup_s:.3f} s  run {runs} s  "
              f"cpu {unit.cpu_s:.3f} s  cells {unit.cells}  "
              f"p99 {percentile_ms(unit.cell_walls, 99):.2f} ms")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {declared[name][0]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": walls,
        "failed": sum(unit.failed for unit in units),
        "metrics": {name: {"value": value, "unit": declared[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return EXIT_CHECK_FAILED if problems else 0


if __name__ == "__main__":
    sys.exit(main())
