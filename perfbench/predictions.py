"""What each per-layer metric should move, written down before anyone
optimises, and the spans each workload's traced run must record.

This benchmark is the measure of record for performance.  It replaces
the numbers from ``benchmarks/emit_bench.py`` and the ``BENCH_*.json``
files, which are traced, short (a 0.37 s paper matrix) and include the
interpreter's import warm-up.

A prediction names layer metrics (``<span>.<calls|self_s|wait_s>`` or
a derived ratio), the end-to-end metrics they should move on each
workload, and the pairs where the prediction is *no change*.  A change
that claims a gain on a layer shows the predicted end-to-end movement
on the workloads in ``moves`` and no worse than the bound on the ones
in ``holds``.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Prediction:
    layer_metrics: tuple[str, ...]
    #: workload -> end-to-end metrics that should move.
    moves: dict
    #: workload -> end-to-end metrics that should not move.
    holds: dict
    note: str = ""


def _span(name: str) -> tuple[str, ...]:
    return (f"{name}.calls", f"{name}.self_s", f"{name}.wait_s")


PREDICTIONS: tuple[Prediction, ...] = (
    Prediction(
        _span("elf.write") + ("elf.write.mb",),
        moves={"paper": ("setup_s", "run_s"),
               "fleet-cold": ("setup_s", "run_s"),
               "fleet-warm": ("setup_s",)},
        holds={"fleet-warm": ("run_s",)},
        note="memoising payloads also moves peak_rss_mb"),
    Prediction(
        _span("elf.parse") + ("machine.read_elf.miss_ratio",)
        + _span("loader.resolve") + ("loader.probes_per_resolve",),
        moves={"paper": ("run_s",), "fleet-cold": ("run_s",)},
        holds={"fleet-warm": ("setup_s", "run_s", "cell_p50_ms",
                              "cell_p99_ms")}),
    Prediction(
        ("tec.assess_stack.per_eval", "toolchain.link.calls",
         "mpi.run.calls"),
        moves={"paper": ("run_s",), "fleet-cold": ("run_s",)},
        holds={"fleet-warm": ("run_s",)},
        note="paper first, then fleet-cold"),
    Prediction(
        ("engine.cell.wait_s", "engine.cell.overlap"),
        moves={"fleet-cold": ("cell_p50_ms", "cell_p99_ms", "peak_rss_mb"),
               "fleet-warm": ("cell_p50_ms", "cell_p99_ms",
                              "peak_rss_mb")},
        holds={"fleet-cold": ("run_s",), "fleet-warm": ("run_s",)},
        note="one pool worker measured p50 0.2 ms against 15 ms with "
             "the pool, and 303 MB against 414 MB peak RSS, on a 1k-site "
             "fleet on 2 CPUs"),
    Prediction(
        ("engine.description.hit_ratio", "engine.discovery.hit_ratio",
         "engine.evaluation.hit_ratio"),
        moves={"fleet-cold": ("cells_per_s",)},
        holds={}),
    Prediction(
        _span("persist.load"),
        moves={"fleet-warm": ("run_s",)},
        holds={"paper": ("run_s",)}),
    Prediction(
        _span("persist.store"),
        moves={"fleet-cold": ("run_s",)},
        holds={"paper": ("run_s",), "fleet-warm": ("run_s",)}),
)

#: Spans the traced run of each workload must record at least one call
#: of; a zero means a layer function moved or was renamed and the
#: per-layer table would silently under-report, so the run fails.
REQUIRED_SPANS: dict[str, tuple[str, ...]] = {
    "paper": (
        "elf.write", "elf.parse", "fs.read", "machine.read_elf",
        "loader.resolve", "toolchain.link", "mpi.run", "site.execute",
        "sites.build", "corpus.build", "bdc.describe", "bdc.gather_copies",
        "edc.discover", "tec.evaluate", "tec.assess_stack",
        "resolution.resolve", "engine.cell", "feam.source_phase",
        "feam.target_phase"),
    "fleet-cold": (
        "elf.write", "elf.parse", "fs.read", "fs.clone", "machine.read_elf",
        "loader.resolve", "toolchain.link", "mpi.run", "sites.build",
        "bdc.describe", "edc.discover", "tec.evaluate", "tec.assess_stack",
        "engine.cell", "engine.matrix", "persist.load", "persist.store"),
    "fleet-warm": (
        "elf.write", "fs.clone", "toolchain.link", "sites.build",
        "engine.cell", "engine.matrix", "persist.load"),
}
