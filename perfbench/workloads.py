"""The benchmark's three workloads and the measurement of one unit.

A *unit* is one set-up (fresh inputs built from the seed) followed by
the workload's timed phases on those inputs.  No phase runs on sites
another phase evaluated: ``Machine._elf_cache`` and lazy file payloads
live on the ``Site`` objects, so such a phase would run warm and
measure the wrong thing.  Every unit builds its own sites, and a
workload with several phases per unit gives each phase its own copy.

* ``paper`` -- the Section VI experiment.  Set-up builds the five paper
  sites and the full 257-binary corpus at the paper's seed
  (:data:`PAPER_SEED`); the timed phase runs ``run_experiment``
  serially, without a store, on every :data:`PAPER_STRIDE`-th corpus
  binary (all five sites, both suites), visiting sites and binaries in
  an order drawn from the workload seed.  Every evaluation misses the
  engine's caches, so the substrate (ELF synthesis and parsing, the
  loader, the hello-world probes) dominates.
* ``fleet-cold`` -- a user's first ``feam matrix --cache-dir`` run over a
  generated fleet: a fresh default engine with a ``PersistentStore`` on
  an empty directory runs ``evaluate_matrix``.  Content-group sharing,
  discovery, the loader, the worker pool and the store's write side all
  carry load.  Each fleet build is followed by :data:`COLD_PHASES` such
  matrices, each on a never-evaluated copy of the fleet.
* ``fleet-warm`` -- the same fleet and binaries, timed on a fresh engine
  and a fresh ``PersistentStore`` over a directory a cold run filled, so
  every cell is served from disk: engine bookkeeping, the pool and the
  store's read side remain, and the substrate does no timed work.  A
  warm matrix takes about a tenth of a second, so each fleet build is
  followed by :data:`WARM_PHASES` of them, each on a never-evaluated copy
  of the fleet.

The engine's matrix pool stays at its default size (``min(32, 4 x
nproc)``), which is what ``feam matrix`` users run.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Optional

from repro.core import engine as engine_mod
from repro.core import persist as persist_mod
from repro.corpus import builder
from repro.evaluation import experiment, tables
from repro.sites import catalog, generator
from repro.sites import site as site_mod
from repro.toolchain.compilers import Language

#: ``paper`` times every PAPER_STRIDE-th binary of the corpus.
PAPER_STRIDE = 4
#: The paper experiment's own seed: ``paper`` always builds these sites
#: and this corpus.  Its tail latency is set by the handful of costliest
#: cells, and a corpus drawn from another seed holds other ones: with a
#: corpus per seed, ``cell_p99_ms`` over three units spread 0.19 of its
#: median across eight seeds on a shared two-CPU host.
PAPER_SEED = 20130101
#: The fleet workloads' generated fleet.  Its shape is fixed so every
#: seed measures the same sites, templates and content groups.
FLEET_SPEC = "fleet:n=84,seed=7"
FLEET_BINARIES = 4
#: Cold and warm matrices timed per fleet build, each on its own copy.
COLD_PHASES = 2
WARM_PHASES = 8


@dataclasses.dataclass
class Outcome:
    """What a timed phase produced, for the output checks."""

    digest: str
    expected_cells: int
    stats: engine_mod.CacheStats
    #: ``PersistentStore.stats()`` after the phase (fleets only).
    store: Optional[dict] = None
    #: Workload-specific check failures.
    problems: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Phase:
    """One timed phase: its wall time, cells and checked output."""

    run_s: float
    cells: int
    outcome: Outcome


@dataclasses.dataclass
class Unit:
    """One measured set-up and the timed phases run on its inputs."""

    setup_s: float
    phases: list
    #: Process CPU seconds over the whole unit.
    cpu_s: float
    #: Wall seconds of each ``EvaluationEngine.evaluate_cell`` call.
    cell_walls: list
    failed: int

    @property
    def run_s(self) -> float:
        return sum(phase.run_s for phase in self.phases)

    @property
    def cells(self) -> int:
        return len(self.cell_walls)


class CellTimer:
    """Times every ``EvaluationEngine.evaluate_cell`` call while active.

    The one wrapper the untraced runs install: the boundary every paper
    target phase and every fleet cell goes through.  Samples are
    appended as (wall seconds, degraded?) pairs; ``list.append`` is
    atomic, so pool workers need no lock.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, bool]] = []
        self._original = None

    def __enter__(self) -> "CellTimer":
        original = self._original = engine_mod.EvaluationEngine.evaluate_cell
        samples = self.samples

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            report = original(*args, **kwargs)
            samples.append((time.perf_counter() - started,
                            report.failure is not None))
            return report

        engine_mod.EvaluationEngine.evaluate_cell = timed
        return self

    def __exit__(self, *exc_info) -> None:
        engine_mod.EvaluationEngine.evaluate_cell = self._original


def _digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def grid_text(result: engine_mod.MatrixResult) -> str:
    """The rendered readiness grid without the cache-statistics line,
    which differs between a cold and a warm run by design."""
    return "".join(line for line in result.render().splitlines(True)
                   if not line.startswith("cache: "))


def fleet_inputs(seed: int):
    """The fleet in a seeded order, and its Fortran MPI binaries.

    Binary *i* is built at fleet site *i* with that site's stack *i*
    (mod its stack count).  Which binaries are built sets how many cells
    pass every determinant, and with it the cost of a run by a factor of
    two, so it stays fixed; the seed orders the sites, which changes the
    grid and the pool's schedule but not the work.
    """
    sites = generator.resolve_sites(FLEET_SPEC)
    binaries = []
    for index in range(FLEET_BINARIES):
        site = sites[index % len(sites)]
        stack = site.stacks[index % len(site.stacks)]
        name = f"bench-{site.name}-{stack.spec.slug}-{index}"
        linked = site.compile_mpi_program(name, Language.FORTRAN, stack)
        binaries.append(engine_mod.EngineBinary(binary_id=name,
                                                image=linked.image))
    random.Random(seed).shuffle(sites)
    return sites, binaries


def copy_fleet(sites):
    """Never-evaluated copies of *sites*, made with ``Site.cloned`` --
    the generator's own way of building most fleet sites.  A copy of a
    fleet nobody has evaluated evaluates exactly as cold as the fleet."""
    copies = []
    for site in sites:
        copy = site_mod.Site.cloned(site, site.name, site.seed)
        copy.content_key = site.content_key
        copies.append(copy)
    return copies


class Workload:
    """Set-up, then ``phases`` timed phases on copies of its inputs."""

    name = ""
    default_seed = 0
    phases = 1
    #: False when every seed must give the same output, so the stored
    #: reference digest is checked at every seed, not only the default.
    seeded_output = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def inputs_label(self) -> str:
        """The input parameters a stored reference digest belongs to."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Once per process, before any unit (untimed)."""

    def setup(self):
        raise NotImplementedError

    def copy(self, inputs):
        """The inputs of one timed phase (timed as set-up)."""
        return inputs

    def run(self, inputs):
        """The timed phase; returns what :meth:`outcome` checks."""
        raise NotImplementedError

    def outcome(self, raw) -> Outcome:
        raise NotImplementedError


class Paper(Workload):
    """The paper's sites and corpus, visited in a seeded order.

    The seed shuffles the sites and the binaries, which changes which
    cells pay each site's first ELF parses and the schedule, but not the
    work or the results: records are compared sorted, so every seed must
    reproduce the stored digest.
    """

    name = "paper"
    default_seed = PAPER_SEED
    seeded_output = False

    def inputs_label(self) -> str:
        return (f"paper-sites+corpus at seed {PAPER_SEED}, every "
                f"{PAPER_STRIDE}th binary, in seeded order")

    def setup(self):
        sites = catalog.build_paper_sites(PAPER_SEED, cached=False)
        corpus = builder.build_corpus(
            sites, builder.CorpusConfig(seed=PAPER_SEED))
        binaries = corpus.binaries[::PAPER_STRIDE]
        order = random.Random(self.seed)
        order.shuffle(sites)
        order.shuffle(binaries)
        subset = builder.Corpus(binaries=binaries, skipped=corpus.skipped,
                                config=corpus.config)
        return sites, subset

    def run(self, inputs):
        sites, corpus = inputs
        return experiment.run_experiment(
            experiment.ExperimentConfig(seed=PAPER_SEED),
            sites=sites, corpus=corpus)

    def outcome(self, raw) -> Outcome:
        lines = sorted(
            f"{r.binary_id}|{r.target_site}|basic={r.basic_ready}|"
            f"extended={r.extended_ready}|before={r.actual_before_ok}|"
            f"after={r.actual_after_ok}|{r.basic_feam_seconds!r}|"
            f"{r.extended_feam_seconds!r}"
            for r in raw.records)
        lines.append(tables.render_table3(raw))
        lines.append(tables.render_table4(raw))
        return Outcome(digest=_digest(lines),
                       expected_cells=2 * len(raw.records),
                       stats=raw.cache_stats)


class FleetCold(Workload):
    """Each unit builds one fleet and times :data:`COLD_PHASES` cold
    matrices on never-evaluated copies of it: the pool's cell latencies
    spread widely, and their tail needs the samples."""

    name = "fleet-cold"
    default_seed = 7
    phases = COLD_PHASES

    def inputs_label(self) -> str:
        return f"{FLEET_SPEC} in seeded order x {FLEET_BINARIES} binaries"

    def setup(self):
        return fleet_inputs(self.seed)

    def copy(self, inputs):
        sites, binaries = inputs
        return copy_fleet(sites), binaries, tempfile.mkdtemp(
            prefix="cold-", dir=self.workdir)

    def run(self, inputs):
        """A fresh default engine over a fresh store on *directory*."""
        sites, binaries, directory = inputs
        store = persist_mod.PersistentStore(directory)
        engine = engine_mod.EvaluationEngine(persist=store)
        try:
            result = engine.evaluate_matrix(binaries, sites)
        finally:
            engine.close()
        return result, engine.stats, store, len(binaries) * len(sites)

    def outcome(self, raw) -> Outcome:
        result, stats, store, expected = raw
        store_stats = store.stats()
        shutil.rmtree(store.directory, ignore_errors=True)
        return Outcome(digest=_digest([grid_text(result)]),
                       expected_cells=expected, stats=stats,
                       store=store_stats)


class FleetWarm(FleetCold):
    """Each unit builds one fleet and times :data:`WARM_PHASES` warm
    matrices on never-evaluated copies of it: a warm matrix takes a
    tenth of a second, too short to time once per fleet build."""

    name = "fleet-warm"
    phases = WARM_PHASES

    def prepare(self) -> None:
        """Fill the store with a cold run on a fleet of its own."""
        self.store_dir = tempfile.mkdtemp(prefix="warm-", dir=self.workdir)
        sites, binaries = self.setup()
        result, _stats, _store, _expected = self.run(
            (sites, binaries, self.store_dir))
        self.cold_grid = grid_text(result)

    def copy(self, inputs):
        sites, binaries = inputs
        return copy_fleet(sites), binaries, self.store_dir

    def outcome(self, raw) -> Outcome:
        result, stats, store, expected = raw
        grid = grid_text(result)
        problems = []
        if grid != self.cold_grid:
            problems.append("warm grid differs from the cold grid")
        if stats.evaluation_misses:
            problems.append(f"{stats.evaluation_misses} warm cell(s) "
                            "missed the filled store")
        if store.stores:
            problems.append(f"warm run wrote {store.stores} record(s)")
        return Outcome(digest=_digest([grid]), expected_cells=expected,
                       stats=stats, store=store.stats(), problems=problems)


WORKLOADS = {cls.name: cls for cls in (Paper, FleetCold, FleetWarm)}


def measure_unit(workload: Workload) -> Unit:
    """Set up fresh inputs and time the workload's phases on them."""
    if threading.active_count() != 1:
        raise RuntimeError("a unit must start with no other threads")
    with CellTimer() as timer:
        cpu_started = time.process_time()
        started = time.perf_counter()
        inputs = workload.setup()
        setup_s = time.perf_counter() - started
        phases = []
        for _ in range(workload.phases):
            # The last phase's garbage is not this phase's cost.
            gc.collect()
            started = time.perf_counter()
            phase_inputs = workload.copy(inputs)
            set_up = time.perf_counter()
            raw = workload.run(phase_inputs)
            finished = time.perf_counter()
            setup_s += set_up - started
            cells = len(timer.samples) - sum(p.cells for p in phases)
            phases.append(Phase(run_s=finished - set_up, cells=cells,
                                outcome=workload.outcome(raw)))
            del raw, phase_inputs
        cpu_s = time.process_time() - cpu_started
    return Unit(setup_s=setup_s, phases=phases, cpu_s=cpu_s,
                cell_walls=[wall for wall, _failed in timer.samples],
                failed=sum(failed for _wall, failed in timer.samples))


def make_workdir(root: str) -> str:
    """A private working directory under *root* for store segments."""
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
