"""Fleet-scale engine behaviour: content sharing, determinism, oracles.

The engine's caches must change only *how fast* a matrix is evaluated,
never *what* it computes.  Three anchors pin that down:

* a golden file rendered by an earlier engine
  (``tests/golden/matrix_paper_5x4.txt``), reproduced byte-for-byte,
  cache counters included;
* determinism: two fresh engines over the same inputs agree on every
  cell's verdict *and* cache provenance, and on every wide event but
  its wall-clock field;
* independence: fresh engines evaluating parts of the site list on
  parallel threads reassemble to the serial engine's grid;
* a differential oracle: a fresh engine per site (nothing shared)
  agrees cell for cell with the shared pass, its memory-warm rerun and
  a fresh engine served from the persistent store.
"""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.config import FeamConfig
from repro.core.engine import EngineBinary, EvaluationEngine
from repro.core.persist import PersistentStore
from repro.obs.wide import WideEventSink
from repro.sites.catalog import build_paper_sites
from repro.sites.generator import resolve_sites
from repro.toolchain.compilers import Language

_GOLDEN = Path(__file__).parent / "golden" / "matrix_paper_5x4.txt"


def _compile(sites, count):
    binaries = []
    for index in range(count):
        site = sites[index % len(sites)]
        stack = site.stacks[index % len(site.stacks)]
        name = f"app-{site.name}-{stack.spec.slug}-{index}"
        linked = site.compile_mpi_program(name, Language.FORTRAN, stack)
        binaries.append(EngineBinary(binary_id=name, image=linked.image))
    return binaries


def _build_sites(spec):
    """Fresh site objects (sites are stateful simulated machines)."""
    if spec == "paper":
        return build_paper_sites(20130101, cached=False)
    return resolve_sites(spec)


def _paper_inputs(seed=20130101, count=4):
    sites = build_paper_sites(seed, cached=False)
    return sites, _compile(sites, count)


def _fleet_inputs(spec="fleet:n=10,seed=4", count=2):
    sites = resolve_sites(spec)
    return sites, _compile(sites, count)


def _verdicts(result):
    """Per cell: the grid word and every determinant outcome."""
    return [(c.binary_id, c.site_name, c.outcome_word,
             tuple((d.key, d.outcome.value)
                   for d in c.report.prediction.determinants))
            for c in result.cells]


def _grid(result):
    return [(c.binary_id, c.site_name, c.outcome_word)
            for c in result.cells]


def _grid_from_independent_engines(binaries, sites, workers):
    """Split *sites* into *workers* chunks, evaluate each chunk with its
    own fresh engine on its own thread, and reassemble the grid in the
    serial engine's binary-major order."""
    chunks = [sites[i::workers] for i in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(
            lambda chunk: EvaluationEngine().evaluate_matrix(
                binaries, chunk), chunks))
    words = {(c.binary_id, c.site_name): c.outcome_word
             for result in results for c in result.cells}
    return [(b.binary_id, s.name, words[(b.binary_id, s.name)])
            for b in binaries for s in sites]


class TestGoldenMatrix:
    """Differential gate against an earlier engine's output."""

    def test_paper_matrix_renders_byte_identically(self):
        sites, binaries = _paper_inputs()
        result = EvaluationEngine().evaluate_matrix(binaries, sites)
        assert result.render(verbose=False) == _GOLDEN.read_text()

    def test_parallel_grid_matches_serial(self):
        # The engine is one serial loop; engines share no hidden state,
        # so one per site on parallel threads gives the same grid.
        sites, binaries = _paper_inputs()
        serial = EvaluationEngine().evaluate_matrix(binaries, sites)
        assert (_grid(serial)
                == _grid_from_independent_engines(binaries, sites,
                                                  len(sites)))


class TestRemovedPoolKnobs:
    @pytest.mark.parametrize("key", ["matrix_workers", "cache_shards"])
    def test_pool_config_keys_are_unknown(self, key):
        with pytest.raises(ValueError, match="unknown key"):
            FeamConfig.parse(f"{key} = 2\n")

    def test_rendered_config_names_no_pool_key(self):
        text = FeamConfig().render()
        assert "matrix_workers" not in text
        assert "cache_shards" not in text
        assert FeamConfig.parse(text) == FeamConfig()


class TestWorkerPool:
    """Splitting a fleet's sites across independent engines (the only
    way left to spread a matrix over workers) never changes a verdict,
    even though it changes which site leads each content group."""

    def test_fleet_grid_deterministic_across_worker_counts(self):
        sites, binaries = _fleet_inputs()
        grids = [_grid_from_independent_engines(binaries, sites, workers)
                 for workers in (1, 4)]
        assert grids[0] == grids[1]
        assert grids[0] == _grid(
            EvaluationEngine().evaluate_matrix(binaries, sites))


class TestContentSharing:
    def test_discovery_runs_once_per_content_group(self):
        sites, binaries = _fleet_inputs()
        groups = {s.content_key for s in sites}
        engine = EvaluationEngine()
        engine.evaluate_matrix(binaries, sites)
        stats = engine.stats
        assert stats.discovery_misses == len(groups)
        assert stats.evaluation_misses == len(groups) * len(binaries)
        assert (stats.evaluation_hits
                == (len(sites) - len(groups)) * len(binaries))

    def test_cached_cells_are_rehosted(self):
        sites, binaries = _fleet_inputs()
        engine = EvaluationEngine()
        result = engine.evaluate_matrix(binaries, sites)
        for cell in result.cells:
            assert cell.report.environment.hostname == cell.site_name

    def test_refresh_divergence_drops_the_content_key(self):
        sites, _ = _fleet_inputs()
        site = sites[0]
        engine = EvaluationEngine()
        engine.fingerprint_for(site)
        # An unchanged re-discovery keeps the site in its group ...
        assert engine.refresh_site(site) is False
        assert site.content_key is not None
        # ... a real environment change evicts it.
        site.machine.env["LOADEDMODULES"] = "ghost/1.0"
        site.machine.env["_LMFILES_"] = "/ghost"
        assert engine.refresh_site(site) is True
        assert site.content_key is None


class TestDeterminism:
    """Two fresh default engines must agree on everything but wall time.

    Which site describes a binary first, and which member of a content
    group discovers for the rest, is recorded per cell as cache
    provenance; it must follow from the inputs alone."""

    SPEC = "fleet:n=24,seed=11"

    def _run(self, binaries):
        sink = WideEventSink()
        result = EvaluationEngine().evaluate_matrix(
            binaries, _build_sites(self.SPEC), wide_sink=sink)
        cells = [(c.binary_id, c.site_name, c.outcome_word,
                  c.report.cache.description_hit,
                  c.report.cache.discovery_hit,
                  c.report.cache.evaluation_hit,
                  c.report.cache.tier)
                 for c in result.cells]
        events = [{k: v for k, v in event.items() if k != "wall_seconds"}
                  for event in sink.events()]
        return cells, events, result.stats

    def test_two_fresh_engines_agree_cell_for_cell(self):
        binaries = _compile(_build_sites(self.SPEC), 3)
        first_cells, first_events, first_stats = self._run(binaries)
        second_cells, second_events, second_stats = self._run(binaries)
        assert first_cells == second_cells
        assert first_events == second_events
        assert first_stats == second_stats
        assert len(first_events) == len(first_cells)
        # Provenance is not trivially uniform: the fleet mixes cold
        # first members with warm followers.
        assert {cell[5] for cell in first_cells} == {True, False}


class TestDifferentialOracle:
    """Sharing caches across sites must never change a verdict."""

    @pytest.mark.parametrize("spec", ["paper", "fleet:n=12,seed=4"])
    def test_shared_warm_and_disk_passes_match_isolated(self, spec,
                                                        tmp_path):
        # Four binaries: on the paper sites the fourth (MVAPICH2) is
        # the one that is not ready everywhere, so verdicts vary.
        binaries = _compile(_build_sites(spec), 4)

        # The oracle: one fresh engine per site, nothing shared.
        oracle = {}
        for site in _build_sites(spec):
            result = EvaluationEngine().evaluate_matrix(binaries, [site])
            oracle.update((v[:2], v) for v in _verdicts(result))
        assert len({v[2:] for v in oracle.values()}) > 1

        def matches_oracle(result):
            verdicts = _verdicts(result)
            return verdicts == [oracle[v[:2]] for v in verdicts]

        store = PersistentStore(str(tmp_path / "cache"), scope=spec)
        engine = EvaluationEngine(persist=store)
        sites = _build_sites(spec)
        shared = engine.evaluate_matrix(binaries, sites)
        warm = engine.evaluate_matrix(binaries, sites)
        engine.close()
        assert matches_oracle(shared)
        assert matches_oracle(warm)
        assert all(c.report.cache.tier == "memory" for c in warm.cells)

        store = PersistentStore(str(tmp_path / "cache"), scope=spec)
        disk_engine = EvaluationEngine(persist=store)
        disk = disk_engine.evaluate_matrix(binaries, _build_sites(spec))
        disk_engine.close()
        assert matches_oracle(disk)
        assert disk.stats.evaluation_misses == 0
        assert any(c.report.cache.tier == "disk" for c in disk.cells)
