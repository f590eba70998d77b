"""Tests of the benchmark harness itself (not of the program).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import threading
import types

import pytest

import layertrace
import run
from layertrace import Boundary, LayerError, LayerTimers, Tracer


class FakeClocks:
    """A wall clock and per-thread CPU clocks that tests advance."""

    def __init__(self) -> None:
        self.now = 0.0
        self._cpu = threading.local()

    def wall(self) -> float:
        return self.now

    def cpu(self) -> float:
        return getattr(self._cpu, "value", 0.0)

    def advance(self, wall: float, cpu: float) -> None:
        self.now += wall
        self._cpu.value = self.cpu() + cpu


def test_self_time_excludes_nested_children():
    clocks = FakeClocks()
    tracer = Tracer(clocks.wall, clocks.cpu)
    outer = tracer.enter("outer")
    clocks.advance(wall=1.0, cpu=1.0)
    inner = tracer.enter("inner")
    clocks.advance(wall=2.0, cpu=0.5)     # 1.5 s waiting inside inner
    leaf = tracer.enter("outer")           # recursion into the same name
    clocks.advance(wall=0.5, cpu=0.5)
    tracer.exit(leaf)
    tracer.exit(inner)
    clocks.advance(wall=1.0, cpu=1.0)
    tracer.exit(outer)

    stats = tracer.stats()
    assert stats["outer"].calls == 2
    assert stats["outer"].wall_s == pytest.approx(4.5 + 0.5)
    assert stats["outer"].self_cpu_s == pytest.approx(2.0 + 0.5)
    assert stats["outer"].wait_s == pytest.approx(0.0)
    assert stats["inner"].calls == 1
    assert stats["inner"].self_wall_s == pytest.approx(2.0)
    assert stats["inner"].self_cpu_s == pytest.approx(0.5)
    assert stats["inner"].wait_s == pytest.approx(1.5)
    # Self CPU over every span sums to the CPU the region used.
    assert sum(s.self_cpu_s for s in stats.values()) == pytest.approx(3.0)
    assert tracer.pair_calls("inner", "outer") == 1
    assert tracer.pair_calls(None, "outer") == 1
    assert tracer.open_spans() == 0


def test_span_stacks_are_per_thread():
    clocks = FakeClocks()
    tracer = Tracer(clocks.wall, clocks.cpu)
    lock = threading.Lock()
    main_span = tracer.enter("matrix")

    def worker() -> None:
        for _ in range(3):
            with lock:
                cell = tracer.enter("cell")
                clocks.advance(wall=1.0, cpu=0.25)
                tracer.count("probe", "cell")
                tracer.exit(cell)
            tracer.count("probe", "cell")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    tracer.exit(main_span)

    stats = tracer.stats()
    assert stats["cell"].calls == 12
    assert stats["cell"].self_cpu_s == pytest.approx(3.0)
    # Worker spans are roots of their threads, never children of the
    # span the main thread holds open: its self time keeps all 12 s.
    assert tracer.pair_calls(None, "cell") == 12
    assert tracer.pair_calls("matrix", "cell") == 0
    assert stats["matrix"].self_wall_s == pytest.approx(12.0)
    assert stats["matrix"].wait_s == pytest.approx(12.0)
    assert tracer.counter("probe") == 24
    assert tracer.counter("probe@cell") == 12


def test_spans_closed_out_of_order_are_rejected():
    tracer = Tracer()
    first = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(LayerError):
        tracer.exit(first)


@pytest.fixture
def fake_program(monkeypatch):
    """Two modules where one imports the other's function by name."""
    defining = types.ModuleType("fakeprog.core")

    def build(n):
        return b"x" * n

    class Loader:
        def resolve(self, path):
            return defining.build(len(path))

    defining.build = build
    defining.Loader = Loader
    Loader.__module__ = "fakeprog.core"
    user = types.ModuleType("fakeprog.user")
    user.build = build            # "from fakeprog.core import build"
    user.make = build             # ... and under another name
    user.call = lambda n: user.build(n)
    for module in (defining, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return defining, user


def _fake_timers(tracer, *boundaries):
    return LayerTimers(tracer, boundaries, (),
                       module_filter=lambda name: name.startswith("fakeprog"))


def test_functions_are_wrapped_by_identity_and_fully_restored(fake_program):
    defining, user = fake_program
    original_build = defining.build
    original_resolve = defining.Loader.resolve
    tracer = Tracer()
    timers = _fake_timers(
        tracer,
        Boundary("build", "fakeprog.core", "build", sized=True),
        Boundary("resolve", "fakeprog.core", "Loader.resolve"))
    with timers:
        assert timers.patched == 4
        assert user.build is defining.build is user.make
        assert user.build is not original_build
        user.call(3)
        user.make(2)
        defining.Loader().resolve("abcd")
    stats = tracer.stats()
    assert stats["build"].calls == 3
    assert stats["build"].result_bytes == 3 + 2 + 4
    assert stats["resolve"].calls == 1
    assert tracer.pair_calls("resolve", "build") == 1
    assert user.build is original_build and user.make is original_build
    assert defining.build is original_build
    assert defining.Loader.resolve is original_resolve
    assert layertrace.leftover_wrappers(
        lambda name: name.startswith("fakeprog")) == []


def test_missing_layer_function_fails_install_without_patching(fake_program):
    defining, user = fake_program
    original = defining.build
    tracer = Tracer()
    for broken in (Boundary("gone", "fakeprog.core", "build_v2"),
                   Boundary("gone", "fakeprog.core", "Loader.resolve_all"),
                   Boundary("gone", "fakeprog.core", "Missing.resolve"),
                   Boundary("gone", "fakeprog.absent", "build")):
        timers = _fake_timers(
            tracer, Boundary("build", "fakeprog.core", "build"), broken)
        with pytest.raises(LayerError):
            timers.install()
        assert timers.patched == 0
        assert user.build is original


def test_program_boundaries_wrap_every_importer_and_restore():
    from repro.elf import reader, writer
    from repro.mpi import stack
    from repro.sysmodel import loader, machine
    from repro.toolchain import libc, linker, products

    write_elf, parse_elf = writer.write_elf, reader.parse_elf
    read_elf = machine.Machine.read_elf
    with LayerTimers(Tracer()):
        for module in (writer, linker, libc, products, stack):
            assert hasattr(module.write_elf, layertrace.WRAPPER_MARK)
        for module in (reader, loader, machine):
            assert hasattr(module.parse_elf, layertrace.WRAPPER_MARK)
        assert hasattr(machine.Machine.read_elf, layertrace.WRAPPER_MARK)
        assert layertrace.leftover_wrappers()
    assert layertrace.leftover_wrappers() == []
    assert linker.write_elf is write_elf and stack.write_elf is write_elf
    assert loader.parse_elf is parse_elf
    assert machine.Machine.read_elf is read_elf


def test_renamed_program_function_fails_the_traced_run(monkeypatch, capsys):
    monkeypatch.setattr(
        layertrace, "BOUNDARIES",
        layertrace.BOUNDARIES + (
            Boundary("elf.write", "repro.elf.writer", "write_elf_image"),))
    status = run.main(["--workload", "paper", "--trace", "1"])
    assert status == run.EXIT_LAYER_ERROR
    assert "write_elf_image" in capsys.readouterr().err
    assert layertrace.leftover_wrappers() == []


def test_required_span_with_zero_calls_fails():
    stats = {"elf.write": layertrace.SpanStats(calls=3)}
    run.check_required(stats, ("elf.write",))
    with pytest.raises(LayerError, match="loader.resolve"):
        run.check_required(stats, ("elf.write", "loader.resolve"))


def test_every_required_span_is_a_boundary():
    import predictions
    names = set(layertrace.span_names())
    for spans in predictions.REQUIRED_SPANS.values():
        assert set(spans) <= names


def test_benchmark_json_declares_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["paper", "fleet-cold"]
    assert set(run.WORKLOAD_NAMES) == {"paper", "fleet-cold", "fleet-warm"}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.per_layer_metrics(
                layertrace.span_names())


def test_percentiles_interpolate_over_samples():
    walls = [i / 1000.0 for i in range(1, 1001)]
    assert run.percentile_ms(walls, 50) == pytest.approx(500.5)
    assert run.percentile_ms(walls, 99) == pytest.approx(990.01)


def _unit(digest, cells=2, failed=0, expected=2, problems=()):
    import workloads
    outcome = workloads.Outcome(digest=digest, expected_cells=expected,
                                stats=None, problems=list(problems))
    phase = workloads.Phase(run_s=1.0, cells=cells, outcome=outcome)
    return workloads.Unit(setup_s=1.0, phases=[phase], cpu_s=1.0,
                          cell_walls=[0.1] * cells, failed=failed)


def test_output_checks_flag_every_kind_of_wrong_output(tmp_path):
    import workloads
    other_seed = workloads.FleetCold(seed=1, workdir=str(tmp_path))
    assert run.check_units(other_seed, [_unit("a"), _unit("a")]) == []
    problems = run.check_units(other_seed, [
        _unit("a"), _unit("b", failed=1), _unit("a", cells=1),
        _unit("a", problems=["warm grid differs from the cold grid"])])
    assert len(problems) == 4
    # A fleet's grid depends on the seed, so only the default seed has a
    # stored digest; paper's output is the same at every seed.
    for workload in (workloads.FleetCold(seed=workloads.FleetCold.default_seed,
                                         workdir=str(tmp_path)),
                     workloads.Paper(seed=workloads.Paper.default_seed,
                                     workdir=str(tmp_path)),
                     workloads.Paper(seed=1, workdir=str(tmp_path))):
        problems = run.check_units(workload, [_unit("a")])
        assert problems == ["output digest differs from the stored reference"]
