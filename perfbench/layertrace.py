"""Layer timers for the benchmark's traced run.

The traced run attributes time to the program's layers without changing
the program: :class:`LayerTimers` wraps each layer's public function or
method (listed in :data:`BOUNDARIES`) for the duration of one unit of
work and restores the originals afterwards.

Wrapping is by identity.  ``write_elf`` is imported by name into several
toolchain modules and ``parse_elf`` into the loader and the machine, so
patching only the defining module would miss most callers.  Every
loaded ``repro.*`` module global that *is* the original function object
is rebound to the wrapper; methods are patched on their class.

Each span records calls, inclusive wall time, and self wall and self
CPU time (``time.thread_time``), where "self" excludes child spans.
Span stacks are thread-local because ``evaluate_matrix`` runs cells on
a thread pool: a cell span on a worker thread is a root span of that
thread, never a child of whatever the main thread has open.  Summing
per-call wall over a pool therefore exceeds the run's wall time, which
is why the table sums CPU, not wall: over any region, the process CPU
equals the spans' self CPU plus the CPU spent outside every span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
import time
from typing import Callable, Iterable, Optional


class LayerError(RuntimeError):
    """A layer boundary is missing, renamed, or recorded no calls."""


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One layer boundary: a span name and the callable it wraps."""

    span: str
    module: str
    #: ``"function"`` or ``"Class.method"`` inside *module*.
    qualname: str
    #: Also total ``len()`` of the return value (``elf.write`` bytes).
    sized: bool = False


#: Every layer boundary the traced run wraps, grouped by package.
BOUNDARIES: tuple[Boundary, ...] = (
    # repro.elf
    Boundary("elf.write", "repro.elf.writer", "write_elf", sized=True),
    Boundary("elf.parse", "repro.elf.reader", "parse_elf"),
    # repro.sysmodel
    Boundary("fs.read", "repro.sysmodel.fs", "VirtualFilesystem.read"),
    Boundary("fs.clone", "repro.sysmodel.fs", "VirtualFilesystem.clone"),
    Boundary("machine.read_elf", "repro.sysmodel.machine",
             "Machine.read_elf"),
    Boundary("loader.resolve", "repro.sysmodel.loader",
             "DynamicLoader.resolve"),
    # repro.toolchain
    Boundary("toolchain.link", "repro.toolchain.linker", "link_program"),
    # repro.mpi
    Boundary("mpi.run", "repro.mpi.runtime", "ExecutionSimulator.run"),
    # repro.sites
    Boundary("site.execute", "repro.sites.site", "Site.execute"),
    Boundary("sites.build", "repro.sites.catalog", "build_paper_sites"),
    Boundary("sites.build", "repro.sites.generator", "SiteGenerator.build"),
    # repro.corpus
    Boundary("corpus.build", "repro.corpus.builder", "build_corpus"),
    # repro.core
    Boundary("bdc.describe", "repro.core.description",
             "BinaryDescriptionComponent.describe"),
    Boundary("bdc.gather_copies", "repro.core.description",
             "BinaryDescriptionComponent.gather_library_copies"),
    Boundary("edc.discover", "repro.core.discovery",
             "EnvironmentDiscoveryComponent.discover"),
    Boundary("tec.evaluate", "repro.core.evaluation",
             "TargetEvaluationComponent.evaluate"),
    Boundary("tec.assess_stack", "repro.core.evaluation",
             "TargetEvaluationComponent.assess_stack"),
    Boundary("resolution.resolve", "repro.core.resolution",
             "ResolutionModel.resolve"),
    Boundary("engine.cell", "repro.core.engine",
             "EvaluationEngine.evaluate_cell"),
    Boundary("engine.matrix", "repro.core.engine",
             "EvaluationEngine.evaluate_matrix"),
    Boundary("persist.load", "repro.core.persist", "PersistentStore.load"),
    Boundary("persist.store", "repro.core.persist", "PersistentStore.store"),
    Boundary("feam.source_phase", "repro.core.feam",
             "Feam.run_source_phase"),
    Boundary("feam.target_phase", "repro.core.feam",
             "Feam.run_target_phase"),
)

#: Filesystem probes: counted (not timed) under ``fs.probe``, and under
#: ``loader.probe`` when a ``loader.resolve`` span is open on the thread.
PROBES: tuple[Boundary, ...] = tuple(
    Boundary("fs.probe", "repro.sysmodel.fs", f"VirtualFilesystem.{name}")
    for name in ("exists", "is_file", "lexists", "is_dir"))

#: The span whose open frames attribute probes to the loader.
PROBE_OWNER = "loader.resolve"


def span_names(boundaries: Iterable[Boundary] = BOUNDARIES) -> list[str]:
    """Distinct span names in declaration order."""
    return list(dict.fromkeys(b.span for b in boundaries))


@dataclasses.dataclass
class SpanStats:
    """Aggregated timings of one span name."""

    calls: int = 0
    wall_s: float = 0.0
    self_wall_s: float = 0.0
    self_cpu_s: float = 0.0
    result_bytes: int = 0

    @property
    def wait_s(self) -> float:
        """Self wall time the thread spent not running: GIL and pool
        contention, sleeps, I/O."""
        return self.self_wall_s - self.self_cpu_s

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.wall_s += other.wall_s
        self.self_wall_s += other.self_wall_s
        self.self_cpu_s += other.self_cpu_s
        self.result_bytes += other.result_bytes


class _ThreadState:
    """One thread's open frames and aggregates (touched by that thread
    only, merged when the tracer is read)."""

    def __init__(self) -> None:
        #: Open frames: [name, wall start, cpu start, child wall, child cpu].
        self.stack: list[list] = []
        self.depth: dict[str, int] = {}
        self.stats: dict[str, SpanStats] = {}
        self.pairs: dict[tuple[Optional[str], str], int] = {}
        self.counters: dict[str, int] = {}


class Tracer:
    """Thread-local span stacks with self-time accounting.

    *clock* and *cpu_clock* default to ``time.perf_counter`` and
    ``time.thread_time``; *cpu_clock* must be per-thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.thread_time) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str) -> list:
        state = self._state()
        state.depth[name] = state.depth.get(name, 0) + 1
        frame = [name, self._clock(), self._cpu_clock(), 0.0, 0.0]
        state.stack.append(frame)
        return frame

    def exit(self, frame: list, result_bytes: int = 0) -> None:
        wall = self._clock() - frame[1]
        cpu = self._cpu_clock() - frame[2]
        state = self._state()
        popped = state.stack.pop()
        if popped is not frame:
            raise LayerError(f"span {frame[0]!r} closed out of order")
        name = frame[0]
        state.depth[name] -= 1
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[3] += wall
            parent[4] += cpu
        stats = state.stats.get(name)
        if stats is None:
            stats = state.stats[name] = SpanStats()
        stats.calls += 1
        stats.wall_s += wall
        stats.self_wall_s += wall - frame[3]
        stats.self_cpu_s += cpu - frame[4]
        stats.result_bytes += result_bytes
        pair = (parent[0] if parent is not None else None, name)
        state.pairs[pair] = state.pairs.get(pair, 0) + 1

    def count(self, name: str, owner: Optional[str] = None) -> None:
        """Count one event; also under ``<name>@<owner>`` when a span
        called *owner* is open on this thread."""
        state = self._state()
        state.counters[name] = state.counters.get(name, 0) + 1
        if owner is not None and state.depth.get(owner):
            key = f"{name}@{owner}"
            state.counters[key] = state.counters.get(key, 0) + 1

    # -- reading -----------------------------------------------------------

    def _snapshot(self) -> list[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def stats(self) -> dict[str, SpanStats]:
        merged: dict[str, SpanStats] = {}
        for state in self._snapshot():
            for name, stats in list(state.stats.items()):
                merged.setdefault(name, SpanStats()).add(stats)
        return merged

    def pair_calls(self, parent: Optional[str], child: str) -> int:
        """Calls of *child* whose innermost open span was *parent*."""
        return sum(state.pairs.get((parent, child), 0)
                   for state in self._snapshot())

    def counter(self, name: str) -> int:
        return sum(state.counters.get(name, 0)
                   for state in self._snapshot())

    def open_spans(self) -> int:
        return sum(len(state.stack) for state in self._snapshot())


#: Attribute marking a wrapper, so tests can prove none is left behind.
WRAPPER_MARK = "__layer_span__"


def _span_wrapper(tracer: Tracer, span: str, original: Callable,
                  sized: bool) -> Callable:
    if sized:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(span)
            size = 0
            try:
                result = original(*args, **kwargs)
                size = len(result)
            finally:
                tracer.exit(frame, size)
            return result
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(span)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(frame)
    setattr(wrapper, WRAPPER_MARK, span)
    return wrapper


def _probe_wrapper(tracer: Tracer, name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.count(name, PROBE_OWNER)
        return original(*args, **kwargs)
    setattr(wrapper, WRAPPER_MARK, name)
    return wrapper


def is_program_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def resolve(boundary: Boundary) -> tuple[object, str, Callable]:
    """(owner, attribute, original) of *boundary*.

    Raises :class:`LayerError` when the module, class or function is
    gone, or when a method is only inherited (the class that defines it
    is the one to name)."""
    try:
        owner: object = importlib.import_module(boundary.module)
    except ImportError as exc:
        raise LayerError(f"{boundary.span}: cannot import "
                         f"{boundary.module}: {exc}") from exc
    *path, attr = boundary.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            raise LayerError(f"{boundary.span}: no class {part!r} in "
                             f"{boundary.module}")
    original = vars(owner).get(attr)
    if not callable(original) or isinstance(original, type):
        raise LayerError(f"{boundary.span}: {boundary.module}."
                         f"{boundary.qualname} is not a function "
                         "defined there (missing or renamed?)")
    return owner, attr, original


class LayerTimers:
    """Installs span and probe wrappers; :meth:`uninstall` restores.

    Use as a context manager around the traced unit of work.  Every
    boundary is resolved before anything is patched, so a missing layer
    function fails the install without leaving wrappers behind.
    """

    def __init__(self, tracer: Tracer,
                 boundaries: Iterable[Boundary] = BOUNDARIES,
                 probes: Iterable[Boundary] = PROBES,
                 module_filter: Callable[[str], bool] = is_program_module,
                 ) -> None:
        self.tracer = tracer
        self.boundaries = tuple(boundaries)
        self.probes = tuple(probes)
        self.module_filter = module_filter
        #: (namespace, attribute, original), in patch order.
        self._patched: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        if self._patched:
            raise LayerError("layer timers are already installed")
        resolved = [(b, *resolve(b)) for b in self.boundaries + self.probes]
        modules = [module for name, module in list(sys.modules.items())
                   if module is not None and self.module_filter(name)]
        try:
            for boundary, owner, attr, original in resolved:
                if boundary in self.probes:
                    wrapper = _probe_wrapper(self.tracer, boundary.span,
                                             original)
                else:
                    wrapper = _span_wrapper(self.tracer, boundary.span,
                                            original, boundary.sized)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                # A function: rebind every module global that is it.
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, namespace: object, attr: str, original: Callable,
               wrapper: Callable) -> None:
        setattr(namespace, attr, wrapper)
        self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    @property
    def patched(self) -> int:
        return len(self._patched)

    def __enter__(self) -> "LayerTimers":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def leftover_wrappers(module_filter: Callable[[str], bool]
                      = is_program_module) -> list[str]:
    """Module globals and class attributes that are still wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not module_filter(name):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, WRAPPER_MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for method, member in list(vars(value).items()):
                    if hasattr(member, WRAPPER_MARK):
                        found.append(f"{name}.{attr}.{method}")
    return found
