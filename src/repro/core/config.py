"""FEAM user configuration.

Before running FEAM, a user specifies (via a configuration file) the
site's serial and parallel submission scripts -- "the only information
about a new site our methods require the user to determine" -- plus which
phase to run, the binary location, and optional per-MPI-type ``mpiexec``
overrides (paper Sections V and V.C).
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class FeamConfig:
    """Per-run FEAM configuration (the paper's configuration file)."""

    #: Queue used for FEAM's own serial work (description/discovery jobs).
    serial_queue: str = "debug"
    #: Queue used for hello-world MPI functional tests.
    parallel_queue: str = "debug"
    #: Per-MPI-type launch command override; ``mpiexec`` by default.
    mpiexec_overrides: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Ranks used for hello-world tests.
    hello_nprocs: int = 2
    #: Recursion limit of the resolution model.
    max_resolution_depth: int = 8
    #: Sonames never copied by the resolution model (Section IV copies
    #: every shared library "except for the C library").
    copy_excludes: tuple[str, ...] = (
        "libc.so.6", "ld-linux.so.2", "ld-linux-x86-64.so.2")
    #: Where library copies are staged at a target site.
    staging_root: str = "/home/user/feam/stage"
    #: Where FEAM writes its output files.
    output_root: str = "/home/user/feam/out"
    #: Timing model of FEAM's own (scheduler-visible) work, in seconds.
    #: Fixed target-phase overhead (description + discovery bookkeeping).
    feam_base_seconds: float = 10.0
    #: Added per NEEDED entry of the binary being described.
    feam_seconds_per_dependency: float = 0.2
    #: One hello-world functional test of a candidate MPI stack.
    stack_assessment_seconds: float = 25.0
    #: Per-library loader-visibility check.
    library_check_seconds: float = 0.5
    #: Per-library resolution-model analysis and staging.
    resolution_seconds_per_library: float = 2.0
    #: Post-resolution retest of the imported hello-world.
    hello_retest_seconds: float = 20.0
    #: Resilience: attempts per engine operation (discover/describe/
    #: evaluate) before the cell degrades to UNKNOWN.
    retry_max_attempts: int = 3
    #: Resilience: backoff before the first retry, in simulated seconds.
    retry_base_seconds: float = 2.0
    #: Resilience: backoff growth factor per retry.
    retry_backoff_multiplier: float = 2.0
    #: Resilience: cap on a single backoff delay, in simulated seconds.
    retry_max_delay_seconds: float = 30.0
    #: Resilience: fractional (seeded, deterministic) backoff jitter.
    retry_jitter: float = 0.25
    #: Resilience: consecutive cell failures that open a site's breaker.
    breaker_failure_threshold: int = 3
    #: Resilience: quarantined cells skipped before a half-open probe.
    breaker_probe_after: int = 2
    #: Resilience: per-cell simulated-seconds retry budget.
    cell_deadline_seconds: float = 120.0
    #: Telemetry: wide-event ring-buffer capacity (oldest records are
    #: evicted -- and counted -- once a run emits more than this).
    wide_ring_size: int = 65536
    #: Telemetry: tail sampling keeps a seeded 1-in-N head sample of
    #: clean cells' span trees; 0 keeps none beyond degraded/slow cells.
    sampling_head_n: int = 100
    #: Telemetry: span trees of cells slower than this (wall seconds)
    #: are always kept (matches the default cell-latency p95 SLO).
    sampling_latency_slo_seconds: float = 2.0
    #: Run ledger: warehouse directory (``FEAM_LEDGER_DIR`` and the
    #: ``--ledger`` flag override it; ``--no-ledger`` disables writes).
    ledger_dir: str = ".feam/runs"
    #: Run ledger: manifests kept before oldest-run eviction.
    ledger_max_runs: int = 512
    #: Persistent cache: store directory (``FEAM_CACHE_DIR`` and the
    #: ``--cache-dir`` flag override it; empty = no on-disk tier).
    cache_dir: str = ""
    #: Persistent cache: per-segment byte cap before LRU eviction.
    cache_max_bytes: int = 64 * 1024 * 1024
    #: Persistent cache: master switch (``--no-cache`` clears it).
    persist: bool = True

    def mpiexec_for(self, mpi_type: Optional[str]) -> str:
        """The launch command for an MPI type (Section V.C default)."""
        if mpi_type and mpi_type in self.mpiexec_overrides:
            return self.mpiexec_overrides[mpi_type]
        return "mpiexec"

    @staticmethod
    def parse(text: str) -> "FeamConfig":
        """Parse the simple ``key = value`` configuration-file format.

        Recognised keys: ``serial_queue``, ``parallel_queue``,
        ``hello_nprocs``, ``max_resolution_depth``, ``staging_root``,
        ``output_root``, the timing-model keys (``feam_base_seconds``,
        ``feam_seconds_per_dependency``, ``stack_assessment_seconds``,
        ``library_check_seconds``, ``resolution_seconds_per_library``,
        ``hello_retest_seconds``), the resilience keys (``retry_*``,
        ``breaker_*``, ``cell_deadline_seconds``), the telemetry keys
        (``wide_ring_size``, ``sampling_head_n``,
        ``sampling_latency_slo_seconds``), the run-ledger keys
        (``ledger_dir``, ``ledger_max_runs``), the persistent-cache
        keys (``cache_dir``, ``cache_max_bytes``, ``persist``), and
        ``mpiexec.<MPI type>`` overrides.  Any other key is an error.
        """
        kwargs: dict = {}
        overrides: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key.startswith("mpiexec."):
                overrides[key[len("mpiexec."):]] = value
            elif key in ("serial_queue", "parallel_queue",
                         "staging_root", "output_root", "ledger_dir",
                         "cache_dir"):
                kwargs[key] = value
            elif key in ("hello_nprocs", "max_resolution_depth",
                         "retry_max_attempts", "breaker_failure_threshold",
                         "breaker_probe_after", "wide_ring_size",
                         "sampling_head_n", "ledger_max_runs",
                         "cache_max_bytes"):
                kwargs[key] = int(value)
            elif key == "persist":
                if value.lower() not in ("true", "false"):
                    raise ValueError(
                        f"config line {lineno}: persist must be "
                        "true or false")
                kwargs[key] = value.lower() == "true"
            elif key in ("feam_base_seconds", "feam_seconds_per_dependency",
                         "stack_assessment_seconds", "library_check_seconds",
                         "resolution_seconds_per_library",
                         "hello_retest_seconds", "retry_base_seconds",
                         "retry_backoff_multiplier",
                         "retry_max_delay_seconds", "retry_jitter",
                         "cell_deadline_seconds",
                         "sampling_latency_slo_seconds"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if overrides:
            kwargs["mpiexec_overrides"] = overrides
        return FeamConfig(**kwargs)

    def render(self) -> str:
        """Serialize back to the configuration-file format."""
        lines = [
            f"serial_queue = {self.serial_queue}",
            f"parallel_queue = {self.parallel_queue}",
            f"hello_nprocs = {self.hello_nprocs}",
            f"max_resolution_depth = {self.max_resolution_depth}",
            f"staging_root = {self.staging_root}",
            f"output_root = {self.output_root}",
            f"feam_base_seconds = {self.feam_base_seconds}",
            f"feam_seconds_per_dependency = {self.feam_seconds_per_dependency}",
            f"stack_assessment_seconds = {self.stack_assessment_seconds}",
            f"library_check_seconds = {self.library_check_seconds}",
            f"resolution_seconds_per_library = "
            f"{self.resolution_seconds_per_library}",
            f"hello_retest_seconds = {self.hello_retest_seconds}",
            f"retry_max_attempts = {self.retry_max_attempts}",
            f"retry_base_seconds = {self.retry_base_seconds}",
            f"retry_backoff_multiplier = {self.retry_backoff_multiplier}",
            f"retry_max_delay_seconds = {self.retry_max_delay_seconds}",
            f"retry_jitter = {self.retry_jitter}",
            f"breaker_failure_threshold = {self.breaker_failure_threshold}",
            f"breaker_probe_after = {self.breaker_probe_after}",
            f"cell_deadline_seconds = {self.cell_deadline_seconds}",
            f"wide_ring_size = {self.wide_ring_size}",
            f"sampling_head_n = {self.sampling_head_n}",
            f"sampling_latency_slo_seconds = "
            f"{self.sampling_latency_slo_seconds}",
            f"ledger_dir = {self.ledger_dir}",
            f"ledger_max_runs = {self.ledger_max_runs}",
            f"cache_dir = {self.cache_dir}",
            f"cache_max_bytes = {self.cache_max_bytes}",
            f"persist = {'true' if self.persist else 'false'}",
        ]
        for mpi_type, command in sorted(self.mpiexec_overrides.items()):
            lines.append(f"mpiexec.{mpi_type} = {command}")
        return "\n".join(lines) + "\n"
