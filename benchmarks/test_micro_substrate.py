"""Micro-benchmarks of the substrate hot paths.

These are not paper results; they characterise the simulator itself (ELF
serialisation/parsing, loader resolution, execution) so performance
regressions in the substrate are visible.
"""

import pytest

from repro.elf import BinarySpec, parse_elf, write_elf
from repro.toolchain.compilers import Language


@pytest.fixture(scope="module")
def spec():
    return BinarySpec(
        needed=("libmpi.so.0", "libopen-rte.so.0", "libopen-pal.so.0",
                "libnsl.so.1", "libutil.so.1", "libgfortran.so.1",
                "libm.so.6", "libpthread.so.0", "libc.so.6"),
        version_requirements={
            "libc.so.6": ("GLIBC_2.2.5", "GLIBC_2.3.4"),
            "libgfortran.so.1": ("GFORTRAN_1.0",)},
        comment=("GCC: (GNU) 4.1.2",),
        payload_size=500_000)


def test_write_elf_bench(benchmark, spec):
    image = benchmark(write_elf, spec)
    assert len(image) > 500_000


def test_parse_elf_bench(benchmark, spec):
    image = write_elf(spec)
    elf = benchmark(parse_elf, image)
    assert len(elf.dynamic.needed) == 9


def test_read_elf_miss_bench(benchmark, paper_sites):
    """A parse-cache miss on a multi-megabyte lazy library: parses the
    payload-free skeleton, so no ``.text`` payload is synthesised."""
    machine = next(s for s in paper_sites if s.name == "fir").machine
    path = "/lib64/libc.so.6"
    assert machine.fs.size(machine.fs.realpath(path)) > 1_000_000

    elf = benchmark.pedantic(
        machine.read_elf, args=(path,),
        setup=machine._elf_cache.clear, rounds=50)
    assert elf.dynamic.soname == "libc.so.6"


def test_loader_resolve_bench(benchmark, paper_sites):
    fir = next(s for s in paper_sites if s.name == "fir")
    stack = fir.find_stack("openmpi-1.4-intel")
    app = fir.compile_mpi_program("loader-bench", Language.FORTRAN, stack)
    env = fir.env_with_stack(stack)

    report = benchmark(fir.machine.loader.resolve, app.image, env)
    assert report.ok


def test_execution_bench(benchmark, paper_sites):
    india = next(s for s in paper_sites if s.name == "india")
    stack = india.find_stack("openmpi-1.4-gnu")
    app = india.compile_mpi_program("exec-bench", Language.C, stack)
    env = india.env_with_stack(stack)

    from repro.mpi.runtime import RunRequest
    result = benchmark(
        india.simulator.run,
        RunRequest(binary=app.image, stack=stack, env=env))
    assert result.ok or result.failure is not None


def test_compile_bench(benchmark, paper_sites):
    forge = next(s for s in paper_sites if s.name == "forge")
    stack = forge.find_stack("openmpi-1.4-gnu")

    linked = benchmark(forge.compile_mpi_program, "compile-bench",
                       Language.FORTRAN, stack)
    assert linked.size > 0


def test_bundle_pack_bench(benchmark, paper_sites):
    """Serialization throughput of a full source-phase bundle."""
    from repro.core import Feam
    from repro.core.bundlefile import pack_bundle, unpack_bundle

    india = next(s for s in paper_sites if s.name == "india")
    stack = india.find_stack("openmpi-1.4-intel")
    app = india.compile_mpi_program("pack-bench", Language.FORTRAN, stack)
    india.machine.fs.write("/home/user/pack-bench", app.image, mode=0o755)
    bundle = Feam().run_source_phase(
        india, "/home/user/pack-bench", env=india.env_with_stack(stack))

    archive = benchmark(pack_bundle, bundle)
    restored = unpack_bundle(archive)
    assert restored.copied_count == bundle.copied_count


def test_symbol_parse_bench(benchmark):
    """Parse throughput of a symbol-heavy library image."""
    from repro.elf.structs import DynamicSymbol

    from repro.elf.constants import ElfType

    spec = BinarySpec(
        etype=ElfType.DYN,
        soname="libbig.so.1",
        version_definitions=("libbig.so.1",) + tuple(
            f"BIG_{i}.0" for i in range(1, 20)),
        symbols=tuple(DynamicSymbol(f"big_fn_{i}", True,
                                    f"BIG_{1 + i % 19}.0")
                      for i in range(400)),
        payload_size=100_000)
    image = write_elf(spec)

    elf = benchmark(parse_elf, image)
    assert len(elf.symbols) == 400
