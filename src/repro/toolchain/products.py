"""Installable shared-library products.

A :class:`LibraryProduct` describes one shared object shipped by a compiler
runtime or an MPI implementation: its soname, on-disk filename, the symbol
versions it defines, its own dependencies, and its *glibc feature ceiling*
(the newest C-library feature level its code uses).

When a product is installed at a site, the ELF image it produces references
the newest GLIBC symbol version available there, capped by the ceiling --
exactly how building or shipping a library against a given glibc works.
This is what makes library *copies* (FEAM's resolution model) portable or
not: a product installed on a glibc-2.12 site carries ``GLIBC_2.7+``
references and its copy will not load on a glibc-2.5 site, while a
vendor-shipped product with a (2,3,4) ceiling travels anywhere.
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Optional

from repro.elf.constants import ElfClass, ElfData, ElfMachine, ElfType
from repro.elf.structs import DynamicSymbol
from repro.elf.writer import BinarySpec, LazyElfImage
# Re-exported: perfbench's layer-timer test wraps write_elf in every
# toolchain module that names it.
from repro.elf.writer import write_elf  # noqa: F401
from repro.sysmodel.fs import VirtualFilesystem
from repro.toolchain.libc import GlibcRelease, glibc_symbol


@dataclasses.dataclass(frozen=True)
class LibraryProduct:
    """A shared library as shipped by a runtime or MPI installation."""

    soname: str
    #: Real filename; when it differs from the soname, a soname symlink is
    #: installed alongside (``libmpi.so.0`` -> ``libmpi.so.0.0.2``).
    filename: Optional[str] = None
    #: Non-GLIBC symbol versions this library defines (GFORTRAN_1.0, ...).
    verdefs: tuple[str, ...] = ()
    #: Approximate on-disk size in bytes.
    size: int = 200_000
    #: Sonames of other shared objects this library itself needs
    #: (``libc.so.6`` is always implied).
    needed: tuple[str, ...] = ()
    #: Newest glibc feature level the library's code uses.
    glibc_ceiling: tuple[int, ...] = (2, 3, 4)
    #: Toolchain banner recorded in .comment.
    comment: tuple[str, ...] = ()
    #: Function names this library exports into its dynamic symbol table.
    #: Exports are versioned with the first non-base verdef when one
    #: exists (the common single-version-library layout).
    exports: tuple[str, ...] = ()

    @property
    def install_name(self) -> str:
        """The filename actually written to disk."""
        return self.filename or self.soname

    def spec(self, libc_release: GlibcRelease,
             machine: ElfMachine = ElfMachine.X86_64,
             elf_class: ElfClass = ElfClass.ELF64,
             data: ElfData = ElfData.LSB) -> BinarySpec:
        """The ELF description of this product built against *libc_release*."""
        req = libc_release.highest_at_most(self.glibc_ceiling)
        version_requirements = {"libc.so.6": (glibc_symbol(req),)}
        needed = tuple(dict.fromkeys(self.needed + ("libc.so.6",)))
        verdefs = (self.soname,) + self.verdefs if self.verdefs else ()
        export_version = self.verdefs[0] if self.verdefs else None
        symbols = tuple(
            DynamicSymbol(name=name, defined=True, version=export_version)
            for name in self.exports)
        return BinarySpec(
            machine=machine,
            elf_class=elf_class,
            data=data,
            etype=ElfType.DYN,
            soname=self.soname,
            needed=needed,
            version_requirements=version_requirements,
            version_definitions=verdefs,
            comment=self.comment,
            payload_size=self.size,
            symbols=symbols,
        )

    def install(self, fs: VirtualFilesystem, libdir: str,
                libc_release: GlibcRelease,
                machine: ElfMachine = ElfMachine.X86_64,
                elf_class: ElfClass = ElfClass.ELF64,
                data: ElfData = ElfData.LSB) -> str:
        """Write this product into ``libdir`` of *fs*; returns the soname path.

        The image is stored lazily (a
        :class:`~repro.elf.writer.LazyElfImage`: payload bytes are generated
        for byte readers only) with a soname symlink when the real filename
        differs.
        """
        spec = self.spec(libc_release, machine, elf_class, data)
        image = LazyElfImage(spec)
        real_path = posixpath.join(libdir, self.install_name)
        fs.write_lazy(real_path, image, image.size, mode=0o755)
        soname_path = posixpath.join(libdir, self.soname)
        if self.install_name != self.soname:
            fs.symlink(soname_path, self.install_name)
        return soname_path
