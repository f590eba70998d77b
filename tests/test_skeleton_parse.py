"""Differential checks of the payload-free parse path on installed trees.

``Machine.read_elf`` parses a lazy library's skeleton (its layout with
``.text`` left zero) instead of the full image.  Over every lazy library
of the paper sites and a small generated fleet, the skeleton parse must
match a parse of the bytes a real reader gets, attribute for attribute,
and an armed fault plan must see and break both paths the same way.
"""

from __future__ import annotations

import pytest

from repro.elf import ElfError, parse_elf
from repro.elf.writer import LazyElfImage
from repro.sites.generator import resolve_sites
from repro.sysmodel.faults import FaultKind, FaultPlan, FaultSpec
from repro.sysmodel.fs import FileNode, FsError
from repro.sysmodel.machine import Machine

_PARSED = ("header", "program_headers", "sections", "dynamic",
           "version_requirements", "version_definitions", "symbols",
           "comment", "size")


def _fresh(machine: Machine) -> Machine:
    """A machine over a copy of *machine*'s tree, with a cold parse cache."""
    return Machine(machine.hostname, machine.arch, machine.distro,
                   fs=machine.fs.clone(), env=machine.env.copy())


def _lazy_libraries(machine: Machine) -> list[str]:
    fs = machine.fs
    found = []
    for path in fs.find_files("/"):
        if fs.is_symlink(path):
            continue
        node = fs._lookup(path)
        if isinstance(node, FileNode) and isinstance(node.provider,
                                                     LazyElfImage):
            found.append(path)
    return found


@pytest.fixture(scope="module")
def fleet_sites():
    return resolve_sites("fleet:n=4,seed=3")


def _check_tree(machines) -> int:
    checked = 0
    for source in machines:
        machine = _fresh(source)
        for path in _lazy_libraries(machine):
            parsed = machine.read_elf(path)
            expected = parse_elf(machine.fs.read(path))
            for attr in _PARSED:
                assert getattr(parsed, attr) == getattr(expected, attr), \
                    (machine.hostname, path, attr)
            checked += 1
    return checked


def test_paper_sites_skeleton_parse_matches_bytes(paper_sites):
    assert _check_tree(s.machine for s in paper_sites) > 100


def test_fleet_skeleton_parse_matches_bytes(fleet_sites):
    assert _check_tree(s.machine for s in fleet_sites) > 0


def _outcome(call):
    try:
        call()
    except (FsError, ElfError) as exc:
        return type(exc), str(exc)
    return None


def _arm(machine: Machine, seen: list) -> FaultPlan:
    """Arm a mixed fault plan on *machine*, logging its hook calls."""
    plan = FaultPlan([FaultSpec(FaultKind.READ_ERROR, rate=0.3),
                      FaultSpec(FaultKind.ELF_TRUNCATION, rate=0.3),
                      FaultSpec(FaultKind.ELF_CORRUPTION, rate=0.3)],
                     seed=11)
    hook = plan.hook_for(machine.hostname)

    def logging_hook(path, data):
        seen.append(path)
        return hook(path, data)

    machine.fs.fault_hook = logging_hook
    return plan


def test_faults_hit_skeleton_parse_like_byte_parse(paper_sites):
    source = next(s.machine for s in paper_sites if s.name == "fir")
    paths = _lazy_libraries(source)
    by_bytes: list = []
    by_skeleton: list = []
    bytes_machine, skeleton_machine = _fresh(source), _fresh(source)
    bytes_plan = _arm(bytes_machine, by_bytes)
    skeleton_plan = _arm(skeleton_machine, by_skeleton)
    for path in paths:
        start = len(by_skeleton)
        skeleton_outcome = _outcome(lambda: skeleton_machine.read_elf(path))
        assert by_skeleton[start:] == [path]
        byte_outcome = _outcome(
            lambda: parse_elf(bytes_machine.fs.read(path)))
        assert skeleton_outcome == byte_outcome, path
    assert by_bytes == by_skeleton == paths
    summary = skeleton_plan.summary()
    assert summary == bytes_plan.summary()
    # The plan broke libraries every way it can, and spared some.
    assert set(summary["by_kind"]) == {"read-error", "elf-truncation",
                                       "elf-corruption"}
    assert sum(summary["by_kind"].values()) < len(paths)
