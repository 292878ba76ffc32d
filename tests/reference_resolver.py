"""The two-map resolver that ``pacloud.resolver.resolve_runtime_closure``
must match.

Each pass of ``_ClosureWalk`` collects the atoms it meets in ``found``,
checks each package's version against ``accumulated + found``, and then
merges ``found`` into ``accumulated``; the pass that adds nothing is the
plan. A thousand passes without that raise ``RuntimeError``.
``test_resolver`` runs it and the package's resolver on the same random
universes and compares every plan and every error.
"""
from __future__ import annotations

import functools
from typing import Callable, Iterator, Sequence

from pacloud.core import DependencyAtom, PackageId, UseFlagSet, Version, atom_matches
from pacloud.depparse import eval_use_conditionals, parse_dep_string
from pacloud.errors import ConflictingAtoms, MissingPackage, NoMatchingVersion
from pacloud.localdb import PackageMetadata
from pacloud.resolver import InstallPlan, MetadataSource, ordered_components

_MAX_PASSES = 1000


def resolve_runtime_closure(
    targets: Sequence[DependencyAtom],
    db: MetadataSource,
    flags: UseFlagSet,
) -> InstallPlan:
    """Expand runtime dependencies of the targets into an install plan."""
    target_pkgs = {a.package for a in targets}
    accumulated: dict[PackageId, list[DependencyAtom]] = {}
    # Every pass re-walks the closure: read each package's metadata and
    # evaluate each dependency string once per resolution, not per pass.
    get_metadata = functools.cache(db.get_metadata)
    dep_atoms = functools.cache(
        lambda text: tuple(eval_use_conditionals(parse_dep_string(text), flags))
    )

    for _ in range(_MAX_PASSES):
        walk = _ClosureWalk(get_metadata, dep_atoms, target_pkgs, accumulated)
        walk.run(targets)
        if walk.is_stable():
            return _plan_from_walk(walk)
        for pkg, atoms in walk.found.items():
            merged = accumulated.setdefault(pkg, [])
            for atom in atoms:
                if atom not in merged:
                    merged.append(atom)
    raise RuntimeError("dependency resolution did not converge")


class _ClosureWalk:
    """One depth-first pass from the targets under the known constraints."""

    def __init__(
        self,
        get_metadata: Callable[[PackageId], PackageMetadata | None],
        dep_atoms: Callable[[str], tuple[DependencyAtom, ...]],
        target_pkgs: set[PackageId],
        accumulated: dict[PackageId, list[DependencyAtom]],
    ):
        self.get_metadata = get_metadata
        self.dep_atoms = dep_atoms
        self.target_pkgs = target_pkgs
        self.accumulated = accumulated
        self.found: dict[PackageId, list[DependencyAtom]] = {}
        self.chosen: dict[PackageId, Version] = {}
        self.dep_map: dict[PackageId, list[PackageId]] = {}
        self._visited: set[PackageId] = set()

    def run(self, targets: Sequence[DependencyAtom]) -> None:
        for atom in targets:
            self._require_known(atom)
            self._note(atom)
        for atom in targets:
            self._visit(atom.package)

    def is_stable(self) -> bool:
        return all(
            atom in self.accumulated.get(pkg, [])
            for pkg, atoms in self.found.items()
            for atom in atoms
        )

    def _require_known(self, atom: DependencyAtom) -> PackageMetadata:
        meta = self.get_metadata(atom.package)
        if meta is None:
            raise MissingPackage(f"{atom} names unknown package {atom.package}")
        return meta

    def _note(self, atom: DependencyAtom) -> None:
        atoms = self.found.setdefault(atom.package, [])
        if atom not in atoms:
            atoms.append(atom)

    def _constraints(self, pkg: PackageId) -> list[DependencyAtom]:
        atoms: list[DependencyAtom] = []
        for atom in self.accumulated.get(pkg, []) + self.found.get(pkg, []):
            if atom not in atoms:
                atoms.append(atom)
        return atoms

    def _visit(self, root: PackageId) -> None:
        """Depth-first walk from root, on an explicit stack of expansions
        so that deep dependency chains cannot exhaust Python's stack."""
        stack = [self._expand(root)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(self._expand(child))

    def _expand(self, pkg: PackageId) -> Iterator[PackageId]:
        """Visit one package, yielding each dependency to walk before the
        next one is examined (the order a recursive walk would take)."""
        if pkg in self._visited:
            return
        self._visited.add(pkg)
        meta = self.get_metadata(pkg)
        assert meta is not None
        atoms = self._constraints(pkg)
        available = meta.known_versions()
        viable = [
            v for v in available if all(atom_matches(a, v) for a in atoms)
        ]
        if not viable:
            for atom in atoms:
                if not any(atom_matches(atom, v) for v in available):
                    raise NoMatchingVersion(
                        f"{atom}: no match among "
                        f"{', '.join(str(v) for v in available)}"
                    )
            raise ConflictingAtoms(
                f"{pkg}: no single version satisfies "
                f"{', '.join(str(a) for a in atoms)}"
            )
        if pkg not in self.target_pkgs and meta.installed is not None:
            if all(atom_matches(a, meta.installed) for a in atoms):
                return
            raise ConflictingAtoms(
                f"{pkg}: installed version {meta.installed} does not satisfy "
                f"{', '.join(str(a) for a in atoms)} and implicit upgrades "
                f"are not performed"
            )
        version = max(viable, key=Version.sort_key)
        self.chosen[pkg] = version
        dep_atoms: list[DependencyAtom] = []
        for dep_string in meta.versions[version]:
            dep_atoms.extend(self.dep_atoms(dep_string))
        deps = self.dep_map.setdefault(pkg, [])
        for atom in dep_atoms:
            dep_pkg = atom.package
            if dep_pkg == pkg:
                continue
            self._require_known(atom)
            self._note(atom)
            if dep_pkg not in deps:
                deps.append(dep_pkg)
            yield dep_pkg


def _plan_from_walk(walk: _ClosureWalk) -> InstallPlan:
    # Order over the planned packages only: a dependency already
    # installed is in dep_map but not planned.
    edges = {
        pkg: [d for d in deps if d in walk.chosen]
        for pkg, deps in walk.dep_map.items()
    }
    return InstallPlan(
        steps=tuple(
            (pkg, walk.chosen[pkg])
            for component in ordered_components(sorted(walk.chosen), edges)
            for pkg in component
        ),
        dependencies={pkg: tuple(deps) for pkg, deps in walk.dep_map.items()},
    )

