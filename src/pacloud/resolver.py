"""Runtime-dependency closure, install ordering and orphan computation.

Resolution keeps one map for its whole run: each package's list of the
atoms known on it, the targets' and those in the dependency lists of
chosen versions, in the order first met. It re-walks from the targets
until a walk adds no atom to the map. That walk comes: each walk before it
adds at least one atom, and the atoms are drawn from the targets and the
dependency strings of known packages, which are finite in number. All
atoms on a package must be satisfied by a single version; an empty
intersection is a hard error rather than a silent latest-wins pick.
Install order is a topological order of the dependency graph; strongly
connected components are broken deterministically, smallest canonical
package string first.

Packages already installed at a satisfying version are skipped, never
upgraded implicitly; explicitly named targets are always planned, which is
what makes reinstalls and upgrades possible.
"""
from __future__ import annotations

import functools
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

from .core import (
    DependencyAtom,
    PackageId,
    UseFlagSet,
    Version,
    atom_matches,
)
from .depparse import eval_use_conditionals, parse_dep_string
from .errors import (
    ConflictingAtoms,
    MissingPackage,
    NoMatchingVersion,
    NotInstalled,
    StillRequired,
)
from .localdb import PackageMetadata

class MetadataSource(Protocol):
    def get_metadata(self, package: PackageId) -> PackageMetadata | None: ...


class InstalledSource(Protocol):
    def installed_packages(self) -> dict[PackageId, PackageMetadata]: ...


@dataclass(frozen=True)
class InstallPlan:
    """An ordered install plan over a dependency closure.

    ``steps`` lists each package exactly once, dependencies before
    dependents except within a dependency cycle. ``dependencies`` maps
    each planned package to its direct evaluated runtime dependencies,
    including ones satisfied by already-installed packages.
    """

    steps: tuple[tuple[PackageId, Version], ...]
    dependencies: dict[PackageId, tuple[PackageId, ...]]


def resolve_runtime_closure(
    targets: Sequence[DependencyAtom],
    db: MetadataSource,
    flags: UseFlagSet,
) -> InstallPlan:
    """Expand runtime dependencies of the targets into an install plan.

    Each pass walks depth first from the targets and chooses a version of
    every package it reaches under all the atoms known on it, appending
    each atom it meets that ``atoms`` does not hold yet. A pass that
    appends none returns its choices as the plan. So the loop ends: every
    other pass appends at least one atom, and each atom comes from the
    targets or from the dependency strings of known packages, which are
    finite in number.
    """
    target_pkgs = {a.package for a in targets}
    # Every pass re-walks the closure: read each package's metadata and
    # evaluate each dependency string once per resolution, not per pass.
    # An atom met again is then the same object, which ``in`` on a list
    # matches by identity before it compares the fields.
    get_metadata = functools.cache(db.get_metadata)
    dep_atoms = functools.cache(
        lambda text: tuple(eval_use_conditionals(parse_dep_string(text), flags))
    )
    atoms: dict[PackageId, list[DependencyAtom]] = {}

    def learn(atom: DependencyAtom) -> None:
        nonlocal grew
        if get_metadata(atom.package) is None:
            raise MissingPackage(f"{atom} names unknown package {atom.package}")
        known = atoms.setdefault(atom.package, [])
        if atom not in known:
            known.append(atom)
            grew = True

    def expand(pkg: PackageId) -> Iterator[PackageId]:
        """Visit one package, yielding each dependency to walk before the
        next one is examined (the order a recursive walk would take)."""
        if pkg in visited:
            return
        visited.add(pkg)
        meta = get_metadata(pkg)
        assert meta is not None
        version = _choose(pkg, meta, atoms[pkg], pkg in target_pkgs)
        if version is None:
            return
        chosen[pkg] = version
        deps = dep_map[pkg] = []
        for atom in [a for text in meta.versions[version] for a in dep_atoms(text)]:
            if atom.package != pkg:
                learn(atom)
                if atom.package not in deps:
                    deps.append(atom.package)
                yield atom.package

    while True:
        grew = False
        visited: set[PackageId] = set()
        chosen: dict[PackageId, Version] = {}
        dep_map: dict[PackageId, list[PackageId]] = {}
        for atom in targets:
            learn(atom)
        for atom in targets:
            # An explicit stack of expansions, so that deep dependency
            # chains cannot exhaust Python's stack.
            stack = [expand(atom.package)]
            while stack:
                child = next(stack[-1], None)
                if child is None:
                    stack.pop()
                else:
                    stack.append(expand(child))
        if not grew:
            break
    # Order over the planned packages only: a dependency already
    # installed is in dep_map but not planned.
    edges = {pkg: [d for d in deps if d in chosen] for pkg, deps in dep_map.items()}
    return InstallPlan(
        steps=tuple(
            (pkg, chosen[pkg])
            for component in ordered_components(sorted(chosen), edges)
            for pkg in component
        ),
        dependencies={pkg: tuple(deps) for pkg, deps in dep_map.items()},
    )


def _choose(
    pkg: PackageId, meta: PackageMetadata, atoms: list[DependencyAtom], target: bool
) -> Version | None:
    """The newest version of ``pkg`` that satisfies every atom; None when
    ``pkg`` is not a target and its installed version satisfies them."""
    available = meta.known_versions()
    viable = [v for v in available if all(atom_matches(a, v) for a in atoms)]
    if not viable:
        for atom in atoms:
            if not any(atom_matches(atom, v) for v in available):
                raise NoMatchingVersion(
                    f"{atom}: no match among {', '.join(str(v) for v in available)}"
                )
        raise ConflictingAtoms(
            f"{pkg}: no single version satisfies {', '.join(str(a) for a in atoms)}"
        )
    if target or meta.installed is None:
        return max(viable, key=Version.sort_key)
    if all(atom_matches(a, meta.installed) for a in atoms):
        return None
    raise ConflictingAtoms(
        f"{pkg}: installed version {meta.installed} does not satisfy "
        f"{', '.join(str(a) for a in atoms)} and implicit upgrades "
        f"are not performed"
    )


def ordered_components(
    nodes: Sequence[PackageId], edges: dict[PackageId, list[PackageId]]
) -> list[list[PackageId]]:
    """Strongly connected components in pointee-first order.

    A component is emitted only after every component it points to; ties
    and members within a component are ordered by canonical package
    string, which makes the whole order deterministic.
    """
    sccs = _tarjan(nodes, edges)
    comp_of = {pkg: i for i, scc in enumerate(sccs) for pkg in scc}
    out_deps: list[set[int]] = [set() for _ in sccs]
    dependents: list[set[int]] = [set() for _ in sccs]
    for pkg in nodes:
        for dep in edges.get(pkg, []):
            a, b = comp_of[pkg], comp_of[dep]
            if a != b:
                out_deps[a].add(b)
                dependents[b].add(a)
    remaining = {i: len(out_deps[i]) for i in range(len(sccs))}
    key = {i: min(p.render() for p in scc) for i, scc in enumerate(sccs)}
    ready = [(key[i], i) for i, n in remaining.items() if n == 0]
    heapq.heapify(ready)
    ordered: list[list[PackageId]] = []
    while ready:
        _, i = heapq.heappop(ready)
        ordered.append(sorted(sccs[i], key=PackageId.render))
        for dependent in dependents[i]:
            remaining[dependent] -= 1
            if remaining[dependent] == 0:
                heapq.heappush(ready, (key[dependent], dependent))
    return ordered


def _tarjan(
    nodes: Sequence[PackageId], edges: dict[PackageId, list[PackageId]]
) -> list[list[PackageId]]:
    index: dict[PackageId, int] = {}
    lowlink: dict[PackageId, int] = {}
    on_stack: set[PackageId] = set()
    stack: list[PackageId] = []
    sccs: list[list[PackageId]] = []

    def enter(v: PackageId) -> tuple[PackageId, Iterator[PackageId]]:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        return v, iter(edges.get(v, []))

    # Iterative, so that deep graphs cannot exhaust Python's stack: each
    # frame holds a node and the edges it has yet to follow.
    for node in nodes:
        if node in index:
            continue
        work = [enter(node)]
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in index:
                    work.append(enter(w))
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.remove(w)
                        scc.append(w)
                        if w == v:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def compute_orphans(
    db: InstalledSource, roots: Iterable[PackageId]
) -> dict[PackageId, PackageMetadata]:
    """The roots plus their now-unneeded dependencies, each mapped to its
    installed metadata.

    Only dependency-installed packages reachable from the removal set are
    swept in, and only once nothing outside the set requires them;
    explicitly installed packages are never auto-removed. The result is
    ordered dependents before dependencies.

    A package's requirers are the installed packages whose ``depends``
    name it: the database stores each edge once, on the dependent, so the
    installed set is read once, whatever the store's size. The walk
    follows ``depends`` from the removal set. A package's eligibility
    changes only when one of its requirers joins the set, and each joining
    package re-examines its dependencies, so the walk reaches the same
    fixed point as a scan of every package.
    """
    installed = db.installed_packages()
    requirers: defaultdict[PackageId, set[PackageId]] = defaultdict(set)
    for meta in installed.values():
        for dep in meta.depends or []:
            requirers[dep].add(meta.name)
    root_list = list(dict.fromkeys(roots))
    removal: dict[PackageId, PackageMetadata] = {}
    for pkg in root_list:
        if pkg not in installed:
            raise NotInstalled(f"{pkg} is not installed")
        removal[pkg] = installed[pkg]
    work = list(root_list)
    while work:
        for dep in removal[work.pop()].depends or []:
            meta = installed.get(dep)
            if dep in removal or meta is None or meta.explicit:
                continue
            # never empty: the package just popped requires dep
            if requirers[dep] <= removal.keys():
                removal[dep] = meta
                work.append(dep)
    for pkg in root_list:
        outside = requirers[pkg] - removal.keys()
        if outside:
            raise StillRequired(
                f"{pkg} is still required by "
                f"{', '.join(sorted(p.render() for p in outside))}"
            )
    # Dependents first: each member points at its in-set requirers, so the
    # pointee-first component order emits requirers before the required.
    edges = {
        pkg: sorted(requirers[pkg] & removal.keys(), key=PackageId.render)
        for pkg in removal
    }
    components = ordered_components(sorted(removal), edges)
    return {pkg: removal[pkg] for component in components for pkg in component}
