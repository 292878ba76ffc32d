import random

import pytest

from pacloud.core import (
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    parse_version,
)
from pacloud.errors import (
    ConflictingAtoms,
    MissingPackage,
    NoMatchingVersion,
    NotInstalled,
    StillRequired,
)
from pacloud.localdb import PackageMetadata, VersionInfo
from pacloud.resolver import compute_orphans, resolve_runtime_closure

NO_FLAGS = UseFlagSet()


def pkg(text):
    return PackageId.parse(text)


def any_atom(text):
    return DependencyAtom(Specifier.ANY, pkg(text))


def make_meta(
    name,
    versions,
    installed=None,
    explicit=False,
    required_by=(),
    files=None,
):
    return PackageMetadata(
        name=pkg(name),
        description=f"the {name} package",
        versions={
            rendered: VersionInfo(tuple(deps))
            for rendered, deps in versions.items()
        },
        installed=installed,
        explicit=explicit,
        required_by=[pkg(p) for p in required_by],
        files=list(files) if files is not None else (["f"] if installed else None),
    )


class FakeDb:
    def __init__(self, metas):
        self._metas = {meta.name: meta for meta in metas}

    def get_metadata(self, package):
        return self._metas.get(package)

    def iter_packages(self):
        return [
            self._metas[name]
            for name in sorted(self._metas, key=PackageId.render)
        ]


class TestResolveRuntimeClosure:
    def test_dependency_before_dependent(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["cat/b"]}),
                make_meta("cat/b", {"1.0": []}),
            ]
        )
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        assert [p.render() for p, _ in plan.steps] == ["cat/b", "cat/a"]
        assert plan.skipped_installed == frozenset()

    def test_diamond_dedup_and_topology(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["cat/b", "cat/c"]}),
                make_meta("cat/b", {"1.0": ["cat/d"]}),
                make_meta("cat/c", {"1.0": ["cat/d"]}),
                make_meta("cat/d", {"1.0": []}),
            ]
        )
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        names = [p.render() for p, _ in plan.steps]
        assert names.count("cat/d") == 1
        assert names.index("cat/d") < names.index("cat/b")
        assert names.index("cat/d") < names.index("cat/c")
        assert names.index("cat/b") < names.index("cat/a")

    def test_conditional_off(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["x? ( cat/b )"]}),
                make_meta("cat/b", {"1.0": []}),
            ]
        )
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        assert [p.render() for p, _ in plan.steps] == ["cat/a"]

    def test_conditional_on(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["x? ( cat/b )"]}),
                make_meta("cat/b", {"1.0": []}),
            ]
        )
        plan = resolve_runtime_closure(
            [any_atom("cat/a")], db, UseFlagSet.of(["x"])
        )
        assert [p.render() for p, _ in plan.steps] == ["cat/b", "cat/a"]

    def test_cycle_broken_deterministically(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["cat/b"]}),
                make_meta("cat/b", {"1.0": ["cat/a"]}),
            ]
        )
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        names = [p.render() for p, _ in plan.steps]
        assert sorted(names) == ["cat/a", "cat/b"]
        assert len(names) == len(set(names))
        assert plan.cycle_groups == (frozenset({pkg("cat/a"), pkg("cat/b")}),)
        again = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        assert again.serialize() == plan.serialize()

    def test_version_selected_per_atom(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": [">=cat/b-2.0"]}),
                make_meta("cat/b", {"1.0": [], "2.0": [], "3.0": []}),
            ]
        )
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        chosen = {p.render(): v.render() for p, v in plan.steps}
        assert chosen["cat/b"] == "3.0"

    def test_installed_satisfying_dependency_skipped(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": [">=cat/b-1.0"]}),
                make_meta("cat/b", {"1.0": [], "2.0": []}, installed="2.0"),
            ]
        )
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        assert [p.render() for p, _ in plan.steps] == ["cat/a"]
        assert plan.skipped_installed == frozenset({pkg("cat/b")})
        assert plan.dependencies[pkg("cat/a")] == (pkg("cat/b"),)

    def test_installed_target_still_planned(self):
        db = FakeDb([make_meta("cat/a", {"1.0": []}, installed="1.0")])
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        assert [p.render() for p, _ in plan.steps] == ["cat/a"]

    def test_installed_unsatisfying_dependency_is_a_conflict(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": [">=cat/b-2.0"]}),
                make_meta("cat/b", {"1.0": [], "2.0": []}, installed="1.0"),
            ]
        )
        with pytest.raises(ConflictingAtoms):
            resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)

    def test_missing_package(self):
        db = FakeDb([make_meta("cat/a", {"1.0": ["cat/ghost"]})])
        with pytest.raises(MissingPackage):
            resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)

    def test_no_matching_version_reports_available(self):
        db = FakeDb([make_meta("cat/a", {"1.0": [], "2.0": []})])
        atom = DependencyAtom(Specifier.GT, pkg("cat/a"), parse_version("9.0"))
        with pytest.raises(NoMatchingVersion) as exc_info:
            resolve_runtime_closure([atom], db, NO_FLAGS)
        message = str(exc_info.value)
        assert "1.0" in message and "2.0" in message

    def test_conflicting_atoms(self):
        db = FakeDb([make_meta("cat/a", {"1.0": [], "2.0": []})])
        atoms = [
            DependencyAtom(Specifier.GE, pkg("cat/a"), parse_version("2.0")),
            DependencyAtom(Specifier.LT, pkg("cat/a"), parse_version("2.0")),
        ]
        with pytest.raises(ConflictingAtoms):
            resolve_runtime_closure(atoms, db, NO_FLAGS)

    def test_constraint_narrowing_drops_stale_subtree(self):
        # The first walk picks cat/d-2.0 (which pulls cat/e); the second
        # atom narrows cat/d down to 1.0, whose dependency list is empty.
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": [">=cat/d-1.0", "cat/b"]}),
                make_meta("cat/b", {"1.0": ["<cat/d-2.0"]}),
                make_meta("cat/d", {"1.0": [], "2.0": ["cat/e"]}),
                make_meta("cat/e", {"1.0": []}),
            ]
        )
        plan = resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        chosen = {p.render(): v.render() for p, v in plan.steps}
        assert chosen["cat/d"] == "1.0"
        assert "cat/e" not in chosen

    def test_deep_chain_resolves(self):
        # Far deeper than Python's default recursion limit of 1000.
        depth = 3000
        db = FakeDb(
            [
                make_meta(
                    f"c/p{i}",
                    {"1.0": [f"c/p{i + 1}"] if i + 1 < depth else []},
                )
                for i in range(depth)
            ]
        )
        plan = resolve_runtime_closure([any_atom("c/p0")], db, NO_FLAGS)
        assert [p.render() for p, _ in plan.steps] == [
            f"c/p{i}" for i in reversed(range(depth))
        ]
        assert plan.dependencies[pkg("c/p0")] == (pkg("c/p1"),)

    def test_random_dags_satisfy_plan_invariants(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 50)
            deps = {
                i: sorted(
                    {
                        rng.randint(i + 1, n - 1)
                        for _ in range(rng.randint(0, 3))
                        if i + 1 <= n - 1
                    }
                )
                for i in range(n)
            }
            metas = [
                make_meta(
                    f"cat/p{i:02d}",
                    {"1.0": [f"cat/p{j:02d}" for j in deps[i]]},
                )
                for i in range(n)
            ]
            db = FakeDb(metas)
            plan = resolve_runtime_closure([any_atom("cat/p00")], db, NO_FLAGS)
            names = [p.render() for p, _ in plan.steps]
            assert len(names) == len(set(names))
            position = {name: i for i, name in enumerate(names)}
            # reachability oracle: the plan is exactly the closure of p00
            expected = set()
            stack = [0]
            while stack:
                i = stack.pop()
                if f"cat/p{i:02d}" in expected:
                    continue
                expected.add(f"cat/p{i:02d}")
                stack.extend(deps[i])
            assert set(names) == expected
            # every dependency precedes its dependent
            for name in names:
                i = int(name[-2:])
                for j in deps[i]:
                    assert position[f"cat/p{j:02d}"] < position[name]
            assert (
                resolve_runtime_closure([any_atom("cat/p00")], db, NO_FLAGS).serialize()
                == plan.serialize()
            )


class TestComputeOrphans:
    def test_dep_installed_orphan_swept(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True),
                make_meta("cat/b", {"1.0": []}, installed="1.0", required_by=["cat/a"]),
            ]
        )
        order = compute_orphans(db, [pkg("cat/a")])
        assert [p.render() for p in order] == ["cat/a", "cat/b"]

    def test_dep_still_required_by_other_explicit(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True),
                make_meta(
                    "cat/b",
                    {"1.0": []},
                    installed="1.0",
                    required_by=["cat/a", "cat/c"],
                ),
                make_meta("cat/c", {"1.0": ["cat/b"]}, installed="1.0", explicit=True),
            ]
        )
        order = compute_orphans(db, [pkg("cat/a")])
        assert [p.render() for p in order] == ["cat/a"]

    def test_removing_required_root_fails(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True),
                make_meta("cat/b", {"1.0": []}, installed="1.0", required_by=["cat/a"]),
            ]
        )
        with pytest.raises(StillRequired):
            compute_orphans(db, [pkg("cat/b")])

    def test_not_installed(self):
        db = FakeDb([make_meta("cat/a", {"1.0": []})])
        with pytest.raises(NotInstalled):
            compute_orphans(db, [pkg("cat/a")])

    def test_explicit_packages_never_auto_removed(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True),
                make_meta(
                    "cat/b",
                    {"1.0": []},
                    installed="1.0",
                    explicit=True,
                    required_by=["cat/a"],
                ),
            ]
        )
        order = compute_orphans(db, [pkg("cat/a")])
        assert [p.render() for p in order] == ["cat/a"]

    def test_preexisting_orphans_left_alone(self):
        db = FakeDb(
            [
                make_meta("cat/a", {"1.0": []}, installed="1.0", explicit=True),
                make_meta("cat/z", {"1.0": []}, installed="1.0"),
            ]
        )
        order = compute_orphans(db, [pkg("cat/a")])
        assert [p.render() for p in order] == ["cat/a"]

    def test_round_trip_matches_reachability_oracle(self):
        rng = random.Random(22)
        for _ in range(50):
            n = rng.randint(2, 20)
            deps = {
                i: sorted(
                    {
                        rng.randint(i + 1, n - 1)
                        for _ in range(rng.randint(0, 3))
                        if i + 1 <= n - 1
                    }
                )
                for i in range(n)
            }
            has_second_root = rng.random() < 0.7 and n > 2
            explicit = {0} | ({1} if has_second_root else set())
            # every dep-installed node must have a requirer; attach strays
            # to an explicit root so the whole graph is a recorded install
            parents = {i: set() for i in range(n)}
            for i, ds in deps.items():
                for j in ds:
                    parents[j].add(i)
            for i in range(n):
                if i not in explicit and not parents[i]:
                    deps[0].append(i)
                    parents[i].add(0)
            metas = []
            for i in range(n):
                metas.append(
                    make_meta(
                        f"cat/p{i:02d}",
                        {"1.0": [f"cat/p{j:02d}" for j in deps[i]]},
                        installed="1.0",
                        explicit=i in explicit,
                        required_by=[f"cat/p{j:02d}" for j in sorted(parents[i])],
                    )
                )
            db = FakeDb(metas)
            if parents[0]:
                continue  # target would be StillRequired; not this test
            order = compute_orphans(db, [pkg("cat/p00")])
            removed = {p.render() for p in order}
            # forward-reachability oracle: whatever the surviving explicit
            # roots still reach must be kept; the rest of p00's closure goes
            kept = set()
            stack = [i for i in sorted(explicit) if i != 0]
            while stack:
                i = stack.pop()
                name = f"cat/p{i:02d}"
                if name in kept:
                    continue
                kept.add(name)
                stack.extend(deps[i])
            closure = set()
            stack = [0]
            while stack:
                i = stack.pop()
                name = f"cat/p{i:02d}"
                if name in closure:
                    continue
                closure.add(name)
                stack.extend(deps[i])
            assert removed == closure - kept
            # dependents come before their dependencies
            position = {p.render(): i for i, p in enumerate(order)}
            for i in range(n):
                name = f"cat/p{i:02d}"
                if name not in removed:
                    continue
                for j in deps[i]:
                    dep_name = f"cat/p{j:02d}"
                    if dep_name in removed:
                        assert position[name] < position[dep_name]
