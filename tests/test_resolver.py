import random
from collections import Counter

import pytest

import reference_resolver
from pacloud.core import (
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    parse_version,
)
from pacloud.depparse import parse_atom
from pacloud.errors import (
    ConflictingAtoms,
    MissingPackage,
    NoMatchingVersion,
    NotInstalled,
    PacloudError,
    StillRequired,
)
from pacloud.localdb import (
    DirectoryStore,
    LocalDb,
    PackageMetadata,
    write_store,
)
from pacloud.resolver import (
    compute_orphans,
    ordered_components,
    resolve_runtime_closure,
)

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
    depends=(),
    files=None,
):
    """Metadata as the database reads it; ``depends`` is recorded only for
    an installed package."""
    return PackageMetadata(
        name=pkg(name),
        description=f"the {name} package",
        versions={parse_version(v): tuple(deps) for v, deps in versions.items()},
        installed=installed and parse_version(installed),
        explicit=explicit,
        files=list(files) if files is not None else (["f"] if installed else None),
        depends=[pkg(p) for p in depends] if installed else None,
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

    def installed_packages(self):
        return {
            meta.name: meta
            for meta in self.iter_packages()
            if meta.installed is not None
        }


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
        assert plan.dependencies == {pkg("cat/a"): (pkg("cat/b"),), pkg("cat/b"): ()}

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
        # one cycle, its members in canonical string order
        assert names == ["cat/a", "cat/b"]
        a, b = pkg("cat/a"), pkg("cat/b")
        assert plan.dependencies == {a: (b,), b: (a,)}
        assert resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS) == plan

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
        # cat/b is a dependency, neither planned nor walked
        assert [p.render() for p, _ in plan.steps] == ["cat/a"]
        assert plan.dependencies == {pkg("cat/a"): (pkg("cat/b"),)}

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
            assert resolve_runtime_closure([any_atom("cat/p00")], db, NO_FLAGS) == plan


class TestComputeOrphans:
    def test_dep_installed_orphan_swept(self):
        db = FakeDb(
            [
                make_meta(
                    "cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True,
                    depends=["cat/b"],
                ),
                make_meta("cat/b", {"1.0": []}, installed="1.0"),
            ]
        )
        order = compute_orphans(db, [pkg("cat/a")])
        assert [p.render() for p in order] == ["cat/a", "cat/b"]

    def test_dep_still_required_by_other_explicit(self):
        db = FakeDb(
            [
                make_meta(
                    "cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True,
                    depends=["cat/b"],
                ),
                make_meta("cat/b", {"1.0": []}, installed="1.0"),
                make_meta(
                    "cat/c", {"1.0": ["cat/b"]}, installed="1.0", explicit=True,
                    depends=["cat/b"],
                ),
            ]
        )
        order = compute_orphans(db, [pkg("cat/a")])
        assert [p.render() for p in order] == ["cat/a"]

    def test_removing_required_root_fails(self):
        db = FakeDb(
            [
                make_meta(
                    "cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True,
                    depends=["cat/b"],
                ),
                make_meta("cat/b", {"1.0": []}, installed="1.0"),
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
                make_meta(
                    "cat/a", {"1.0": ["cat/b"]}, installed="1.0", explicit=True,
                    depends=["cat/b"],
                ),
                make_meta("cat/b", {"1.0": []}, installed="1.0", explicit=True),
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
            required = {j for ds in deps.values() for j in ds}
            for i in range(n):
                if i not in explicit and i not in required:
                    deps[0].append(i)
            metas = []
            for i in range(n):
                names = [f"cat/p{j:02d}" for j in deps[i]]
                metas.append(
                    make_meta(
                        f"cat/p{i:02d}",
                        {"1.0": names},
                        installed="1.0",
                        explicit=i in explicit,
                        depends=names,
                    )
                )
            db = FakeDb(metas)
            if 0 in required:
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


ORACLE_VERSIONS = ["1.0", "1.0-r1", "1.2", "2.0", "2.0a", "3.0"]
ORACLE_OPERATORS = ["", "", ">=", "<=", ">", "<", "~", "="]


def random_atom(rng, versions):
    """An atom on a package of ``versions`` (a map of each name to its
    versions), or now and then on an unknown package, under a random
    operator; its version is mostly one the package has."""
    name = "cat/ghost" if rng.random() < 0.03 else rng.choice(list(versions))
    operator = rng.choice(ORACLE_OPERATORS)
    if not operator:
        return name
    known = versions.get(name)
    version = rng.choice(known if known and rng.random() < 0.8 else ORACLE_VERSIONS)
    return f"{operator}{name}-{version}"


def random_dependency(rng, versions):
    """A random atom, perhaps inside an ``x? ( )`` or ``!x? ( )`` group."""
    atom = random_atom(rng, versions)
    roll = rng.random()
    if roll < 0.15:
        return f"x? ( {atom} )"
    if roll < 0.3:
        return f"!x? ( {atom} )"
    return atom


def random_universe(rng):
    """Metadata for a few packages, whose dependencies may name
    themselves, one another in cycles, or an unknown package; some are
    installed. Returns it with one or two target atoms."""
    versions = {
        f"cat/p{i}": rng.sample(ORACLE_VERSIONS, rng.randint(1, 4))
        for i in range(rng.randint(1, 8))
    }
    metas = []
    for name, known in versions.items():
        deps = {
            version: [
                " ".join(
                    random_dependency(rng, versions)
                    for _ in range(rng.randint(1, 2))
                )
                for _ in range(rng.choice([0, 1, 1, 2]))
            ]
            for version in known
        }
        installed = rng.choice(known) if rng.random() < 0.3 else None
        metas.append(make_meta(name, deps, installed, explicit=rng.random() < 0.5))
    targets = [
        parse_atom(random_atom(rng, versions)) for _ in range(rng.randint(1, 2))
    ]
    return FakeDb(metas), targets


def resolution_outcome(resolve, targets, db, flags):
    try:
        plan = resolve(targets, db, flags)
    except PacloudError as exc:
        return type(exc).__name__, str(exc)
    return plan.steps, plan.dependencies


def test_the_resolver_matches_the_two_map_reference(monkeypatch):
    passes = []
    real_run = reference_resolver._ClosureWalk.run

    def counting_run(walk, targets):
        passes[-1] += 1
        return real_run(walk, targets)

    monkeypatch.setattr(reference_resolver._ClosureWalk, "run", counting_run)
    rng = random.Random(26)
    outcomes = Counter()
    for _ in range(750):
        db, targets = random_universe(rng)
        for flags in (NO_FLAGS, UseFlagSet.of(["x"])):
            passes.append(0)
            want = resolution_outcome(
                reference_resolver.resolve_runtime_closure, targets, db, flags
            )
            got = resolution_outcome(resolve_runtime_closure, targets, db, flags)
            assert got == want, (targets, flags)
            kind = want[0] if isinstance(want[0], str) else "plan"
            outcomes[kind] += 1
            # decided by atoms an earlier pass met: a plan needs one pass
            # to meet them all and one to find nothing new
            outcomes["late"] += passes[-1] >= (3 if kind == "plan" else 2)
    assert outcomes["plan"] >= 1500 / 3, outcomes
    errors = ("MissingPackage", "NoMatchingVersion", "ConflictingAtoms")
    assert min(outcomes[kind] for kind in errors) >= 50, outcomes
    assert outcomes["late"] >= 50, outcomes


class CountingDb(FakeDb):
    def __init__(self, metas):
        super().__init__(metas)
        self.fetched = []

    def get_metadata(self, package):
        self.fetched.append(package.render())
        return super().get_metadata(package)


class TestResolutionMemo:
    def test_metadata_fetched_once_per_package(self):
        # p00 -> p01..p03, each -> p04; p03 narrows p04 after p01 chose
        # it, so the walk takes a second pass over every package
        metas = [
            make_meta("cat/p00", {"1.0": ["cat/p01 cat/p02", "cat/p03"]}),
            make_meta("cat/p01", {"1.0": ["cat/p04"]}),
            make_meta("cat/p02", {"1.0": ["x? ( cat/p04 )", "cat/p04"]}),
            make_meta("cat/p03", {"1.0": ["<cat/p04-2.0"]}),
            make_meta("cat/p04", {"1.0": [], "2.0": []}),
        ]
        db = CountingDb(metas)
        plan = resolve_runtime_closure([any_atom("cat/p00")], db, NO_FLAGS)
        assert sorted(db.fetched) == [f"cat/p{i:02d}" for i in range(5)]
        assert dict((p.render(), v.render()) for p, v in plan.steps)[
            "cat/p04"
        ] == "1.0"
        assert plan == resolve_runtime_closure(
            [any_atom("cat/p00")], FakeDb(metas), NO_FLAGS
        )

    def test_missing_package_fetched_once(self):
        db = CountingDb(
            [make_meta("cat/a", {"1.0": ["cat/ghost", "cat/ghost"]})]
        )
        with pytest.raises(MissingPackage):
            resolve_runtime_closure([any_atom("cat/a")], db, NO_FLAGS)
        assert sorted(db.fetched) == ["cat/a", "cat/ghost"]


def scan_orphans(db, roots):
    """The whole-database scan compute_orphans replaced, kept as its
    reference: same rule, applied to every installed package until no
    package joins. Each package's requirers are the installed packages
    whose ``depends`` name it."""
    root_list = []
    for p in roots:
        if p not in root_list:
            root_list.append(p)
    metas = {m.name: m for m in db.iter_packages() if m.installed is not None}
    for p in root_list:
        if p not in metas:
            raise NotInstalled(f"{p} is not installed")
    required_by = {
        p: {q for q in metas if p in metas[q].depends} for p in metas
    }
    removal = set(root_list)
    changed = True
    while changed:
        changed = False
        for p in sorted(metas, key=PackageId.render):
            if p in removal or metas[p].explicit:
                continue
            requirers = required_by[p]
            if requirers and requirers <= removal:
                removal.add(p)
                changed = True
    for p in root_list:
        outside = required_by[p] - removal
        if outside:
            raise StillRequired(
                f"{p} is still required by "
                f"{', '.join(sorted(r.render() for r in outside))}"
            )
    edges = {
        p: sorted(
            (r for r in required_by[p] if r in removal),
            key=PackageId.render,
        )
        for p in removal
    }
    components = ordered_components(sorted(removal), edges)
    return [p for component in components for p in component]


def random_install_db(rng, root):
    """A LocalDb holding a random consistent install graph, recorded with
    ``record_install`` in package order.

    Edges may form cycles, and some packages are not installed.
    """
    n = rng.randint(2, 14)
    names = [pkg(f"c{rng.randint(0, 2)}/p{i:02d}") for i in range(n)]
    installed = [i for i in range(n) if rng.random() < 0.85] or [0]
    depends = {
        i: sorted(
            {rng.choice(installed) for _ in range(rng.randint(0, 3))} - {i}
        )
        for i in installed
    }
    explicit = {i for i in installed if rng.random() < 0.2}
    store = root.with_name(f"{root.name}-store")
    write_store(store, [
        PackageMetadata(name=name, description="d", versions={parse_version("1.0"): ()})
        for name in names
    ])
    db = LocalDb(root)
    db.sync(DirectoryStore(store))
    for i in depends:
        db.record_install(
            names[i], parse_version("1.0"), i in explicit,
            [names[j] for j in depends[i]], [],
        )
    # Mostly packages nothing requires, so that many removals sweep in
    # dependencies; the rest may be required or not installed at all.
    tops = [i for i in depends if not any(i in ds for ds in depends.values())]
    roots = [
        names[rng.choice(tops) if tops and rng.random() < 0.8 else rng.randrange(n)]
        for _ in range(rng.randint(1, 3))
    ]
    return db, roots


def orphans_outcome(fn, db, roots):
    try:
        return [p.render() for p in fn(db, roots)]
    except (NotInstalled, StillRequired) as exc:
        return type(exc).__name__, str(exc)


class TestOrphansMatchScan:
    def test_random_install_graphs(self, tmp_path):
        rng = random.Random(5)
        kinds = {"swept": 0, "NotInstalled": 0, "StillRequired": 0}
        for i in range(300):
            db, roots = random_install_db(rng, tmp_path / f"db{i}")
            assert db.validate() == []
            expected = orphans_outcome(scan_orphans, db, roots)
            assert orphans_outcome(compute_orphans, db, roots) == expected
            if isinstance(expected, tuple):
                kinds[expected[0]] += 1
            elif len(expected) > len(set(roots)):
                kinds["swept"] += 1
        assert min(kinds.values()) >= 15, kinds
