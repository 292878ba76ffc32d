"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""
import random
import time

import pytest

from pacloud.bench import (
    JobSpec,
    device_percent,
    estimate_storage_cost,
    run_makespan,
    scenario_jobs,
)
from pacloud.client import await_package, format_search_results, request_package
from pacloud.core import (
    BuildKey,
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    atom_matches,
    compare_versions,
    parse_version,
    select_best_version,
)
from pacloud.depparse import eval_use_conditionals, parse_atom
from pacloud.errors import BuildFailed
from pacloud.farm import (
    BuildFarm,
    CompileQueue,
    ExecutorTable,
    JobProfile,
    VirtualClock,
    WorkerMode,
    build_artifact_tar,
    generate_emerge_commands,
)
from pacloud.farm.queue import MAX_DELIVERIES
from pacloud.farm.stores import BUILT
from test_client import tree_files
from test_depparse import FLAG_POOL, all_subsets, oracle_flatten, random_tree


def passed(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def test_criterion_01_parallel_makespan():
    workers, jobs = scenario_jobs("fig13")
    assert workers == 16 and len(jobs) == 16
    started = time.monotonic()
    report = run_makespan(workers, jobs)
    wall = time.monotonic() - started
    assert wall < 1.0, f"simulation took {wall:.3f} s of wall time"
    assert report.total == pytest.approx(2010.77, rel=0.01)
    # a 17th job that fits in the shadow of the longest changes nothing
    shortest = min(job.duration for job in jobs)
    extra_duration = 600.0
    assert shortest + extra_duration <= max(job.duration for job in jobs)
    extra = JobSpec(BuildKey.parse("media-libs/libpng-1.6.34[]"), extra_duration)
    report17 = run_makespan(workers, jobs + [extra])
    assert report17.total == report.total
    passed(
        1,
        f"16 jobs on 16 workers finish in {report.total:.2f} s "
        f"(= longest job; unchanged with a 17th job; {wall:.3f} s wall clock)",
    )


def test_criterion_02_device_speedup_ratios():
    gcc = device_percent("gcc-6.4.0-r1", "Raspberry Pi 2", "c5.9xlarge")
    ncurses = device_percent("ncurses-6.1-r2", "Raspberry Pi 2", "c5.9xlarge")
    assert gcc == pytest.approx(5.05, abs=0.1)
    assert ncurses == pytest.approx(7.87, abs=0.1)
    passed(
        2,
        f"largest instance needs {gcc:.2f}% of the single-board "
        f"gcc time and {ncurses:.2f}% for ncurses",
    )


def test_criterion_03_queue_semantics_exact_timeline():
    body = "sys-libs/ncurses-6.1-r2[]"
    # 15 s invisibility
    q = CompileQueue()
    q.send(body, now=0.0)
    first, _ = q.receive(now=0.0)
    assert first.receive_count == 1
    assert q.receive(now=10.0) is None
    assert q.receive(now=14.5) is None
    again, _ = q.receive(now=15.0)
    assert again.id == first.id and again.receive_count == 2
    # renewal at 10 s extends to now + 15
    q = CompileQueue()
    q.send(body, now=0.0)
    _, handle = q.receive(now=0.0)
    assert q.renew(handle, now=10.0) is True
    assert q.receive(now=24.0) is None
    redelivered, _ = q.receive(now=25.0)
    assert redelivered.receive_count == 2
    # redelivery of undeleted messages, then dead-letter on 4th eligibility
    q = CompileQueue()
    q.send(body, now=0.0)
    for expected_count, t in ((1, 0.0), (2, 15.0), (3, 30.0)):
        message, _ = q.receive(now=t)
        assert message.receive_count == expected_count
    assert q.receive(now=45.0) is None
    dead = q.dead_letters()
    assert len(dead) == 1
    assert dead[0].receive_count == MAX_DELIVERIES == 3
    assert q.depth() == 0
    passed(3, "visibility, renewal and dead-letter timestamps are exact")


def run_fault_schedule(seed: int) -> dict:
    """One randomized schedule of crashes, interruptions and resumes.

    Durations reach past the 120 s notice so interruptions genuinely
    hibernate; at most two crashes per schedule, so no message can burn
    all its deliveries without someone (a resumed worker if need be)
    finishing the build. Worker 0 is never targeted: at least one worker
    survives every schedule.
    """
    rng = random.Random(seed)
    keys = [
        BuildKey.parse(f"cat/p{i}-1.0[]") for i in range(rng.randint(1, 3))
    ]
    profiles = {
        key.canonical(): JobProfile(duration=rng.uniform(60.0, 500.0))
        for key in keys
    }
    farm = BuildFarm(
        clock=VirtualClock(),
        executor_table=ExecutorTable(profiles),
        num_workers=rng.randint(2, 4),
    )
    put_keys = set()  # the key of every artifact the workers put
    put = farm.artifacts.put

    def spy_put(key, data):
        put_keys.add(key)
        put(key, data)

    farm.artifacts.put = spy_put
    for key in keys:
        farm.service.handle_request(key)
    protected = farm.workers[0]
    crashes_left = 2
    resume_at: dict[int, float] = {}
    stats = {"crashes": 0, "hibernations": 0, "duplicates": 0}
    cap = 50000.0
    while farm.records.pending_keys():
        now = farm.clock.now()
        assert now <= cap, "schedule did not converge"
        for i, worker in enumerate(farm.workers):
            if worker.mode is WorkerMode.HIBERNATED and i not in resume_at:
                resume_at[i] = now + rng.uniform(20.0, 400.0)
                stats["hibernations"] += 1
        for i in [i for i, at in resume_at.items() if at <= now]:
            farm.workers[i].resume(now)
            del resume_at[i]
        t = farm.next_event_time()
        pending_resume = min(resume_at.values()) if resume_at else None
        if t is None and pending_resume is None:
            break
        if t is None or (pending_resume is not None and pending_resume < t):
            farm.clock.set_time(pending_resume)
            continue
        farm.advance_to(t)
        # fault injection against anyone but the protected worker
        if rng.random() < 0.2:
            building = [
                w for w in farm.workers[1:] if w.mode is WorkerMode.BUILDING
            ]
            idle = [w for w in farm.workers[1:] if w.mode is WorkerMode.IDLE]
            victims = building or idle
            if victims:
                victim = rng.choice(victims)
                if crashes_left > 0 and rng.random() < 0.4:
                    victim.crash()
                    crashes_left -= 1
                    stats["crashes"] += 1
                else:
                    victim.interrupt(farm.clock.now(), notice=120.0)
    assert protected.mode is not WorkerMode.STOPPED
    assert farm.records.pending_keys() == []
    records = farm.records.all_records()
    assert len(records) == len(keys)
    for record in records:
        assert record.status == BUILT  # deterministic-success executor
    for key in keys:
        stored = farm.artifacts.get(key)
        assert stored == build_artifact_tar(key)
    assert put_keys == set(keys)
    dead = farm.queue.dead_letters()
    for message in dead:
        assert message.receive_count == 3
    builds = sum(len(w.history) for w in farm.workers)
    stats["duplicates"] = builds - len(keys)
    stats["builds"] = builds
    stats["dead_letters"] = len(dead)
    return stats


def test_criterion_04_exactly_once_under_faults():
    totals = {
        "builds": 0,
        "dead_letters": 0,
        "crashes": 0,
        "hibernations": 0,
        "duplicates": 0,
    }
    for seed in range(1000):
        for name, value in run_fault_schedule(seed).items():
            totals[name] += value
    # the schedules must actually exercise the fault paths
    assert totals["crashes"] > 100
    assert totals["hibernations"] > 100
    assert totals["duplicates"] > 0
    passed(
        4,
        "1000 fault schedules: every key exactly one terminal record and "
        "artifact ({builds} builds, {crashes} crashes, {hibernations} "
        "hibernations, {duplicates} duplicate builds discarded or ignored, "
        "{dead_letters} dead-letters)".format(**totals),
    )


def test_criterion_05_dependency_evaluation_oracle():
    rng = random.Random(505)
    checked = 0
    for _ in range(500):
        tree = random_tree(rng)
        flag_count = rng.randint(0, 6)
        for enabled in all_subsets(FLAG_POOL[:flag_count]):
            assert eval_use_conditionals(tree, enabled) == oracle_flatten(
                tree, enabled
            )
            checked += 1
    passed(
        5,
        f"500 random trees agree with the path-condition oracle on "
        f"{checked} flag subsets",
    )


def test_criterion_06_version_ordering():
    from test_core import random_version

    rng = random.Random(606)
    for _ in range(10000):
        a, b, c = (random_version(rng) for _ in range(3))
        ab, ba, bc, ac = (
            compare_versions(a, b),
            compare_versions(b, a),
            compare_versions(b, c),
            compare_versions(a, c),
        )
        assert ab == -ba  # antisymmetry + totality
        if ab == 0:
            assert a == b
        if ab <= 0 and bc <= 0:
            assert ac <= 0  # transitivity
    chain = ["5.9-r101", "6.0-r1", "6.0-r2", "6.1-r2"]
    for earlier, later in zip(chain, chain[1:]):
        assert compare_versions(parse_version(earlier), parse_version(later)) < 0
    available = {parse_version(v) for v in chain}
    atom = DependencyAtom(
        Specifier.GE, PackageId.parse("sys-libs/ncurses"), parse_version("6.0-r2")
    )
    assert select_best_version(atom, available) == parse_version("6.1-r2")
    passed(6, "10000 random triples satisfy the total order; version listing "
              "orders and selects as published")


def test_criterion_07_end_to_end_cli_scenario(make_env):
    env = make_env()
    # update
    report = env.client.update()
    assert report.packages_added == 4
    baseline_db = tree_files(env.client.db.root)
    baseline_image = tree_files(env.config.install_root)
    # search: shape matches the published output format
    text = format_search_results("ncurses", env.client.search("ncurses"))
    assert text.splitlines()[0] == "Results for search key: ncurses"
    assert (
        text.splitlines()[1] == "sys-libs/ncurses ( 5.9-r101 6.0-r1 6.0-r2 6.1-r2 )"
    )
    assert text.splitlines()[2] == "  console display library"
    # install a 3-package closure
    plan = env.client.install([parse_atom("app-editors/vim")])
    names = [p.render() for p, _ in plan.steps]
    assert names == ["sys-libs/ncurses", "app-editors/vim-core", "app-editors/vim"]
    first_download = [kind for kind, _ in env.events].index("download")
    requested_before = {
        detail
        for kind, detail in env.events[:first_download]
        if kind == "request"
    }
    assert set(names) <= {f"{p}" for p in requested_before}
    # the installed marker appears once installed
    text = format_search_results("ncurses", env.client.search("ncurses"))
    assert "[installed: 6.1-r2]" in text.splitlines()[1]
    # reinstall: all archives cached, zero wire traffic
    env.events.clear()
    env.client.install([parse_atom("app-editors/vim")])
    assert env.events == []
    # remove with orphan cleanup restores both trees byte-identically
    removed = env.client.remove([PackageId.parse("app-editors/vim")])
    assert [p.render() for p in removed] == [
        "app-editors/vim",
        "app-editors/vim-core",
        "sys-libs/ncurses",
    ]
    assert tree_files(env.client.db.root) == baseline_db
    assert tree_files(env.config.install_root) == baseline_image
    passed(
        7,
        "update, search, 3-package install (requests before downloads, "
        "topological order), cached reinstall, removal restores state",
    )


def test_criterion_08_failure_propagation(make_env):
    error_text = "configure: error: no acceptable C compiler found"
    env = make_env(
        profiles={"sys-libs/ncurses-6.1-r2[]": JobProfile(8.0, error=error_text)},
    )
    key = BuildKey.parse("sys-libs/ncurses-6.1-r2[]")
    # the original request polls through to the failure
    with pytest.raises(BuildFailed) as exc_info:
        await_package(env.transport, key, env.clock, poll_interval=10.0)
    assert exc_info.value.error == error_text
    # a later request for the same key gets the stored error immediately
    response = request_package(env.transport, key)
    assert response.status == "failed"
    assert response.error == error_text
    assert env.farm.executor_factory.created == 1  # no second attempt
    assert env.farm.queue.depth() == 0
    passed(8, "failed build serves its verbatim error to the original and "
              "later requests with a single compilation attempt")


def test_criterion_09_command_generation():
    no_flags = BuildKey(
        PackageId.parse("sys-libs/ncurses"), parse_version("6.1-r2"), UseFlagSet()
    )
    one_flag = BuildKey(
        PackageId.parse("x11-terms/rxvt-unicode"),
        parse_version("9.22"),
        UseFlagSet.of(["mousewheel"]),
    )
    two_unsorted = BuildKey(
        PackageId.parse("app-editors/vim"),
        parse_version("8.1"),
        UseFlagSet.of(["python", "acl"]),
    )
    assert generate_emerge_commands(no_flags) == (
        'env USE="" emerge --onlydeps --onlydeps-with-rdeps n '
        "=sys-libs/ncurses-6.1-r2 && emerge --buildpkgonly =sys-libs/ncurses-6.1-r2"
    )
    assert generate_emerge_commands(one_flag) == (
        'env USE="mousewheel" emerge --onlydeps --onlydeps-with-rdeps n '
        "=x11-terms/rxvt-unicode-9.22 && emerge --buildpkgonly "
        "=x11-terms/rxvt-unicode-9.22"
    )
    assert generate_emerge_commands(two_unsorted) == (
        'env USE="acl python" emerge --onlydeps --onlydeps-with-rdeps n '
        "=app-editors/vim-8.1 && emerge --buildpkgonly =app-editors/vim-8.1"
    )
    passed(9, "compile commands are byte-identical to the two-stage template")


def test_criterion_10_storage_cost_arithmetic():
    assert estimate_storage_cost(20000, 2, 1.0) == pytest.approx(39.06, abs=0.01)
    base = estimate_storage_cost(20000, 2, 1.0)
    assert estimate_storage_cost(40000, 2, 1.0) == pytest.approx(2 * base)
    assert estimate_storage_cost(20000, 4, 1.0) == pytest.approx(2 * base)
    assert estimate_storage_cost(20000, 2, 2.0) == pytest.approx(2 * base)
    assert estimate_storage_cost(0, 2, 1.0) == 0.0
    passed(10, "20000 x 2 MB at 1 $/GB-month costs 39.06 $ and scales linearly")
