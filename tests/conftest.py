import threading
import time
from pathlib import Path

import pytest

from pacloud import localdb
from pacloud.client import Client
from pacloud.config import Config
from pacloud.core import BuildKey
from pacloud.farm import BuildFarm, ExecutorTable, JobProfile, VirtualClock
from pacloud.localdb import DirectoryStore, LocalDb, PackageMetadata, write_store


def pytest_collection_modifyitems(items):
    """Fail every test here that leaks a file or socket: an unclosed
    handle's ResourceWarning is raised where it is collected, which pytest
    then reports as an unraisable exception."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"
            ))


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail every test here that leaves a thread running, as a leaked file
    or socket fails it. A thread it started gets one second to end after
    it returns; threads of wider-scoped fixtures start before the test's
    own and are not counted."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    left = [t for t in threading.enumerate() if t not in before]
    for thread in left:
        thread.join(max(0.0, deadline - time.monotonic()))
    if running := [t.name for t in left if t.is_alive()]:
        pytest.fail(f"test left threads running: {running}")


NCURSES_VERSIONS = ["5.9-r101", "6.0-r1", "6.0-r2", "6.1-r2"]

# The store documents of the small package universe used by the sync,
# resolve and end-to-end tests.
SAMPLE_DOCUMENTS = [
    {
        "name": "sys-libs/ncurses",
        "description": "console display library",
        "versions": {v: {"dependencies": []} for v in NCURSES_VERSIONS},
    },
    {
        "name": "app-editors/vim",
        "description": "Vim, an improved vi-style text editor",
        "versions": {"8.1": {"dependencies": [
            ">=sys-libs/ncurses-6.0",
            "app-editors/vim-core",
            "acl? ( sys-apps/acl )",
        ]}},
    },
    {
        "name": "app-editors/vim-core",
        "description": "vim and gvim shared files",
        "versions": {"8.1": {"dependencies": [">=sys-libs/ncurses-6.0"]}},
    },
    {
        "name": "sys-apps/acl",
        "description": "access control list utilities",
        "versions": {"2.2.53": {"dependencies": []}},
    },
]


def build_sample_metadata():
    """The small package universe used by sync/resolve/E2E tests."""
    return [PackageMetadata.from_document(doc) for doc in SAMPLE_DOCUMENTS]


def requirers(db, package):
    """The installed packages whose ``depends`` name ``package``, in
    canonical string order: its requirers, as the database derives them."""
    return [
        name
        for name, meta in db.installed_packages().items()
        if package in (meta.depends or [])
    ]


def assert_frozen(value):
    """Assigning any field of ``value`` raises AttributeError and leaves
    ``value`` as it was."""
    before = repr(value)
    for name in type(value).__annotations__:
        with pytest.raises(AttributeError):
            setattr(value, name, object())
    assert repr(value) == before


def count_parses(monkeypatch):
    """The ``name`` of each document ``PackageMetadata`` parses, in order."""
    parses = []
    real = PackageMetadata.from_document.__func__

    def counting(cls, doc):
        parses.append(doc["name"])
        return real(cls, doc)

    monkeypatch.setattr(PackageMetadata, "from_document", classmethod(counting))
    return parses


def count_files_read(monkeypatch, db):
    """Each file ``db`` reads, as a path under its root, in order."""
    reads = []
    real = localdb._read_file

    def counting(path):
        data = real(path)
        if data is not None:
            reads.append(path.relative_to(db.root).as_posix())
        return data

    monkeypatch.setattr(localdb, "_read_file", counting)
    return reads


@pytest.fixture
def store_dir(tmp_path):
    root = tmp_path / "store"
    write_store(root, build_sample_metadata())
    return root


@pytest.fixture
def db(tmp_path):
    return LocalDb(tmp_path / "db")


class SpyTransport:
    def __init__(self, inner, events):
        self.inner = inner
        self.events = events

    def exchange(self, request):
        for text in request["keys"]:
            key = BuildKey.from_canonical(text)
            self.events.append(("request", key.package.render()))
        return self.inner.exchange(request)

    def close(self):
        self.inner.close()


class SpyStore:
    def __init__(self, inner, events):
        self.inner = inner
        self.events = events

    def fetch_manifest(self):
        return self.inner.fetch_manifest()

    def fetch_category(self, category):
        return self.inner.fetch_category(category)

    def fetch_artifact(self, key):
        self.events.append(("download", key))
        return self.inner.fetch_artifact(key)


class ClientEnv:
    """A client wired to an in-process farm under one virtual clock.

    The farm root doubles as the package store; the client's poll sleeps
    move the clock, and each of its requests moves the farm to the
    request's arrival, so whole scenarios run deterministically with no
    real waiting. Wire requests and artifact downloads are logged into
    ``events`` in the order they happen.
    """

    def __init__(
        self,
        tmp_path,
        profiles=None,
        default_profile=JobProfile(duration=30.0),
        num_workers=4,
        metas=None,
        use_flags=None,
    ):
        self.farm_root = tmp_path / "farm"
        write_store(self.farm_root, metas or build_sample_metadata())
        self.clock = VirtualClock()
        self.farm = BuildFarm(
            clock=self.clock,
            root=self.farm_root,
            executor_table=ExecutorTable(profiles or {}, default=default_profile),
            num_workers=num_workers,
        )
        self.events = []
        self.transport = SpyTransport(self.farm.service, self.events)
        self.store = SpyStore(DirectoryStore(self.farm_root), self.events)
        self.config = Config(
            db_path=tmp_path / "db",
            log_path=tmp_path / "pacloud.log",
            install_root=tmp_path / "image",
        )
        if use_flags is not None:
            self.config.use_flags = use_flags
        self.config.install_root.mkdir(parents=True, exist_ok=True)
        self.client = Client(
            self.config,
            db=LocalDb(self.config.db_path),
            store=self.store,
            transport=self.transport,
            clock=self.clock,
        )

    def close(self):
        self.farm.close()

    def request_events(self):
        return [e for e in self.events if e[0] == "request"]

    def download_events(self):
        return [e for e in self.events if e[0] == "download"]


@pytest.fixture
def make_env(tmp_path):
    """Builds ``ClientEnv``s on ``tmp_path`` and closes their farms after
    the test."""
    envs = []

    def make(**kwargs):
        envs.append(ClientEnv(tmp_path, **kwargs))
        return envs[-1]

    yield make
    for made in envs:
        made.close()


@pytest.fixture
def env(make_env):
    return make_env()
