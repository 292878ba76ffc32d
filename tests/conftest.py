from pathlib import Path

import pytest

from pacloud.client import Client, InProcessTransport
from pacloud.config import Config
from pacloud.core import BuildKey, PackageId, parse_version
from pacloud.depparse import metadata_from_ebuilds, parse_ebuild
from pacloud.farm import BuildFarm, ExecutorTable, JobProfile, VirtualClock
from pacloud.localdb import DirectoryStore, LocalDb, write_store


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


NCURSES_VERSIONS = ["5.9-r101", "6.0-r1", "6.0-r2", "6.1-r2"]

NCURSES_EBUILD = """\
EAPI=6
inherit multilib toolchain-funcs

DESCRIPTION="console display library"
RDEPEND=""
DEPEND="${RDEPEND}"
"""

VIM_EBUILD = """\
EAPI=6
# vim and friends
inherit eutils

DESCRIPTION="Vim, an improved vi-style text editor"
CORE_DEPEND=">=sys-libs/ncurses-6.0 app-editors/vim-core"
RDEPEND="${CORE_DEPEND} acl? ( sys-apps/acl )"
DEPEND="${RDEPEND}"
"""

VIM_CORE_EBUILD = """\
EAPI=6
DESCRIPTION="vim and gvim shared files"
RDEPEND=">=sys-libs/ncurses-6.0"
"""

ACL_EBUILD = """\
EAPI=6
DESCRIPTION="access control list utilities"
RDEPEND=""
"""


def build_sample_metadata():
    """The small package universe used by sync/resolve/E2E tests."""
    metas = []
    ncurses = PackageId.parse("sys-libs/ncurses")
    entries = [
        (parse_version(v), parse_ebuild(NCURSES_EBUILD, "ncurses", v))
        for v in NCURSES_VERSIONS
    ]
    metas.append(metadata_from_ebuilds(ncurses, entries))
    vim = PackageId.parse("app-editors/vim")
    metas.append(
        metadata_from_ebuilds(
            vim, [(parse_version("8.1"), parse_ebuild(VIM_EBUILD, "vim", "8.1"))]
        )
    )
    vim_core = PackageId.parse("app-editors/vim-core")
    metas.append(
        metadata_from_ebuilds(
            vim_core,
            [(parse_version("8.1"), parse_ebuild(VIM_CORE_EBUILD, "vim-core", "8.1"))],
        )
    )
    acl = PackageId.parse("sys-apps/acl")
    metas.append(
        metadata_from_ebuilds(
            acl,
            [(parse_version("2.2.53"), parse_ebuild(ACL_EBUILD, "acl", "2.2.53"))],
        )
    )
    return metas


def requirers(db, package):
    """The installed packages whose ``depends`` name ``package``, in
    canonical string order: its requirers, as the database derives them."""
    return [
        name
        for name, meta in db.installed_packages().items()
        if package in (meta.depends or [])
    ]


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
    drive the farm forward, so whole scenarios run deterministically with
    no real waiting. Wire requests and artifact downloads are logged into
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
        self.clock = VirtualClock(on_sleep=self._run_farm_to)
        self.farm = BuildFarm(
            clock=self.clock,
            root=self.farm_root,
            executor_table=ExecutorTable(profiles or {}, default=default_profile),
            num_workers=num_workers,
        )
        self.events = []
        self.transport = SpyTransport(
            InProcessTransport(self.farm.service), self.events
        )
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

    def _run_farm_to(self, target):
        self.farm.advance_to(target)

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
