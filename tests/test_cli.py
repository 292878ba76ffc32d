import importlib
import json
from pathlib import Path

import pytest

from conftest import build_sample_metadata
from pacloud.cli import Command, cli_parse, main
from pacloud.errors import UsageError
from pacloud.farm import BuildFarm, JobProfile, ExecutorTable, WallClock
from pacloud.localdb import write_store


class TestCliParse:
    def test_short_and_long_equivalent(self):
        assert cli_parse(["--search", "foo"]) == cli_parse(["-s", "foo"])
        assert cli_parse(["-s", "foo"]) == Command("search", ("foo",), None)

    def test_install_collects_operands(self):
        command = cli_parse(["-i", "app-editors/vim", "sys-libs/ncurses"])
        assert command.verb == "install"
        assert command.arguments == ("app-editors/vim", "sys-libs/ncurses")

    def test_remove_and_update(self):
        assert cli_parse(["--remove", "a/b"]).verb == "remove"
        assert cli_parse(["-u"]).verb == "update"
        assert cli_parse(["--update"]).verb == "update"

    def test_upgrade_operands_optional(self):
        assert cli_parse(["-U"]) == Command("upgrade", (), None)
        assert cli_parse(["--upgrade", "a/b"]).arguments == ("a/b",)

    def test_help(self):
        assert cli_parse(["-h"]).verb == "help"

    def test_two_verbs_rejected(self):
        with pytest.raises(UsageError):
            cli_parse(["-s", "a", "-i", "b"])

    def test_no_verb_rejected(self):
        with pytest.raises(UsageError):
            cli_parse([])

    def test_missing_operand_rejected(self):
        with pytest.raises(UsageError):
            cli_parse(["-s"])
        with pytest.raises(UsageError):
            cli_parse(["--install"])

    def test_config_flag(self):
        command = cli_parse(["--config", "/tmp/x.conf", "-u"])
        assert command.config_path == "/tmp/x.conf"


class TestMainExitCodes:
    def test_usage_error_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_help_exits_0(self, capsys):
        assert main(["-h"]) == 0
        out = capsys.readouterr().out
        assert "--search" in out and "--upgrade" in out

    def test_operational_failure_exits_1(self, tmp_path, capsys):
        config = tmp_path / "pacloud.conf"
        config.write_text(
            f"[local]\ndb_path = {tmp_path}/db\n"
            f"log_path = {tmp_path}/log\n"
            f"install_root = {tmp_path}/image\n",
            encoding="utf-8",
        )
        # update without a store url is an operational failure
        assert main(["--config", str(config), "-u"]) == 1
        assert "pacloud:" in capsys.readouterr().err


def console_scripts():
    """The ``[project.scripts]`` table of pyproject.toml, one
    ``name = "module:function"`` a line, read without tomllib, which
    Python 3.10 lacks."""
    lines = (Path(__file__).parents[1] / "pyproject.toml").read_text(
        encoding="utf-8"
    ).splitlines()
    scripts = {}
    for line in lines[lines.index("[project.scripts]") + 1:]:
        if line.startswith("["):
            break
        if line.strip():
            name, _, target = line.partition("=")
            scripts[name.strip()] = json.loads(target)
    return scripts


def test_each_console_script_is_a_main_returning_the_exit_status(capsys):
    # The generated script runs sys.exit(main()).
    scripts = console_scripts()
    assert scripts == {
        "pacloud": "pacloud.cli:main", "pacloud-bench": "pacloud.bench:main"
    }
    for target in scripts.values():
        module, _, function = target.partition(":")
        assert getattr(importlib.import_module(module), function)([]) == 2
    assert "exactly one of" in capsys.readouterr().err


@pytest.fixture
def cli_world(tmp_path):
    """A farm in service mode plus a config pointing at its endpoint."""
    farm_root = tmp_path / "farm"
    write_store(farm_root, build_sample_metadata())
    farm = BuildFarm(
        clock=WallClock(),
        root=farm_root,
        executor_table=ExecutorTable(default=JobProfile(duration=0.05)),
        num_workers=2,
    )
    server = farm.start_service()
    (tmp_path / "image").mkdir()
    config = tmp_path / "pacloud.conf"
    config.write_text(
        f"""\
[local]
db_path = {tmp_path}/db
log_path = {tmp_path}/pacloud.log
install_root = {tmp_path}/image

[server]
api_url = {server.address}
store_url = {farm_root}

[client]
poll_interval = 0.05
timeout = 30
""",
        encoding="utf-8",
    )
    yield config, farm, server
    farm.close()


class TestMainAgainstSocketFarm:
    def test_update_search_install_remove(self, cli_world, capsys):
        config, farm, _ = cli_world
        assert main(["--config", str(config), "--update"]) == 0
        assert "packages added: 4" in capsys.readouterr().out

        assert main(["--config", str(config), "--search", "ncurses"]) == 0
        out = capsys.readouterr().out
        assert "Results for search key: ncurses" in out
        assert "sys-libs/ncurses ( 5.9-r101 6.0-r1 6.0-r2 6.1-r2 )" in out

        assert main(["--config", str(config), "-i", "sys-libs/ncurses"]) == 0
        assert "installed sys-libs/ncurses-6.1-r2" in capsys.readouterr().out

        assert main(["--config", str(config), "-U"]) == 0
        assert "nothing to upgrade" in capsys.readouterr().out

        assert main(["--config", str(config), "-r", "sys-libs/ncurses"]) == 0
        assert "removed sys-libs/ncurses" in capsys.readouterr().out

    def test_update_skips_a_deeply_nested_category(self, cli_world, capsys):
        config, _, _ = cli_world
        store = config.parent / "farm"
        (store / "sys-libs.json").write_text("[" * 100_000, encoding="utf-8")
        assert main(["--config", str(config), "-u"]) == 0
        out = capsys.readouterr().out
        assert "categories: 2" in out
        assert "skipped sys-libs: category sys-libs: invalid JSON" in out

    def test_update_skips_a_category_whose_dependencies_are_a_string(
        self, cli_world, capsys
    ):
        config, _, _ = cli_world
        path = config.parent / "farm" / "app-editors.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["vim"]["versions"]["8.1"]["dependencies"] = "sys-libs/ncurses"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--config", str(config), "-u"]) == 0
        out = capsys.readouterr().out
        assert "categories: 2" in out
        assert "skipped app-editors: bad metadata document: dependencies" in out

    def test_update_skips_a_category_with_a_version_too_long_to_read(
        self, cli_world, capsys
    ):
        config, _, _ = cli_world
        store = config.parent / "farm"
        with open(store / "manifest.txt", "a", encoding="utf-8") as manifest:
            manifest.write("cat\n")
        (store / "cat.json").write_text(json.dumps({"p": {
            "name": "cat/p", "description": "p",
            "versions": {"1" + "0" * 5000: {"dependencies": []}},
        }}), encoding="utf-8")
        assert main(["--config", str(config), "-u"]) == 0
        captured = capsys.readouterr()
        assert "categories: 3" in captured.out
        assert "skipped cat: bad metadata document: not a valid version" in (
            captured.out
        )
        assert "Traceback" not in captured.err

    def test_a_version_spelled_with_r0_syncs_searches_and_installs(
        self, cli_world, capsys
    ):
        # The store's one spelling of cat/p's version is not the canonical
        # one: every reader keys it by the version it spells.
        config, farm, _ = cli_world
        store = config.parent / "farm"
        with open(store / "manifest.txt", "a", encoding="utf-8") as manifest:
            manifest.write("cat\n")
        (store / "cat.json").write_text(json.dumps({"p": {
            "name": "cat/p", "description": "p",
            "versions": {"1.0-r0": {"dependencies": []}},
        }}), encoding="utf-8")
        assert main(["--config", str(config), "-u"]) == 0
        assert "packages added: 5" in capsys.readouterr().out
        assert main(["--config", str(config), "-s", "cat/p"]) == 0
        assert "cat/p ( 1.0 )" in capsys.readouterr().out
        assert main(["--config", str(config), "-i", "cat/p"]) == 0
        captured = capsys.readouterr()
        assert "installed cat/p-1.0" in captured.out
        assert "Traceback" not in captured.err
        [record] = farm.records.all_records()
        assert record.key == "cat/p-1.0[]"
        local = config.parent / "db" / "local" / "cat" / "p" / "metadata.json"
        assert json.loads(local.read_bytes())["installed"] == "1.0"
