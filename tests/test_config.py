import logging

import pytest

from pacloud.config import CONFIG_ENV_VAR, Config, load_config
from pacloud.core import UseFlagSet
from pacloud.errors import MalformedConfigLine, MalformedConfigValue


def write(tmp_path, text):
    path = tmp_path / "pacloud.conf"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_missing_file_gives_defaults(self, tmp_path):
        config = load_config(tmp_path / "nope.conf")
        assert str(config.db_path) == "/var/lib/pacloud/db"
        assert str(config.log_path) == "/var/lib/pacloud/pacloud.log"
        assert str(config.install_root) == "/"
        assert config.api_url is None
        assert config.poll_interval == 10.0
        assert config.timeout == 7200.0

    def test_empty_file_gives_defaults(self, tmp_path):
        config = load_config(write(tmp_path, ""))
        assert str(config.db_path) == "/var/lib/pacloud/db"

    def test_env_var_selects_path(self, tmp_path, monkeypatch):
        path = write(tmp_path, "[client]\npoll_interval = 3\ntimeout = 60\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config().poll_interval == 3.0


class TestParsing:
    def test_sections_and_values(self, tmp_path):
        text = """\
[local]
db_path = /tmp/dbx
log_path = /tmp/log
install_root = /tmp/image

[server]
api_url = tcp://127.0.0.1:9000
store_url = file:///tmp/store

[user]
use_flags = mousewheel unicode
arch = amd64
cflags = -O2 -pipe

[client]
poll_interval = 5
timeout = 600
"""
        config = load_config(write(tmp_path, text))
        assert str(config.db_path) == "/tmp/dbx"
        assert config.api_url == "tcp://127.0.0.1:9000"
        assert config.store_url == "file:///tmp/store"
        assert config.use_flags == UseFlagSet.of(["mousewheel", "unicode"])
        assert config.arch == "amd64"
        assert config.cflags == "-O2 -pipe"
        assert config.poll_interval == 5.0
        assert config.timeout == 600.0

    def test_quoted_flag_list(self, tmp_path):
        config = load_config(
            write(tmp_path, '[user]\nuse_flags = "mousewheel unicode"\n')
        )
        assert config.use_flags == UseFlagSet.of(["mousewheel", "unicode"])

    def test_unknown_key_warns_but_loads(self, tmp_path, caplog):
        text = "[user]\nshoe_size = 44\narch = arm\n"
        with caplog.at_level(logging.WARNING, logger="pacloud.config"):
            config = load_config(write(tmp_path, text))
        assert config.arch == "arm"
        assert any("shoe_size" in r.message for r in caplog.records)

    def test_known_key_under_another_section_warns_and_is_ignored(
        self, tmp_path, caplog
    ):
        text = "[server]\ndb_path = /x\n"
        with caplog.at_level(logging.WARNING, logger="pacloud.config"):
            config = load_config(write(tmp_path, text))
        assert config.db_path == Config().db_path
        assert any("server.db_path" in r.message for r in caplog.records)

    def test_line_without_equals_reports_line_number(self, tmp_path):
        text = "[local]\ndb_path = /x\nkey_without_equals\n"
        with pytest.raises(MalformedConfigLine) as exc_info:
            load_config(write(tmp_path, text))
        assert exc_info.value.line_number == 3
        assert str(exc_info.value).startswith("line 3: ")

    def test_value_before_section_rejected(self, tmp_path):
        with pytest.raises(MalformedConfigLine):
            load_config(write(tmp_path, "db_path = /x\n"))

    def test_non_numeric_interval(self, tmp_path):
        with pytest.raises(MalformedConfigValue):
            load_config(write(tmp_path, "[client]\npoll_interval = soon\n"))


class TestValidation:
    def test_poll_interval_positive(self, tmp_path):
        with pytest.raises(MalformedConfigValue):
            load_config(write(tmp_path, "[client]\npoll_interval = 0\n"))

    @pytest.mark.parametrize(
        "text",
        [
            "poll_interval = nan\n",
            "poll_interval = inf\ntimeout = inf\n",
            "timeout = nan\n",
            "timeout = inf\n",
        ],
    )
    def test_a_non_finite_interval_or_timeout_is_refused(self, tmp_path, text):
        with pytest.raises(MalformedConfigValue, match="must be a finite number"):
            load_config(write(tmp_path, "[client]\n" + text))

    def test_timeout_at_least_interval(self, tmp_path):
        with pytest.raises(MalformedConfigValue):
            load_config(
                write(tmp_path, "[client]\npoll_interval = 60\ntimeout = 30\n")
            )

    def test_relative_db_path_rejected(self, tmp_path):
        with pytest.raises(MalformedConfigValue):
            load_config(write(tmp_path, "[local]\ndb_path = relative/db\n"))

    def test_config_object_validate(self):
        config = Config()
        config.validate()
        config.poll_interval = -1
        with pytest.raises(MalformedConfigValue):
            config.validate()
