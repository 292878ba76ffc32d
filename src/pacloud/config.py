"""Client configuration: an INI file with local, server, user and client
sections.

The file is read-only to the program. Unknown sections and keys are
ignored with a logged warning so configs can carry site-specific extras.
The default location is /etc/pacloud/pacloud.conf, overridable with
``--config PATH`` or the PACLOUD_CONFIG environment variable; a missing
file yields all defaults.
"""
from __future__ import annotations

import configparser
import logging
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .core import UseFlagSet
from .errors import MalformedConfigLine, MalformedConfigValue

logger = logging.getLogger("pacloud.config")

DEFAULT_CONFIG_PATH = "/etc/pacloud/pacloud.conf"
CONFIG_ENV_VAR = "PACLOUD_CONFIG"
DEFAULT_POLL_INTERVAL = 10.0
DEFAULT_TIMEOUT = 7200.0


@dataclass
class Config:
    db_path: Path = Path("/var/lib/pacloud/db")
    log_path: Path = Path("/var/lib/pacloud/pacloud.log")
    install_root: Path = Path("/")
    api_url: str | None = None
    store_url: str | None = None
    use_flags: UseFlagSet = field(default_factory=UseFlagSet)
    arch: str = ""
    cflags: str = ""
    poll_interval: float = DEFAULT_POLL_INTERVAL
    timeout: float = DEFAULT_TIMEOUT

    def validate(self) -> None:
        for key in ("poll_interval", "timeout"):
            if not math.isfinite(getattr(self, key)):
                raise MalformedConfigValue(f"client.{key} must be a finite number")
        if self.poll_interval <= 0:
            raise MalformedConfigValue("client.poll_interval must be positive")
        if self.timeout < self.poll_interval:
            raise MalformedConfigValue(
                "client.timeout must be at least client.poll_interval"
            )
        if not self.db_path.is_absolute():
            raise MalformedConfigValue("local.db_path must be absolute")
        if not self.install_root.is_absolute():
            raise MalformedConfigValue("local.install_root must be absolute")


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _url(value: str) -> str | None:
    return value or None


# (section, key) -> converter of the unquoted value; each key names the
# Config field it sets.
_KEYS = {
    ("local", "db_path"): Path,
    ("local", "log_path"): Path,
    ("local", "install_root"): Path,
    ("server", "api_url"): _url,
    ("server", "store_url"): _url,
    ("user", "use_flags"): UseFlagSet.parse,
    ("user", "arch"): str,
    ("user", "cflags"): str,
    ("client", "poll_interval"): float,
    ("client", "timeout"): float,
}


def load_config(path: str | Path | None = None) -> Config:
    """Load the configuration, falling back to defaults for a missing file."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR, DEFAULT_CONFIG_PATH)
    path = Path(path)
    config = Config()
    if path.is_file():
        _apply_file(config, path)
    config.validate()
    return config


def _apply_file(config: Config, path: Path) -> None:
    parser = configparser.RawConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.MissingSectionHeaderError as exc:
        raise MalformedConfigLine(exc.message.splitlines()[0], exc.lineno) from exc
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if exc.errors else None
        raise MalformedConfigLine("cannot parse configuration", lineno) from exc
    except configparser.DuplicateOptionError as exc:
        raise MalformedConfigLine(str(exc), exc.lineno) from exc
    except configparser.DuplicateSectionError as exc:
        raise MalformedConfigLine(str(exc), exc.lineno) from exc
    for section in parser.sections():
        for key, raw in parser.items(section):
            convert = _KEYS.get((section, key))
            if convert is None:
                logger.warning(
                    "%s: ignoring unknown key %s.%s", path, section, key
                )
                continue
            value = _unquote(raw)
            try:
                setattr(config, key, convert(value))
            except ValueError as exc:  # only float can fail
                raise MalformedConfigValue(
                    f"{section}.{key} is not a number: {value!r}"
                ) from exc
