"""Command-line interface.

Verbs follow short/long POSIX/GNU pairs: -s/--search, -i/--install,
-r/--remove, -U/--upgrade, -u/--update, -h/--help. Exactly one verb per
invocation; usage problems exit 2, operational failures exit 1.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .client import Client, format_search_results
from .config import load_config
from .core import PackageId
from .depparse import parse_atom
from .errors import PacloudError, UsageError


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="pacloud",
        description="Cloud-build package manager client.",
        add_help=False,
    )
    parser.add_argument(
        "--config", metavar="PATH", help="configuration file to use"
    )
    verbs = parser.add_mutually_exclusive_group()
    verbs.add_argument(
        "-s", "--search", metavar="KEY", help="search packages by name"
    )
    verbs.add_argument(
        "-i", "--install", nargs="+", metavar="PKG",
        help="install packages with their runtime dependencies",
    )
    verbs.add_argument(
        "-r", "--remove", nargs="+", metavar="PKG",
        help="remove packages and their orphaned dependencies",
    )
    verbs.add_argument(
        "-U", "--upgrade", nargs="*", metavar="PKG",
        help="upgrade explicitly installed packages (or the named ones)",
    )
    verbs.add_argument(
        "-u", "--update", action="store_true",
        help="update the local database from the store",
    )
    verbs.add_argument(
        "-h", "--help", action="store_true", help="show this help"
    )
    return parser


@dataclass(frozen=True)
class Command:
    verb: str
    arguments: tuple[str, ...] = ()
    config_path: str | None = None


def cli_parse(argv: list[str]) -> Command:
    """Parse argv into exactly one verb; UsageError otherwise."""
    ns = build_parser().parse_args(list(argv))
    verbs: list[tuple[str, tuple[str, ...]]] = []
    if ns.search is not None:
        verbs.append(("search", (ns.search,)))
    if ns.install is not None:
        verbs.append(("install", tuple(ns.install)))
    if ns.remove is not None:
        verbs.append(("remove", tuple(ns.remove)))
    if ns.upgrade is not None:
        verbs.append(("upgrade", tuple(ns.upgrade)))
    if ns.update:
        verbs.append(("update", ()))
    if ns.help:
        verbs.append(("help", ()))
    if len(verbs) != 1:
        raise UsageError(
            "exactly one of -s, -i, -r, -U, -u or -h is required"
        )
    verb, arguments = verbs[0]
    return Command(verb, arguments, ns.config)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        command = cli_parse(args)
    except UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"pacloud: {exc}", file=sys.stderr)
        return 2
    if command.verb == "help":
        print(parser.format_help(), end="")
        return 0
    try:
        config = load_config(command.config_path)
        client = Client(config)
        if command.verb == "search":
            print(format_search_results(
                command.arguments[0], client.search(command.arguments[0])
            ))
        elif command.verb == "update":
            report = client.update()
            print(report.summary())
        elif command.verb == "install":
            atoms = [parse_atom(arg) for arg in command.arguments]
            plan = client.install(atoms)
            for pkg, version in plan.steps:
                print(f"installed {pkg}-{version}")
        elif command.verb == "remove":
            removed = client.remove(
                [PackageId.parse(arg) for arg in command.arguments]
            )
            for pkg in removed:
                print(f"removed {pkg}")
        elif command.verb == "upgrade":
            targets = [PackageId.parse(arg) for arg in command.arguments]
            performed = client.upgrade(targets or None)
            if not performed:
                print("nothing to upgrade")
            for pkg, old, new in performed:
                print(f"upgraded {pkg}: {old} -> {new}")
    except PacloudError as exc:
        print(f"pacloud: {exc}", file=sys.stderr)
        return 1
    return 0

