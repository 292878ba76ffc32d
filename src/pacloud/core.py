"""Value types shared by the client and the build farm.

Packages are identified as ``category/name``. A version is a dot-joined
run of integers with an optional single trailing letter and an optional
``-rN`` revision. A binary is unique per (package, version, USE-flag set);
that triple is a BuildKey. Queue bodies carry the BuildKey itself; its
canonical string is its one text form, in wire requests, the farm's
record journal and (percent-encoded) file names.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, total_ordering
from typing import Iterable, Iterator
from urllib.parse import quote, unquote

from .errors import (
    MalformedAtom,
    MalformedBuildKey,
    MalformedPackageId,
    MalformedUseFlag,
    MalformedVersion,
)

_CATEGORY_RE = re.compile(r"[a-z0-9+_.-]+\Z")
_NAME_RE = re.compile(r"[A-Za-z0-9+_.-]+\Z")
_FLAG_RE = re.compile(r"[A-Za-z0-9_@-]+\Z")
_DOT_SEGMENTS = (".", "..")
_VERSION_RE = re.compile(r"([0-9]+(?:\.[0-9]+)*)([a-z])?(?:-r([0-9]+))?\Z")


def is_category(text: str) -> bool:
    """Whether ``text`` is a valid category name, usable as a directory name."""
    # "." and ".." match the pattern but would point outside the tree.
    return bool(_CATEGORY_RE.match(text)) and text not in _DOT_SEGMENTS


@dataclass(frozen=True)
class PackageId:
    """A package name qualified by its category, e.g. ``sys-libs/ncurses``."""

    category: str
    name: str

    def __post_init__(self):
        if not is_category(self.category):
            raise MalformedPackageId(f"bad category: {self.category!r}")
        if not self.name or not _NAME_RE.match(self.name):
            raise MalformedPackageId(f"bad package name: {self.name!r}")
        # "." and ".." match the pattern but, used as a directory name,
        # would point outside the category/name tree.
        if self.name in _DOT_SEGMENTS:
            raise MalformedPackageId(f"dot segment in {self.category}/{self.name}")

    @classmethod
    def parse(cls, text: str) -> "PackageId":
        category, sep, name = text.partition("/")
        if not sep or "/" in name:
            raise MalformedPackageId(f"expected category/name, got {text!r}")
        return cls(category, name)

    def render(self) -> str:
        return f"{self.category}/{self.name}"

    def __str__(self) -> str:
        return self.render()

    def __lt__(self, other: "PackageId") -> bool:
        return self.render() < other.render()


@total_ordering
@dataclass(frozen=True)
class Version:
    """A package version with a total order.

    Ordering is componentwise numeric, then by letter (absent sorts below
    'a'), then by revision. Revision 0 means "no revision" and renders
    without the ``-rN`` suffix.
    """

    components: tuple[int, ...]
    letter: str | None = None
    revision: int = 0

    def __post_init__(self):
        if not self.components or any(c < 0 for c in self.components):
            raise MalformedVersion(f"bad components: {self.components!r}")
        if self.letter is not None and not re.match(r"[a-z]\Z", self.letter):
            raise MalformedVersion(f"bad letter: {self.letter!r}")
        if self.revision < 0:
            raise MalformedVersion(f"bad revision: {self.revision!r}")

    def sort_key(self) -> tuple:
        return (self.components, self.letter or "", self.revision)

    def render(self) -> str:
        text = ".".join(str(c) for c in self.components)
        if self.letter:
            text += self.letter
        if self.revision > 0:
            text += f"-r{self.revision}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __lt__(self, other: "Version") -> bool:
        return self.sort_key() < other.sort_key()


def parse_version(text: str) -> Version:
    """Parse a version string, normalizing leading zeros and ``-r0``.

    Raises MalformedVersion for anything outside the grammar: empty input,
    a leading non-digit, a digit outside ASCII, suffixes such as
    ``_alpha``, more than one letter, a broken revision, or a number too
    long for ``int`` to convert.
    """
    if not text:
        raise MalformedVersion("empty version string")
    m = _VERSION_RE.fullmatch(text)
    if not m:
        raise MalformedVersion(f"not a valid version: {text!r:.60}")
    try:
        components = tuple(int(c) for c in m.group(1).split("."))
        revision = int(m.group(3) or 0)
    except ValueError as exc:  # a number past int's limit on digits
        raise MalformedVersion(f"not a valid version: {text!r:.60}") from exc
    return Version(components, m.group(2), revision)


def compare_versions(a: Version, b: Version) -> int:
    """Three-way comparison: negative if a < b, zero if equal, positive if a > b."""
    ka, kb = a.sort_key(), b.sort_key()
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


@dataclass(frozen=True)
class UseFlagSet:
    """An immutable set of USE flags with a canonical sorted rendering."""

    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "flags", frozenset(self.flags))
        for flag in self.flags:
            if not flag or not _FLAG_RE.match(flag):
                raise MalformedUseFlag(f"bad USE flag: {flag!r}")

    @classmethod
    def of(cls, flags: Iterable[str]) -> "UseFlagSet":
        return cls(frozenset(flags))

    @classmethod
    def parse(cls, text: str) -> "UseFlagSet":
        """Parse a comma- or whitespace-separated flag list."""
        parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
        return cls(frozenset(parts))

    def sorted_flags(self) -> tuple[str, ...]:
        return tuple(sorted(self.flags))

    def render(self) -> str:
        return ",".join(self.sorted_flags())

    def render_spaced(self) -> str:
        return " ".join(self.sorted_flags())

    def __contains__(self, flag: str) -> bool:
        return flag in self.flags

    def __iter__(self) -> Iterator[str]:
        return iter(self.sorted_flags())

    def __len__(self) -> int:
        return len(self.flags)

    def __bool__(self) -> bool:
        return bool(self.flags)


class Specifier(Enum):
    """Version relationship operators accepted in dependency atoms."""

    ANY = ""
    GE = ">="
    GT = ">"
    TILDE = "~"
    EQ = "="
    LE = "<="
    LT = "<"


# Longest operators first so ">=" is not tokenized as ">".
_SPECIFIERS_BY_LENGTH = (">=", "<=", ">", "<", "~", "=")


@dataclass(frozen=True)
class DependencyAtom:
    """A package constraint: an optional specifier plus an optional version."""

    specifier: Specifier
    package: PackageId
    version: Version | None = None

    def __post_init__(self):
        if (self.specifier is Specifier.ANY) != (self.version is None):
            raise MalformedAtom(
                f"specifier {self.specifier.value!r} and version "
                f"{self.version!r} do not agree"
            )

    def render(self) -> str:
        text = f"{self.specifier.value}{self.package}"
        if self.version is not None:
            text += f"-{self.version}"
        return text

    def __str__(self) -> str:
        return self.render()


def atom_matches(atom: DependencyAtom, candidate: Version) -> bool:
    """True when candidate satisfies the atom.

    ``~`` matches the same components and letter with any revision; ``=``
    requires exact equality including revision.
    """
    if atom.specifier is Specifier.ANY:
        return True
    assert atom.version is not None
    if atom.specifier is Specifier.TILDE:
        return (
            candidate.components == atom.version.components
            and candidate.letter == atom.version.letter
        )
    cmp = compare_versions(candidate, atom.version)
    if atom.specifier is Specifier.EQ:
        return cmp == 0
    if atom.specifier is Specifier.GE:
        return cmp >= 0
    if atom.specifier is Specifier.GT:
        return cmp > 0
    if atom.specifier is Specifier.LE:
        return cmp <= 0
    return cmp < 0


def select_best_version(
    atom: DependencyAtom, available: Iterable[Version]
) -> Version | None:
    """The highest available version satisfying the atom, or None."""
    matching = [v for v in available if atom_matches(atom, v)]
    if not matching:
        return None
    return max(matching, key=Version.sort_key)


def split_name_version(text: str) -> tuple[str, Version]:
    """Split ``name-version`` at the rightmost hyphen followed by a digit.

    Version errors propagate as MalformedVersion so callers can tell a bad
    version apart from a missing one.
    """
    for i in range(len(text) - 1, 0, -1):
        if text[i] == "-" and i + 1 < len(text) and text[i + 1].isdigit():
            return text[:i], parse_version(text[i + 1:])
    raise MalformedAtom(f"no version found in {text!r}")


@dataclass(frozen=True)
class BuildKey:
    """The unit of binary uniqueness: package, version and USE-flag set.

    The canonical string ``category/name-version[f1,f2]`` (flags sorted)
    identifies the binary everywhere: equal keys have equal canonical
    strings. Each key object renders it once and keeps it, outside the
    fields that equality, hashing and ``repr`` read.
    """

    package: PackageId
    version: Version
    useflags: UseFlagSet = UseFlagSet()

    def canonical(self) -> str:
        return self._canonical

    @cached_property
    def _canonical(self) -> str:
        return f"{self.package}-{self.version}[{self.useflags.render()}]"

    def __str__(self) -> str:
        return self.canonical()

    def path_token(self) -> str:
        """The canonical string as one file name: RFC 3986 percent-encoding
        that changes only ``/`` (to ``%2F``), so it can be inverted."""
        return quote(self.canonical(), safe="[],@+")

    @classmethod
    def from_path_token(cls, token: str) -> "BuildKey":
        """The inverse of ``path_token``; MalformedBuildKey for other names."""
        key = cls.parse(unquote(token))
        if key.path_token() != token:
            raise MalformedBuildKey(f"not a build key's file name: {token!r}")
        return key

    @classmethod
    def from_canonical(cls, text: str) -> "BuildKey":
        """The key whose canonical string is ``text``, else MalformedBuildKey."""
        key = cls.parse(text)
        if key.canonical() != text:
            raise MalformedBuildKey(f"not a canonical build key: {text!r}")
        return key

    @classmethod
    def parse(cls, text: str) -> "BuildKey":
        if not text.endswith("]") or "[" not in text:
            raise MalformedBuildKey(f"missing flag block in {text!r}")
        head, _, flag_part = text[:-1].rpartition("[")
        category, sep, name_version = head.partition("/")
        if not sep:
            raise MalformedBuildKey(f"missing category in {text!r}")
        try:
            flags = (
                UseFlagSet.of(flag_part.split(",")) if flag_part else UseFlagSet()
            )
            name, version = split_name_version(name_version)
            package = PackageId(category, name)
        except (
            MalformedAtom,
            MalformedVersion,
            MalformedPackageId,
            MalformedUseFlag,
        ) as exc:
            raise MalformedBuildKey(f"cannot parse {text!r}: {exc}") from exc
        return cls(package, version, flags)

