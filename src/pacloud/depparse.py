"""Dependency-string parsing.

Dependency strings are whitespace-separated tokens: atoms, ``flag? ( ... )``
conditional groups (negatable as ``!flag?``, nestable to any depth) and
bare ``( ... )`` groups. OR groups (``|| ( ... )``) are rejected outright
instead of being mis-read as atoms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import (
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    _FLAG_RE,
    _SPECIFIERS_BY_LENGTH,
    split_name_version,
)
from .errors import (
    DanglingConditional,
    MalformedAtom,
    MalformedPackageId,
    UnbalancedParenthesis,
    UnsupportedEbuildConstruct,
)


@dataclass(frozen=True)
class AtomNode:
    atom: DependencyAtom


@dataclass(frozen=True)
class CondNode:
    flag: str
    negated: bool
    children: tuple["DependencyExpr", ...]


@dataclass(frozen=True)
class GroupNode:
    children: tuple["DependencyExpr", ...] = ()


DependencyExpr = Union[AtomNode, CondNode, GroupNode]


def parse_atom(token: str) -> DependencyAtom:
    """Parse one dependency atom token.

    With a specifier prefix the token must carry a version
    (``>=sys-libs/ncurses-6.0``); without one it is an unversioned atom
    (``x11-libs/gtk+``). Version errors propagate as MalformedVersion.
    """
    specifier = Specifier.ANY
    rest = token
    for symbol in _SPECIFIERS_BY_LENGTH:
        if token.startswith(symbol):
            specifier = Specifier(symbol)
            rest = token[len(symbol):]
            break
    category, sep, remainder = rest.partition("/")
    if not sep or not category or not remainder:
        raise MalformedAtom(f"expected category/name in {token!r}")
    try:
        if specifier is Specifier.ANY:
            return DependencyAtom(Specifier.ANY, PackageId(category, remainder))
        name, version = split_name_version(remainder)
        return DependencyAtom(specifier, PackageId(category, name), version)
    except MalformedPackageId as exc:
        raise MalformedAtom(f"bad atom {token!r}: {exc}") from exc


def parse_dep_string(text: str) -> GroupNode:
    """Parse a dependency string into its expression tree.

    The result is always a top-level group; an empty input yields an empty
    group.
    """
    tokens = text.split()
    pos = 0

    def parse_children(closed_by_paren: bool) -> tuple[DependencyExpr, ...]:
        nonlocal pos
        children: list[DependencyExpr] = []
        while pos < len(tokens):
            token = tokens[pos]
            if token == ")":
                if not closed_by_paren:
                    raise UnbalancedParenthesis("unexpected ')'")
                pos += 1
                return tuple(children)
            if token == "(":
                pos += 1
                children.append(GroupNode(parse_children(True)))
            elif token == "||":
                raise UnsupportedEbuildConstruct(
                    "OR dependency groups ('|| ( ... )') are not supported"
                )
            elif token.endswith("?") and len(token) > 1:
                flag = token[:-1]
                negated = flag.startswith("!")
                if negated:
                    flag = flag[1:]
                if not _FLAG_RE.fullmatch(flag):
                    raise MalformedAtom(f"bad USE flag in conditional: {token!r}")
                pos += 1
                if pos >= len(tokens) or tokens[pos] != "(":
                    raise DanglingConditional(
                        f"conditional {token!r} must be followed by '('"
                    )
                pos += 1
                body = parse_children(True)
                if not body:
                    raise DanglingConditional(
                        f"conditional {token!r} has an empty group"
                    )
                children.append(CondNode(flag, negated, body))
            else:
                pos += 1
                children.append(AtomNode(parse_atom(token)))
        if closed_by_paren:
            raise UnbalancedParenthesis("missing ')'")
        return tuple(children)

    return GroupNode(parse_children(False))


def eval_use_conditionals(
    expr: DependencyExpr, enabled: UseFlagSet
) -> list[DependencyAtom]:
    """Flatten the tree left to right under the given flag set.

    A conditional's children are included iff (flag enabled) xor negated.
    Duplicates are preserved; deduplication is the resolver's job.
    """
    out: list[DependencyAtom] = []

    def walk(node: DependencyExpr) -> None:
        if isinstance(node, AtomNode):
            out.append(node.atom)
        elif isinstance(node, GroupNode):
            for child in node.children:
                walk(child)
        else:
            if (node.flag in enabled) != node.negated:
                for child in node.children:
                    walk(child)

    walk(expr)
    return out
