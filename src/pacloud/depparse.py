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
    group. The open groups are kept on an explicit stack, so no depth of
    nesting can exhaust Python's stack.
    """
    tokens = text.split()
    # Each open group: its children so far, and for a conditional group
    # the token, flag and negation that opened it. The top level is first.
    stack: list[tuple[list[DependencyExpr], tuple[str, str, bool] | None]] = [
        ([], None)
    ]
    pos = 0
    while pos < len(tokens):
        token = tokens[pos]
        pos += 1
        if token == ")":
            if len(stack) == 1:
                raise UnbalancedParenthesis("unexpected ')'")
            children, cond = stack.pop()
            if cond is None:
                node: DependencyExpr = GroupNode(tuple(children))
            elif not children:
                raise DanglingConditional(
                    f"conditional {cond[0]!r} has an empty group"
                )
            else:
                node = CondNode(cond[1], cond[2], tuple(children))
            stack[-1][0].append(node)
        elif token == "(":
            stack.append(([], None))
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
            if pos >= len(tokens) or tokens[pos] != "(":
                raise DanglingConditional(
                    f"conditional {token!r} must be followed by '('"
                )
            pos += 1
            stack.append(([], (token, flag, negated)))
        else:
            stack[-1][0].append(AtomNode(parse_atom(token)))
    if len(stack) > 1:
        raise UnbalancedParenthesis("missing ')'")
    return GroupNode(tuple(stack[0][0]))


def eval_use_conditionals(
    expr: DependencyExpr, enabled: UseFlagSet
) -> list[DependencyAtom]:
    """Flatten the tree left to right under the given flag set.

    A conditional's children are included iff (flag enabled) xor negated.
    Duplicates are preserved; deduplication is the resolver's job. The
    nodes still to visit are kept on an explicit stack, next one last.
    """
    out: list[DependencyAtom] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, AtomNode):
            out.append(node.atom)
        elif isinstance(node, GroupNode) or (node.flag in enabled) != node.negated:
            stack.extend(reversed(node.children))
    return out
