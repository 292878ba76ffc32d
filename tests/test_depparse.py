import random

import pytest

from pacloud.core import (
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    parse_version,
)
from pacloud.depparse import (
    AtomNode,
    CondNode,
    GroupNode,
    eval_use_conditionals,
    parse_atom,
    parse_dep_string,
)
from pacloud.errors import (
    DanglingConditional,
    MalformedAtom,
    MalformedVersion,
    UnbalancedParenthesis,
    UnsupportedEbuildConstruct,
)


def atom(text):
    return parse_atom(text)


def render_dep_string(expr):
    """Render an expression tree; re-parsing yields an equal tree.

    A GroupNode passed at the top level renders without enclosing parens.
    """
    if isinstance(expr, GroupNode):
        return " ".join(_render_node(c) for c in expr.children)
    return _render_node(expr)


def _render_node(node):
    if isinstance(node, AtomNode):
        return node.atom.render()
    if isinstance(node, CondNode):
        inner = " ".join(_render_node(c) for c in node.children)
        prefix = "!" if node.negated else ""
        return f"{prefix}{node.flag}? ( {inner} )"
    inner = " ".join(_render_node(c) for c in node.children)
    return f"( {inner} )" if inner else "( )"


class TestParseDepString:
    def test_single_versioned_atom(self):
        tree = parse_dep_string(">=sys-libs/ncurses-6.0")
        assert tree == GroupNode(
            (
                AtomNode(
                    DependencyAtom(
                        Specifier.GE,
                        PackageId.parse("sys-libs/ncurses"),
                        parse_version("6.0"),
                    )
                ),
            )
        )

    def test_conditional_group(self):
        tree = parse_dep_string("gtk? ( x11-libs/gtk+ )")
        assert tree == GroupNode(
            (
                CondNode(
                    "gtk",
                    False,
                    (AtomNode(DependencyAtom(Specifier.ANY, PackageId.parse("x11-libs/gtk+"))),),
                ),
            )
        )

    def test_nested_conditionals(self):
        tree = parse_dep_string("a? ( b? ( cat/p ) cat/q )")
        assert tree == GroupNode(
            (
                CondNode(
                    "a",
                    False,
                    (
                        CondNode("b", False, (AtomNode(atom("cat/p")),)),
                        AtomNode(atom("cat/q")),
                    ),
                ),
            )
        )

    def test_negated_conditional(self):
        tree = parse_dep_string("!static? ( cat/shared )")
        cond = tree.children[0]
        assert isinstance(cond, CondNode)
        assert cond.flag == "static"
        assert cond.negated is True

    def test_empty_input(self):
        assert parse_dep_string("") == GroupNode(())
        assert parse_dep_string("   \n  ") == GroupNode(())

    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedParenthesis):
            parse_dep_string("a? ( cat/p")

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedParenthesis):
            parse_dep_string("cat/p )")

    def test_dangling_conditional(self):
        with pytest.raises(DanglingConditional):
            parse_dep_string("gtk?")
        with pytest.raises(DanglingConditional):
            parse_dep_string("gtk? cat/p")

    def test_empty_conditional_body(self):
        with pytest.raises(DanglingConditional):
            parse_dep_string("gtk? ( )")

    def test_or_groups_rejected(self):
        with pytest.raises(UnsupportedEbuildConstruct):
            parse_dep_string("|| ( cat/a cat/b )")

    def test_bad_version_propagates(self):
        with pytest.raises(MalformedVersion):
            parse_dep_string(">=cat/p-1..2")

    def test_specifier_without_version(self):
        with pytest.raises(MalformedAtom):
            parse_dep_string(">=cat/p")

    def test_bare_group(self):
        tree = parse_dep_string("( cat/a cat/b )")
        group = tree.children[0]
        assert isinstance(group, GroupNode)
        assert len(group.children) == 2

    def test_render_parse_identity(self):
        texts = [
            ">=sys-libs/ncurses-6.0 gtk? ( x11-libs/gtk+ )",
            "a? ( b? ( cat/p ) cat/q )",
            "!x? ( cat/p ~cat/q-1.2 ) =cat/r-3-r1",
        ]
        for text in texts:
            tree = parse_dep_string(text)
            assert parse_dep_string(render_dep_string(tree)) == tree


FLAG_POOL = ["f1", "f2", "f3", "f4", "f5", "f6"]
ATOM_POOL = ["cat/p1", "cat/p2", ">=cat/p3-1.2", "~other/p4-2.0"]


def random_tree(rng: random.Random) -> GroupNode:
    def node(depth: int):
        roll = rng.random()
        if depth >= 4 or roll < 0.55:
            return AtomNode(parse_atom(rng.choice(ATOM_POOL)))
        if roll < 0.8:
            children = tuple(
                node(depth + 1) for _ in range(rng.randint(1, 3))
            )
            return CondNode(rng.choice(FLAG_POOL), rng.random() < 0.3, children)
        return GroupNode(tuple(node(depth + 1) for _ in range(rng.randint(0, 3))))

    return GroupNode(tuple(node(1) for _ in range(rng.randint(0, 4))))


def oracle_flatten(tree: GroupNode, enabled: UseFlagSet) -> list[DependencyAtom]:
    """Include each atom iff the conjunction of conditions on its root path
    holds; collected by explicit path enumeration, not by descent pruning."""
    found: list[tuple[list[tuple[str, bool]], DependencyAtom]] = []

    def collect(node, path):
        if isinstance(node, AtomNode):
            found.append((path, node.atom))
        elif isinstance(node, GroupNode):
            for child in node.children:
                collect(child, path)
        else:
            for child in node.children:
                collect(child, path + [(node.flag, node.negated)])

    collect(tree, [])
    return [
        atom_
        for path, atom_ in found
        if all((flag in enabled) != negated for flag, negated in path)
    ]


def all_subsets(flags):
    for mask in range(1 << len(flags)):
        yield UseFlagSet.of(
            [f for i, f in enumerate(flags) if mask & (1 << i)]
        )


class TestEvalUseConditionals:
    def test_inner_conditional_off(self):
        tree = parse_dep_string("a? ( b? ( cat/p ) cat/q )")
        assert eval_use_conditionals(tree, UseFlagSet.of(["a"])) == [atom("cat/q")]

    def test_both_enabled(self):
        tree = parse_dep_string("a? ( b? ( cat/p ) cat/q )")
        assert eval_use_conditionals(tree, UseFlagSet.of(["a", "b"])) == [
            atom("cat/p"),
            atom("cat/q"),
        ]

    def test_nothing_enabled(self):
        tree = parse_dep_string("a? ( b? ( cat/p ) cat/q )")
        assert eval_use_conditionals(tree, UseFlagSet()) == []

    def test_negated(self):
        tree = parse_dep_string("!a? ( cat/p ) a? ( cat/q )")
        assert eval_use_conditionals(tree, UseFlagSet()) == [atom("cat/p")]
        assert eval_use_conditionals(tree, UseFlagSet.of(["a"])) == [atom("cat/q")]

    def test_duplicates_preserved(self):
        tree = parse_dep_string("cat/p cat/p")
        assert eval_use_conditionals(tree, UseFlagSet()) == [
            atom("cat/p"),
            atom("cat/p"),
        ]

    def test_agrees_with_path_condition_oracle(self):
        rng = random.Random(10)
        for _ in range(60):
            tree = random_tree(rng)
            for enabled in all_subsets(FLAG_POOL[: rng.randint(0, 3)]):
                assert eval_use_conditionals(tree, enabled) == oracle_flatten(
                    tree, enabled
                )

    def test_random_render_parse_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            tree = random_tree(rng)
            assert parse_dep_string(render_dep_string(tree)) == tree


# Deeper than Python's default recursion limit of 1000.
DEEP = 5000


def innermost(node, depth, kind):
    """The node ``depth`` single-child ``kind`` nodes below ``node``,
    walked without recursion (comparing deep trees would recurse)."""
    for _ in range(depth):
        assert isinstance(node, kind)
        [node] = node.children
    return node


class TestDeepNesting:
    def test_nested_groups_parse(self):
        tree = parse_dep_string("( " * DEEP + "cat/p" + " )" * DEEP)
        assert innermost(tree, DEEP + 1, GroupNode) == AtomNode(atom("cat/p"))
        assert eval_use_conditionals(tree, UseFlagSet()) == [atom("cat/p")]

    def test_nested_conditionals_parse(self):
        tree = parse_dep_string("a? ( " * DEEP + "cat/p" + " )" * DEEP)
        [node] = tree.children
        assert innermost(node, DEEP, CondNode) == AtomNode(atom("cat/p"))

    @pytest.mark.parametrize("negated", [False, True], ids=["a", "not-a"])
    def test_a_chain_of_conditionals_evaluates(self, negated):
        prefix = "!" if negated else ""
        tree = parse_dep_string(
            f"{prefix}a? ( " * DEEP + "cat/p" + " )" * DEEP + " cat/q"
        )
        taken = [atom("cat/p"), atom("cat/q")]
        on = eval_use_conditionals(tree, UseFlagSet.of(["a"]))
        off = eval_use_conditionals(tree, UseFlagSet())
        assert (on, off) == ((taken[1:], taken) if negated else (taken, taken[1:]))
