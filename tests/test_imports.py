"""The modules of ``src/pacloud`` import one another without a cycle, so
each can be imported on its own and no import has to hide in a function.
And only ``pacloud.files`` decodes JSON, so every document that crosses a
process boundary goes through its one codec, ``from_json``. And every
function, class and method is named by other code in ``src/pacloud``, or
listed with the reason it stays."""
import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import pacloud

PACKAGE_DIR = Path(pacloud.__file__).parent


def module_name(path):
    parts = ["pacloud", *path.relative_to(PACKAGE_DIR).with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def import_graph():
    """Each module's edges to the modules its relative imports load, at
    module level or inside a function: the module imported and each
    package above it that the importer is not inside. A package's edges
    to its own submodules are left out."""
    paths = {module_name(path): path for path in PACKAGE_DIR.rglob("*.py")}
    graph = {}
    for name, path in paths.items():
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            parts = package.split(".")
            parts = parts[: len(parts) + 1 - node.level]
            base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                target = f"{base}.{alias.name}"
                pieces = (target if target in paths else base).split(".")
                targets.update(
                    ".".join(pieces[:k]) for k in range(1, len(pieces) + 1)
                )
        graph[name] = {
            target for target in targets
            if not f"{name}.".startswith(f"{target}.")  # itself, or above it
            and not target.startswith(f"{name}.")  # its own submodules
        }
    return graph


def test_the_graph_holds_relative_imports_and_their_packages():
    graph = import_graph()
    # ``from .farm.clock import Clock`` loads the farm package too.
    assert {"pacloud.farm", "pacloud.farm.clock", "pacloud.localdb"} <= (
        graph["pacloud.client"]
    )
    assert "pacloud.farm.queue" not in graph["pacloud.farm"]
    assert "pacloud" not in graph["pacloud.farm.worker"]


def test_no_module_imports_itself_through_others():
    try:
        TopologicalSorter(import_graph()).prepare()
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


JSON_DECODERS = {"load", "loads"}


def decodes_json(path):
    """Whether ``path`` names ``json.load`` or ``json.loads``, as an
    attribute of ``json`` or imported from it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in JSON_DECODERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "json" and any(
            alias.name in JSON_DECODERS for alias in node.names
        ):
            return True
    return False


def test_only_the_codec_decodes_json():
    decoders = sorted(
        module_name(path)
        for path in PACKAGE_DIR.rglob("*.py")
        if module_name(path) != "pacloud.files" and decodes_json(path)
    )
    assert decoders == []


# What no code in src/pacloud names, each with why it stays (ROADMAP item 11).
UNREFERENCED = {
    "cli.main": "the pacloud console script in pyproject.toml",
    "bench.main": "the pacloud-bench console script in pyproject.toml",
    "bench.estimate_storage_cost": "the paper's storage cost; acceptance suite",
    "bench.device_percent": "the paper's device ratios; acceptance suite",
    "localdb.write_store": "publishes a store; the README and perfbench",
    "localdb.LocalDb.iter_packages": "perfbench counts its calls",
    "client.request_package": "perfbench wraps it",
    "client.await_package": "perfbench wraps it",
    "farm.BuildFarm.start_service": "the README's farm snippet",
    "farm.service.FarmServer.address": "perfbench reads the bound address",
    "farm.queue.CompileQueue.dead_letters": "perfbench reads the count",
    "farm.stores.BuildRecordStore.all_records": "read by tests alone",
    "farm.commands.generate_emerge_commands": "exported by pacloud.farm",
    "farm.worker.Worker.interrupt": "a spot interruption; tests drive it",
    "farm.worker.Worker.resume": "a spot interruption's end; tests drive it",
    "farm.worker.Worker.crash": "a worker lost mid-build; tests drive it",
    "core.BuildKey.from_path_token": "the checked inverse of path_token",
}


def definitions(tree, module):
    """Each module-level function and class of ``tree``, and each method
    of its classes, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{member.name}", member


def referenced_names(tree):
    """Every name ``tree`` reads or writes as a ``Name`` or an attribute;
    a docstring or a comment that mentions one does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_referenced_or_listed():
    trees = {
        module_name(path).removeprefix("pacloud."): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in PACKAGE_DIR.rglob("*.py")
    }
    uses = Counter(
        name for tree in trees.values() for name in referenced_names(tree)
    )
    unreferenced = set()
    for module, tree in trees.items():
        for qualified, node in definitions(tree, module):
            name = qualified.rpartition(".")[2]
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language, not by name
            # a use inside its own body, such as a recursive call, is not one
            if uses[name] == Counter(referenced_names(node))[name]:
                unreferenced.add(qualified)
    assert unreferenced == set(UNREFERENCED)
