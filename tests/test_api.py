"""The public names of the package and of its command-line module: any
change to the API has to edit this test.  Three lint rules on the
package's source ride along: no import goes unused, no private
module-level name goes unreferenced, and no public function, method or
property is read only by tests, so a removal leaves no orphan behind
and the library states each thing once.  A fourth keeps every record
validated: no module calls a named tuple's ``_replace`` or ``_make``,
which skip the checks of ``__new__``.  Every module also parses at the
Python floor the project declares, and importing the command-line
module loads no standard module beyond those that argparse and json
load."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import ringfill
import ringfill.cli

PACKAGE = Path(ringfill.__file__).parent
MODULES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}
# The benchmark harness, a reader of the package beside its own modules.
BENCHMARK = {
    f"perfbench/{path.name}": ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
}
MODULE_NAMES = {
    name: "ringfill" if name == "__init__.py" else f"ringfill.{name[:-3]}" for name in MODULES
}


def test_public_names_are_pinned():
    assert sorted(ringfill.__all__) == [
        "GapDescriptor",
        "LifecycleTrace",
        "PlacementParams",
        "REQUIREMENT_DESCRIPTIONS",
        "REQUIREMENT_IDS",
        "RequirementCheck",
        "RequirementReport",
        "SweepDomain",
        "SweepReport",
        "__version__",
        "check_requirements",
        "gap",
        "plan_stage1",
        "prose_oracle_stage1",
        "run_lifecycle",
        "sweep",
    ]
    assert all(hasattr(ringfill, name) for name in ringfill.__all__)


def test_cli_module_names_are_pinned():
    assert sorted(ringfill.cli.__all__) == [
        "build_parser",
        "main",
        "parse_trace_report",
        "sweep_report_document",
    ]
    assert all(hasattr(ringfill.cli, name) for name in ringfill.cli.__all__)


def _read_names(tree: ast.AST) -> set[str]:
    """Every bare name ``tree`` loads or deletes."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in its ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_or_exported():
    unused = []
    for name, tree in MODULES.items():
        used = _read_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_module_name_is_referenced():
    # A private name counts as referenced when some module of the
    # package reads it, as a name or an attribute, or imports it;
    # docstring text does not count.
    referenced = set()
    for tree in MODULES.values():
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    orphans = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            orphans += [
                f"{name}: {private}"
                for private in defined
                if private.startswith("_")
                and not private.startswith("__")
                and private not in referenced
            ]
    assert orphans == []


def test_no_module_builds_a_record_past_its_checks():
    # A named tuple's ``_replace`` and ``_make`` build the tuple without
    # calling ``__new__``, so they would skip the ValueErrors of
    # ``PlacementParams`` and ``SweepDomain``; the package builds every
    # record directly.  Any read of either counts, a call or not, so
    # ``map(PlacementParams._make, rows)`` is caught too.
    reads = [
        f"{name}: {node.attr}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_replace", "_make")
    ]
    assert reads == []


def test_every_module_parses_at_the_declared_python_floor():
    # This holds the source to the syntax of the requires-python floor
    # only: a runtime API newer than the floor, such as a standard-library
    # function, still passes.  tomllib is 3.11 or later; an older
    # interpreter holds the syntax itself when it imports the package.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    requires = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["requires-python"]
    assert requires.startswith(">=")
    floor = tuple(map(int, requires.removeprefix(">=").split(".")))
    for name in MODULES:
        ast.parse((PACKAGE / name).read_text(encoding="utf-8"), name, feature_version=floor)


def test_importing_the_cli_loads_no_further_standard_module():
    # Every command, ``ringfill --help`` included, pays at start-up for
    # each module ``ringfill.cli`` loads.  Beyond what argparse and json
    # load themselves, it may load only its own package: not dataclasses,
    # whose import alone loads inspect, ast, dis and tokenize.
    script = (
        "import sys, argparse, json\n"
        "before = set(sys.modules)\n"
        "import ringfill.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(PACKAGE.parent), env.get("PYTHONPATH")) if path
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    loaded = ast.literal_eval(child.stdout)
    assert "ringfill.cli" in loaded
    assert [
        name for name in loaded if name != "__future__" and name.partition(".")[0] != "ringfill"
    ] == []


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """The full dotted name each name an import of ``tree`` binds stands
    for; a relative import is read from inside the package."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom):
            base = "ringfill" + (f".{node.module}" if node.module else "")
            base = base if node.level else node.module
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def _dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The full dotted name of a chain of attribute reads on a bound name."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return base and f"{base}.{node.attr}"
    return None


def test_every_public_function_is_read_outside_the_tests():
    # A public function, method or property must be read by a module of
    # the package or by the benchmark, so the library keeps no second
    # statement that only tests call.  A method or property is read when
    # its name is read as an attribute.  A module-level function is read
    # through a bare name, an import, or an attribute read off a package
    # module (``cli.parse_trace_report``); a plain attribute read does not
    # count, since a column such as ``trace.label`` may share a function's
    # name.  The package's re-exports in ``__init__.py`` are not reads.
    attributes, functions = set(), set()
    for name, tree in {**MODULES, **BENCHMARK}.items():
        aliases = _module_aliases(tree)
        functions |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if _dotted(node.value, aliases) in MODULE_NAMES.values():
                    functions.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                functions |= {alias.name for alias in node.names}
    unread = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined, reads = [node.name], functions
            elif isinstance(node, ast.ClassDef):
                # An override of an inherited method is read by its base.
                cls = getattr(importlib.import_module(MODULE_NAMES[name]), node.name)
                inherited = {attribute for base in cls.__mro__[1:] for attribute in vars(base)}
                defined = [
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name not in inherited
                ]
                reads = attributes
            else:
                continue
            unread += [
                f"{name}: {public}"
                for public in defined
                if not public.startswith("_")
                and public not in ("main", "build_parser")
                and public not in reads
            ]
    assert unread == []


# Compiling a module of 4,096 tokens or more raises its compiler's peak
# memory by about a quarter MiB, and every command compiles the package
# from source where bytecode is not written.
COMPILE_TOKEN_LIMIT = 4096


@pytest.mark.parametrize("name", sorted(MODULES))
def test_each_module_stays_under_the_compile_token_limit(name):
    with open(PACKAGE / name, "rb") as handle:
        tokens = [
            token
            for token in tokenize.tokenize(handle.readline)
            if token.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    assert len(tokens) < COMPILE_TOKEN_LIMIT
