"""The public names of the package and of its command-line module: any
change to the API has to edit this test.  Two lint rules on the
package's source ride along: no import goes unused and no private
module-level name goes unreferenced, so a removal leaves no orphan
behind.  Every module also parses at the Python floor the project
declares, and importing the command-line module loads no standard
module beyond those that argparse, json and dataclasses load."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringfill
import ringfill.cli

PACKAGE = Path(ringfill.__file__).parent
MODULES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
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
        "label",
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
        "plan_report",
        "sweep_report_document",
        "trace_report",
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
    # each module ``ringfill.cli`` loads.  Beyond what argparse, json and
    # dataclasses load themselves, it may load only its own package.
    script = (
        "import sys, argparse, json, dataclasses\n"
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
