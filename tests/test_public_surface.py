"""The public surface is no larger than its callers.

A name in ``blockplan.__all__`` counts as used when something outside the
module that defines it names it: another module of the package, a
``perfbench`` script or the README's Library example. A name that none of
them names stays public only with a one-line reason in ``KEEP``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import blockplan
from tests.test_readme import library_example

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blockplan"

KEEP = {
    # result types: what the public functions return, or what those hold
    "CheckKind": "the kind of a CheckResult, the key of its status in report.json",
    "CheckResult": "one check's outcome, as FeasibilityReport.results holds it",
    "FeasibilityReport": "the report run_feasibility returns beside the grid",
    "PlacementStep": "one step of SimulationReport.steps",
    "SimulationReport": "what simulate_assembly returns",
    "RepairSummary": "the type of repair_mesh(mesh).repair, which the README documents",
    "Command": "the element type of Toolpath.commands",
    "CommandOp": "the operation of a Command; acceptance 6 pins the command law with it",
    # names the acceptance tests pin
    "check_component_count": "acceptance 2 reruns the count check on each handled demo grid",
    "check_overhang": "acceptance 2 reruns the overhang check on each handled demo grid",
    "check_vertical_stack": "acceptance 2 reruns the stack check on each handled demo grid",
    "check_sequence_connectivity": "acceptance 2 and 5 check the sorted orders with it",
    "calibration_schedule": "acceptance 7 pins the sweep, which the README cites",
    "SpeedRatio": "the ratio of each calibration point; acceptance 7 pins it",
    "parse_toolpath": "acceptance 6 round-trips toolpath.json through it; the README documents it",
    # the language-model request filter, which the command line does not use yet
    "GuidedPrompt": "the prompt filter_request sends",
    "LanguageModelClient": "the backend filter_request asks",
    "filter_request": "the paper's language-model request filter",
    # the interface a fake substitutes
    "MeshGeneratorClient": "what acquire_mesh takes: MockMeshGenerator or a text-to-3D client",
    "__version__": "the package version",
}


def _names(source: str) -> set[str]:
    """Every name, attribute and imported name that ``source`` mentions in code."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _homes() -> dict[str, str]:
    """The package module each public name is imported from, per ``__init__``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text("utf-8"))
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names}


def _users() -> dict[str, set[str]]:
    """Name -> the places outside ``__init__`` that name it: a package module's
    name, ``perfbench`` or ``README``."""
    sources = [(path.stem, path) for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    sources += [("perfbench", path) for path in (ROOT / "perfbench").glob("*.py")]
    users: dict[str, set[str]] = {}
    for place, path in sources:
        for name in _names(path.read_text("utf-8")):
            users.setdefault(name, set()).add(place)
    for name in _names(library_example()):
        users.setdefault(name, set()).add("README")
    return users


def _unused() -> set[str]:
    homes, users = _homes(), _users()
    return {name for name in blockplan.__all__
            if not users.get(name, set()) - {homes.get(name, "__init__")}}


def test_public_names_are_unique_and_resolve():
    assert len(blockplan.__all__) == len(set(blockplan.__all__))
    assert [name for name in blockplan.__all__ if not hasattr(blockplan, name)] == []


def test_each_public_name_has_a_caller_or_a_reason():
    assert sorted(_unused() - KEEP.keys()) == []


def test_each_kept_name_is_public_and_has_no_caller():
    assert sorted(KEEP.keys() - _unused()) == []
    assert all(reason.strip() for reason in KEEP.values())
