"""The README's Public API table lists exactly the names the package
exports, each in its module and with a test that exists and names it."""

import ast
import inspect
import re
from pathlib import Path

import scrambles

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"\| `(\w+)` \| `(\w+)` \| `(tests/\w+\.py)::([\w:]+)` \|")


def exported():
    return {
        name
        for name, value in vars(scrambles).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def readme_rows():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return [match.groups() for match in map(ROW.fullmatch, section.splitlines()) if match]


def function_at(path, node_id):
    """The function definition a pytest node id names, or None."""
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    node = None
    for part in node_id.split("::"):
        node = next(
            (n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part),
            None,
        )
        if node is None:
            return None
        scope = node.body
    return node if isinstance(node, ast.FunctionDef) else None


def names_in(node):
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def test_readme_lists_exactly_the_exports():
    names = [name for name, _, _, _ in readme_rows()]
    assert len(names) == len(set(names))
    assert set(names) == exported()


def test_each_export_sits_in_its_listed_module():
    for name, module, _, _ in readme_rows():
        assert getattr(getattr(scrambles, module), name) is getattr(scrambles, name), name


def test_each_listed_test_exists_and_names_its_export():
    for name, _, path, node_id in readme_rows():
        node = function_at(path, node_id)
        assert node is not None, f"{path}::{node_id} not found"
        assert name in names_in(node), f"{path}::{node_id} never names {name}"
