"""The runtime is stdlib-only: every absolute import in the package
names a standard-library module.  numpy, scipy or networkx may be
installed alongside, but the package must not depend on them.  Nor does
it, or a script, import ``dataclasses``: generating the methods of a
handful of records would cost more than half of the package's import,
and loading the module pulls in ``inspect``.  Every process pays for a
module-level import, so each one a package module makes is read there;
``__init__.py`` is exempt, since its imports are its exports."""

import ast
import sys
from pathlib import Path

import pytest

import scrambles

SOURCES = sorted(Path(scrambles.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def absolute_imports(source):
    """Yield (line, top-level module) for every absolute import in a
    module's source, including imports nested in functions."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def outside_stdlib(source):
    return [
        (line, top)
        for line, top in absolute_imports(source)
        if top not in sys.stdlib_module_names
    ]


def unused_imports(source):
    """(line, name) for each name a module-level import binds that the
    module never reads."""
    tree = ast.parse(source)
    bound = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_checker_flags_third_party_imports():
    source = (
        "import os.path\n"
        "from . import graphs\n"
        "\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from networkx.algorithms import flow\n"
    )
    assert outside_stdlib(source) == [(5, "numpy"), (6, "networkx")]


def test_checker_flags_unused_imports():
    source = (
        "import os.path\n"
        "import random\n"
        "from . import graphs as g\n"
        "from .flow import _max_flow, min_edge_cut\n"
        "\n"
        "def f():\n"
        "    return os.sep, g.INF, min_edge_cut\n"
    )
    assert unused_imports(source) == [(2, "random"), (4, "_max_flow")]


def test_every_module_is_checked():
    assert {"__init__.py", "graphs.py", "scramble.py", "cli.py"} <= {p.name for p in SOURCES}
    assert {"random_survey.py", "worked_examples.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    assert outside_stdlib(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda path: path.name)
def test_imports_no_dataclasses(path):
    tops = [top for _, top in absolute_imports(path.read_text(encoding="utf-8"))]
    assert "dataclasses" not in tops


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
