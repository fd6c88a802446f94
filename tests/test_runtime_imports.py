"""The runtime is stdlib-only: every absolute import in the package
names a standard-library module.  numpy, scipy or networkx may be
installed alongside, but the package must not depend on them.  Nor does
it import ``dataclasses``: generating the methods of a handful of
records would cost more than half of the package's import, and loading
the module pulls in ``inspect``."""

import ast
import sys
from pathlib import Path

import pytest

import scrambles

SOURCES = sorted(Path(scrambles.__file__).parent.glob("*.py"))


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


def test_every_module_is_checked():
    assert {"__init__.py", "graphs.py", "scramble.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    assert outside_stdlib(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_no_dataclasses(path):
    tops = [top for _, top in absolute_imports(path.read_text(encoding="utf-8"))]
    assert "dataclasses" not in tops
