"""The package imports nothing outside the standard library, nor the
standard modules that would dominate a CLI process's start-up.

numpy, scipy and sympy may be installed next to the tests (sympy is an
optional oracle), so an accidental runtime import of one of them would
pass every other test.  This reads the import statements of every
module instead of running them.
"""

import ast
import os
import pathlib
import subprocess
import sys

import superbol

PACKAGE = pathlib.Path(superbol.__file__).parent


def imported_modules(tree):
    """The top-level name of every absolute import, relative ones as superbol."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "superbol" if node.level else node.module.split(".")[0]


def test_every_import_is_stdlib_or_superbol():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in modules} >= {"__init__.py", "structures.py", "envelope.py"}
    for path in modules:
        outside = {name for name in imported_modules(ast.parse(path.read_text()))
                   if name != "superbol" and name not in sys.stdlib_module_names}
        assert not outside, (path.name, sorted(outside))


def test_the_reader_sees_a_third_party_import():
    tree = ast.parse("import os\nimport numpy.linalg\nfrom sympy import Matrix\n"
                     "from . import graded\nfrom .linalg import rref\n")
    assert sorted(imported_modules(tree)) == ["numpy", "os", "superbol", "superbol", "sympy"]


def test_importing_the_cli_does_not_import_dataclasses():
    """Every CLI command is a fresh process that imports the package first.
    `dataclasses` pulls in inspect, ast, dis and tokenize, and with the
    classes it generated was more than half of that import's CPU; the value
    classes are made by `graded.record` instead."""
    code = "import superbol.cli; import sys; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
