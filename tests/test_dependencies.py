"""The package imports nothing outside the standard library, nor the
standard modules that would dominate a CLI process's start-up.

numpy, scipy and sympy may be installed next to the tests (sympy is an
optional oracle), so an accidental runtime import of one of them would
pass every other test.  This reads the import statements of every
module instead of running them.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

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


def unused_imports(tree):
    """The names the import statements of a module bind that nothing in it reads, but
    `from __future__ import annotations`."""
    bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    """Every CLI process compiles and runs the import statements of the modules it loads.
    `__init__.py` binds names to re-export them, so it is left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused = unused_imports(ast.parse(path.read_text()))
            assert not unused, (path.name, unused)
    assert unused_imports(ast.parse(
        "from __future__ import annotations\nimport os.path\nfrom operator import itemgetter, mul"
        " as times\nos.sep\n")) == ["itemgetter", "times"]


def unreferenced_private(sources):
    """(module, name) of each private top-level function or class of the modules {module:
    source} that no code of theirs references outside its own definition: by name, as an
    attribute or in a `from ... import`.  Dunder names are left out."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
                n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} | {
                alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                for alias in n.names}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((module, node.name))
                names.discard(node.name)    # its own body, recursion included
            read |= names
    return sorted((module, name) for module, name in defined if name not in read)


def test_every_private_function_and_class_is_used_in_the_package():
    """Code kept in the package only for its tests is dead weight every CLI process
    compiles; the tests hold the package to their own references instead."""
    assert unreferenced_private({path.name: path.read_text()
                                 for path in sorted(PACKAGE.glob("*.py"))}) == []
    assert unreferenced_private({
        "a.py": "def _used():\n    pass\n\n\ndef _unused():\n    pass\n\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
                "class _Alone:\n    def _method(self):\n        return _Alone\n\n\n"
                "def __getattr__(name):\n    return _used()\n",
        "b.py": "from a import _imported as renamed\nimport a\na._by_attribute\n\n\n"
                "def _by_attribute():\n    pass\n\n\ndef _imported():\n    pass\n",
    }) == [("a.py", "_Alone"), ("a.py", "_recursive"), ("a.py", "_unused")]


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


# ---------------------------------------------------------------------------
# what a fresh process loads: each command only the modules it uses

RUN_AND_LIST = """\
import runpy, sys
try:
    runpy.run_module("superbol", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    print("\\nexit", stop.code, *sorted(m for m in sys.modules if m.startswith("superbol.")))
"""


def loaded(*argv, cwd=None):
    """The superbol submodules a fresh interpreter holds after running
    `python -m superbol argv`, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", RUN_AND_LIST, *argv], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    code, *modules = out.stdout.splitlines()[-1].split()[1:]
    assert code == "0", (argv, out.stdout, out.stderr)
    return set(modules)


def test_importing_the_package_loads_only_the_base():
    code = "import superbol, sys\nprint(*sorted(m for m in sys.modules if m.startswith('superbol.')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "superbol.graded superbol.linalg superbol.structures\n"


def test_commands_on_the_base_load_neither_the_envelope_nor_the_forms(tmp_path):
    (tmp_path / "aff2.alg").write_text("name aff2\neven e1 e2\nbinary [e1,e2] = e2\n")
    for argv in (("catalog", "list"), ("check", "aff2.alg", "--kind", "lie"),
                 ("center", "abelian_3_1")):
        modules = loaded(*argv, cwd=tmp_path)
        assert "superbol.structures" in modules
        assert not modules & {"superbol.envelope", "superbol.forms"}, argv


def test_the_killing_form_loads_no_envelope():
    modules = loaded("killing", "aff2_lie")
    assert "superbol.forms" in modules and "superbol.envelope" not in modules


def test_report_loads_every_module_but_the_file_reader():
    assert loaded("report", "L2_3_1_bol") == {
        "superbol.%s" % name for name in ("catalog", "cli", "constructions", "envelope",
                                          "forms", "graded", "linalg", "rules", "structures")}


# the pair rules and the Malcev walk: each loaded only by a sweep that runs it
RULES, MALCEV = "superbol.rules", "superbol.malcev"


def test_lie_checks_and_the_center_load_neither_the_rules_nor_the_malcev_walk(tmp_path):
    (tmp_path / "aff2.alg").write_text("name aff2\neven e1 e2\nbinary [e1,e2] = e2\n")
    for argv in (("check", "aff2.alg", "--kind", "lie"), ("killing", "aff2.alg"),
                 ("center", "aff2.alg")):
        modules = loaded(*argv, cwd=tmp_path)
        assert "superbol.structures" in modules
        assert not modules & {RULES, MALCEV}, argv


def test_the_bol_report_and_the_pairs_load_the_rules_but_not_the_malcev_walk():
    for argv in (("report", "L2_3_1_bol"), ("pseudo", "L2_3_1_bol")):
        modules = loaded(*argv)
        assert RULES in modules and MALCEV not in modules, argv


def test_a_malcev_check_and_derive_bol_load_the_malcev_walk():
    for argv in (("check", "L2_2_2_malcev", "--kind", "malcev"), ("derive-bol", "L2_2_2_malcev")):
        assert MALCEV in loaded(*argv), argv


@pytest.mark.parametrize("module", [RULES, MALCEV])
def test_each_split_module_imports_first_in_a_fresh_interpreter(module):
    """No import cycle: the module loads the base itself, which never imports it."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", "import %s, sys; print(sorted(m for m in "
                          "sys.modules if m.startswith('superbol.')))" % module], env=env,
                         capture_output=True, text=True, check=True)
    assert module in out.stdout and "superbol.structures" in out.stdout


# ---------------------------------------------------------------------------
# the package namespace: the base bound on import, the rest resolved on access

SUBMODULES = ("algfile", "catalog", "cli", "constructions", "envelope", "forms", "graded",
              "linalg", "structures")


def defined_names(path):
    """The names the top level of a module defines."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))


def test_every_public_name_is_its_modules_object():
    owners = {}
    for module in SUBMODULES:
        for name in defined_names(PACKAGE / (module + ".py")):
            owners.setdefault(name, []).append(module)
    for name in superbol.__all__:
        if name == "catalog":
            assert superbol.catalog is importlib.import_module("superbol.catalog")
            continue
        assert len(owners[name]) == 1, (name, owners[name])
        module = importlib.import_module("superbol." + owners[name][0])
        assert getattr(superbol, name) is getattr(module, name), name
    assert len(superbol.__all__) == len(set(superbol.__all__)) == 61


def test_names_resolved_on_access_follow_their_module(monkeypatch):
    """A lazy name is read from its module on every access, never cached,
    so a rebinding of the module's attribute shows through and leaves
    nothing behind in the package once undone."""
    from superbol import envelope
    original = envelope.ips_space
    monkeypatch.setattr(envelope, "ips_space", len)
    assert superbol.ips_space is len
    monkeypatch.undo()
    assert superbol.ips_space is original and "ips_space" not in vars(superbol)


def test_dir_and_star_import_cover_every_public_name():
    assert set(superbol.__all__) <= set(dir(superbol))
    namespace = {}
    exec("from superbol import *", namespace)
    assert set(superbol.__all__) <= set(namespace)
    assert namespace["check_axioms"] is superbol.structures.check_axioms
    assert namespace["ips_space"] is superbol.envelope.ips_space


def test_submodules_resolve_and_unknown_names_raise():
    for name in SUBMODULES:
        assert name in dir(superbol)
        assert getattr(superbol, name) is importlib.import_module("superbol." + name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        superbol.no_such_name
    assert not hasattr(superbol, "ABELIAN_MAX_DIM")
