"""Every test module imports without building a checked or derived algebra.

Test inputs are built at their first use inside a test, in cached functions,
so that a fault in an axiom check or a construction fails the tests that read
the input, each by its name, and not the collection of whole modules.  This
imports every test module in a fresh interpreter with the check and the two
constructions replaced by a function that raises.
"""

import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent

IMPORT_ALL = """\
import importlib, pathlib, sys
import superbol, superbol.constructions, superbol.structures

def refuse(*args, **kwargs):
    raise RuntimeError("an algebra built or checked at import")

for module, name in ((superbol, "check_axioms"), (superbol.structures, "check_axioms"),
                     (superbol.constructions, "malcev_to_bol"),
                     (superbol.constructions, "lie_to_supertriple")):
    setattr(module, name, refuse)
for path in sorted(pathlib.Path(sys.argv[1]).glob("test_*.py")):
    try:
        importlib.import_module(path.stem)
    except Exception as err:
        print(path.stem, type(err).__name__, err)
"""


def test_no_test_module_builds_a_checked_algebra_at_import():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(TESTS.parent / "src")]))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL, str(TESTS)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "", out.stdout
