"""The environment for a `python -m superbol` child process: this process's, with
the checkout's src/ first on PYTHONPATH.  A child does not inherit the path
pytest reads from pyproject.toml, so without it the package would not import
from a checkout that is not installed."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
