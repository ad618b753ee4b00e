"""CLI outputs against a recorded golden set.

Every catalog key plus abelian_3_1 goes through every subcommand that
takes an algebra (each check kind, both constructions, both envelopes,
the Killing form, the three Killing-Ricci methods, the center, the three
pseudo forms and the report), and `catalog list`/`catalog show`, in both
output formats.  Each run goes through `cli.main` in-process and must
reproduce the recorded stdout, stderr and exit code byte for byte.

The golden file is written by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py --record

Record it only from code whose outputs are known to be right; a test
that compares against a fresh recording of the code under test checks
nothing.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from superbol import catalog
from superbol.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

ALGEBRAS = catalog.keys() + ("abelian_3_1",)

COMMANDS = (
    [["check", "--kind", kind] for kind in ("lie", "malcev", "supertriple", "lts", "bol")]
    + [["derive-bol"], ["lie-to-lts"], ["envelope"], ["envelope", "--maximal"], ["killing"]]
    + [["killing-ricci", "--method", m] for m in ("direct", "restriction", "both")]
    + [["center"], ["pseudo"], ["pseudo", "--inner"], ["pseudo", "--max"], ["report"]]
)


def cases():
    out = []
    for fmt in ("human", "machine"):
        head = ["--format", fmt]
        for key in ALGEBRAS:
            out += [head + cmd[:1] + [key] + cmd[1:] for cmd in COMMANDS]
        out.append(head + ["catalog", "list"])
        out += [head + ["catalog", "show", key] for key in ALGEBRAS]
    return out


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().splitlines(), "stderr": err.getvalue().splitlines()}


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN, encoding="utf-8") as handle:
        return {" ".join(rec["argv"]): rec for rec in json.load(handle)}


def test_golden_set_covers_every_case(recorded):
    assert sorted(recorded) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=lambda argv: "/".join(argv[1:]))
def test_cli_output_matches_the_golden_set(argv, recorded):
    assert run(argv) == recorded[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump([run(argv) for argv in cases()], handle, indent=1)
        handle.write("\n")
