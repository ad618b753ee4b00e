"""Fuzzing `.alg` text through the CLI, in process.

Every input must end in one of three ways: a result (exit 0), a failed
axiom check that prints its witnesses (exit 1), or a one-line error
(exit 2).  No exception may escape `main`, so nothing ends in a
traceback.  Inputs are generated files over a small label pool and
edited copies of valid ones (catalog algebras and bol(osp(1|2))), fed
to `check`, `report`, `center` and `killing-ricci` in both formats.
"""

import contextlib
import functools
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import superbol as sb
from bench_inputs import inputs
from superbol.cli import main

EVEN, ODD = ("a", "b", "c"), ("u", "v")


@functools.cache
def valid():
    """The valid files, written at their first draw, so that a fault in building them fails
    the fuzz test, not the collection of this module."""
    return [sb.serialize_algebra(ent.algebra) for ent in sb.catalog.entries()] + [
        sb.serialize_algebra(sb.malcev_to_bol(inputs.osp12()))]


coefficients = st.sampled_from(["", "2", "-", "1/2", "-3", "2*", "1/0", "0*", "7 /3 "])
labels = st.sampled_from(EVEN + ODD + ("w", "x1"))
junk = st.text(alphabet="[],=+-*/# abuvz01\t", max_size=12)


@st.composite
def terms(draw):
    parts = ["%s%s" % (draw(coefficients), draw(labels))
             for _ in range(draw(st.integers(1, 3)))]
    return draw(st.sampled_from([" + ", " - ", " "])).join(parts) or "0"


@st.composite
def generated(draw):
    lines = ["name fuzz"] if draw(st.booleans()) else []
    even = draw(st.lists(st.sampled_from(EVEN), unique=True, max_size=3))
    odd = draw(st.lists(st.sampled_from(ODD), unique=True, max_size=2))
    if even:
        lines.append("even " + " ".join(even))
    if odd:
        lines.append("odd " + " ".join(odd))
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.sampled_from((2, 3)))
        head = ",".join(draw(labels) for _ in range(arity))
        lines.append("%s [%s] = %s" % ("binary" if arity == 2 else "ternary", head,
                                       draw(st.one_of(terms(), junk))))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines) + "\n"


@st.composite
def edited(draw):
    lines = draw(st.sampled_from(valid())).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "copy", "sign", "scale", "junk")))
        if edit == "drop":
            del lines[at]
        elif edit == "copy":
            lines.insert(at, lines[at])
        elif edit == "sign":
            lines[at] = lines[at].replace(" + ", " - ", 1) if " + " in lines[at] \
                else lines[at].replace("= ", "= -", 1)
        elif edit == "scale":
            lines[at] = lines[at].replace("= ", "= %s*" % draw(st.sampled_from(("2", "1/3"))), 1)
        else:
            lines[at] += draw(junk)
        if not lines:
            break
    return "\n".join(lines) + "\n"


COMMANDS = (["check", "--kind", "bol"], ["check", "--kind", "lie"], ["check", "--kind", "lts"],
            ["report"], ["center"], ["killing-ricci"])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def witnessed(out, fmt):
    if fmt == "machine":
        return any(line.split(" = ")[0].endswith("witness[00].axiom")
                   for line in out.splitlines())
    return " fails at (" in out


@settings(max_examples=300, deadline=None)
@given(st.one_of(generated(), edited()), st.sampled_from(COMMANDS),
       st.sampled_from(("human", "machine")))
def test_alg_text_ends_in_a_result_witnesses_or_one_error_line(text, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.alg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out, err = run(["--format", fmt, command[0], path] + command[1:])
    assert code in (0, 1, 2), (code, text)
    assert "Traceback" not in err
    if code == 1:
        assert witnessed(out, fmt), (text, command, out)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
        assert out == ""
    else:
        assert err == ""
