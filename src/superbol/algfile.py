"""Line-oriented algebra files.

Grammar, one declaration per line, '#' starts a comment:

    name L2(3,1)
    even e1 e2 e3
    odd e4
    binary [e2,e3] = e1 + e2
    ternary [e2,e3,e3] = 2*e1 + e2

Unlisted products are zero after skew-completion.  Coefficients are
exact rationals p/q with optional sign; the '*' is optional.  A bare
`binary` or `ternary` line, the word alone, declares that operation
without listing a product.  A file defines each operation it declares
or lists a product of; a file with neither kind of line defines both.
So an operation with all products zero needs its bare line only when
the file has other product or bare lines.  At most 64 labels, as for
abelian_m_n.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .graded import ABELIAN_MAX_DIM, SuperSpace, SuperVector, _dense, rat
from .structures import AlgebraDef, BinaryStructure, TernaryStructure, _swapped, _witnesses

_LABEL = re.compile(r"[A-Za-z_]\w*")
_DIRECTIVE = re.compile(r"\s*([\w-]+)")
_HEAD2 = re.compile(r"^\s*\[\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\]\s*=")
_HEAD3 = re.compile(
    r"^\s*\[\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\]\s*=")
_TERM = re.compile(r"([+-])?\s*(?:(\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?([A-Za-z_]\w*)")


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = "line %d" % line
            if col is not None:
                where += ", col %d" % col
            where += ": "
        super().__init__(where + message)


def _parse_expr(text, base, index_of, dim, line_no):
    """Sum of signed rational multiples of labels, or the single token 0."""
    if text.strip() == "0":
        return (0,) * dim
    coords = [0] * dim
    pos = 0
    first = True
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        m = _TERM.match(text, pos)
        if m is None:
            raise ParseError("expected a term like 2*e1", line_no, base + pos + 1)
        sign_tok, coeff_tok, label_tok = m.groups()
        if not first and not sign_tok:
            raise ParseError("expected '+' or '-' between terms",
                             line_no, base + m.start() + 1)
        try:
            tok = (coeff_tok or "1").replace(" ", "")
            coeff = Fraction(tok) if "/" in tok else int(tok)  # a Fraction only for p/q
        except ZeroDivisionError:
            raise ParseError("zero denominator in coefficient %r" % coeff_tok,
                             line_no, base + m.start(2) + 1) from None
        except ValueError:  # an integer past Python's limit on digits read from text
            raise ParseError("coefficient has more than %d digits" % sys.get_int_max_str_digits(),
                             line_no, base + m.start(2) + 1) from None
        if sign_tok == "-":
            coeff = -coeff
        idx = index_of.get(label_tok)
        if idx is None:
            raise ParseError("undeclared label %r" % label_tok,
                             line_no, base + m.start(3) + 1)
        coords[idx] += coeff
        pos = m.end()
        first = False
    if first:
        raise ParseError("empty product value", line_no, base + 1)
    return tuple(rat(c) for c in coords)


def parse_algebra(text):
    name = None
    even = []
    odd = []
    binary = {}
    ternary = {}
    staged = []  # the product lines, read once the space is known
    seen = {}  # label -> declaration line

    def declare(rest, base, line_no, into):
        if staged:
            raise ParseError("label declarations must precede products", line_no)
        found = list(re.finditer(r"\S+", rest))
        if not found:
            raise ParseError("expected at least one label", line_no, base + 1)
        for m in found:
            tok = m.group()
            if not _LABEL.fullmatch(tok):
                raise ParseError("invalid label %r" % tok, line_no, base + m.start() + 1)
            if tok in seen:
                raise ParseError("label %r already declared on line %d" % (tok, seen[tok]),
                                 line_no, base + m.start() + 1)
            if len(seen) == ABELIAN_MAX_DIM:
                raise ParseError("label %r is one too many: at most %d labels"
                                 % (tok, ABELIAN_MAX_DIM), line_no, base + m.start() + 1)
            seen[tok] = line_no
            into.append(tok)

    lines = text.split("\n")
    # first pass: declarations only, so the space is known before products
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m0 = _DIRECTIVE.match(line)
        if m0 is None:
            raise ParseError("expected a directive", line_no, 1)
        directive = m0.group(1)
        rest = line[m0.end():]
        base = m0.end()
        if directive == "name":
            if name is not None:
                raise ParseError("duplicate name declaration", line_no)
            name = rest.strip()
            if not name:
                raise ParseError("empty name", line_no, base + 1)
        elif directive == "even":
            declare(rest, base, line_no, even)
        elif directive == "odd":
            declare(rest, base, line_no, odd)
        elif directive in ("binary", "ternary"):
            staged.append((directive, rest, base, line_no))
        else:
            raise ParseError("unknown directive %r" % directive, line_no, 1)

    if not seen:
        raise ParseError("no basis labels declared", line=len(lines))
    labels = tuple(even + odd)
    parities = (0,) * len(even) + (1,) * len(odd)
    space = SuperSpace(parities, labels)
    index_of = {lab: i for i, lab in enumerate(labels)}
    dim = space.dim

    def resolve(rest, base, line_no, arity):
        pattern = _HEAD2 if arity == 2 else _HEAD3
        m = pattern.match(rest)
        if m is None:
            raise ParseError("expected [%s] = value" % ",".join("abc"[:arity]),
                             line_no, base + 1)
        idx = []
        for g in range(1, arity + 1):
            lab = m.group(g)
            if lab not in index_of:
                raise ParseError("undeclared label %r" % lab,
                                 line_no, base + m.start(g) + 1)
            idx.append(index_of[lab])
        value = _parse_expr(rest[m.end():], base + m.end(), index_of, dim, line_no)
        return tuple(idx), value

    def admit(table, key, value, line_no):
        pretty = "[%s]" % ",".join(labels[t] for t in key)
        if key in table:
            raise ParseError("product %s listed twice" % pretty, line_no)
        mirror, s = _swapped(0, parities, key)
        if mirror == key and s == -1 and any(value):
            raise ParseError("%s must vanish: square of an even element" % pretty,
                             line_no)
        if mirror in table and value != tuple(s * c for c in table[mirror][0]):
            raise ParseError("%s contradicts the listing on line %d"
                             % (pretty, table[mirror][1]), line_no)
        want = sum(parities[t] for t in key) % 2
        for t, c in enumerate(value):
            if c and parities[t] != want:
                raise ParseError("grading violation: %s in %s has parity %d, expected %d"
                                 % (labels[t], pretty, parities[t], want), line_no)
        table[key] = (value, line_no)

    declared = set()
    for directive, rest, base, line_no in staged:
        if not rest.strip():  # a bare declaration
            declared.add(directive)
            continue
        arity = 2 if directive == "binary" else 3
        key, value = resolve(rest, base, line_no, arity)
        admit(binary if arity == 2 else ternary, key, value, line_no)

    # each operation listed or declared, or both when no line names either
    return AlgebraDef(name or "unnamed", space, **{
        st.NAME: st.from_products(space, {k: v for k, (v, _) in table.items()})
        for st, table in ((BinaryStructure, binary), (TernaryStructure, ternary))
        if table or st.NAME in declared or not staged})


def serialize_algebra(A):
    """Canonical text: only products not implied by skew-symmetry, in
    lexicographic index order, after a bare declaration of each operation
    the product lines and the no-products default do not imply.
    parse_algebra inverts this exactly."""
    space = A.space
    if not space.is_even_first():
        raise ValueError("serialization needs even labels before odd ones")
    for lab in space.labels:
        if not _LABEL.fullmatch(lab):
            raise ValueError("label %r does not fit the file grammar" % lab)
    # the parser strips the name and cuts its line at '#' and newlines
    if not A.name or A.name != A.name.strip() or "#" in A.name or "\n" in A.name:
        raise ValueError("name %r does not fit the file grammar" % A.name)
    for st in A._lifted[1].values():
        # only the kept half, i <= j, is written (even squares are 0); the parser completes it
        if st is not None and st._skew_witnesses:
            raise ValueError("%s table is not super skew at [%s], which the file grammar "
                             "implies" % (st.NAME, ",".join(
                                 _witnesses(st.NAME, space, st._skew_witnesses)[0].at)))

    n = space.dim
    par = space.parities
    lab = space.labels
    out = ["name %s" % A.name]
    evens = [l for l, p in zip(lab, par) if p == 0]
    odds = [l for l, p in zip(lab, par) if p == 1]
    if evens:
        out.append("even %s" % " ".join(evens))
    if odds:
        out.append("odd %s" % " ".join(odds))

    products = {st.NAME: ["%s [%s] = %s" % (st.NAME, ",".join(lab[t] for t in at),
                                            SuperVector(space, _dense(entry, n)))
                          for at, entry in st.cells().items() if at[0] <= at[1]]
                for st in (A.binary, A.ternary) if st is not None}
    if any(products.values()) or len(products) == 1:
        out += [name for name, lines in products.items() if not lines]
    out += [line for lines in products.values() for line in lines]
    return "\n".join(out) + "\n"
