"""Command-line surface.

Exit codes: 0 on success, 1 when an axiom check fails (witnesses are
printed), 2 on usage or parse errors and when stdout closes before the
output is written.  Output is deterministic: the same argv and file
bytes produce the same bytes on stdout.

`--format machine` prints one `key = value` fact per line with keys
sorted lexicographically; indices are zero-padded so the text sort
matches the numeric order.
"""

from __future__ import annotations

import argparse
import os
import sys

# `import superbol` has loaded the structures; each command imports the
# other modules it uses where it runs, so a process loads only those
from .graded import _text
from .structures import AxiomError, center, check_axioms, require_axioms

_WITNESS_LIMIT = 8


def _flag(value):
    return "true" if value else "false"


def _load_algebra(arg):
    """A path to an .alg file, or a catalog key."""
    if os.path.exists(arg):
        from .algfile import parse_algebra
        with open(arg, "r", encoding="utf-8") as handle:
            return parse_algebra(handle.read())
    from . import catalog
    try:
        return catalog.load(arg)
    except KeyError:
        from .algfile import ParseError
        raise ParseError("no such file, and %r is not a catalog key" % arg)


def _witness_facts(report, facts, prefix=""):
    facts[prefix + "passed"] = _flag(report.passed)
    facts[prefix + "witness.count"] = str(len(report.witnesses))
    for idx, w in enumerate(report.witnesses[:_WITNESS_LIMIT]):
        stem = "%switness[%02d]." % (prefix, idx)
        facts[stem + "axiom"] = w.axiom
        facts[stem + "at"] = ",".join(w.at)
        facts[stem + "defect"] = str(w.defect)


def _report_lines(report, lines):
    lines.append("%s: %s axioms on %s"
                 % ("PASS" if report.passed else "FAIL", report.kind, report.subject))
    for w in report.witnesses[:_WITNESS_LIMIT]:
        lines.append("  %s fails at (%s): defect %s" % (w.axiom, ", ".join(w.at), w.defect))
    extra = len(report.witnesses) - _WITNESS_LIMIT
    if extra > 0:
        lines.append("  ... and %d more witnesses" % extra)


def _matrix_lines(labels, gram, lines):
    cells = [[_text(x) for x in row] for row in gram]
    width = max((len(c) for row in cells for c in row), default=1)
    lwidth = max((len(lab) for lab in labels), default=1)
    for lab, row in zip(labels, cells):
        lines.append("  %-*s [ %s ]" % (lwidth, lab, "  ".join("%*s" % (width, c) for c in row)))


def _matrix_facts(name, gram, facts):
    for i, row in enumerate(gram):
        for j, x in enumerate(row):
            facts["%s[%02d][%02d]" % (name, i, j)] = _text(x)


def cmd_check(args, A):
    report = check_axioms(A, args.kind)
    facts, lines = {}, []
    facts["check.kind"] = args.kind
    facts["check.subject"] = report.subject
    _witness_facts(report, facts, "check.")
    _report_lines(report, lines)
    return (0 if report.passed else 1), facts, lines


def _derived(args, A, construct):
    from .algfile import serialize_algebra
    out = construct(A)
    text = serialize_algebra(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0, {}, []
    # the .alg text is the output in either format
    return 0, None, [text.rstrip("\n")]


def cmd_derive_bol(args, A):
    from .constructions import malcev_to_bol
    return _derived(args, A, malcev_to_bol)


def cmd_lie_to_lts(args, A):
    from .constructions import lie_to_supertriple
    return _derived(args, A, lie_to_supertriple)


def cmd_envelope(args, B):
    from .envelope import enveloping, ips_space, ps_space
    require_axioms(B, "bol")
    H = ps_space(B) if args.maximal else ips_space(B)
    env = enveloping(B, H)
    facts, lines = {}, []
    kind = "maximal" if args.maximal else "standard"
    facts["envelope.kind"] = kind
    facts["envelope.base_dim"] = str(env.base_dim)
    facts["envelope.pairs_dim"] = str(len(env.pairs.basis))
    facts["envelope.dim"] = str(env.dim)
    lines.append("%s enveloping Lie superalgebra of %s" % (kind, B.name))
    lines.append("  base dim %d, pair dim %d, total dim %d"
                 % (env.base_dim, len(env.pairs.basis), env.dim))
    for idx, pair in enumerate(env.pairs.basis):
        facts["envelope.pair[%02d]" % idx] = str(pair)
        lines.append("  %s = %s" % (env.lie.space.labels[env.base_dim + idx], pair))
    lines.append("  Lie axioms verified")
    facts["envelope.lie_passed"] = "true"
    return 0, facts, lines


def cmd_killing(args, A):
    from .forms import killing_form
    form = killing_form(A)
    facts, lines = {}, []
    facts["labels"] = ",".join(A.space.labels)
    _matrix_facts("killing", form.gram, facts)
    facts["supersymmetric"] = _flag(form.is_supersymmetric())
    facts["nondegenerate"] = _flag(form.is_nondegenerate())
    lines.append("Killing form of %s" % A.name)
    _matrix_lines(A.space.labels, form.gram, lines)
    lines.append("  supersymmetric: %s, nondegenerate: %s"
                 % (facts["supersymmetric"], facts["nondegenerate"]))
    return 0, facts, lines


def cmd_killing_ricci(args, B):
    from .forms import killing_ricci
    both = args.method == "both"
    routes = ("restriction", "direct") if both else (args.method,)
    facts, lines, forms = {"method": args.method}, [], [killing_ricci(B, r) for r in routes]
    for route, form in zip(routes, forms):
        _matrix_facts(route if both else "gram", form.gram, facts)
        lines.append("Killing-Ricci form of %s, %s route" % (B.name, route))
        _matrix_lines(B.space.labels, form.gram, lines)
    agree = forms[0] == forms[-1]
    if both:
        facts["routes_agree"] = _flag(agree)
        lines.append("routes agree: %s" % _flag(agree))
    return (0 if agree else 1), facts, lines


def cmd_center(args, A):
    Z = center(A)
    facts, lines = {}, []
    facts["center.dim"] = str(Z.dim)
    for idx, v in enumerate(Z.basis):
        facts["center.basis[%02d]" % idx] = str(v)
    lines.append("center of %s: dim %d" % (A.name, Z.dim))
    for v in Z.basis:
        lines.append("  %s" % v)
    return 0, facts, lines


def cmd_pseudo(args, B):
    from .envelope import ips_space, ps_space
    require_axioms(B, "bol")
    facts, lines = {}, []
    if args.inner or args.max:
        space = ips_space(B) if args.inner else ps_space(B)
        stem = "ips" if args.inner else "ps"
        facts[stem + ".dim"] = str(space.dim)
        for deg, d in enumerate(space.degree_dims()):
            facts["%s.degree[%d].dim" % (stem, deg)] = str(d)
        for idx, pair in enumerate(space.basis):
            facts["%s.pair[%02d]" % (stem, idx)] = str(pair)
        lines.append("%s pseudo superderivation pairs of %s: dim %d"
                     % ("inner" if args.inner else "maximal", B.name, space.dim))
        for pair in space.basis:
            lines.append("  %s" % pair)
        return 0, facts, lines
    ips = ips_space(B)
    ps = ps_space(B)
    facts["ips.dim"] = str(ips.dim)
    facts["ps.dim"] = str(ps.dim)
    facts["ips_inside_ps"] = _flag(ps.contains_space(ips))
    lines.append("pseudo superderivation pairs of %s" % B.name)
    lines.append("  inner: dim %d" % ips.dim)
    lines.append("  maximal: dim %d" % ps.dim)
    lines.append("  inner inside maximal: %s" % facts["ips_inside_ps"])
    return 0, facts, lines


def cmd_report(args, B):
    from .forms import check_invariant, semisimplicity_report
    bol = check_axioms(B, "bol")
    facts, lines = {}, []
    _witness_facts(bol, facts, "bol.")
    _report_lines(bol, lines)
    if not bol.passed:
        return 1, facts, lines

    semi = semisimplicity_report(B)
    inv = check_invariant(B, semi.beta)

    lines.append("Killing-Ricci form")
    _matrix_lines(B.space.labels, semi.beta.gram, lines)
    _matrix_facts("beta", semi.beta.gram, facts)

    for label, rep in (("supersymmetry", inv.supersymmetry),
                       ("product-invariance", inv.product_invariance),
                       ("triple-invariance", inv.triple_invariance)):
        facts["invariance.%s" % label] = _flag(rep.passed)
        _report_lines(rep, lines)
    facts["invariance.inva1"] = _flag(inv.inva1)
    facts["invariance.inva2"] = _flag(inv.inva2)
    facts["invariance.inva3"] = _flag(inv.inva3)
    facts["invariance.equivalent"] = _flag(inv.equivalence_consistent)
    lines.append("ternary invariance phrasings agree: %s (%s, %s, %s)"
                 % (_flag(inv.equivalence_consistent), _flag(inv.inva1),
                    _flag(inv.inva2), _flag(inv.inva3)))

    facts["envelope.dim"] = str(semi.envelope_dim)
    facts["cross_block_vanishes"] = _flag(semi.cross_block_vanishes)
    facts["pairing_identity"] = ("none" if semi.pairing_identity is None
                                 else _flag(semi.pairing_identity))
    facts["beta_nondegenerate"] = _flag(semi.beta_nondegenerate)
    facts["alpha_nondegenerate"] = _flag(semi.alpha_nondegenerate)
    facts["orthogonal_center_match"] = ("none" if semi.orthogonal_center_match is None
                                        else _flag(semi.orthogonal_center_match))
    lines.append("standard envelope: dim %d, Killing form %s"
                 % (semi.envelope_dim,
                    "nondegenerate" if semi.alpha_nondegenerate else "degenerate"))
    lines.append("beta nondegenerate: %s" % _flag(semi.beta_nondegenerate))
    lines.append("pair block orthogonal to base block: %s" % _flag(semi.cross_block_vanishes))
    if semi.pairing_identity is not None:
        lines.append("pair-block pairing reduces to beta: %s" % _flag(semi.pairing_identity))
    if semi.orthogonal_center_match is not None:
        lines.append("orthogonal of the product span equals the center: %s"
                     % _flag(semi.orthogonal_center_match))

    ok = inv.passed and inv.equivalence_consistent
    return (0 if ok else 1), facts, lines


def cmd_catalog(args, _):
    from . import catalog
    if args.what == "list":
        facts, lines = {}, []
        for idx, ent in enumerate(catalog.entries()):
            facts["entry[%02d].key" % idx] = ent.key
            facts["entry[%02d].kind" % idx] = ent.kind
            facts["entry[%02d].dim" % idx] = "%d|%d" % (ent.algebra.space.even_dim,
                                                        ent.algebra.space.odd_dim)
            lines.append("%-16s %-8s dim %d|%d  %s"
                         % (ent.key, ent.kind, ent.algebra.space.even_dim,
                            ent.algebra.space.odd_dim, ent.note))
        lines.append("%-16s %-8s dim %s  %s"
                     % ("abelian_m_n", "bol", "m|n",
                        "all products zero, any number of generators"))
        return 0, facts, lines
    from .algfile import ParseError, serialize_algebra
    try:
        ent = catalog.entry(args.key)
    except KeyError as err:
        raise ParseError(err.args[0])
    text = serialize_algebra(ent.algebra)
    return 0, None, [text.rstrip("\n")]


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"),
                        default=argparse.SUPPRESS, help="output style")

    parser = argparse.ArgumentParser(
        prog="superbol",
        description="Exact checks and constructions for graded algebras "
                    "given by structure constants.")
    parser.add_argument("--format", choices=("human", "machine"), default="human",
                        help="output style")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="verify an axiom system, printing witnesses on failure")
    p.add_argument("algebra", help="path to an .alg file, or a catalog key")
    p.add_argument("--kind", required=True,
                   choices=("lie", "malcev", "supertriple", "lts", "bol"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive-bol", parents=[common],
                       help="derived triple product of a Malcev superalgebra")
    p.add_argument("algebra")
    p.add_argument("-o", "--out", help="write the result here instead of stdout")
    p.set_defaults(func=cmd_derive_bol)

    p = sub.add_parser("lie-to-lts", parents=[common],
                       help="triple system [[x,y],z] of a Lie superalgebra")
    p.add_argument("algebra")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_lie_to_lts)

    p = sub.add_parser("envelope", parents=[common],
                       help="enveloping Lie superalgebra of a Bol superalgebra")
    p.add_argument("algebra")
    p.add_argument("--maximal", action="store_true",
                   help="use all pseudo superderivation pairs, not only inner ones")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("killing", parents=[common],
                       help="Killing form of a Lie superalgebra")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_killing)

    p = sub.add_parser("killing-ricci", parents=[common],
                       help="Killing-Ricci form of a Bol superalgebra")
    p.add_argument("algebra")
    p.add_argument("--method", choices=("direct", "restriction", "both"),
                   default="both")
    p.set_defaults(func=cmd_killing_ricci)

    p = sub.add_parser("center", parents=[common], help="center of an algebra")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("pseudo", parents=[common],
                       help="pseudo superderivation pairs of a Bol superalgebra")
    p.add_argument("algebra")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--inner", action="store_true", help="list the inner pairs")
    group.add_argument("--max", action="store_true", help="list a maximal basis")
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("report", parents=[common],
                       help="axioms, Killing-Ricci form, invariance and envelope facts")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("catalog", parents=[common], help="built-in example algebras")
    csub = p.add_subparsers(dest="what", required=True)
    c = csub.add_parser("list", parents=[common])
    c.set_defaults(func=cmd_catalog, what="list")
    c = csub.add_parser("show", parents=[common])
    c.add_argument("key")
    c.set_defaults(func=cmd_catalog, what="show")
    return parser


def _write(lines):
    """Print lines to stdout, flushed; exit code 2 when nobody reads them."""
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError as err:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: %s" % err, file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "human")
    try:
        # every command but catalog reads one algebra, a file or a catalog key
        A = None if args.command == "catalog" else _load_algebra(args.algebra)
        code, facts, lines = args.func(args, A)
    except AxiomError as err:
        code, facts, lines = 1, {}, []
        if fmt == "machine":
            _witness_facts(err.report, facts)
        else:
            _report_lines(err.report, lines)
    except (ValueError, OSError) as err:
        # the input's faults, ParseError, StructureError, GradingError and
        # EnvelopeError, are ValueErrors
        print("error: %s" % err, file=sys.stderr)
        return 2
    # raw text output (.alg) comes with facts None, the same in both formats
    if facts is not None and fmt == "machine":
        lines = ["%s = %s" % (key, facts[key]) for key in sorted(facts)]
    return _write(lines) or code
