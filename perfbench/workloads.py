"""The four workloads: set-up, per-pass operation lists and output checks.

Each workload is a fixed list of operations that one client runs as a
closed loop, each pass in one worker process.  A pass runs the list
once.  Every pass gets inputs re-based through maps drawn from
`random.Random("<seed>/<pass>")`, so no operation sees an input an
earlier one saw, and pass k of a seed is the same on every run.

An operation returns its output; `Op.facts` reduces the output to facts
that do not depend on the basis (verdicts, witness counts, dimensions,
ranks, exit codes) and compares them with the expected values written
here.  `Op.text` renders the exact output, whose digest the default seed
checks against `digests.json`.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import inputs
import reference
from superbol import algfile, catalog, cli, constructions, envelope, forms, linalg, structures
from superbol.forms import BilinearForm
from superbol.graded import GradedMap

DEFAULT_SEED = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Op:
    """One timed operation.

    `expected` maps fact names to values; `facts(output)` must return
    exactly those values.  `reads` lists the algebras the workload
    generated for the operation (not the verified sources a morphism
    check compares against), for the workload's input statistics.
    """

    name: str
    call: object
    facts: object
    expected: dict
    text: object
    reads: tuple = ()

    def check(self, output):
        """None when the output's facts match, else a one-line reason."""
        got = self.facts(output)
        if got != self.expected:
            return "%s: expected %s, got %s" % (self.name, self.expected, got)
        return None


def pass_rng(seed, index):
    return random.Random("%d/%d" % (seed, index))


# ---------------------------------------------------------------------------
# output renderings and facts


def report_text(report):
    return str(report)


def report_facts(report):
    return {"passed": report.passed, "witnesses": len(report.witnesses)}


def verdict_facts(report):
    # a dense change of basis keeps the verdict but not the witness count
    return {"passed": report.passed, "has_witnesses": bool(report.witnesses)}


def pairs_text(space):
    return "\n".join(str(p) for p in space.basis)


def pairs_facts(space):
    return {"dim": space.dim, "degree_dims": space.degree_dims()}


def affine_text(aff):
    return "%r\n%r" % (aff.point, aff.directions)


def affine_facts(aff):
    return {"empty": aff.is_empty, "dim": aff.dim}


def subspace_text(sub):
    return "\n".join(str(v) for v in sub.basis)


def subspace_facts(sub):
    return {"dim": sub.dim}


def permuted_form(beta, space, perm, signs):
    """beta in the basis b_i = s_i e_{perm[i]} of `space`."""
    n = space.dim
    return BilinearForm(space, tuple(
        tuple(signs[i] * signs[j] * beta.gram[perm[i]][perm[j]] for j in range(n))
        for i in range(n)))


# ---------------------------------------------------------------------------
# the ladder


def ladder(*names):
    """The named base algebras, built from formulas, each with its declared
    axioms verified once.  Inputs derived from these by malcev_to_bol or
    lie_to_supertriple are verified by the construction, which re-checks
    its output."""
    M7 = inputs.m7()
    osp = inputs.osp12()
    build = {
        "M7": (lambda: M7, "malcev"),
        "osp": (lambda: osp, "lie"),
        "osp2": (lambda: inputs.direct_sum(osp, inputs.osp12("_2"), "osp12+osp12"), "lie"),
        "m7osp": (lambda: inputs.direct_sum(M7, osp, "M7+osp12"), "malcev"),
    }
    out = {}
    for name in names:
        make, kind = build[name]
        out[name] = make()
        structures.require_axioms(out[name], kind)
    return out


class Workload:
    name = ""
    chunk_s = reference.CHUNK_S

    def chunk(self):
        """The reference work run before each timed operation; it takes
        chunk_s CPU seconds at the reference speed."""
        reference.chunk()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build this workload's inputs; untimed by the passes."""
        raise NotImplementedError

    def warm_up(self):
        """Run the first operation once, on a basis no pass uses."""
        self.ops(-1)[0].call()

    def ops(self, index):
        """The operations of pass `index`, on inputs drawn for that pass."""
        raise NotImplementedError


class CheckSparse(Workload):
    """check_axioms on the native-basis ladder, re-based per pass through a
    signed permutation, which keeps sparsity, integrality and verdicts."""

    name = "check-sparse"

    def setup(self):
        L = ladder("M7", "osp", "osp2", "m7osp")
        zero = catalog.entry("abelian_6_2").algebra
        self.items = (
            ("osp12:lie", L["osp"], "lie", 0),
            ("osp12+osp12:lie", L["osp2"], "lie", 0),
            ("M7:malcev", L["M7"], "malcev", 0),
            ("M7+osp12:malcev", L["m7osp"], "malcev", 0),
            ("M7+osp12:lie", L["m7osp"], "lie", 168),
            ("lts(osp12+osp12):lts", constructions.lie_to_supertriple(L["osp2"]), "lts", 0),
            ("bol(M7):bol", constructions.malcev_to_bol(L["M7"]), "bol", 0),
            ("bol(M7+osp12):bol", constructions.malcev_to_bol(L["m7osp"]), "bol", 0),
            ("abelian_6_2:bol", zero, "bol", 0),
        )

    def ops(self, index):
        rng = pass_rng(self.seed, index)
        out = []
        for name, A, kind, witnesses in self.items:
            B = inputs.permute(A, *inputs.signed_permutation(rng, A.space.dim))
            out.append(Op(name, lambda B=B, kind=kind: structures.check_axioms(B, kind),
                          report_facts, {"passed": not witnesses, "witnesses": witnesses},
                          report_text, (B,)))
        return out


def dense_copies(algebras):
    """(source, dense copy, map) per algebra.  The dense maps come from a
    fixed generator, not from the seed: every seed then does the same
    scalar arithmetic, and passes differ only by a signed permutation."""
    rng = random.Random("dense")
    out = []
    for A in algebras:
        g = inputs.dense_even_map(rng, A.space)
        copy = inputs.transport(A, g, "dense " + A.name)
        out.append((A, copy, g))
    return out


def rebase_dense(item, rng):
    """The dense copy under a fresh parity-preserving signed permutation,
    and the composite even map from it to the source."""
    A, copy, g = item
    perm, signs = inputs.even_signed_permutation(rng, A.space.parities)
    B = inputs.permute(copy, perm, signs)
    return B, GradedMap.from_rows(B.space, 0, inputs.compose_permutation(g, perm, signs))


class CheckDense(Workload):
    """The same kinds, plus check_morphism, on copies re-based through an
    invertible even map with small integer entries, dense in each parity
    block.  The copies are mostly nonzero with Fraction entries, so sparse
    skipping has little to skip and scalar arithmetic dominates."""

    name = "check-dense"

    def setup(self):
        L = ladder("M7", "osp")
        # dims stay at 7 or below: a dense copy costs 30-160x its source
        cases = (
            ("osp12:lie", L["osp"], "lie", True),
            ("M7:lie", L["M7"], "lie", False),
            ("L2_2_2_malcev:malcev", catalog.entry("L2_2_2_malcev").algebra, "malcev", True),
            ("lts(osp12):lts", constructions.lie_to_supertriple(L["osp"]), "lts", True),
            ("L2_3_1_bol:bol", catalog.entry("L2_3_1_bol").algebra, "bol", True),
            ("bol(osp12):bol", constructions.malcev_to_bol(L["osp"]), "bol", True),
            ("bol(M7):bol", constructions.malcev_to_bol(L["M7"]), "bol", True),
        )
        dense = dense_copies([A for _, A, _, _ in cases])
        self.items = [(name, item, kind, passes)
                      for (name, _, kind, passes), item in zip(cases, dense)]

    def ops(self, index):
        rng = pass_rng(self.seed, index)
        out = []
        for name, item, kind, passes in self.items:
            A = item[0]
            copy, g = rebase_dense(item, rng)
            out.append(Op(name, lambda C=copy, kind=kind: structures.check_axioms(C, kind),
                          verdict_facts, {"passed": passes, "has_witnesses": not passes},
                          report_text, (copy,)))
            out.append(Op(name + ":morphism",
                          lambda g=g, C=copy, A=A: structures.check_morphism(g, C, A),
                          report_facts, {"passed": True, "witnesses": 0},
                          report_text, (copy,)))
        return out


class Pairs(Workload):
    """Pseudo-derivation pair spaces, companions, centers and orthogonals:
    elimination-bound work with no axiom sweep."""

    name = "pairs"

    def setup(self):
        L = ladder("M7", "osp", "osp2")
        bol_osp = constructions.malcev_to_bol(L["osp"])
        bol_m7 = constructions.malcev_to_bol(L["M7"])
        bol_osp2 = constructions.malcev_to_bol(L["osp2"])
        zero = catalog.entry("abelian_6_2").algebra
        # (algebra, ips degree dims, ps degree dims, companion dim of D_{e0,e1})
        self.bols = (
            (bol_osp, (3, 2), (6, 4), 3),
            (bol_m7, (21, 0), (21, 0), 0),
            (bol_osp2, (6, 4), (12, 8), 6),
        )
        self.zero = zero
        # forms computed once; passes transport them with the basis
        self.forms = ((bol_m7, forms.killing_ricci(bol_m7, "direct"), 0),
                      (bol_osp2, forms.killing_ricci(bol_osp2, "direct"), 0),
                      (zero, BilinearForm(zero.space, ((0,) * 8,) * 8), 8))
        self.dense = dense_copies([bol_osp])[0]

    def ops(self, index):
        rng = pass_rng(self.seed, index)
        out = []
        for A, ips_dims, ps_dims, comp_dim in self.bols:
            perm, signs = inputs.signed_permutation(rng, A.space.dim)
            B = inputs.permute(A, perm, signs)
            out.append(Op("ps_space(%s)" % A.name, lambda B=B: envelope.ps_space(B),
                          pairs_facts, {"dim": sum(ps_dims), "degree_dims": ps_dims},
                          pairs_text, (B,)))
            out.append(Op("ips_space(%s)" % A.name, lambda B=B: envelope.ips_space(B),
                          pairs_facts, {"dim": sum(ips_dims), "degree_dims": ips_dims},
                          pairs_text, (B,)))
            # the inner pair of the basis vectors that were e_0, e_1 before re-basing
            x, y = (B.space.basis_vector(perm.index(k)) for k in (0, 1))
            P = envelope.inner_pair(B, x, y).operator
            out.append(Op("companion_space(%s)" % A.name,
                          lambda B=B, P=P: envelope.companion_space(B, P),
                          affine_facts, {"empty": False, "dim": comp_dim},
                          affine_text, (B,)))
            out.append(Op("center(%s)" % A.name, lambda B=B: structures.center(B),
                          subspace_facts, {"dim": 0}, subspace_text, (B,)))
        Z = inputs.permute(self.zero, *inputs.signed_permutation(rng, self.zero.space.dim))
        out.append(Op("center(%s)" % Z.name, lambda: structures.center(Z),
                      subspace_facts, {"dim": Z.space.dim}, subspace_text, (Z,)))
        for A, beta, radical_dim in self.forms:
            n = A.space.dim
            perm, signs = inputs.signed_permutation(rng, n)
            B = inputs.permute(A, perm, signs)
            form = permuted_form(beta, B.space, perm, signs)
            half = linalg.span_reduce(B.space, B.space.basis()[: n // 2])
            out.append(Op("radical(%s)" % A.name, form.radical,
                          subspace_facts, {"dim": radical_dim}, subspace_text))
            out.append(Op("orthogonal(%s)" % A.name,
                          lambda form=form, half=half: forms.orthogonal(form, half),
                          subspace_facts,
                          {"dim": n if radical_dim == n else n - n // 2},
                          subspace_text))
        dense, _ = rebase_dense(self.dense, rng)
        out.append(Op("ps_space(%s)" % dense.name,
                      lambda: envelope.ps_space(dense),
                      pairs_facts, {"dim": 10, "degree_dims": (6, 4)}, pairs_text, (dense,)))
        return out


class CliReport(Workload):
    """Fresh `superbol --format machine` processes on `.alg` files, written
    afresh for each pass, and on catalog keys: what a CLI user pays,
    start-up, catalog verification, parsing and formatting included."""

    name = "cli-report"
    in_process = False

    # (argv, expected exit code, expected machine facts)
    COMMANDS = (
        (("report", "{bol_osp}"), 0,
         {"bol.passed": "true", "envelope.dim": "10", "invariance.equivalent": "true"}),
        (("report", "L2_3_1_bol"), 0, {"bol.passed": "true", "envelope.dim": "8"}),
        (("killing-ricci", "{bol_m7}"), 0, {"routes_agree": "true"}),
        (("killing-ricci", "{bol_osp}"), 0, {"routes_agree": "true"}),
        (("envelope", "--maximal", "{bol_osp}"), 0,
         {"envelope.dim": "15", "envelope.lie_passed": "true"}),
        (("pseudo", "--max", "{bol_m7}"), 0, {"ps.dim": "21"}),
        (("derive-bol", "{m7}"), 0, {}),
        (("center", "{bol_m7}"), 0, {"center.dim": "0"}),
        (("center", "abelian_3_1"), 0, {"center.dim": "4"}),
        (("killing", "{osp}"), 0, {"nondegenerate": "true"}),
        (("check", "{m7}", "--kind", "lie"), 1, {"check.passed": "false",
                                                 "check.witness.count": "168"}),
        (("catalog", "list"), 0, {"entry[04].key": "abelian_2_2"}),
    )

    def setup(self):
        L = ladder("M7", "osp")
        self.algebras = {"m7": L["M7"], "osp": L["osp"],
                         "bol_osp": constructions.malcev_to_bol(L["osp"]),
                         "bol_m7": constructions.malcev_to_bol(L["M7"])}
        self.files = {key: key + ".alg" for key in self.algebras}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def write_files(self, index):
        """Write this pass's `.alg` files, each algebra re-based through a
        fresh signed permutation like the other workloads' inputs; returns
        file name -> algebra written."""
        rng = pass_rng(self.seed, index)
        written = {}
        for key, A in sorted(self.algebras.items()):
            B = inputs.even_first(inputs.permute(A, *inputs.signed_permutation(rng, A.space.dim)))
            with open(os.path.join(self.workdir, self.files[key]), "w", encoding="utf-8") as handle:
                handle.write(algfile.serialize_algebra(B))
            written[self.files[key]] = B
        return written

    def warm_up(self):
        # one interpreter start with the package import, as every command pays
        self._subprocess(("catalog", "list"))

    @property
    def chunk_s(self):
        return reference.CHUNK_S if self.in_process else reference.PROCESS_S

    def chunk(self):
        # the commands are processes of their own, and interpreter start-up
        # is 40% of a small command's CPU time, so the reference is a
        # process too
        if self.in_process:
            reference.chunk()
        else:
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)

    def _subprocess(self, argv):
        done = subprocess.run([sys.executable, "-m", "superbol", "--format", "machine"]
                              + list(argv), cwd=self.workdir, env=self.env,
                              capture_output=True, timeout=120, check=False)
        return done.returncode, done.stdout

    def _in_process(self, argv):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["--format", "machine"] + list(argv))
        finally:
            os.chdir(cwd)
        return code, buf.getvalue().encode("utf-8")

    def ops(self, index):
        run = self._in_process if self.in_process else self._subprocess
        reads = self.write_files(index)
        out = []
        for argv, code, facts in self.COMMANDS:
            argv = tuple(a.format(**self.files) for a in argv)
            out.append(Op(" ".join(argv), lambda argv=argv: run(argv),
                          lambda result, keys=tuple(facts): cli_facts(result, keys),
                          {"exit": code, **facts},
                          lambda result: "exit %d\n%s" % (result[0], result[1].decode("utf-8")),
                          tuple(reads[a] for a in argv if a in reads)))
        return out


def cli_facts(result, keys):
    code, stdout = result
    facts = {}
    for line in stdout.decode("utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in keys:
            facts[key] = value
    return {"exit": code, **facts}


WORKLOADS = {w.name: w for w in (CheckSparse, CheckDense, Pairs, CliReport)}
