"""Tracing from outside the package: spans and counters around the public
functions of each module, installed by rebinding names.

A function imported into several modules has several bindings
(`forms.enveloping` and `envelope.enveloping` are the same object under
two names), so `patched` replaces every binding of each
target in the package's modules and puts the originals back when it
exits.  The benchmark itself calls the package through module attributes
(`structures.check_axioms(...)`), so those calls see the wrappers too.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, function) pairs that get a span in traced passes: those whose
# self time a per-layer metric reports, and those whose calls it counts
SPANNED = (
    ("superbol.structures", ("check_axioms", "check_morphism")),
    ("superbol.linalg", ("rref", "nullspace", "solve_affine", "span_reduce")),
    ("superbol.constructions", ("malcev_to_bol", "lie_to_supertriple")),
    ("superbol.envelope", ("ips_space", "ps_space", "companion_space", "enveloping",
                           "inner_pair", "pair_bracket")),
    ("superbol.forms", ("killing_form", "killing_ricci", "check_invariant",
                        "semisimplicity_report", "orthogonal", "right_map")),
    ("superbol.algfile", ("parse_algebra",)),
    ("superbol.catalog", ("entry",)),
    ("superbol.cli", ("main",)),
)


def _owned(module):
    name = getattr(module, "__name__", "")
    return name == "superbol" or name.startswith("superbol.")


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Rebind every binding of each (module, function) in `targets` to
    make_wrapper("<module>.<function>", original) while the block runs."""
    restore = []
    try:
        for modname, names in targets:
            for fname in names:
                original = getattr(sys.modules[modname], fname)
                wrapper = make_wrapper("%s.%s" % (modname.rsplit(".", 1)[-1], fname), original)
                for module in list(sys.modules.values()):
                    if not _owned(module):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            restore.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def active(self):
        return patched(SPANNED, self.wrapper)

    def totals(self, keep):
        """name -> (calls, self seconds) over spans whose operation id
        satisfies keep(op).  Self time is the span's duration minus the
        durations of its direct children, which nest inside it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if keep(op):
                calls[name] += 1
                self_s[name] += end - start - child[idx]
        return calls, self_s


def coeff_bits(x):
    if type(x) is int:
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


def table_bits(A):
    best = 0
    for struct in (A.binary, A.ternary):
        if struct is None:
            continue
        stack = [struct.table]
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                stack.extend(item)
            else:
                best = max(best, coeff_bits(item))
    return best


class Counter:
    """The counting pass: scalar calls, elimination shapes, coefficient
    sizes and repeated axiom sweeps.  Counting slows every call it
    wraps, so it runs in a pass of its own and no span times it."""

    def __init__(self):
        self.op = None
        self.rat_calls = 0
        self.rref = []          # (rows, cols, rank, bits of the result)
        self.max_bits = 0
        self.sweeps = defaultdict(list)   # op id -> [(algebra, kind)]

    def see_algebra(self, A):
        self.max_bits = max(self.max_bits, table_bits(A))

    def see_gram(self, gram):
        self.max_bits = max(self.max_bits, max((coeff_bits(x) for row in gram for x in row),
                                               default=0))

    def wrapper(self, name, fn):
        if name == "graded.rat":
            def counted(x):
                self.rat_calls += 1
                return fn(x)
            return counted
        if name == "linalg.rref":
            def counted(rows):
                rows = list(rows)
                out = fn(rows)
                bits = max((coeff_bits(x) for row in out[0] for x in row), default=0)
                self.rref.append((len(rows), len(rows[0]) if rows else 0, len(out[0]), bits))
                self.max_bits = max(self.max_bits, bits)
                return out
            return counted
        if name == "structures.check_axioms":
            from superbol.structures import KIND_ALIASES

            def counted(A, kind):
                self.sweeps[self.op].append((A, KIND_ALIASES.get(kind, kind)))
                return fn(A, kind)
            return counted

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            for item in (out, getattr(out, "lie", None)):
                if hasattr(item, "space") and hasattr(item, "ternary"):
                    self.see_algebra(item)
                elif hasattr(item, "gram"):
                    self.see_gram(item.gram)
            return out
        return counted

    def active(self):
        return patched((
            ("superbol.graded", ("rat",)),
            ("superbol.linalg", ("rref",)),
            ("superbol.structures", ("check_axioms",)),
            ("superbol.constructions", ("malcev_to_bol", "lie_to_supertriple")),
            ("superbol.envelope", ("enveloping",)),
            ("superbol.forms", ("killing_form", "killing_ricci")),
            ("superbol.algfile", ("parse_algebra",)),
        ), self.wrapper)

    def unique_ratio(self):
        """Distinct (algebra, kind) per operation, summed, over all sweeps;
        1 when no operation sweeps anything."""
        calls = sum(len(v) for v in self.sweeps.values())
        if not calls:
            return 1.0
        return sum(len(set(v)) for v in self.sweeps.values()) / calls
