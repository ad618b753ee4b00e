"""Exact workbench for finite-dimensional Z2-graded nonassociative algebras.

Algebras are given by structure constants over the rationals.  The
package checks axiom systems (Lie, Malcev, supertriple systems, Bol),
derives triple products, builds enveloping Lie superalgebras from
pseudo superderivation pairs, and computes Killing and Killing-Ricci
forms along two independent routes.  All arithmetic is exact.

`import superbol` loads the base every command uses (graded, linalg,
structures); the names of the other modules resolve on each access
(PEP 562), so each CLI command loads only the modules it runs.
"""

import importlib

from .graded import (EVEN, ODD, GradedMap, GradingError, SuperSpace,
                     SuperVector, graded_commutator, rat, sign, supertrace)
from .linalg import (AffineSubspace, Subspace, nullspace, rref, solve_affine,
                     span_reduce, whole_space)
from .structures import (IDEAL, INVARIANT, KINDS, NOT_CLOSED, SUBSUPERALGEBRA,
                         AlgebraDef, AxiomError, BinaryStructure, CheckReport,
                         StructureError, TernaryStructure, Witness, center,
                         check_axioms, check_morphism, classify_subspace,
                         require_axioms)

__version__ = "0.1.0"

# every public name of the modules loaded on access, by its module
_MODULE_OF = {name: module for module, names in {
    "algfile": "ParseError parse_algebra serialize_algebra",
    "constructions": "lie_to_supertriple malcev_to_bol",
    "envelope": "EnvelopeError EnvelopingLieSuperalgebra PairSpace PseudoDerivationPair "
                "check_pseudo companion_space enveloping ideal_envelope inner_pair ips_space "
                "pair_bracket ps_space",
    "forms": "BilinearForm InvariantReport SemisimplicityReport check_invariant killing_form "
             "killing_ricci orthogonal right_map semisimplicity_report",
}.items() for name in names.split()}
_SUBMODULES = {*_MODULE_OF.values(), "catalog", "cli"}

__all__ = sorted([
    *_MODULE_OF, "catalog",
    "EVEN", "ODD", "GradedMap", "GradingError", "SuperSpace", "SuperVector",
    "graded_commutator", "rat", "sign", "supertrace",
    "AffineSubspace", "Subspace", "nullspace", "rref", "solve_affine", "span_reduce",
    "whole_space",
    "IDEAL", "INVARIANT", "KINDS", "NOT_CLOSED", "SUBSUPERALGEBRA", "AlgebraDef",
    "AxiomError", "BinaryStructure", "CheckReport", "StructureError", "TernaryStructure",
    "Witness", "center", "check_axioms", "check_morphism", "classify_subspace",
    "require_axioms",
])


def __getattr__(name):
    # not cached: the value is always the defining module's binding
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
