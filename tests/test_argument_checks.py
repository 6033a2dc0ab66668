"""Each kind of argument is checked by one rule, with one text: a count is an
int, not a bool, at or above a stated least; an element is an int in
0..n-1; a function stated for a kind of algebra refuses the others.  Every
row below raises PreconditionError with that rule's text.  Before these
rules, the rows of cg, cg_dl, cg_k4, closure_universe, subalgebra_generated,
is_congruence, box_power, diamond_power, build_phi and corpus returned an
answer or raised a bare TypeError or IndexError."""
import re

import pytest

from poma import (EnumerationTask, Hom, ModalAlgebra, Partition, Var, boolean_envelope, cg,
                  cg_dl, cg_k4, classify_quasi, complex_algebra, con_lattice, corpus,
                  dual_space, enum_bdl, enum_posets, eval_term, extend_hom, fact52_check,
                  free_over, homs, is_congruence, is_p_morphism, is_sc_pk4,
                  is_simple_lemma45, is_well_connected, kripke_eval, lemma53_growth,
                  lemma64_66_properties, parse_quasi, splitting_c3a, splitting_d3,
                  subalgebra_generated, theorem93_battery, variety_of)
from poma.algebras import powerset
from poma.errors import PomaError, PreconditionError
from poma.free import build_phi
from poma.morphisms import closure_universe
from poma.terms import box_power, diamond_power

_X = Var("x")
D4 = corpus("D4")
M = boolean_envelope(D4).modal
V = variety_of([D4])
Q = parse_quasi("x ~ dia x => x ~ 0")

# (id, call, label, noun, least)
COUNTS = [
    ("box_power", lambda v: box_power(_X, v), "power", "exponent", 0),
    ("diamond_power", lambda v: diamond_power(_X, v), "power", "exponent", 0),
    ("build_phi", build_phi, "phi index", "index", 0),
    ("corpus", lambda v: corpus("AN_MINUS", v), "AN_MINUS", "parameter", 1),
    ("enum_bdl", enum_bdl, "max size", "bound", 0),
    ("enum_posets", enum_posets, "poset size", "size", 0),
    ("EnumerationTask", lambda v: EnumerationTask("PS4", v), "max size", "bound", 1),
    ("free_over", lambda v: free_over([D4], v), "rank", "rank", 0),
    ("con_lattice", lambda v: con_lattice(D4, v), "budget", "budget", 0),
    ("theorem93_battery", lambda v: theorem93_battery(V, v), "bound", "bound", 0),
    ("classify_quasi", lambda v: classify_quasi(V, Q, v), "free rank", "bound", 0),
    ("lemma53_growth", lemma53_growth, "N", "number of worlds", 2),
    ("complex_algebra", lambda v: complex_algebra(v, ()), "worlds", "count", 0),
    ("kripke_eval", lambda v: kripke_eval(v, (), _X, {}), "worlds", "count", 0),
]

# (id, call, noun, n)
ELEMENTS = [
    ("cg", lambda v: cg(D4, [(v, 0)]), "element", 4),
    ("cg-second", lambda v: cg(D4, [(0, v)]), "element", 4),
    ("cg_dl", lambda v: cg_dl(D4, v, 0), "element", 4),
    ("cg_k4", lambda v: cg_k4(M, 0, v), "element", M.algebra.size),
    ("closure_universe", lambda v: closure_universe(D4, [v]), "element", 4),
    ("subalgebra_generated", lambda v: subalgebra_generated(D4, [v]), "element", 4),
    ("is_congruence",
     lambda v: is_congruence(D4, Partition(4, ((0,), (v,), (2,), (3,)))), "element", 4),
    ("Hom.is_valid", lambda v: Hom(D4, D4, (0, v, 2, 3)).is_valid(), "element", 4),
    ("extend_hom-source", lambda v: extend_hom(D4, D4, {v: 0}), "element", 4),
    ("extend_hom-target", lambda v: extend_hom(D4, D4, {0: v}), "element", 4),
    ("homs", lambda v: homs(D4, D4, {0: v}), "element", 4),
    ("eval_term", lambda v: eval_term(D4, _X, {"x": v}), "element", 4),
    ("complex_algebra", lambda v: complex_algebra(2, [(v, 0)]), "world", 2),
    ("kripke_eval", lambda v: kripke_eval(2, (), _X, {"x": {v}}), "world", 2),
    ("is_p_morphism",
     lambda v: is_p_morphism(dual_space(D4), dual_space(D4), (0, v, 2)), "point", 3),
]


def _count_rows():
    for name, call, label, noun, least in COUNTS:
        bad = [True, -1, 1.0] + ([least - 1] if least > 0 else [])
        for v in bad:
            text = (f"{label} {v!r}: the {noun} must be an int" if type(v) is not int
                    else f"{label} {v}: the {noun} must be >= {least}")
            yield pytest.param(call, v, text, id=f"{name}-{v!r}")


def _element_rows():
    for name, call, noun, n in ELEMENTS:
        for v in (True, -1, 1.0, n):
            yield pytest.param(call, v, f"{noun} {v!r} out of range 0..{n - 1}",
                               id=f"{name}-{v!r}")


@pytest.mark.parametrize("call,value,text", [*_count_rows(), *_element_rows()])
def test_bad_count_or_element_is_refused(call, value, text):
    with pytest.raises(PreconditionError, match=f"^{re.escape(text)}$"):
        call(value)


def test_corpus_parameter_has_no_cache_to_rename_it():
    """corpus("AN_MINUS", True) built AN_MINUS(True), and an untyped cache
    then answered corpus("AN_MINUS", 1) with that algebra."""
    with pytest.raises(PomaError):
        corpus("AN_MINUS", True)
    assert corpus("AN_MINUS", 1).name == "AN_MINUS(1)"
    with pytest.raises(PomaError):
        corpus("EX46", 4.0)
    with pytest.raises(PomaError, match="^EX46 7: the parameter must be <= 6$"):
        corpus("EX46", 7)


# a chain frame 0 -> 1 -> 2: a positive modal algebra, not K4 (not transitive)
CHAIN = complex_algebra(3, [(0, 1), (1, 2)])
B2 = corpus("B2")           # K4, not S4: box sends the bottom to the top


@pytest.mark.parametrize("call,text", [
    (lambda: is_well_connected(B2), "well-connectedness needs a PS4 algebra"),
    (lambda: fact52_check(B2, 0), "the landmark diagram needs a PS4 algebra"),
    (lambda: lemma64_66_properties(B2), "endomorphism battery needs a PS4 algebra"),
    (lambda: splitting_c3a(B2), "splitting check needs a PS4 algebra"),
    (lambda: splitting_d3(CHAIN), "splitting check needs a PK4 algebra"),
    (lambda: is_simple_lemma45(CHAIN), "the simplicity criterion needs a PK4 algebra"),
    (lambda: cg_k4(ModalAlgebra(CHAIN, powerset(3)[3]), 0, 1), "cg_k4 needs a PK4 algebra"),
    (lambda: is_sc_pk4(variety_of([CHAIN], "V(chain)")), "V(chain) needs a PK4 algebra"),
], ids=["is_well_connected", "fact52_check", "lemma64_66_properties", "splitting_c3a",
        "splitting_d3", "is_simple_lemma45", "cg_k4", "is_sc_pk4"])
def test_algebra_of_another_kind_is_refused(call, text):
    with pytest.raises(PreconditionError, match=f"^{re.escape(text)}$"):
        call()
