import hashlib
import json

import pytest

from poma import (FiniteAlgebra, StructuralError, bottom, corpus, is_pma,
                  join, meet, top, validate)
from poma.algebras import chain_order

from conftest import relabel


def test_identity_chain_satisfies_everything():
    rep = validate(corpus("C2"))
    assert rep.is_bounded_lattice and rep.is_distributive
    assert rep.is_pma and rep.is_pk4 and rep.is_ps4
    assert rep.violations == ()


def test_collapsed_two_element_algebra_is_pma_not_ps4():
    rep = validate(corpus("B2"))
    assert rep.is_pma and rep.is_pk4
    assert not rep.is_ps4
    assert any(code == "box-decreasing" for code, _ in rep.violations)


def test_three_chain_with_full_operator_swing_is_ps4():
    assert validate(corpus("D3")).is_ps4


@pytest.mark.parametrize("name", ["C2", "D3", "C3a", "C3b", "D4", "C4a", "C4b",
                                  "C5a", "C5b", "C6a", "C6b", "A4", "D5a",
                                  "D5b", "B4", "EX44III", "EX44IV"])
def test_corpus_is_ps4(name):
    assert validate(corpus(name)).is_ps4


@pytest.mark.parametrize("name,param", [("EX46", 3), ("AN_MINUS", 1),
                                        ("AN_MINUS", 2), ("AN_MINUS", 3),
                                        ("AN_SIMPLE", 2), ("AN_SIMPLE", 3)])
def test_parametric_corpus_is_ps4(name, param):
    assert validate(corpus(name, param)).is_ps4


def test_validate_is_deterministic_and_idempotent():
    A = corpus("C5a")
    assert validate(A) == validate(A)
    assert validate(A) is validate(A)          # cached


def test_lattice_operations():
    c2 = corpus("C2")
    assert meet(c2, 0, 1) == 0
    d3 = corpus("D3")
    assert join(d3, 1, 1) == 1
    a4 = corpus("A4")                           # four-element diamond
    assert meet(a4, 1, 2) == bottom(a4)
    assert join(a4, 1, 2) == top(a4)


def test_pma_operator_laws_hold_exhaustively():
    for name in ("C2", "B2", "D4", "C6a", "EX44IV"):
        A = corpus(name)
        assert is_pma(A)
        n = A.size
        assert A.box[A.top()] == A.top()
        assert A.diamond[A.bottom()] == A.bottom()
        for a in range(n):
            for b in range(n):
                assert A.box[A.meet(a, b)] == A.meet(A.box[a], A.box[b])
                assert A.diamond[A.join(a, b)] == A.join(A.diamond[a], A.diamond[b])
                assert A.leq[A.meet(A.box[a], A.diamond[b])][A.diamond[A.meet(a, b)]]
                assert A.leq[A.box[A.join(a, b)]][A.join(A.box[a], A.diamond[b])]


def test_monotonicity_derived_from_pma():
    for name in ("B2", "D3", "C4a", "C6b"):
        A = corpus(name)
        for a in range(A.size):
            for b in range(A.size):
                if A.leq[a][b]:
                    assert A.leq[A.box[a]][A.box[b]]
                    assert A.leq[A.diamond[a]][A.diamond[b]]


def test_ps4_bounds_are_fixed_points():
    for name in ("C2", "D3", "D4", "C6a", "EX44IV"):
        A = corpus(name)
        for e in (A.bottom(), A.top()):
            assert A.box[e] == e and A.diamond[e] == e


def test_trivial_algebra_is_legal():
    t = corpus("trivial")
    rep = validate(t)
    assert rep.is_ps4
    assert t.bottom() == t.top() == 0


def test_structural_errors_are_not_axiom_failures():
    with pytest.raises(StructuralError):
        FiniteAlgebra.make([[1, 1], [0, 1], [0, 0]], (0, 1), (0, 1))
    with pytest.raises(StructuralError):
        FiniteAlgebra.make([[1, 1], [0, 1]], (0, 5), (0, 1))
    with pytest.raises(StructuralError):
        FiniteAlgebra.make([[1, 1], [0, 1]], (0,), (0, 1))


@pytest.mark.parametrize("args", [
    (2, ((True, True), (False, True)), (True, 1), (0, 1)),
    (2, ((True, True), (False, True)), (0, 1), (0, True)),
    (True, ((True,),), (0,), (0,)),
    (1.0, ((True,),), (0,), (0,)),
], ids=["bool-box", "bool-diamond", "bool-size", "float-size"])
def test_size_and_table_entries_must_be_ints(args):
    """A bool would equal and hash like the int, but print as true."""
    with pytest.raises(StructuralError):
        FiniteAlgebra(*args)


def test_json_rejects_a_bool_size():
    with pytest.raises(StructuralError):
        FiniteAlgebra.from_dict({"size": True, "leq": [[1]], "box": [0], "diamond": [0]})


def test_non_lattice_order_reported_not_raised():
    # two incomparable maximal elements: no top, no joins
    A = FiniteAlgebra.make([[1, 1, 1], [0, 1, 0], [0, 0, 1]],
                           (0, 1, 2), (0, 1, 2))
    rep = validate(A)
    assert not rep.is_bounded_lattice
    assert not rep.is_pma
    assert rep.violations
    with pytest.raises(StructuralError):
        A.meet(1, 2)


def test_non_distributive_lattice_flagged():
    # M3: bottom, three atoms, top
    leq = [[1, 1, 1, 1, 1],
           [0, 1, 0, 0, 1],
           [0, 0, 1, 0, 1],
           [0, 0, 0, 1, 1],
           [0, 0, 0, 0, 1]]
    ident = (0, 1, 2, 3, 4)
    rep = validate(FiniteAlgebra.make(leq, ident, ident))
    assert rep.is_bounded_lattice
    assert not rep.is_distributive
    assert not rep.is_pma
    assert any(code == "distributivity" for code, _ in rep.violations)


def test_json_round_trip_is_canonical():
    A = corpus("D4")
    text = A.to_json()
    assert text == ('{"size":4,"leq":[[1,1,1,1],[0,1,1,1],[0,0,1,1],[0,0,0,1]],'
                    '"box":[0,1,1,3],"diamond":[0,2,2,3],"name":"D4"}')
    B = FiniteAlgebra.from_json(text)
    assert B == A and B.name == "D4"
    assert B.to_json() == text


@pytest.mark.parametrize("field,value", [
    ("box", [False, True]),
    ("diamond", [True, 1]),
    ("leq", [[True, 1], [0, 1]]),
    ("leq", [[2, 1], [0, 1]]),
    ("leq", [["0", 1], [0, 1]]),
    ("leq", [[1.0, 1], [0, 1]]),
    ("box", [0, 1.0]),
    ("leq", [1, 2]),
    ("box", 5),
], ids=["bool-box", "bool-diamond", "bool-leq", "leq-2", "leq-string", "leq-float",
        "box-float", "leq-flat", "box-scalar"])
def test_json_rejects_entries_that_are_not_0_1_or_int(field, value):
    obj = {"size": 2, "leq": [[1, 1], [0, 1]], "box": [0, 1], "diamond": [0, 1]}
    obj[field] = value
    with pytest.raises(StructuralError):
        FiniteAlgebra.from_json(json.dumps(obj))


def test_json_round_trip_holds_for_canonical_output():
    for name in ("C2", "D4", "EX44IV", "F1_PS4", "trivial"):
        text = corpus(name).to_json()
        assert FiniteAlgebra.from_json(text).to_json() == text


def test_json_key_order_fixed():
    obj = json.loads(corpus("C3a").to_json())
    assert list(obj) == ["size", "leq", "box", "diamond", "name"]


def test_corpus_json_is_pinned():
    """sha256 over to_json() of every corpus spec, one line each, the
    parametric ones at every allowed parameter.  The digest was taken from
    the code before the corpus orders and F1_PS4's landmark order came from
    the shared reach closure; it guards those orders and F1_PS4's element
    order."""
    from poma.corpus import CORPUS_NAMES
    lowest = {"EX46": 3, "AN_SIMPLE": 2, "AN_MINUS": 1}
    digest = hashlib.sha256()
    for name in CORPUS_NAMES:
        for parameter in range(lowest[name], 7) if name in lowest else (None,):
            digest.update(corpus(name, parameter).to_json().encode() + b"\n")
    assert digest.hexdigest() == \
        "c4572a8dd66cf6f36f2c52787e30bd959407976a33d14478f490656d0d1a0949"


def test_corpus_name_handling():
    assert corpus("d4") == corpus("D4")
    assert corpus("an_minus", 2) == corpus("AN_MINUS", 2)
    from poma import corpus_by_spec
    assert corpus_by_spec("EX46:3") == corpus("EX46", 3)
    from poma.errors import PomaError
    with pytest.raises(PomaError):
        corpus("NOPE")
    with pytest.raises(PomaError):
        corpus("EX46", 99)
    with pytest.raises(PomaError):
        corpus("D4", 2)


def test_example_families_match_their_defining_formulas():
    # collapsed-operator family: box is 1 only at the top, diamond 0 only at bottom
    A = corpus("AN_SIMPLE", 3)
    for x in range(A.size):
        assert A.box[x] == (A.top() if x == A.top() else A.bottom())
        assert A.diamond[x] == (A.bottom() if x == A.bottom() else A.top())
    # first-atom family over two atoms: check the three-case box formula
    B = corpus("AN_MINUS", 2)
    from poma.algebras import powerset
    masks = powerset(2)[0]
    index = {m: i for i, m in enumerate(masks)}
    for i, m in enumerate(masks):
        if m == 3:
            assert B.box[i] == i
        elif not m & 1:
            assert B.box[i] == index[0]
        else:
            assert B.box[i] == index[1]


def test_covers_of_diamond_lattice():
    assert sorted(corpus("A4").covers()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_relabel_round_trip():
    A = corpus("C4a")
    order = (3, 1, 0, 2)
    B = relabel(A, order)
    inverse = tuple(order.index(k) for k in range(4))
    assert relabel(B, inverse) == A.rename("")


def test_chain_order_shape():
    assert chain_order(3) == ((True, True, True), (False, True, True),
                              (False, False, True))


def test_validate_flags_agree_with_term_level_axioms():
    """Dual route: the table-level axiom scan must agree with checking the
    defining equations through the term evaluator."""
    from poma import holds_eq, parse_equation
    from poma.enumeration import EnumerationTask, enum_algebras

    pma_axioms = [parse_equation(s) for s in (
        "box 1 ~ 1", "dia 0 ~ 0",
        "box(x /\\ y) ~ box x /\\ box y",
        "dia(x \\/ y) ~ dia x \\/ dia y",
        "box x /\\ dia y <= dia(x /\\ y)",
        "box(x \\/ y) <= box x \\/ dia y")]
    k4_axioms = [parse_equation(s) for s in ("box x <= box box x",
                                             "dia dia x <= dia x")]
    s4_axioms = [parse_equation(s) for s in ("box x <= x", "x <= dia x")]
    for A in enum_algebras(EnumerationTask("PMA", 4)):
        rep = validate(A)
        assert rep.is_pma == all(holds_eq(A, e) for e in pma_axioms)
        assert rep.is_pk4 == (rep.is_pma and all(holds_eq(A, e) for e in k4_axioms))
        assert rep.is_ps4 == (rep.is_pk4 and all(holds_eq(A, e) for e in s4_axioms))
    for name in ("B2", "C4a", "EX44IV", "C6b"):
        A = corpus(name)
        rep = validate(A)
        assert rep.is_pma == all(holds_eq(A, e) for e in pma_axioms)
        assert rep.is_ps4 == all(holds_eq(A, e)
                                 for e in pma_axioms + k4_axioms + s4_axioms)
