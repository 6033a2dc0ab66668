import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pickle

from conftest import (oracle_eval_term, oracle_holds_pos_exist,
                      oracle_refutation, oracle_term_to_str, run_capped)
from poma import (Box, Diamond, Equation, FiniteAlgebra, Join, Leq, Meet, ONE,
                  PosExistSentence, QuasiEquation, Term, Var, ZERO, corpus,
                  eval_term, holds_eq, holds_pos_exist, holds_quasi,
                  parse_equation, parse_pos_exist, parse_quasi, parse_sequent,
                  parse_term, rho, tau, term_to_str)
from poma.errors import ParseError, PomaError, PreconditionError, StructuralError
from poma.terms import (BLOCK, equation_to_str, evaluate, make_sequent,
                        pos_exist_to_str, quasi_to_str, sequent_to_str,
                        Vectors)

X, Y = Var("x"), Var("y")


def test_parse_grammar_cases():
    assert parse_term("box(x /\\ dia y)") == Box(Meet(X, Diamond(Y)))
    assert parse_term("0") == ZERO
    assert parse_term("1") == ONE
    assert parse_term("box box x") == Box(Box(X))
    # precedence: unary > meet > join, left associative
    assert parse_term("x \\/ y /\\ x") == Join(X, Meet(Y, X))
    assert parse_term("x /\\ y /\\ x") == Meet(Meet(X, Y), X)
    assert parse_term("box x \\/ y") == Join(Box(X), Y)
    assert parse_term("(x \\/ y) /\\ x") == Meet(Join(X, Y), X)


def test_order_sugar_desugars_to_meet_equation():
    eq = parse_equation("box x /\\ box box x <= x")
    lhs = Meet(Box(X), Box(Box(X)))
    assert eq == Equation(Meet(lhs, X), lhs)
    assert Leq(X, Y) == Equation(Meet(X, Y), X)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_term("x /\\ ")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_term("x y")
    with pytest.raises(ParseError):
        parse_equation("x ~ y ~ z")


def test_parse_quasi_and_sequent():
    q = parse_quasi("x ~ dia x & x ~ y => x ~ 0")
    assert len(q.premises) == 2
    assert q.conclusion == Equation(X, ZERO)
    assert parse_quasi("x ~ 1") == QuasiEquation((), Equation(X, ONE))
    s = parse_sequent("{x, y} |> box x")
    assert s.antecedent == frozenset((X, Y))
    assert s.succedent == Box(X)
    empty = parse_sequent("{} |> x")
    assert empty.antecedent == frozenset()


def test_parse_pos_exist():
    s = parse_pos_exist("E x . box x ~ 0 & dia x ~ 1")
    assert s.variables == ("x",)
    assert len(s.matrix) == 2
    disj = parse_pos_exist("E x y . x ~ 0 | y ~ 1")
    assert len(disj.matrix) == 1 and len(disj.matrix[0]) == 2
    with pytest.raises(PomaError):
        PosExistSentence(("x",), ((Equation(Y, ZERO),),))


_term_strategy = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["x", "y", "z"])),
              st.just(ZERO), st.just(ONE)),
    lambda ch: st.one_of(st.builds(Box, ch), st.builds(Diamond, ch),
                         st.builds(Meet, ch, ch), st.builds(Join, ch, ch)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_term_strategy)
def test_print_parse_round_trip(t):
    assert parse_term(term_to_str(t)) == t


@settings(max_examples=100, deadline=None)
@given(_term_strategy)
def test_print_of_parse_is_fixed_point(t):
    printed = term_to_str(t)
    assert term_to_str(parse_term(printed)) == printed


@settings(max_examples=300, deadline=None)
@given(_term_strategy)
def test_printing_from_a_stack_matches_the_recursive_printer(t):
    assert term_to_str(t) == oracle_term_to_str(t)


def test_eval_examples():
    d3 = corpus("D3")
    assert eval_term(d3, Diamond(X), {"x": 1}) == 2
    assert eval_term(d3, Box(X), {"x": 1}) == 0
    for name in ("C2", "D4", "C6a"):
        A = corpus(name)
        for e in range(A.size):
            assert eval_term(A, Meet(X, ONE), {"x": e}) == e
    with pytest.raises(PomaError):
        eval_term(d3, X, {})


def test_holds_eq_examples():
    assert holds_eq(corpus("D4"), parse_equation("box dia x ~ box x"))
    res = holds_eq(corpus("C3a"), parse_equation("dia box dia x ~ dia x"))
    assert not res.holds
    assert res.witness == {"x": 1}          # lexicographically first violation


def test_witness_order_is_lexicographic():
    res = holds_eq(corpus("B2"), parse_equation("box x ~ x"))
    assert res.witness == {"x": 0}


def test_holds_quasi():
    b2 = corpus("B2")
    assert holds_quasi(b2, parse_quasi("x ~ dia x => x ~ 0"))
    d3 = corpus("D3")
    bad = holds_quasi(d3, parse_quasi("box x ~ 0 => x ~ 0"))
    assert not bad.holds and bad.witness == {"x": 1}


def test_holds_pos_exist():
    sentence = parse_pos_exist("E x . box x ~ 0 & dia x ~ 1")
    assert not holds_pos_exist(corpus("C2"), sentence)
    assert holds_pos_exist(corpus("D3"), sentence)


def test_tau_examples():
    g1, g2, phi = Var("g1"), Var("g2"), Var("phi")
    eq = tau(make_sequent([g1, g2], phi))
    lhs = Meet(g1, g2)
    assert eq == Equation(Meet(lhs, phi), lhs)
    assert tau(make_sequent([], phi)) == Equation(Meet(ONE, phi), ONE)


def test_rho_example():
    left, right = rho(Equation(X, Y))
    assert left.antecedent == frozenset((X,)) and left.succedent == Y
    assert right.antecedent == frozenset((Y,)) and right.succedent == X


def test_sequent_antecedent_collapses_duplicates():
    s = make_sequent([X, X, Y], X)
    assert len(s.antecedent) == 2


@settings(max_examples=150, deadline=None)
@given(_term_strategy, _term_strategy, st.sampled_from(["C2", "B2", "D3", "D4", "C6a"]))
def test_algebraizability_round_trip(lhs, rhs, name):
    """An equation holds exactly when both of its sequent translations do."""
    A = corpus(name)
    eq = Equation(lhs, rhs)
    translated = [tau(s) for s in rho(eq)]
    assert holds_eq(A, eq).holds == all(holds_eq(A, t).holds for t in translated)


@settings(max_examples=150, deadline=None)
@given(_term_strategy, st.sampled_from(["C2", "B2", "D3", "D4", "C6b", "EX44IV"]),
       st.data())
def test_eval_monotone_in_each_variable(t, name, data):
    A = corpus(name)
    from poma.terms import term_variables
    names = sorted(term_variables(t))
    base = {v: data.draw(st.integers(0, A.size - 1)) for v in names}
    if not names:
        return
    v = data.draw(st.sampled_from(names))
    lo = data.draw(st.integers(0, A.size - 1))
    others = [e for e in range(A.size) if A.leq[lo][e]]
    hi = data.draw(st.sampled_from(others))
    low_asg = dict(base, **{v: lo})
    high_asg = dict(base, **{v: hi})
    assert A.leq[eval_term(A, t, low_asg)][eval_term(A, t, high_asg)]


def test_printing_other_syntax():
    q = parse_quasi("x ~ y => x ~ 0")
    assert parse_quasi(quasi_to_str(q)) == q
    s = parse_sequent("{x} |> y")
    assert parse_sequent(sequent_to_str(s)) == s
    e = parse_pos_exist("E x . x ~ 1 | x ~ 0 & dia x ~ 1")
    assert parse_pos_exist(pos_exist_to_str(e)) == e
    assert equation_to_str(Equation(X, Y)) == "x ~ y"


# -- the vector evaluator against the per-assignment oracle ----------------------

def _merge_z(t):
    """t with z renamed y: on a large carrier, two variables keep the oracle's
    scan of every assignment short."""
    if t.kind == "var":
        return Var("y") if t.var == "z" else t
    return Term(t.kind, tuple(map(_merge_z, t.args)))


@settings(max_examples=80, deadline=None)
@given(_term_strategy, _term_strategy, _term_strategy,
       st.sampled_from(["C2", "B2", "D3", "D4", "C6a", "EX44IV", "F1_PS4"]),
       st.data())
def test_vector_evaluation_matches_the_oracle(s, t, u, name, data):
    A = corpus(name)
    if A.size > 8:
        s, t, u = map(_merge_z, (s, t, u))
    asg = {v: data.draw(st.integers(0, A.size - 1)) for v in "xyz"}
    assert eval_term(A, s, asg) == oracle_eval_term(A, s, asg)
    e, p = Equation(s, t), Equation(t, u)
    res = holds_eq(A, e)
    assert res.witness == oracle_refutation(A, QuasiEquation((), e))
    assert res.holds == (res.witness is None)
    q = QuasiEquation((p, Equation(u, s)), e)
    res = holds_quasi(A, q)
    assert (res.holds, res.witness) == (res.witness is None, oracle_refutation(A, q))
    sentence = PosExistSentence(("x", "y", "z"), ((e, p), (Equation(u, ONE),)))
    assert holds_pos_exist(A, sentence) == oracle_holds_pos_exist(A, sentence)


def test_first_failure_past_the_first_block():
    F = corpus("F1_PS4")            # 37 elements: 50,653 assignments to x, y, z
    for text, witness in (("x /\\ dia y /\\ box z <= box (dia y /\\ z)",
                           {"x": 3, "y": 1, "z": 19}),
                          ("box x /\\ dia y /\\ box z <= box (dia y /\\ z)",
                           {"x": 19, "y": 1, "z": 19})):
        e = parse_equation(text)
        assert witness["x"] * 37 ** 2 + witness["y"] * 37 + witness["z"] >= BLOCK
        res = holds_eq(F, e)
        assert not res.holds and res.witness == witness
        assert oracle_refutation(F, QuasiEquation((), e)) == witness


def test_closed_terms_take_one_assignment():
    B2 = corpus("B2")               # diamond sends everything to 0
    assert evaluate(Diamond(ONE), {}, Vectors.of(B2, 1)) == (B2.bottom(),)
    res = holds_eq(B2, Equation(Diamond(ONE), ONE))
    assert (res.holds, res.witness) == (False, {})
    assert oracle_refutation(B2, QuasiEquation((), Equation(Diamond(ONE), ONE))) == {}
    assert holds_eq(corpus("C2"), Equation(Diamond(ONE), ONE))


def test_non_lattice_carrier():
    """On the 2-element antichain a term without meet, join or bounds still
    gets a verdict; the others raise, as the per-assignment walk did."""
    A = FiniteAlgebra.make([[1, 0], [0, 1]], (1, 0), (0, 1))
    e = parse_equation("box x ~ x")
    assert holds_eq(A, e).witness == {"x": 0} == oracle_refutation(A, QuasiEquation((), e))
    for text in ("x /\\ y ~ y", "dia 0 ~ 0"):
        with pytest.raises(StructuralError):
            holds_eq(A, parse_equation(text))


def test_eval_term_rejects_elements_that_are_not_ints():
    """True was read as element 1."""
    A = corpus("D3")
    for a in (True, False, 1.0, None):
        with pytest.raises(PreconditionError):
            eval_term(A, parse_term("box x"), {"x": a})


def test_eval_term_rejects_elements_outside_the_carrier():
    """A negative element was read from the end of the tables (box of -1 on
    D3 gave 2) and one past the carrier raised a bare IndexError."""
    A = corpus("D3")
    for a in (-1, 3, "1"):
        with pytest.raises(PreconditionError):
            eval_term(A, parse_term("box x"), {"x": a})
    assert eval_term(A, parse_term("box x"), {"x": 2}) == A.box[2]


# -- one interned DAG --------------------------------------------------------------

def test_equal_terms_are_one_node():
    assert parse_term("box x /\\ box x").args[0] is Box(Var("x"))
    assert Meet(Box(X), Y) is parse_term("box x /\\ y")
    assert not {"__eq__", "__hash__", "_hash"} & set(Term.__dict__)


def test_a_pickled_term_comes_back_as_the_same_node():
    t = parse_term("box (x \\/ dia y) /\\ 1")
    assert pickle.loads(pickle.dumps(t)) is t
    assert pickle.loads(pickle.dumps(parse_equation("x <= box x"))).lhs.args[0] is X


def test_a_term_cannot_be_changed():
    t = Box(X)
    with pytest.raises(AttributeError):
        t.kind = "dia"
    with pytest.raises(AttributeError):
        t.args = (Y,)
    assert t.kind == "box" and t.args == (X,) and t is Box(X)


def test_programs_list_each_distinct_subterm_once_after_its_arguments():
    from poma.terms import _program
    t = parse_term("box x /\\ (y \\/ box x)")
    assert _program(t) == (("var", "x", ()), ("box", "", (0,)), ("var", "y", ()),
                           ("join", "", (2, 1)), ("meet", "", (1, 3)))
    assert _program(t) is t.program
    twice = parse_term("dia y /\\ dia y")         # both arguments are one node
    assert _program(twice) == (("var", "y", ()), ("dia", "", (0,)), ("meet", "", (1, 1)))


def test_unassigned_variable_is_named_in_reading_order():
    with pytest.raises(PomaError, match="^unassigned variable 'y'$"):
        evaluate(parse_term("box y /\\ x"), {}, Vectors.of(corpus("D4"), 1))


def test_deep_terms_under_a_small_recursion_limit():
    """Terms 10,000 deep, built without the parser, under a recursion limit
    of 200: every walk over them is a loop.  Each of these died with
    RecursionError at the default limit of 1,000."""
    proc = run_capped("""
import sys
from poma import Equation, Meet, Var, corpus, holds_eq, kripke_eval, rho, tau, term_to_str
from poma.free import build_phi
from poma.terms import box_power, equation_to_str, make_sequent, sequent_to_str
x = Var("x")
chain = x
for _ in range(10_000):
    chain = Meet(chain, x)
tower = box_power(x, 10_000)
phi = build_phi(3000)
sys.setrecursionlimit(200)
D4 = corpus("D4")
assert holds_eq(D4, Equation(chain, x)).holds
assert holds_eq(corpus("C2"), Equation(tower, x)).holds
assert not holds_eq(D4, Equation(tower, x)).holds
assert term_to_str(tower) == "box " * 10_000 + "x"
assert term_to_str(chain) == " /\\\\ ".join(["x"] * 10_001)
tower_s, chain_s = term_to_str(tower), term_to_str(chain)
assert equation_to_str(tau(make_sequent([chain, tower], x))) == \
    f"{tower_s} /\\\\ ({chain_s}) /\\\\ x ~ {tower_s} /\\\\ ({chain_s})"
left, right = rho(Equation(tower, chain))
assert sequent_to_str(left) == "{" + tower_s + "} |> " + chain_s
assert kripke_eval(2, [(0, 0), (1, 1), (1, 0)], phi, {"x": {0}, "y": {1}}) == frozenset({0, 1})
print("ok")
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_the_intern_table_forgets_a_dropped_term():
    """A 100,000-node term holds its nodes in the table only while it lives."""
    proc = run_capped("""
from poma import Var
from poma.terms import _NODES, box_power
before = len(_NODES)
t = box_power(Var("q"), 100_000)
assert len(_NODES) == before + 100_001
del t
assert len(_NODES) == before, (len(_NODES), before)
print("ok")
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
