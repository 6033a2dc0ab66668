import itertools
import random

import pytest

from conftest import oracle_figure1_stage_d, oracle_free_over, run_capped
from poma import (Box, FiniteAlgebra, Join, Var, classify_quasi, corpus, eval_term,
                  fact52_check, figure1_algebra, free_over, free_zero, holds_eq,
                  is_iso, is_well_connected, lemma53_growth, parse_quasi,
                  same_one_var_theory, sigma_terms, variety_of, verify_figure1)
from poma import free
from poma.algebras import _order_of
from poma.congruences import cmi_congruences
from poma.corpus import CORPUS_NAMES
from poma.enumeration import EnumerationTask, enum_algebras
from poma.errors import BudgetError, PreconditionError
from poma.free import build_phi
from poma.morphisms import homs, quotient
from poma.terms import Equation, term_to_str


def test_free_one_generated_over_identity_chain():
    """Independent oracle: inside C2^(C2) the projection generates exactly
    {(0,0), (0,1), (1,1)}: a three-chain with identity operators and the
    middle element as generator."""
    fr = free_over([corpus("C2")], 1)
    A = fr.algebra
    assert A.size == 3
    assert A.box == (0, 1, 2) and A.diamond == (0, 1, 2)
    assert all(A.leq[i][j] for i in range(3) for j in range(i, 3))
    gen = fr.generators[0]
    assert gen not in (A.bottom(), A.top())


def test_free_one_generated_over_d4():
    """Five-element chain 0 < a < b < c < 1 with a = box b = box c and
    c = dia a = dia b; the generator is the middle element."""
    fr = free_over([corpus("D4")], 1)
    A = fr.algebra
    assert A.size == 5
    assert all(A.leq[i][j] for i in range(5) for j in range(i, 5))
    assert fr.generators == (2,)
    assert A.box == (0, 1, 1, 1, 4)
    assert A.diamond == (0, 3, 3, 3, 4)


def test_free_rank_zero_over_identity_chain_is_it():
    assert is_iso(free_over([corpus("C2")], 0).algebra, corpus("C2"))


def test_free_zero_examples():
    assert is_iso(free_zero([corpus("D3")]), corpus("C2"))
    assert is_iso(free_zero([corpus("B2")]), corpus("B2"))
    assert free_zero([corpus("trivial")]).size == 1


def test_freeness_universal_property():
    """Homomorphisms out of the free algebra correspond exactly to generator
    assignments into each basis algebra."""
    for name, rank in (("D4", 1), ("C3a", 1), ("B2", 1), ("C2", 2)):
        A = corpus(name)
        fr = free_over([A], rank)
        hs = homs(fr.algebra, A)
        images = sorted(tuple(h.mapping[g] for g in fr.generators) for h in hs)
        assert images == sorted(itertools.product(range(A.size), repeat=rank))


def test_free_algebra_reflects_equations():
    import random
    rng = random.Random(7)
    from poma.terms import Diamond, Meet, ONE, ZERO

    def random_term(depth):
        if depth == 0:
            return rng.choice([Var("x"), Var("x"), ZERO, ONE])
        op = rng.randrange(4)
        if op == 0:
            return Box(random_term(depth - 1))
        if op == 1:
            return Diamond(random_term(depth - 1))
        if op == 2:
            return Meet(random_term(depth - 1), random_term(depth - 1))
        return Join(random_term(depth - 1), random_term(depth - 1))

    for name in ("D4", "C3b"):
        A = corpus(name)
        fr = free_over([A], 1)
        for _ in range(40):
            eq = Equation(random_term(3), random_term(3))
            assert holds_eq(A, eq).holds == holds_eq(fr.algebra, eq).holds


def test_free_size_monotone_in_rank():
    for name in ("C2", "B2"):
        A = corpus(name)
        sizes = [free_over([A], n).algebra.size for n in range(3)]
        assert sizes == sorted(sizes)


def _free_over_within(basis, n, max_size):
    """free_over with ``free.MAX_FREE_SIZE`` set to max_size for this call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "MAX_FREE_SIZE", max_size)
        return free_over(basis, n)


def test_free_budget():
    with pytest.raises(BudgetError):
        _free_over_within([corpus("D4")], 1, 3)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_free_rank_must_be_an_int(n):
    # True built an algebra named F(C2;True), and 1.0 raised TypeError
    with pytest.raises(PreconditionError, match="the rank must be an int"):
        free_over([corpus("C2")], n)


def test_max_free_size_bounds_every_free_algebra_builder():
    """One constant, read at each call, bounds free_over and, through it,
    classify_quasi and same_one_var_theory: F(D4; 1) has 5 elements, so
    all three run out at a budget of 4 and all three finish at 5."""
    quasi = parse_quasi("box x ~ 1 => x ~ 1")
    calls = (lambda: free_over([corpus("D4")], 1),
             lambda: classify_quasi(variety_of([corpus("D4")]), quasi, max_free_rank=1),
             lambda: same_one_var_theory(corpus("D4"), corpus("D4")))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(free, "MAX_FREE_SIZE", 4)
        for call in calls:
            with pytest.raises(BudgetError, match="^free algebra exceeds 4 elements$") as exc:
                call()
            assert exc.value.partial == 5
        mp.setattr(free, "MAX_FREE_SIZE", 5)
        for call in calls:
            assert call()


# the Dedekind numbers M(0)..M(4): sizes of the free bounded distributive
# lattices on 0..4 generators
DEDEKIND = (2, 3, 6, 20, 168)


def _outcome(build, basis, n, max_size=20_000):
    """What a free-algebra builder gives, as bytes: the algebra's JSON, its
    generators, name and basis, or the partial count of its BudgetError."""
    try:
        fr = build(basis, n, max_size)
    except BudgetError as exc:
        return "budget", exc.partial
    return fr.algebra.to_json(), fr.generators, fr.algebra.name, fr.basis


def _enumerated(*kinds):
    return [A for kind, max_size in kinds
            for A in enum_algebras(EnumerationTask(kind, max_size))]


def test_free_over_equals_the_value_vector_oracle_at_ranks_0_and_1():
    lowest = {"EX46": 3, "AN_SIMPLE": 2, "AN_MINUS": 1}
    algebras = _enumerated(("PS4", 6), ("PMA", 4), ("PK4", 5)) + [
        corpus(name, parameter) for name in CORPUS_NAMES
        for parameter in (range(lowest[name], 7) if name in lowest else (None,))]
    for A in algebras:
        for n in (0, 1):
            assert _outcome(_free_over_within, [A], n) == _outcome(oracle_free_over, [A], n), \
                (A.name, A.to_json(), n)


def test_free_over_equals_the_oracle_at_rank_2_on_random_bases():
    rng = random.Random(16)
    pool = _enumerated(("PS4", 4), ("PMA", 3))
    outcomes = set()
    for _ in range(30):
        basis = rng.sample(pool, rng.randint(1, 3))
        got = _outcome(_free_over_within, basis, 2, 300)
        assert got == _outcome(oracle_free_over, basis, 2, 300), \
            [A.to_json() for A in basis]
        outcomes.add(got[0] == "budget")
    assert outcomes == {False, True}       # some bases fit the budget, some do not


@pytest.mark.parametrize("names,n", [(("D4",), 1), (("C2",), 2), (("C3a", "D3"), 1),
                                     (("B2",), 2), (("C2", "D4"), 1)])
def test_budget_error_partial_matches_oracle(names, n):
    """Every budget from the Dedekind bound up to the size: the closure runs
    out at the same count as the oracle's, or both build the same algebra."""
    basis = [corpus(name) for name in names]
    size = oracle_free_over(basis, n).algebra.size
    for budget in range(DEDEKIND[n], size + 1):
        assert _outcome(_free_over_within, basis, n, budget) == \
            _outcome(oracle_free_over, basis, n, budget), budget


def test_free_bounded_distributive_lattices_have_dedekind_sizes():
    assert tuple(free_over([corpus("C2")], n).algebra.size for n in range(5)) == DEDEKIND


def test_a_rank_past_the_dedekind_bound_fails_before_the_closure():
    for n, bound in enumerate(DEDEKIND):
        for budget in (0, bound - 1):
            with pytest.raises(BudgetError, match=rf"at least M\({n}\) = {bound}$") as exc:
                _free_over_within([corpus("C2")], n, budget)
            assert exc.value.partial is None


def test_a_rank_too_large_for_the_budget_fails_at_once():
    """Also when a trivial algebra sits beside C2 in the basis.  The child
    runs under a 1 GiB address-space limit: building the 2^40 coordinates
    first fails there instead of filling the machine's memory."""
    proc = run_capped("from poma import corpus, free_over\n"
                      "from poma.errors import BudgetError\n"
                      "for names in (['C2'], ['trivial', 'C2']):\n"
                      "    try:\n"
                      "        free_over([corpus(name) for name in names], 40)\n"
                      "    except BudgetError as exc:\n"
                      "        print(exc, exc.partial)\n")
    line = ("free algebra exceeds 20000 elements: rank 40 gives at least"
            " M(8) = 56130437228687557907788 None\n")
    assert (proc.returncode, proc.stdout) == (0, line * 2), proc.stderr


def test_a_trivial_basis_has_no_dedekind_bound():
    fr = free_over([corpus("trivial")], 40)
    assert fr.algebra.size == 1 and fr.generators == (0,) * 40


def test_a_basis_lattice_that_is_not_distributive_is_refused():
    """M3 with identity operators: OR of join-irreducible masks is not its
    join, so the mask closure would not be the generated subalgebra."""
    leq = [[i == 0 or j == 4 or i == j for j in range(5)] for i in range(5)]
    m3 = FiniteAlgebra.make(leq, range(5), range(5), "M3")
    for basis, n in (([m3], 1), ([corpus("C2"), m3], 0)):
        with pytest.raises(PreconditionError, match="M3: free_over needs a distributive"):
            free_over(basis, n)


def test_sigma_terms_shape():
    terms = sigma_terms()
    assert len(terms) == 7
    assert len({term_to_str(t) for t in terms}) == 7
    assert term_to_str(terms[0]) == "x"
    assert term_to_str(terms[1]) == "box x"
    assert term_to_str(terms[6]) == "dia box dia x"


def test_fact52_examples():
    assert fact52_check(corpus("C2"), 1)
    values = [eval_term(corpus("C2"), t, {"x": 1}) for t in sigma_terms()]
    assert set(values) == {1}                    # all seven collapse at the top
    assert fact52_check(corpus("D4"), 2)
    res = figure1_algebra()
    assert fact52_check(res.algebra, res.generators[0])
    distinct = {eval_term(res.algebra, t, {"x": res.generators[0]})
                for t in sigma_terms()}
    assert len(distinct) == 7
    with pytest.raises(PreconditionError):
        fact52_check(corpus("B2"), 0)


def test_fact52_everywhere_small():
    from poma.enumeration import EnumerationTask, enum_algebras
    for A in enum_algebras(EnumerationTask("PS4", 5)):
        for b in range(A.size):
            assert fact52_check(A, b)


@pytest.mark.parametrize("extra_edge", [None, (4, 0)], ids=["diagram", "dia-x-below-x"])
def test_fact52_verdicts_match_fact52_check(monkeypatch, extra_edge):
    """The battery's verdicts, one evaluation per algebra, against
    fact52_check on every (B, b) of PS4 <= 6; with the extra edge "dia x <=
    x" added to the diagram many of them are False."""
    if extra_edge:
        edges = (*free._FACT52_EDGES, extra_edge)
        monkeypatch.setattr(free, "_FACT52_EDGES", edges)
        monkeypatch.setattr(free, "_FACT52_LEQ", _order_of(7, edges))
    verdicts = []
    for B in enum_algebras(EnumerationTask("PS4", 6)):
        got = free._fact52_verdicts(B)
        assert got == [fact52_check(B, b) for b in range(B.size)], B.to_json()
        verdicts += got
    assert all(verdicts) == (extra_edge is None) and any(verdicts)


def test_stage_d_names_the_first_failures_in_enumerate_order(monkeypatch):
    """Stage d walks the enumeration in search order, but names the first
    failures in enumerate order.  Each SI quotient of F1_PS4 is generated by
    the generator's image and is not free, so the universal property fails
    on it; for six of the thirteen the search order meets other failures
    first."""
    result = figure1_algebra()
    F, gen = result.algebra, result.generators[0]
    for p in cmi_congruences(F):
        Q, h = quotient(F, p)
        monkeypatch.setattr(free, "figure1_algebra",
                            lambda Q=Q, g=h(gen): free.FreeAlgebraResult(Q, (g,), ()))
        _, ok, detail = verify_figure1(4).stages[3]
        assert not ok and detail == oracle_figure1_stage_d(Q, h(gen), 4), p


def test_figure1_shape():
    res = figure1_algebra()
    assert res.algebra.size == 37
    assert is_well_connected(res.algebra)


def test_figure1_battery_small_bound():
    report = verify_figure1(enum_bound=4)
    assert report.passed
    assert [name.split(":")[0] for name, _, _ in report.stages] == \
        ["a", "b", "c", "d", "e"]
    assert any("11" in detail for name, _, detail in report.stages
               if name.startswith("c"))


def test_build_phi_shapes():
    assert term_to_str(build_phi(0)) == "box x"
    assert term_to_str(build_phi(1)) == "box (y \\/ box x)"
    assert term_to_str(build_phi(2)) == "box (x \\/ box (y \\/ box x))"


def test_growth_tower_values():
    report = lemma53_growth(4)
    assert report.distinct_count == 4
    assert report.values_match_initial_segments
    assert report.truncation_boundary == 3
    # the base of the tower: box of the even worlds is the initial world only
    from poma.duality import kripke_eval
    rel = {(i, j) for i in range(4) for j in range(4) if i >= j}
    assert kripke_eval(4, rel, build_phi(0),
                       {"x": frozenset({0, 2}), "y": frozenset({1, 3})}) == \
        frozenset({0})


def test_growth_matches_powerset_algebra_route():
    from poma import complex_algebra
    from poma.algebras import powerset
    N = 4
    rel = {(i, j) for i in range(N) for j in range(N) if i >= j}
    A = complex_algebra(N, rel)
    masks = powerset(N)[0]
    evens = sum(1 << w for w in range(N) if w % 2 == 0)
    odds = sum(1 << w for w in range(N) if w % 2 == 1)
    asg = {"x": masks.index(evens), "y": masks.index(odds)}
    values = {eval_term(A, build_phi(k), asg) for k in range(N)}
    assert len(values) == lemma53_growth(N).distinct_count


def test_growth_range():
    for N in (2, 3, 5, 8, 12):
        report = lemma53_growth(N)
        assert report.distinct_count == N
        assert report.values_match_initial_segments
    with pytest.raises(PreconditionError):
        lemma53_growth(1)


@pytest.mark.parametrize("N", ["4", 4.0, None])
def test_growth_count_must_be_an_int(N):
    with pytest.raises(PreconditionError):
        lemma53_growth(N)


def test_same_one_var_theory():
    assert same_one_var_theory(corpus("C2"), corpus("C2"))
    assert not same_one_var_theory(corpus("C3a"), corpus("C3b"))
    assert not same_one_var_theory(corpus("D3"), corpus("C2"))
    assert same_one_var_theory(corpus("B4"), corpus("D3")) == \
        is_iso(free_over([corpus("B4")], 1).algebra,
               free_over([corpus("D3")], 1).algebra)
