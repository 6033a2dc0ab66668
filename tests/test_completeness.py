import pytest

from conftest import oracle_eq_holds_under, oracle_refutation, oracle_solution
from poma import (asc_necessary, classify_quasi, corpus, equals, free_over,
                  free_zero, is_hsc_pk4, is_iso, is_psc, is_sc_pk4,
                  is_simple, lemma22_check, theorem93_battery, variety_of)
from poma.errors import PreconditionError
from poma.morphisms import embeddings
from poma.terms import parse_quasi


def V(*specs):
    from poma import corpus_by_spec
    return variety_of([corpus_by_spec(s) for s in specs],
                      "V(" + ",".join(specs) + ")")


def test_classify_quasi_constant_unifier():
    cls = classify_quasi(V("B2"), parse_quasi("x ~ dia x => x ~ 0"))
    assert cls.valid                      # premise forces the bottom in powers
    assert cls.active and cls.active_rank == 0
    assert cls.activity_status == "ActiveWitness(0)"
    assert cls.admissible_up_to_bound
    assert cls.status == "Valid"


def test_classify_quasi_passive_premise():
    cls = classify_quasi(V("C2"), parse_quasi("box x ~ 0 & dia x ~ 1 => x ~ 0"))
    assert not cls.active
    assert cls.valid                      # vacuously: the premise never holds
    assert cls.admissible_up_to_bound
    assert cls.activity_status == "PassiveUpTo(2)"
    q2 = parse_quasi("box x ~ 0 & dia x ~ 1 => 0 ~ 1")
    cls2 = classify_quasi(V("C2"), q2)
    assert not cls2.active and cls2.activity_status == "PassiveUpTo(2)"


def test_classify_quasi_refuses_a_negative_rank_bound():
    # it reported "admissible up to -1" with no free algebra checked
    with pytest.raises(PreconditionError):
        classify_quasi(V("B2"), parse_quasi("x ~ dia x => x ~ 0"), max_free_rank=-1)


def test_classify_quasi_valid_in_d4():
    cls = classify_quasi(V("D4"), parse_quasi("box x ~ 1 => x ~ 1"))
    assert cls.valid and cls.status == "Valid"


def test_classify_quasi_refutation_is_replayable():
    handle = V("C2")
    q = parse_quasi("x ~ box x => x ~ 1")
    cls = classify_quasi(handle, q)
    assert not cls.valid
    assert cls.refuted_at is not None
    fr = free_over(handle.generators, cls.refuted_at)
    asg = cls.refutation_witness
    assert all(oracle_eq_holds_under(fr.algebra, p, asg) for p in q.premises)
    assert not oracle_eq_holds_under(fr.algebra, q.conclusion, asg)
    assert "RefutedAdmissibilityAt" in cls.status


def test_classify_quasi_witnesses_match_the_oracle():
    """The active and refutation witnesses are the first assignments, in
    the oracle's order, in the least free algebra that has one."""
    cases = [("B2", "x ~ dia x => x ~ 0", 0, {"x": 0}, None, None),
             ("C2", "x ~ box x => x ~ 1", 0, {"x": 0}, 0, {"x": 0}),
             ("C2", "box x ~ 0 & dia x ~ 1 => x ~ 0", None, None, None, None),
             ("D4", "box x ~ 1 => x ~ 1", 0, {"x": 1}, None, None),
             ("C3b", "box x ~ x => x ~ 1", 0, {"x": 0}, 0, {"x": 0}),
             ("D4", "dia x ~ x & box y ~ y => x /\\ y ~ box (x /\\ y)",
              0, {"x": 0, "y": 0}, 1, {"x": 3, "y": 4})]
    for spec, text, active_rank, active, refuted_at, refutation in cases:
        handle, q = V(spec), parse_quasi(text)
        cls = classify_quasi(handle, q)
        assert (cls.active_rank, cls.active_witness) == (active_rank, active), text
        assert (cls.refuted_at, cls.refutation_witness) == (refuted_at, refutation), text
        frees = [free_over(handle.generators, m).algebra for m in range(3)]
        solutions = [oracle_solution(F, q.premises) for F in frees]
        refutations = [oracle_refutation(F, q) for F in frees]
        first = next((m for m, w in enumerate(solutions) if w is not None), None)
        assert (first, None if first is None else solutions[first]) == (active_rank, active)
        first = next((m for m, w in enumerate(refutations) if w is not None), None)
        assert (first, None if first is None else refutations[first]) == (refuted_at, refutation)


def test_classify_quasi_active_not_valid():
    cls = classify_quasi(V("C3b"), parse_quasi("box x ~ x => x ~ 1"))
    assert not cls.valid
    assert cls.active                     # x := 1 solves the premise
    assert cls.refuted_at is not None     # fails already in some free algebra


def test_psc_examples():
    assert is_psc(V("AN_MINUS:2")).status == "Yes"
    assert is_psc(V("AN_MINUS:3")).status == "Yes"
    verdict = is_psc(V("AN_SIMPLE:2"))
    assert verdict.status == "No" and verdict.witness == "D3"
    assert is_psc(V("B2")).status == "Yes"
    assert is_psc(V("C2")).status == "Yes"
    assert is_psc(V("D3")).status == "No"


def test_psc_routes_agree_on_corpus_handles():
    # is_psc raises internally if its two decision routes ever disagree
    for name in ("C2", "B2", "D3", "C3a", "C3b", "D4", "C4a", "C4b", "C5a",
                 "C5b", "C6a", "C6b", "A4", "D5a", "D5b", "B4", "EX44III",
                 "EX44IV", "AN_MINUS:2", "AN_SIMPLE:2", "EX46:3"):
        is_psc(V(name))


def test_sc_classification():
    assert is_sc_pk4(V("B2")).status == "Yes"
    assert is_sc_pk4(V("C2")).status == "Yes"
    verdict = is_sc_pk4(V("D4"))
    assert verdict.status == "Yes"
    assert "retract" in verdict.detail
    assert is_sc_pk4(V("D3")).status == "No"
    assert is_sc_pk4(V("C3a")).status == "No"
    with pytest.raises(PreconditionError):
        is_sc_pk4(variety_of([corpus("trivial")], "Trivial"))


def test_sc_equals_hsc():
    for name in ("B2", "C2", "D3", "C3a", "C3b", "D4", "C4a", "A4", "B4"):
        assert is_sc_pk4(V(name)).status == is_hsc_pk4(V(name)).status


def test_asc_examples():
    verdict = asc_necessary(V("C3b"))
    assert verdict.status == "No" and verdict.witness == "C3b"
    assert asc_necessary(V("D4")).status == "Yes"
    assert asc_necessary(V("C2")).status == "Yes"
    assert asc_necessary(V("D3")).status == "No"
    assert asc_necessary(V("C4a")).status == "No"
    with pytest.raises(PreconditionError):
        asc_necessary(V("B2"))


def test_theorem93_battery():
    assert theorem93_battery(V("D4")).witness == (1, 1)
    assert theorem93_battery(V("C2")).witness == (1, 1)
    verdict = theorem93_battery(V("B2"))
    assert verdict.status == "Yes" and verdict.witness == "B2"
    # every S4-type algebra sits at the n = m = 1 base case
    assert theorem93_battery(V("C6a")).witness == (1, 1)


@pytest.mark.parametrize("bound", [True, 1.5])
def test_theorem93_bound_must_be_an_int(bound):
    # True returned a verdict with bound=True, and 1.5 raised TypeError
    with pytest.raises(PreconditionError, match="the bound must be an int"):
        theorem93_battery(V("D4"), bound)


@pytest.mark.parametrize("rank", [True, 1.5])
def test_classify_quasi_free_rank_must_be_an_int(rank):
    # 1.5 raised TypeError from range
    with pytest.raises(PreconditionError, match="free rank .*: the bound must be an int"):
        classify_quasi(V("B2"), parse_quasi("x ~ dia x => x ~ 0"), rank)


def test_lemma22_check():
    assert lemma22_check(V("AN_MINUS:2"))
    assert is_iso(free_zero([corpus("AN_MINUS", 2)]), corpus("C2"))
    assert lemma22_check(V("B2"))
    assert is_simple(free_zero([corpus("B2")]))
    assert lemma22_check(variety_of([corpus("trivial")], "Trivial"))
    assert lemma22_check(V("D3"))          # vacuous: not PSC
    for name in ("C2", "C3a", "C3b", "D4", "C4a", "C4b", "C5a", "C5b", "C6a",
                 "C6b", "A4", "D5a", "D5b", "B4", "EX44III", "EX44IV",
                 "AN_MINUS:3", "AN_SIMPLE:3"):
        assert lemma22_check(V(name))


def test_d4_si_members_embed_into_free():
    handle = V("D4")
    fr = free_over(handle.generators, 1)
    for member in handle.si_closure:
        assert embeddings(member, fr.algebra)


def test_an_minus_handles_distinct():
    handles = [V(f"AN_MINUS:{n}") for n in (1, 2, 3)]
    for i in range(len(handles)):
        for j in range(len(handles)):
            if i != j:
                assert not equals(handles[i], handles[j])


def test_an_minus_si():
    from poma import is_si
    for n in (1, 2, 3):
        assert is_si(corpus("AN_MINUS", n))
