import pytest

from poma import (corpus, covers_poset, equals, figure4_handles, includes,
                  member_si, splitting_c3a, splitting_c3b, splitting_d3,
                  variety_of)
from poma.enumeration import EnumerationTask, enum_algebras
from poma.errors import BudgetError, PreconditionError
from poma.free import free_over, same_one_var_theory
from poma.morphisms import embeddings
from poma.varieties import (equation_separation, lemma64_66_properties,
                            lemma92_battery, theorem610_battery)
from poma.terms import equation_to_str, holds_eq


def V(*names):
    return variety_of([corpus(n) for n in names], "V(" + ",".join(names) + ")")


def test_includes_examples():
    assert includes(V("D3"), V("C2"))
    assert not equals(V("C3a"), V("C3b"))
    assert includes(V("D4"), V("D4"))
    assert not includes(V("C2"), V("D3"))


def test_includes_is_partial_order_on_figure4():
    handles = figure4_handles()
    for a in handles:
        assert includes(a, a)
        for b in handles:
            if includes(a, b) and includes(b, a):
                assert equals(a, b)
            for c in handles:
                if includes(a, b) and includes(b, c):
                    assert includes(a, c)


EXPECTED_FIG4_EDGES = {
    ("Trivial", "V(C2)"),
    ("V(C2)", "V(D3)"), ("V(C2)", "V(C3a)"), ("V(C2)", "V(C3b)"),
    ("V(C2)", "V(D4)"),
    ("V(D3)", "V(D3,D4)"), ("V(D3)", "V(D3,C3a)"), ("V(D3)", "V(D3,C3b)"),
    ("V(D3)", "V(A4)"), ("V(D3)", "V(B4)"),
    ("V(D4)", "V(D3,D4)"), ("V(D4)", "V(C3a,D4)"), ("V(D4)", "V(C3b,D4)"),
    ("V(C3a)", "V(C3a,D4)"), ("V(C3a)", "V(D3,C3a)"),
    ("V(C3a)", "V(C3a,C3b)"), ("V(C3a)", "V(C4a)"),
    ("V(C3b)", "V(C3b,D4)"), ("V(C3b)", "V(D3,C3b)"),
    ("V(C3b)", "V(C3a,C3b)"), ("V(C3b)", "V(C4b)"),
}


def test_figure4_cover_structure():
    handles = list(figure4_handles())
    edges = covers_poset(handles)
    got = {(handles[i].label, handles[j].label) for i, j in edges}
    assert got == EXPECTED_FIG4_EDGES


def test_minimal_variety_covers():
    handles = list(figure4_handles())
    labels = [h.label for h in handles]
    edges = covers_poset(handles)
    covers_of_c2 = {labels[j] for i, j in edges if labels[i] == "V(C2)"}
    assert covers_of_c2 == {"V(D3)", "V(C3a)", "V(C3b)", "V(D4)"}


def test_splitting_examples():
    v = splitting_c3a(corpus("C4a"))
    assert v.consistent and not v.satisfies_equation and not v.excludes_splitter
    v = splitting_d3(corpus("D4"))
    assert v.consistent and v.satisfies_equation and v.excludes_splitter
    v = splitting_c3a(corpus("C2"))
    assert v.consistent and v.satisfies_equation and v.excludes_splitter
    v = splitting_c3b(corpus("C4b"))
    assert v.consistent and not v.satisfies_equation and not v.excludes_splitter
    with pytest.raises(PreconditionError):
        splitting_c3a(corpus("B2"))
    assert splitting_d3(corpus("B2")).consistent     # B2 is a K4 algebra


def test_splitting_consistency_small():
    for A in enum_algebras(EnumerationTask("PS4", 5, si_only=True)):
        assert splitting_c3a(A).consistent
        assert splitting_c3b(A).consistent
    for A in enum_algebras(EnumerationTask("PK4", 4, si_only=True)):
        assert splitting_d3(A).consistent


def test_theorem610_battery_small():
    rep = theorem610_battery(5)
    assert rep.passed
    assert set(rep.witnesses) == {"C2", "D4"}
    assert theorem610_battery(2).passed            # trivially, only C2 found


def test_theorem610_battery_size9():
    """Past the size the batteries reached when every algebra was sorted and
    validated before the equations ran: 53,553 PS4 algebras of size 9."""
    rep = theorem610_battery(9)
    assert rep.passed and rep.witnesses == ("C2", "D4")


def test_lemma92_battery_small():
    rep = lemma92_battery(4)
    assert rep.passed
    assert set(rep.witnesses) == {"B2"}


def test_lemma92_battery_size8():
    """Past the size where trying every value assignment on the irreducibles
    took seconds: the operator tables of the 15 lattices of size 8 are the
    monotone maps on their irreducibles."""
    rep = lemma92_battery(8)
    assert rep.passed and rep.witnesses == ("B2",)


def test_endomorphism_battery():
    for name in ("D4", "C2"):
        assert lemma64_66_properties(corpus(name)).passed
    five_chain = free_over([corpus("D4")], 1).algebra
    assert lemma64_66_properties(five_chain).passed
    with pytest.raises(PreconditionError):
        lemma64_66_properties(corpus("D3"))        # fails the idempotence laws


def test_membership_vs_equation_separation():
    """The si-membership decision agrees with a bounded search for a
    separating equation on small instances."""
    cases = [("D3", "C3a", False), ("C3a", "C4a", True), ("C2", "D4", True),
             ("D4", "C4a", False), ("C3b", "C4b", True)]
    for member, generator, expected in cases:
        A, B = corpus(member), corpus(generator)
        assert member_si(V(generator), A) == expected
        separating = equation_separation(A, B)
        assert (separating is None) == expected
        if separating is not None:
            assert holds_eq(B, separating)
            assert not holds_eq(A, separating)


def test_equation_separation_pins():
    """The first separating equation in the search's candidate order."""
    cases = [("D3", "C3a", "dia x0 ~ x0"), ("D4", "C4a", "dia box x0 ~ box x0"),
             ("C3a", "C4b", "box dia x0 ~ dia x0"),
             ("A4", "B4", "box x0 \\/ box x1 ~ box (x0 \\/ x1)"),
             ("B4", "A4", "box (x0 \\/ x1) \\/ dia x0 /\\ x1 ~ box (x0 \\/ x1) \\/ x0 /\\ x1"),
             ("C3a", "C4a", None)]
    for member, generator, expected in cases:
        separating = equation_separation(corpus(member), corpus(generator))
        assert (separating and equation_to_str(separating)) == expected


def test_one_variable_theory_shadow():
    """Enumerated si PS4 algebras other than C2 and D3 sharing the
    one-variable theory of D3 must embed the diamond or the flat four-chain."""
    d3 = corpus("D3")
    a4, b4 = corpus("A4"), corpus("B4")
    from poma.morphisms import canonical_form
    skip = {canonical_form(corpus("C2")), canonical_form(d3)}
    hits = 0
    for A in enum_algebras(EnumerationTask("PS4", 6, si_only=True)):
        if canonical_form(A) in skip:
            continue
        if same_one_var_theory(A, d3):
            hits += 1
            assert embeddings(a4, A) or embeddings(b4, A)
    assert hits                                     # the shadow is not vacuous


def _satisfies_one_var_theory_of(A, B):
    """A validates every one-variable equation valid in B (desk-scale check
    via a generator-preserving hom between one-generated free algebras)."""
    from poma.morphisms import extend_hom
    fb = free_over([B], 1)
    fa = free_over([A], 1)
    return extend_hom(fb.algebra, fa.algebra,
                      {fb.generators[0]: fa.generators[0]}) is not None


def test_one_variable_axiomatization_shadow_c3a():
    """Desk-scale shadow: an enumerated si PS4 algebra satisfying the
    one-variable theory of C3a is C2 or C3a; dually for C3b."""
    from poma import is_iso
    for A in enum_algebras(EnumerationTask("PS4", 6, si_only=True)):
        if _satisfies_one_var_theory_of(A, corpus("C3a")):
            assert is_iso(A, corpus("C2")) or is_iso(A, corpus("C3a"))
        if _satisfies_one_var_theory_of(A, corpus("C3b")):
            assert is_iso(A, corpus("C2")) or is_iso(A, corpus("C3b"))


def test_variety_membership_of_products():
    from poma.morphisms import product
    handle = variety_of([product(corpus("D4"), corpus("C2"))])
    assert equals(handle, V("D4"))


def test_battery_labels_surface_budget_errors(monkeypatch):
    import poma.varieties as varieties

    def over_budget(A):
        raise BudgetError("canonical form over budget")

    monkeypatch.setattr(varieties, "canonical_form", over_budget)
    with pytest.raises(BudgetError):
        varieties._label_for(corpus("D4"))
