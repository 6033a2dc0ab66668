import pytest

from poma import (canonical_form, corpus, embeddings, homs, hs_si,
                  identity_hom, is_iso, is_retract, is_simple, product,
                  quotient, si_quotients, subalgebra_generated, validate)
from poma.congruences import con_lattice
from poma.errors import PreconditionError
from poma.free import figure1_algebra, free_over
from poma.morphisms import (canonical_algebra, closure_universe,
                            generating_set, subuniverses)

from conftest import corpus_label_of, relabel


def test_product_of_two_chains_is_identity_diamond():
    P = product(corpus("C2"), corpus("C2"))
    assert P.size == 4
    assert validate(P).is_ps4
    assert P.box == tuple(range(4)) and P.diamond == tuple(range(4))
    assert is_iso(P, corpus("A4")) is False        # operators differ
    atoms = [x for x in range(4) if P.covers().count((P.bottom(), x))]
    assert len(atoms) == 2


def test_generated_subalgebra_of_simple_boolean_cube():
    A = corpus("EX46", 3)
    atom = 1                                      # any atom starts a 4-chain
    coatom = next(x for x in range(A.size)
                  if A.leq[atom][x] and A.covers().count((x, A.top())))
    sub, embed = subalgebra_generated(A, [atom, coatom])
    assert sub.size == 4
    assert all(sub.leq[i][j] for i in range(4) for j in range(i, 4))
    assert not is_simple(sub)
    assert embed.is_valid() and embed.is_injective


def test_quotient_projection_is_hom():
    A = corpus("EX44IV")
    theta = con_lattice(A)[1]
    Q, proj = quotient(A, theta)
    assert proj.is_valid() and proj.is_surjective
    from poma import Partition
    with pytest.raises(PreconditionError):
        quotient(A, Partition(5, ((0, 4), (1,), (2,), (3,))))


def test_figure1_has_d4_quotient():
    F = figure1_algebra().algebra
    d4 = corpus("D4")
    assert any(is_iso(q, d4) for q in si_quotients(F))


def test_homs_contain_identity():
    for name in ("C2", "D4", "C6b"):
        A = corpus(name)
        assert identity_hom(A).mapping in {h.mapping for h in homs(A, A)}


def test_embeddings_c2_into_everything_nontrivial():
    c2 = corpus("C2")
    for name in ("D3", "C3a", "D4", "C6a", "EX44IV", "B4"):
        assert embeddings(c2, corpus(name))


def test_is_iso_distinguishes_catalog():
    assert not is_iso(corpus("C3a"), corpus("C3b"))
    assert not is_iso(corpus("C4a"), corpus("C4b"))
    assert not is_iso(corpus("D5a"), corpus("D5b"))
    assert is_iso(corpus("D4"), relabel(corpus("D4"), (3, 1, 0, 2)))


def test_canonical_form_invariant_under_relabeling():
    import itertools
    for name in ("D4", "A4", "C6a"):
        A = corpus(name)
        base = canonical_form(A)
        for order in itertools.islice(itertools.permutations(range(A.size)), 10):
            assert canonical_form(relabel(A, order)) == base
    # and distinguishes all catalog algebras pairwise
    names = ["C2", "B2", "D3", "C3a", "C3b", "D4", "C4a", "C4b", "C5a", "C5b",
             "C6a", "C6b", "A4", "D5a", "D5b", "B4", "EX44III", "EX44IV"]
    forms = {canonical_form(corpus(n)) for n in names}
    assert len(forms) == len(names)


def test_canonical_algebra_is_isomorphic_rebuild():
    for name in ("C5b", "A4", "EX44IV"):
        A = corpus(name)
        B = canonical_algebra(A)
        assert is_iso(A, B)
        assert canonical_form(B) == canonical_form(A)


def test_quotient_canonicalization_is_stable():
    A = corpus("EX44IV")
    theta = con_lattice(A)[1]
    Q1, _ = quotient(A, theta)
    relabeled = relabel(A, (4, 3, 2, 1, 0))
    # the mirrored congruence on the relabeled algebra
    from poma import Partition
    ids = theta.block_ids()
    mirrored = Partition.from_block_ids([ids[4 - k] for k in range(5)])
    Q2, _ = quotient(relabeled, mirrored)
    assert canonical_form(Q1) == canonical_form(Q2)


def test_hs_si_examples():
    labels = sorted(corpus_label_of(q) for q in hs_si(corpus("D4")))
    assert labels == ["C2", "D4"]
    assert any(is_iso(q, corpus("C3a")) for q in hs_si(corpus("C4a")))
    only = hs_si(corpus("C2"))
    assert len(only) == 1 and is_iso(only[0], corpus("C2"))


def test_hs_si_of_free_algebra_matches_its_si_quotients():
    """Every subalgebra of the free one-generated algebra F is generated by
    one element, so it is a quotient of F: HS(F) and H(F) have the same SI
    members.  With one congruence closure per comparable pair, hs_si(F) ran
    for more than five minutes."""
    F = corpus("F1_PS4")
    hs = [canonical_form(q) for q in hs_si(F)]
    quotients = si_quotients(F)
    assert hs == [canonical_form(q) for q in quotients]
    assert [corpus_label_of(q) for q in quotients] == [
        "C2", "C3a", "D3", "C3b", "C4a", "D4", "C4b", "C5a", "C5b", "C6a", "C6b"]


def test_hs_si_of_product_within_union():
    for left, right in (("D3", "C3a"), ("D4", "C3b")):
        A, B = corpus(left), corpus(right)
        keys = {canonical_form(q) for q in hs_si(product(A, B))}
        union = {canonical_form(q) for q in hs_si(A)} | \
                {canonical_form(q) for q in hs_si(B)}
        assert keys <= union


def test_subuniverses_and_generating_set():
    A = corpus("D4")
    univs = subuniverses(A)
    assert (0, 3) in univs and tuple(range(4)) in univs
    assert closure_universe(A, ()) == frozenset((0, 3))
    gens = generating_set(A)
    assert closure_universe(A, gens) == frozenset(range(4))


def test_retract_examples():
    free = free_over([corpus("D4")], 1).algebra
    assert is_retract(corpus("D4"), free)
    for name in ("C2", "D4", "A4"):
        assert is_retract(corpus(name), corpus(name))
    assert not is_retract(corpus("D3"), corpus("C2"))
    assert not is_retract(corpus("D3"), corpus("C3a"))
