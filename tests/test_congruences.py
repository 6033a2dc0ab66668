import pytest

from poma import (Partition, cg, cg_dl, cg_k4, con_lattice, corpus, has_cep,
                  is_congruence, is_fsi, is_si, is_simple, is_simple_lemma45,
                  is_well_connected, monolith)
from poma.congruences import cmi_congruences, principal_congruences
from poma.duality import boolean_envelope
from poma.enumeration import EnumerationTask, enum_algebras, enum_bdl
from poma.errors import PreconditionError


def test_partition_canonical_form():
    p = Partition.from_block_ids((2, 0, 5, 0))
    assert p.blocks == ((0,), (1, 3), (2,))
    assert p.relates(1, 3) and not p.relates(0, 2)
    assert Partition.identity(3).is_identity
    assert Partition.total(3).is_total
    assert p.to_json_obj() == [[0], [1, 3], [2]]


def test_partition_join_meet_refines():
    a = Partition.from_block_ids((0, 0, 1, 2))
    b = Partition.from_block_ids((0, 1, 1, 2))
    joined = Partition.from_block_ids((0, 0, 0, 1))      # their join, written out
    assert a.meet(b).is_identity
    assert a.refines(joined) and b.refines(joined)
    assert not joined.refines(a)


def test_cg_hand_run_collapse():
    # merging the middle with the top forces box-images 0 and 1 together,
    # which collapses everything
    d3 = corpus("D3")
    assert cg(d3, [(1, 2)]).is_total


def test_cg_empty_is_identity():
    for name in ("C2", "D4", "C6a"):
        A = corpus(name)
        assert cg(A, []).is_identity


def test_cg_five_chain_middle_pair():
    A = corpus("EX44IV")
    assert cg(A, [(1, 2)]).blocks == ((0,), (1, 2), (3,), (4,))


def test_five_chain_two_meet_trivial_congruences():
    A = corpus("EX44IV")
    theta = Partition(5, ((0,), (1, 2), (3,), (4,)))
    phi = Partition(5, ((0,), (1,), (2, 3), (4,)))
    assert is_congruence(A, theta) and is_congruence(A, phi)
    assert theta.meet(phi).is_identity
    cons = {p.blocks for p in con_lattice(A)}
    assert theta.blocks in cons and phi.blocks in cons
    assert not is_fsi(A)
    assert not is_si(A)


def test_con_lattice_two_element():
    assert len(con_lattice(corpus("C2"))) == 2
    assert len(con_lattice(corpus("B2"))) == 2
    assert is_simple(corpus("B2"))


@pytest.mark.parametrize("budget", [True, 2.0, 2.5, "3"])
def test_con_lattice_budget_must_be_an_int(budget):
    # True ran out as "exceeds True members", 2.5 raised ValueError and "3"
    # TypeError; 2.0 was answered from the cache of the budget 2
    assert len(con_lattice(corpus("C2"), 2)) == 2
    with pytest.raises(PreconditionError, match="the budget must be an int"):
        con_lattice(corpus("C2"), budget)


def test_is_si_examples():
    assert is_si(corpus("D4"))
    assert is_si(corpus("C6a")) and is_si(corpus("C6b"))
    assert not is_si(corpus("trivial"))
    assert not is_simple(corpus("trivial"))


def test_monolith():
    m = monolith(corpus("D4"))
    assert not m.is_identity
    with pytest.raises(PreconditionError):
        monolith(corpus("EX44IV"))
    with pytest.raises(PreconditionError):
        monolith(corpus("trivial"))


def test_si_matches_con_lattice_definition():
    """The principal-congruence shortcut agrees with the least-nonidentity
    characterization computed from the full congruence lattice."""
    for A in enum_algebras(EnumerationTask("PS4", 5)):
        cons = [p for p in con_lattice(A) if not p.is_identity]
        least_exists = bool(cons) and any(
            all(c.refines(d) for d in cons) for c in cons)
        assert is_si(A) == (A.size >= 2 and least_exists)
        assert is_fsi(A) == is_si(A)        # finite algebras


def test_cmi_congruences_match_si_quotients_definition():
    from poma.morphisms import quotient
    for name in ("D4", "C6a", "EX44IV", "A4"):
        A = corpus(name)
        expected = {theta.blocks for theta in con_lattice(A)
                    if is_si(quotient(A, theta)[0])}
        assert {t.blocks for t in cmi_congruences(A)} == expected


def test_simplicity_example_46():
    assert is_simple(corpus("EX46", 3))
    assert is_simple(corpus("AN_SIMPLE", 2))


def test_well_connected():
    assert is_well_connected(corpus("EX44III"))
    assert is_well_connected(corpus("C2"))
    assert is_well_connected(corpus("EX44IV"))
    assert not is_well_connected(boolean_envelope(corpus("EX44III")).algebra)
    with pytest.raises(PreconditionError):
        is_well_connected(corpus("B2"))


def test_fsi_ps4_corpus_is_well_connected():
    for name in ("C2", "D3", "C3a", "C3b", "D4", "C4a", "C4b", "C5a", "C5b",
                 "C6a", "C6b", "A4", "B4"):
        A = corpus(name)
        if is_fsi(A):
            assert is_well_connected(A)


def test_si_implies_fsi_implies_well_connected_enumerated():
    for A in enum_algebras(EnumerationTask("PS4", 6)):
        if is_si(A):
            assert is_fsi(A)
        if is_fsi(A):
            assert is_well_connected(A)


def test_fsi_forces_operator_movement():
    """On an fsi PS4 algebra every interior element is moved by box or by
    diamond."""
    for A in enum_algebras(EnumerationTask("PS4", 6, fsi_only=True)):
        for a in range(A.size):
            if a in (A.bottom(), A.top()):
                continue
            assert (A.box[a] != a and A.leq[A.box[a]][a]) or \
                   (A.diamond[a] != a and A.leq[a][A.diamond[a]])


def test_simplicity_criterion_examples():
    assert is_simple_lemma45(corpus("B2"))
    assert is_simple_lemma45(corpus("EX46", 3))
    assert not is_simple_lemma45(corpus("D4"))
    with pytest.raises(PreconditionError):
        is_simple_lemma45(corpus("trivial"))


def test_simplicity_criterion_matches_con_lattice():
    for A in enum_algebras(EnumerationTask("PK4", 5)):
        if A.size >= 2:
            assert is_simple_lemma45(A) == is_simple(A)


def test_cg_dl_matches_generic_closure_small():
    for L in enum_bdl(6):
        for a in range(L.size):
            for b in range(L.size):
                assert cg_dl(L, a, b).blocks == cg(L, [(a, b)]).blocks


def test_cg_dl_four_chain_block_law():
    L = enum_bdl(4)[-2]            # 4-chain (identity operators)
    a, b = 1, 2
    part = cg_dl(L, a, b)
    for x in range(4):
        for y in range(4):
            same = (L.meet(x, L.meet(a, b)) == L.meet(y, L.meet(a, b)) and
                    L.join(x, L.join(a, b)) == L.join(y, L.join(a, b)))
            assert part.relates(x, y) == same
    assert cg_dl(L, 2, 2).is_identity


def test_cg_k4_matches_generic_closure():
    env = boolean_envelope(corpus("D3"))
    M = env.algebra
    for a in range(M.size):
        for b in range(M.size):
            assert cg_k4(env.modal, a, b).blocks == cg(M, [(a, b)]).blocks


def test_cg_k4_specific_pair():
    env = boolean_envelope(corpus("D3"))
    a = env.kappa.mapping[1]
    top = env.algebra.top()
    assert cg_k4(env.modal, a, top).blocks == cg(env.algebra, [(a, top)]).blocks


def test_cg_is_least_congruence_containing_pairs():
    for name in ("D4", "C4a", "A4", "EX44IV"):
        A = corpus(name)
        for a in range(A.size):
            for b in range(a + 1, A.size):
                generated = cg(A, [(a, b)])
                containing = [p for p in con_lattice(A) if p.relates(a, b)]
                least = min(containing, key=lambda p: len(p.blocks) * -1)
                for p in containing:
                    assert generated.refines(p)
                assert generated.blocks in {p.blocks for p in containing}


def test_principal_congruences_nonempty():
    assert principal_congruences(corpus("C2"))


def test_cep_failure_with_chain_witness():
    res = has_cep(corpus("EX46", 3))
    assert not res.has_cep
    sub, theta = res.witness
    assert sub.size == 4
    assert all(sub.leq[i][j] for i in range(4) for j in range(i, 4))  # a chain
    assert not theta.is_identity and not theta.is_total


def test_cep_holds_on_small_algebras():
    assert has_cep(corpus("C2")).has_cep
    assert has_cep(corpus("D4")).has_cep
