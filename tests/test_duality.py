import pytest

from poma import (FiniteAlgebra, ModalAlgebra, boolean_envelope, complex_algebra,
                  corpus, corpus_by_spec,
                  dual_space, is_fsi, is_iso, is_simple, is_well_connected, kappa,
                  open_filter_congruence_iso_check, open_filters,
                  prime_filters, upset_algebra, validate)
from poma.algebras import chain_order, subset_order
from poma.congruences import con_lattice
from poma.duality import (DualSpace, dual_of_hom, is_p_morphism, kripke_eval,
                          join_irreducibles)
from poma.enumeration import EnumerationTask, enum_algebras
from poma.errors import BudgetError, PreconditionError
from poma.morphisms import Hom, embeddings
from poma.terms import parse_term

from conftest import _compose

CORPUS = ("C2", "B2", "D3", "C3a", "C3b", "D4", "C4a", "C4b", "C5a", "C5b",
          "C6a", "C6b", "A4", "D5a", "D5b", "B4", "EX44III", "EX44IV")


def test_prime_filters_of_two_chain():
    assert prime_filters(corpus("C2")) == (frozenset({1}),)


def test_prime_filters_are_prime():
    for name in CORPUS:
        A = corpus(name)
        for f in prime_filters(A):
            assert f and len(f) < A.size                      # proper, non-empty
            for a in f:
                for b in range(A.size):
                    if A.leq[a][b]:
                        assert b in f                         # upward closed
            for a in f:
                for b in f:
                    assert A.meet(a, b) in f                  # meet closed
            for a in range(A.size):
                for b in range(A.size):
                    if A.join(a, b) in f:
                        assert a in f or b in f               # join prime


def test_dual_space_identity_relation_on_identity_chain():
    X = dual_space(corpus("EX44III"))
    assert len(X.points) == 2
    assert X.R == ((True, False), (False, True))


def test_dual_space_order_compatibility():
    for name in CORPUS:
        X = dual_space(corpus(name))
        n = len(X.points)
        inv = tuple(tuple(X.leq[j][i] for j in range(n)) for i in range(n))
        meetwise = tuple(tuple(a and b for a, b in zip(r1, r2))
                         for r1, r2 in zip(_compose(X.R, X.leq),
                                           _compose(X.R, inv)))
        assert meetwise == X.R


def test_kappa_is_isomorphism_on_corpus():
    for name in CORPUS:
        h = kappa(corpus(name))
        assert h.is_valid() and h.is_bijective


def test_kappa_is_isomorphism_on_enumerated_pma():
    for A in enum_algebras(EnumerationTask("PMA", 4)):
        h = kappa(A)
        assert h.is_valid() and h.is_bijective


@pytest.mark.parametrize("n", [17, 18, 41])
def test_kappa_is_isomorphism_on_long_identity_chains(n):
    # the duals have 16, 17 and 40 points and n upsets; a dual of more than
    # 16 points raised BudgetError under the old point-count limit
    A = FiniteAlgebra(n, chain_order(n), tuple(range(n)), tuple(range(n)))
    h = kappa(A)
    assert h.target.size == n
    assert h.is_valid() and h.is_bijective


def test_upset_algebra_of_a_seventeen_point_chain_frame():
    n = 17
    ident = tuple(tuple(x == y for y in range(n)) for x in range(n))
    X = DualSpace(tuple(frozenset({i}) for i in range(n)), chain_order(n), ident)
    U = upset_algebra(X)
    assert U.size == 18
    assert U.box == U.diamond == tuple(range(18))


def test_correspondence_reflexive_transitive():
    for A in enum_algebras(EnumerationTask("PMA", 4)):
        X = dual_space(A)
        n = len(X.points)
        reflexive = all(X.R[i][i] for i in range(n))
        s4_like = all(A.leq[A.box[a]][a] and A.leq[a][A.diamond[a]]
                      for a in range(A.size))
        assert reflexive == s4_like
        transitive = all(not (X.R[i][j] and X.R[j][k]) or X.R[i][k]
                         for i in range(n) for j in range(n) for k in range(n))
        k4_like = all(A.leq[A.box[a]][A.box[A.box[a]]] and
                      A.leq[A.diamond[A.diamond[a]]][A.diamond[a]]
                      for a in range(A.size))
        assert transitive == k4_like


def test_upset_algebra_rejects_incompatible_relation():
    X = dual_space(corpus("D4"))
    broken = DualSpace(X.points, X.leq,
                       tuple(tuple(not v for v in row) for row in X.R))
    with pytest.raises(PreconditionError):
        upset_algebra(broken)


def test_envelope_of_identity_chain():
    env = boolean_envelope(corpus("EX44III"))
    M = env.algebra
    assert M.size == 4
    assert M.box == tuple(range(4)) and M.diamond == tuple(range(4))
    assert not is_well_connected(M)


def test_envelope_of_flat_five_chain_is_simple():
    env = boolean_envelope(corpus("EX44IV"))
    assert is_simple(env.algebra)
    assert validate(env.algebra).is_ps4


def test_envelope_embedding_preserves_operations():
    for name in CORPUS:
        env = boolean_envelope(corpus(name))
        assert env.kappa.is_valid() and env.kappa.is_injective


def test_envelope_inherits_k4_s4():
    for name in ("B2", "D3", "D4", "C6a"):
        A = corpus(name)
        env = boolean_envelope(A)
        rep = validate(env.algebra)
        if validate(A).is_pk4:
            assert rep.is_pk4
        if validate(A).is_ps4:
            assert rep.is_ps4


def test_envelope_complement_is_boolean():
    env = boolean_envelope(corpus("C5a"))
    M, neg = env.algebra, env.modal.complement
    for x in range(M.size):
        assert M.meet(x, neg[x]) == M.bottom()
        assert M.join(x, neg[x]) == M.top()


def test_fsi_transfer_to_envelope_small():
    for A in enum_algebras(EnumerationTask("PS4", 5, fsi_only=True)):
        env = boolean_envelope(A)
        assert is_fsi(env.algebra)
        assert is_well_connected(env.algebra)


def test_complex_algebra_quasiorder_iff_ps4():
    geq = {(i, j) for i in range(4) for j in range(4) if i >= j}
    assert validate(complex_algebra(4, geq)).is_ps4
    not_reflexive = {(0, 1)}
    assert not validate(complex_algebra(2, not_reflexive)).is_ps4
    not_transitive = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}
    rep = validate(complex_algebra(3, not_transitive))
    assert rep.is_pma and not rep.is_pk4


def test_complex_algebra_singleton_identity_is_two_chain():
    A = complex_algebra(1, {(0, 0)})
    assert is_iso(A, corpus("C2"))


def test_complex_algebra_recovers_first_atom_family():
    # relation: everything reaches world 0; world 0 reaches only itself
    n = 3
    rel = {(x, y) for x in range(n) for y in range(n)
           if y == 0 or x != 0}
    A = complex_algebra(n, rel)
    B = corpus("AN_MINUS", n)
    assert A.box == B.box and A.diamond == B.diamond
    assert A.leq == B.leq


def test_complex_algebra_reads_a_list_of_pairs_as_pairs():
    """Two pairs over two worlds, all entries 0 or 1, are still pairs: the
    identity frame, as in set form."""
    listed = complex_algebra(2, [(0, 0), (1, 1)])
    assert listed == complex_algebra(2, {(0, 0), (1, 1)})
    assert listed.box == listed.diamond == (0, 1, 2, 3)
    x = frozenset({0})
    for text in ("box x", "dia x", "1 /\\ dia 1"):
        term = parse_term(text)
        assert kripke_eval(2, [(0, 0), (1, 1)], term, {"x": x}) == \
            kripke_eval(2, {(0, 0), (1, 1)}, term, {"x": x})
    assert kripke_eval(2, [(0, 0), (1, 1)], parse_term("box x"), {"x": x}) == x
    assert kripke_eval(2, [(0, 0), (1, 1)], parse_term("1 /\\ dia 1"), {}) == {0, 1}
    assert kripke_eval(2, [(0, 0), (1, 1)], parse_term("0 \\/ box 0"), {}) == set()
    for bad in ([(0, 1, 1)], [(0,)], [5], ["01"], [(0, 1.0)]):
        with pytest.raises(PreconditionError):
            complex_algebra(2, bad)


def test_complex_algebra_world_cap():
    with pytest.raises(BudgetError):
        complex_algebra(9, {(i, i) for i in range(9)})


@pytest.mark.parametrize("count", ["3", 2.5, True, None, float("inf"), -1])
def test_world_count_must_be_an_int(count):
    """A count that is not an int raised TypeError, or for True built a
    one-world frame; it is refused before the world cap is compared."""
    with pytest.raises(PreconditionError):
        complex_algebra(count, [])
    with pytest.raises(PreconditionError):
        kripke_eval(count, [], parse_term("box x"), {"x": set()})


def test_relation_worlds_must_be_ints():
    """True passed as world 1: the frame below built a 4-element algebra."""
    with pytest.raises(PreconditionError, match="is not between two of the 2 worlds"):
        complex_algebra(2, [(True, 0), (1, 1)])


def test_valuation_worlds_must_be_ints():
    """True passed as world 1: box x returned frozenset({1})."""
    with pytest.raises(PreconditionError, match="is not a set of the 2 worlds"):
        kripke_eval(2, [(0, 0), (1, 1)], parse_term("box x"), {"x": {True}})


def test_p_morphism_points_must_be_ints():
    """True passed as point 1 of the target."""
    X = dual_space(corpus("D4"))
    with pytest.raises(PreconditionError, match="does not send"):
        is_p_morphism(X, X, (0, True, 2))


def test_kripke_eval_matches_powerset_algebra():
    geq = {(i, j) for i in range(3) for j in range(3) if i >= j}
    A = complex_algebra(3, geq)
    from poma.algebras import powerset
    masks = powerset(3)[0]
    term = parse_term("box(x \\/ dia y) /\\ dia box x")
    for xm in range(8):
        for ym in range(8):
            xs = frozenset(w for w in range(3) if xm >> w & 1)
            ys = frozenset(w for w in range(3) if ym >> w & 1)
            got = kripke_eval(3, geq, term, {"x": xs, "y": ys})
            from poma.terms import eval_term
            idx = eval_term(A, term, {"x": masks.index(xm), "y": masks.index(ym)})
            assert masks[idx] == sum(1 << w for w in got)


def test_open_filters_counts():
    envC2 = boolean_envelope(corpus("C2"))
    assert len(open_filters(envC2.modal)) == len(con_lattice(envC2.algebra))
    env44 = boolean_envelope(corpus("EX44IV"))
    assert len(open_filters(env44.modal)) == 2
    assert len(con_lattice(env44.algebra)) == 2


def test_open_filter_unit_is_identity_congruence():
    env = boolean_envelope(corpus("D3"))
    M = env.modal
    top_filter = tuple(sorted([env.algebra.top()]))
    assert top_filter in open_filters(M)


def test_open_filter_congruence_correspondence():
    for name in ("C2", "B2", "D3", "D4", "EX44III", "EX44IV", "C6a"):
        assert open_filter_congruence_iso_check(boolean_envelope(corpus(name)).modal)


def test_open_filter_check_needs_a_boolean_algebra():
    """M3 with every atom complemented by the next is complemented but not
    distributive, so a <-> b in F no longer reads as a meet b-key."""
    m3 = FiniteAlgebra.make(subset_order((0, 1, 2, 4, 7)), range(5), range(5))
    with pytest.raises(PreconditionError, match="Boolean"):
        open_filter_congruence_iso_check(ModalAlgebra(m3, (4, 2, 3, 1, 0)))


def test_dual_of_hom_is_p_morphism():
    for src, dst in (("C2", "D3"), ("C2", "D4"), ("D3", "EX44IV")):
        A, B = corpus(src), corpus(dst)
        for h in embeddings(A, B):
            f = dual_of_hom(h)
            assert is_p_morphism(dual_space(B), dual_space(A), f)


def test_dual_of_hom_rejects_a_non_homomorphism():
    D4 = corpus("D4")
    with pytest.raises(PreconditionError, match="not a homomorphism"):
        dual_of_hom(Hom(D4, D4, (0,) * 4))


def test_hom_is_valid_rejects_maps_of_the_wrong_shape():
    """A short map and one past the target raised a bare IndexError, and a
    map with an entry too many was called a homomorphism."""
    D4 = corpus("D4")
    assert Hom(D4, D4, (0, 1, 2, 3)).is_valid()
    for f in ((0,), (0, 9, 2, 3), (0, 1, 2, 3, 7), (0, -1, 2, 3)):
        with pytest.raises(PreconditionError, match="does not send"):
            Hom(D4, D4, f).is_valid()
    with pytest.raises(PreconditionError, match="does not send"):
        dual_of_hom(Hom(D4, D4, (0,)))


def test_is_p_morphism_rejects_malformed_maps():
    X = dual_space(corpus("D4"))
    assert len(X.points) == 3 and is_p_morphism(X, X, (0, 1, 2))
    for f in ((0,), (0, 1, 2, 5), (0, 1, 3), (0, -1, 2), (0, 1.0, 2)):
        with pytest.raises(PreconditionError):
            is_p_morphism(X, X, f)
    # a leq with one row raised IndexError as the source, and as the target
    # the map was called a p-morphism
    short = DualSpace(X.points, X.leq[:1], X.R)
    for source, target in ((short, X), (X, short)):
        with pytest.raises(PreconditionError,
                           match="leq and R must be 3 x 3 matrices over the points"):
            is_p_morphism(source, target, (0, 1, 2))


def test_join_irreducibles_of_boolean_cube_are_atoms():
    A = corpus("EX46", 3)
    ji = join_irreducibles(A)
    assert len(ji) == 3
    assert all(A.covers().count((A.bottom(), j)) for j in ji)


def test_envelope_carries_the_callers_names():
    # A4 and AN_SIMPLE:2 are equal algebras under different names, so they
    # share one cached envelope
    first, second = corpus_by_spec("A4"), corpus_by_spec("AN_SIMPLE:2")
    assert first == second and first.name != second.name
    assert boolean_envelope(first).algebra.name == f"M({first.name})"
    env = boolean_envelope(second)
    assert env.algebra.name == f"M({second.name})"
    assert env.kappa.source is second
    assert env.kappa.target is env.algebra
    assert env.algebra.lattice is boolean_envelope(first).algebra.lattice


def test_kripke_eval_rejects_worlds_outside_the_frame():
    """Worlds outside the frame were dropped without a word, as
    complex_algebra rejects them in the relation."""
    x = parse_term("x")
    for worlds in ({5, -1}, {2}, {-1}):
        with pytest.raises(PreconditionError):
            kripke_eval(2, {(0, 0), (1, 1)}, x, {"x": worlds})
    assert kripke_eval(2, {(0, 0), (1, 1)}, x, {"x": {1}}) == frozenset({1})
