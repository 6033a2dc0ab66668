"""Canonical forms, automorphism groups, validation and the per-size
enumeration, each against the brute-force or rescanning version in
``conftest.py``."""
import random

import pytest

from poma import FiniteAlgebra, corpus, validate
from poma.algebras import Lattice, chain_order, subset_order
from poma.enumeration import (EnumerationTask, _closure_table, _enumerate_size,
                              _interior_table, _operator_tables, _preserving_tables,
                              canonical_poset, enum_algebras, enum_bdl, enum_posets)
from poma.morphisms import _first_colors, automorphisms, canonical_form

from conftest import (oracle_automorphisms, oracle_canonical_encoding,
                      oracle_canonical_form, oracle_closure_table, oracle_enumerate_size,
                      oracle_interior_table, oracle_operator_tables,
                      oracle_preserving_tables, oracle_refine_round, oracle_sublattices01,
                      oracle_validate, relabel)

ENUMERATED = (("PS4", 7), ("PK4", 5), ("PMA", 5))


def _random_order(rng, n):
    """A random partial order on n points, labelled at random."""
    leq = [[i == j or (i < j and rng.random() < 0.4) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple(leq[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def _random_closure_lattice(rng):
    """A random lattice: a family of subsets of a 4-set closed under
    intersection and holding the whole set, ordered by inclusion, labelled
    at random.  Many of them are not distributive."""
    family = {15} | {rng.randrange(16) for _ in range(rng.randrange(2, 7))}
    grown = True
    while grown:
        grown = False
        for a in list(family):
            for b in list(family):
                if a & b not in family:
                    family.add(a & b)
                    grown = True
    masks = list(family)
    rng.shuffle(masks)
    return subset_order(tuple(masks))


def _relabel_at_random(rng, A):
    order = list(range(A.size))
    rng.shuffle(order)
    return relabel(A, tuple(order))


# -- canonical forms ------------------------------------------------------------

def test_canonical_form_matches_rescanning_refinement_on_enumerated_algebras():
    for kind, max_size in ENUMERATED:
        for A in enum_algebras(EnumerationTask(kind, max_size)):
            assert canonical_form(A) == oracle_canonical_form(A), (kind, A.to_json())


def test_canonical_form_matches_rescanning_refinement_on_random_tables():
    rng = random.Random(5)
    for trial in range(1500):
        n = rng.randint(1, 7)
        leq = _random_order(rng, n) if trial % 3 else _random_relation(rng, n)
        box = tuple(rng.randrange(n) for _ in range(n))
        dia = tuple(rng.randrange(n) for _ in range(n))
        A = FiniteAlgebra(n, leq, box, dia)
        assert canonical_form(A) == oracle_canonical_form(A)
        assert canonical_form(_relabel_at_random(rng, A)) == canonical_form(A)


def test_canonical_poset_matches_rescanning_refinement():
    for k in range(7):
        for leq in enum_posets(k):
            ident = tuple(range(k))
            assert canonical_poset(leq) == oracle_canonical_encoding(k, leq, ident, ident)


def test_first_round_from_degree_counts_is_one_rescanning_round():
    """The degree counts give the colours of one round from the uniform
    colouring, on orders and relations given as bools, 0/1 ints or other
    truthy entries, with or without a reflexive diagonal."""
    rng = random.Random(13)
    for trial in range(3000):
        n = rng.randint(1, 8)
        leq = _random_order(rng, n) if trial % 3 == 0 else _random_relation(rng, n)
        if trial % 4 == 1:
            leq = tuple(tuple(map(int, row)) for row in leq)
        elif trial % 4 == 2:
            leq = tuple(tuple(rng.choice((2, "x", 1.5)) if v else rng.choice((0, "", None))
                              for v in row) for row in leq)
        box = tuple(rng.randrange(n) for _ in range(n))
        dia = tuple(range(n)) if trial % 5 == 0 else tuple(rng.randrange(n) for _ in range(n))
        expected = oracle_refine_round(n, leq, box, dia, [0] * n)
        assert _first_colors(n, leq, box, dia) == (expected, len(set(expected))), (leq, box, dia)


def test_canonical_form_on_0_1_int_matrices():
    rng = random.Random(17)
    search = canonical_form.__wrapped__          # past the cache, which equal bool tables share
    for trial in range(800):
        n = rng.randint(1, 7)
        leq = _random_order(rng, n) if trial % 2 else _random_relation(rng, n)
        ints = tuple(tuple(map(int, row)) for row in leq)
        box = tuple(rng.randrange(n) for _ in range(n))
        dia = tuple(rng.randrange(n) for _ in range(n))
        A = FiniteAlgebra(n, ints, box, dia)
        assert search(A) == oracle_canonical_form(A) == search(FiniteAlgebra(n, leq, box, dia))


def test_canonical_form_and_automorphisms_on_non_reflexive_relations():
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randint(1, 6)
        leq = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
        i = rng.randrange(n)
        leq[i][i] = False
        box = tuple(rng.randrange(n) for _ in range(n))
        dia = tuple(range(n)) if rng.random() < 0.3 else tuple(rng.randrange(n) for _ in range(n))
        A = FiniteAlgebra(n, tuple(map(tuple, leq)), box, dia)
        assert canonical_form.__wrapped__(A) == oracle_canonical_form(A)
        assert automorphisms(A) == oracle_automorphisms(A)


# -- automorphisms --------------------------------------------------------------

def _check_group(A, group):
    assert tuple(range(A.size)) in group
    members = set(group)
    assert all(tuple(s[t[x]] for x in range(A.size)) in members
               for s in group for t in group)


def test_automorphisms_match_brute_force_on_lattices():
    for L in enum_bdl(7):
        group = automorphisms(L)
        assert group == oracle_automorphisms(L), L.to_json()
        _check_group(L, group)
    boolean8 = [L for L in enum_bdl(8) if L.size == 8 and len(automorphisms(L)) == 6]
    assert len(boolean8) == 1                  # 2^3: the permutations of its atoms


def test_automorphisms_match_brute_force_on_ps4_algebras():
    for A in enum_algebras(EnumerationTask("PS4", 5)):
        group = automorphisms(A)
        assert group == oracle_automorphisms(A), A.to_json()
        _check_group(A, group)


def test_automorphisms_of_random_tables_and_relabellings():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        leq = _random_order(rng, n)
        box = tuple(rng.randrange(n) for _ in range(n))
        dia = tuple(range(n)) if rng.random() < 0.5 else tuple(
            rng.randrange(n) for _ in range(n))
        A = FiniteAlgebra(n, leq, box, dia)
        assert automorphisms(A) == oracle_automorphisms(A)
        assert len(automorphisms(_relabel_at_random(rng, A))) == len(automorphisms(A))


# -- validation ------------------------------------------------------------------

M3 = subset_order((0, 1, 2, 4, 7))             # bottom, three atoms, top
N5 = subset_order((0, 1, 3, 4, 7))              # 1 < 3 beside 4

ALL_CODES = {"order-reflexive", "order-antisymmetric", "order-transitive",
             "lattice-bottom", "lattice-top", "lattice-meet", "lattice-join",
             "distributivity", "box-top", "diamond-bottom", "box-meet",
             "diamond-join", "box-diamond-meet", "box-diamond-join",
             "box-transitive", "diamond-transitive", "box-decreasing",
             "diamond-increasing"}


def _random_relation(rng, n):
    leq = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.8:
        for i in range(n):
            leq[i][i] = True
    return tuple(map(tuple, leq))


def _random_bounded_order(rng, n):
    """A random partial order on n points with a bottom and a top added."""
    inner = _random_order(rng, n)
    return tuple(tuple(i == 0 or j == n + 1 or (0 < i <= n and 0 < j <= n and inner[i - 1][j - 1])
                       for j in range(n + 2)) for i in range(n + 2))


def _random_operators(rng, n, base=None):
    """Random tables, or base with one or two entries moved."""
    if base is None:
        return tuple(rng.randrange(n) for _ in range(n))
    out = list(base)
    for _ in range(rng.randint(1, 2)):
        out[rng.randrange(n)] = rng.randrange(n)
    return tuple(out)


def test_validate_matches_predicate_oracle_on_random_relations():
    rng = random.Random(3)
    algebras = [A for A in enum_algebras(EnumerationTask("PS4", 6)) if A.size > 1]
    lattices = [L for L in enum_bdl(6)] + [
        FiniteAlgebra(5, M3, tuple(range(5)), tuple(range(5))),
        FiniteAlgebra(5, N5, tuple(range(5)), tuple(range(5)))]
    seen = set()
    for trial in range(6000):
        pick = trial % 4
        if pick == 0:                           # any relation, or a bounded order
            n = rng.randint(1, 5)
            leq = _random_relation(rng, n) if trial % 8 else _random_bounded_order(rng, n)
            A = FiniteAlgebra(len(leq), leq, _random_operators(rng, len(leq)),
                              _random_operators(rng, len(leq)))
        elif pick == 1:                         # random operators on a lattice
            L = rng.choice(lattices)
            A = FiniteAlgebra(L.size, L.leq, _random_operators(rng, L.size),
                              _random_operators(rng, L.size))
        elif pick == 2:                         # a PS4 algebra, slightly broken
            B = rng.choice(algebras)
            A = FiniteAlgebra(B.size, B.leq, _random_operators(rng, B.size, B.box),
                              _random_operators(rng, B.size, B.diamond))
        else:                                   # a random, often non-distributive lattice
            leq = _random_closure_lattice(rng)
            n = len(leq)
            ident = tuple(range(n))
            A = FiniteAlgebra(n, leq, ident if rng.random() < 0.3 else
                              _random_operators(rng, n), ident)
        A = _relabel_at_random(rng, A) if A.lattice.defect is None else A
        report = validate(A)
        assert report == oracle_validate(A), A.to_json()
        seen.update(code for code, _ in report.violations)
    assert seen == ALL_CODES


def test_distributivity_witness_is_the_first_failing_triple():
    rng = random.Random(8)
    cases = [M3, N5, chain_order(4)] + [_random_closure_lattice(rng) for _ in range(400)]
    nondistributive = 0
    for leq in cases:
        n = len(leq)
        ident = tuple(range(n))
        A = FiniteAlgebra(n, leq, ident, ident)
        expected = dict(oracle_validate(A).violations).get("distributivity")
        assert Lattice.of(leq).distributivity_witness() == expected
        assert validate(A).is_distributive == (expected is None)
        nondistributive += expected is not None
    assert nondistributive > 100
    assert Lattice.of(M3).distributivity_witness() == (1, 2, 3)
    assert Lattice.of(N5).distributivity_witness() == (2, 1, 3)
    assert Lattice.of(chain_order(4)).distributivity_witness() is None


def test_validate_on_corpus_matches_oracle():
    for name in ("C2", "B2", "D3", "D4", "C6a", "A4", "B4", "EX44IV", "F1_PS4"):
        A = corpus(name)
        assert validate(A) == oracle_validate(A), name


# -- enumeration -----------------------------------------------------------------

def test_operator_tables_match_method_call_oracle():
    for L in enum_bdl(7):
        for kind in ("PS4", "PK4", "PMA"):
            if kind != "PS4" and L.size > 6:
                continue
            assert _operator_tables(kind, L) == oracle_operator_tables(kind, L), kind


# lattices of sizes 9 and 10, by size and join-irreducibles, on which the
# order of the diamond tables' restrictions to J is not the fold order
T_J_ORDER_DIFFERS = ((9, (1, 2, 4, 5)), (10, (1, 2, 3, 5, 6)), (10, (1, 2, 4, 5, 9)))


def _named_lattices():
    return [L for L in enum_bdl(10)
            if (L.size, L.lattice.join_irreducibles) in T_J_ORDER_DIFFERS]


def test_preserving_tables_match_the_fold_oracle_in_order():
    named = _named_lattices()
    assert len(named) == len(T_J_ORDER_DIFFERS)
    for L in [*enum_bdl(7), *named]:
        for dual in (False, True):
            assert _preserving_tables(L, dual) == oracle_preserving_tables(L, dual), (L, dual)


def test_diamond_tables_are_not_in_plain_restriction_order():
    """Sorting the diamond tables by their values on J, in index order,
    breaks the fold order: the tables must be in the order of their first
    value assignments."""
    L = _named_lattices()[0]
    ji = L.lattice.join_irreducibles
    tables = _preserving_tables(L, dual=True)
    assert sorted(tables, key=lambda t: [t[j] for j in ji]) != tables
    boxes, mi = _preserving_tables(L, dual=False), L.lattice.meet_irreducibles
    assert sorted(boxes, key=lambda t: [t[m] for m in mi]) == boxes


def test_fixed_point_tables_match_the_fold_oracles():
    # the greatest (least) fixed point by index is the join (meet) of the
    # fixed points below (above): enum_bdl indexes in a linear extension
    for L in enum_bdl(7):
        for fixed in oracle_sublattices01(L):
            assert _interior_table(L.lattice.down, fixed) == oracle_interior_table(L, fixed), fixed
            assert _closure_table(L.lattice.up, fixed) == oracle_closure_table(L, fixed), fixed


@pytest.mark.parametrize("kind,max_size", ENUMERATED)
def test_enumerate_size_matches_setdefault_oracle(kind, max_size):
    for size in range(1, max_size + 1):
        got = [A.to_json() for A in _enumerate_size(kind, size, ())]
        assert got == [A.to_json() for A in oracle_enumerate_size(kind, size)], size
