"""Congruences as masks over join-irreducibles against the closure oracles
in conftest: the element-pair union-find for cg, the table scan for
is_congruence, one closure per comparable pair, joins of partitions, and
minimal principal congruences, on enumerated, corpus, non-distributive and
random algebras; cmi_congruences against the scan over Con(A), and
si_quotients against the checked public quotient."""
import random

import pytest

from poma import (FiniteAlgebra, Partition, cg, con_lattice, corpus, is_congruence,
                  is_fsi, is_si, is_simple, monolith, validate)
from poma.algebras import subset_order
from poma.congruences import cmi_congruences, principal_congruences
from poma.corpus import CORPUS_NAMES, PARAMETRIC_NAMES
from poma.enumeration import EnumerationTask, enum_algebras
from poma.errors import BudgetError, PreconditionError, StructuralError
from poma.morphisms import (canonical_algebra, canonical_form, quotient, si_quotients,
                            subalgebra_from_universe, subuniverses)

from conftest import (oracle_atoms, oracle_cg, oracle_cmi_congruences, oracle_cmi_masks,
                      oracle_con_lattice, oracle_is_congruence,
                      oracle_principal_congruences)


def _set_partitions(n):
    """Every partition of range(n) as block ids, by restricted growth."""
    if n == 0:
        yield ()
        return
    for ids in _set_partitions(n - 1):
        for b in range(max(ids, default=-1) + 2):
            yield ids + (b,)


def _check_cg(A, rng, lists=20):
    """cg against the union-find oracle on every pair and on seeded random
    pair lists; on at most 6 elements, is_congruence against the table scan
    on every partition, also with its blocks listed in reverse."""
    n = A.size
    for a in range(n):
        for b in range(n):
            assert cg(A, [(a, b)]) == oracle_cg(A, [(a, b)]), (a, b)
    for _ in range(lists):
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(5))]
        assert cg(A, pairs) == oracle_cg(A, pairs), pairs
    if n <= 6:
        for ids in _set_partitions(n):
            p = Partition.from_block_ids(ids)
            expected = oracle_is_congruence(A, p)
            assert is_congruence(A, p) == expected, p
            assert is_congruence(A, Partition(n, p.blocks[::-1])) == expected, p


def _check(A):
    principals = oracle_principal_congruences(A)
    assert principal_congruences(A) == principals
    assert con_lattice(A) == oracle_con_lattice(A, principals=principals)
    assert cmi_congruences(A) == oracle_cmi_congruences(A, principals)
    atoms = oracle_atoms(principals) if A.size >= 2 else []
    assert is_si(A) == (len(atoms) == 1)
    assert is_fsi(A) == (A.size >= 2 and len(atoms) <= 1)
    assert is_simple(A) == (A.size >= 2 and all(p.is_total for p in principals))
    if len(atoms) == 1:
        assert monolith(A) == atoms[0]
    else:
        with pytest.raises(PreconditionError):
            monolith(A)


def _lattice_algebra(masks, rng=None):
    """The inclusion order on a family of sets, with identity operators or,
    given rng, arbitrary operator tables."""
    n = len(masks)
    ops = [tuple(range(n)), tuple(range(n))] if rng is None else \
        [tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)]
    return FiniteAlgebra.make(subset_order(masks), *ops)


def _closure_system(rng, points):
    """A random family of subsets of the points closed under intersection,
    with the full set: every finite lattice is the inclusion order of one."""
    full = (1 << points) - 1
    family = {full} | {rng.randrange(1 << points) for _ in range(rng.randrange(2, 6))}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    masks = sorted(family, key=lambda m: (bin(m).count("1"), m))
    rng.shuffle(masks)
    return masks


M3 = (0, 1, 2, 4, 7)
N5 = (0, 1, 3, 4, 7)                 # 0 < {0} < {0,1} < top, {2} beside them


@pytest.mark.parametrize("kind,max_size", [("PMA", 5), ("PS4", 6)])
def test_masks_match_closure_oracle_enumerated(kind, max_size):
    for A in enum_algebras(EnumerationTask(kind, max_size)):
        _check(A)


@pytest.mark.parametrize("kind,max_size", [("PMA", 5), ("PS4", 6), ("PK4", 5)])
def test_cg_and_is_congruence_match_oracles_enumerated(kind, max_size):
    rng = random.Random(f"{kind}{max_size}")
    for A in enum_algebras(EnumerationTask(kind, max_size)):
        _check_cg(A, rng)


def test_masks_match_closure_oracle_corpus():
    specs = [name for name in CORPUS_NAMES
             if name not in PARAMETRIC_NAMES and name != "F1_PS4"]
    specs += [(name, k) for name, lo in (("EX46", 3), ("AN_MINUS", 1), ("AN_SIMPLE", 2))
              for k in range(lo, 7)]
    for spec in specs:
        A = corpus(*spec) if isinstance(spec, tuple) else corpus(spec)
        _check(A)


def _partition_mask(A, p):
    """The join-irreducibles that p collapses with their lower covers."""
    lat, ids = A.lattice, p.block_ids()
    return sum(1 << k for k, (low, j) in enumerate(zip(lat.lower_covers, lat.join_irreducibles))
               if ids[low] == ids[j])


def _check_cmi(A):
    got = cmi_congruences(A)
    assert list(got) == sorted(got, key=lambda p: p.blocks)
    masks = [_partition_mask(A, p) for p in got]
    assert len(set(masks)) == len(masks)
    assert set(masks) == oracle_cmi_masks(A)


@pytest.mark.parametrize("kind,max_size", [("PS4", 7), ("PK4", 5)])
def test_cmi_congruences_match_the_con_scan_enumerated(kind, max_size):
    for A in enum_algebras(EnumerationTask(kind, max_size)):
        _check_cmi(A)


def test_cmi_congruences_match_the_con_scan_on_free_subalgebras():
    F = corpus("F1_PS4")
    universes = subuniverses(F)
    assert len(universes) == 1_081
    for universe in universes:
        _check_cmi(subalgebra_from_universe(F, universe)[0])


def _checked_catalog(A):
    """si_quotients through the public quotient, which checks each
    congruence; every quotient must be subdirectly irreducible."""
    out = {}
    for theta in cmi_congruences(A):
        Q, _ = quotient(A, theta)
        assert is_si(Q), theta
        out.setdefault(canonical_form(Q), canonical_algebra(Q))
    return sorted(out.values(), key=lambda q: (q.size, canonical_form(q)))


def _same_catalog(A):
    assert [q.to_json() for q in si_quotients(A)] == [q.to_json() for q in _checked_catalog(A)]


def test_si_quotients_match_the_checked_quotient_enumerated():
    for A in enum_algebras(EnumerationTask("PS4", 6)):
        _same_catalog(A)


def test_si_quotients_match_the_checked_quotient_corpus():
    specs = [name for name in CORPUS_NAMES if name not in PARAMETRIC_NAMES]
    specs += [(name, k) for name, lo in (("EX46", 3), ("AN_MINUS", 1), ("AN_SIMPLE", 2))
              for k in range(lo, 7)]
    for spec in specs:
        _same_catalog(corpus(*spec) if isinstance(spec, tuple) else corpus(spec))


def test_free_algebra_con_lattice_matches_oracle():
    A = corpus("F1_PS4")
    assert principal_congruences(A) == oracle_principal_congruences(A)
    cons = con_lattice(A)
    assert len(cons) == 644
    assert cons == oracle_con_lattice(A)


def test_free_algebra_cg_matches_oracle():
    _check_cg(corpus("F1_PS4"), random.Random(37), lists=100)


def test_non_distributive_lattices():
    m3, n5 = _lattice_algebra(M3), _lattice_algebra(N5)
    assert len(con_lattice(m3)) == 2 and is_simple(m3)
    assert len(con_lattice(n5)) == 5 and is_si(n5)
    rng = random.Random(5)
    for masks in (M3, N5):
        # constant operators leave the join translates as the only edges
        bounds = (tuple(len(masks) - 1 for _ in masks), tuple(0 for _ in masks))
        for A in (_lattice_algebra(masks), _lattice_algebra(masks, rng),
                  FiniteAlgebra.make(subset_order(masks), *bounds)):
            _check_cg(A, rng)
            _check(A)


def test_random_closure_system_lattices():
    rng = random.Random(20190805)
    non_distributive = 0
    for _ in range(600):
        masks = _closure_system(rng, rng.randrange(2, 6))
        A = _lattice_algebra(masks, rng)
        non_distributive += not validate(A).is_distributive
        _check(A)
        _check_cg(A, rng, lists=5)
    assert non_distributive >= 100


@pytest.mark.parametrize("A", [corpus("D4"), corpus("EX44IV"), corpus("A4"),
                               corpus("AN_MINUS", 3), _lattice_algebra(N5)],
                         ids=repr)
def test_budget_error_partial_matches_oracle(A):
    total = len(oracle_con_lattice(A))
    for k in range(total):
        with pytest.raises(BudgetError) as expected:
            oracle_con_lattice(A, k)
        with pytest.raises(BudgetError) as got:
            con_lattice(A, k)
        assert str(got.value) == str(expected.value)
        assert got.value.partial == expected.value.partial
    assert len(con_lattice(A, total)) == total


def test_two_element_antichain_is_rejected_not_simple():
    """Congruences need the lattice: on an order without bounds every
    predicate raises, where one closure per comparable pair found no pair
    and called the antichain simple."""
    A = FiniteAlgebra.make(((True, False), (False, True)), (0, 1), (0, 1))
    for predicate in (is_simple, is_si, is_fsi, con_lattice, principal_congruences):
        with pytest.raises(StructuralError):
            predicate(A)


def test_is_congruence_needs_a_lattice_and_a_partition_of_the_carrier():
    """On a non-lattice every partition raises StructuralError, where the
    table scan called the identity a congruence and failed on any other
    with TypeError; a partition of another size raises PreconditionError in
    is_congruence and in quotient."""
    antichain = FiniteAlgebra.make(((True, False), (False, True)), (0, 1), (0, 1))
    for p in (Partition.identity(2), Partition.total(2)):
        with pytest.raises(StructuralError):
            is_congruence(antichain, p)
    d4 = corpus("D4")
    for p in (Partition.identity(3), Partition.total(5)):
        with pytest.raises(PreconditionError):
            is_congruence(d4, p)
        with pytest.raises(PreconditionError):
            quotient(d4, p)


def _rejects_blocks(blocks):
    d4 = corpus("D4")
    p = Partition(4, blocks)
    with pytest.raises(PreconditionError):
        is_congruence(d4, p)
    with pytest.raises(PreconditionError):
        quotient(d4, p)


def test_partition_missing_elements_is_rejected():
    """Read through block ids, the missing elements fell into block 0 and
    the quotient was the 1-element algebra."""
    _rejects_blocks(((0,),))


def test_partition_with_overlapping_blocks_is_rejected():
    """Read through block ids, this was the partition {0}, {1, 2, 3}."""
    _rejects_blocks(((0, 1), (1, 2, 3)))


def test_partition_with_an_element_past_the_carrier_is_rejected():
    """Read through block ids, this raised a bare IndexError."""
    _rejects_blocks(((0, 5), (1, 2, 3)))
