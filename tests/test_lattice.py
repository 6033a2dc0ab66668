"""The shared bitmask Lattice against the brute-force oracles, and its
interning: one lattice per distinct order, freed with its last algebra."""
import gc
import itertools
import random
import weakref

import pytest

from poma import FiniteAlgebra, corpus
from poma.algebras import (Lattice, _covers, _mask, _reach, _unions, chain_order,
                           closed_masks, downset_masks)
from poma.errors import BudgetError

from conftest import (oracle_covers, oracle_derive_order, oracle_downsets,
                      oracle_join_irreducibles, oracle_meet_irreducibles, run_capped)

DEFECT_CODES = {None, "order-reflexive", "order-antisymmetric", "order-transitive",
                "lattice-bottom", "lattice-top", "lattice-meet", "lattice-join"}


def _relation(n, bits):
    cells = iter(bits)
    return tuple(tuple(next(cells) for _ in range(n)) for _ in range(n))


def _all_relations(n):
    for bits in itertools.product((False, True), repeat=n * n):
        yield _relation(n, bits)


def _reflexive_relations(n):
    off = n * n - n
    for bits in itertools.product((False, True), repeat=off):
        cells = iter(bits)
        yield tuple(tuple(i == j or next(cells) for j in range(n)) for i in range(n))


def _sampled_relations(count, seed):
    """Random relabelled posets on 5-6 points, often given bounds, sometimes
    with one or two entries flipped, so that every defect code occurs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((5, 6))
        density = rng.choice((0.3, 0.5, 0.7))
        leq = [[i == j or (i < j and rng.random() < density) for j in range(n)]
               for i in range(n)]
        if rng.random() < 0.7:
            for j in range(n):
                leq[0][j] = leq[j][n - 1] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            i, j = rng.randrange(n), rng.randrange(n)
            leq[i][j] = not leq[i][j]
        perm = list(range(n))
        rng.shuffle(perm)
        yield tuple(tuple(leq[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def _check_against_oracles(relations):
    codes = set()
    for leq in relations:
        lat = Lattice(leq)
        expected = oracle_derive_order(leq)
        assert (lat.defect, lat.meet, lat.join, lat.bottom, lat.top) == expected, leq
        codes.add(None if lat.defect is None else lat.defect[0])
        covers = oracle_covers(leq)
        if lat.defect is None:
            assert lat.join_irreducibles == tuple(oracle_join_irreducibles(leq)), leq
            assert lat.meet_irreducibles == tuple(oracle_meet_irreducibles(leq)), leq
            assert [[x] for x in lat.lower_covers] == [
                [x for x, y in covers if y == j] for j in lat.join_irreducibles], leq
        assert [frozenset(i for i in range(len(leq)) if m >> i & 1)
                for m in downset_masks(leq)] == oracle_downsets(leq), leq
        n = len(leq)
        ident = tuple(range(n))
        assert FiniteAlgebra(n, leq, ident, ident).covers() == covers, leq
    return codes


def test_lattice_matches_oracle_on_every_relation_up_to_three_points():
    for n in range(1, 4):
        _check_against_oracles(_all_relations(n))


def test_lattice_matches_oracle_on_every_reflexive_relation_on_four_points():
    assert _check_against_oracles(_reflexive_relations(4)) >= {
        None, "order-antisymmetric", "order-transitive", "lattice-bottom"}


def test_lattice_matches_oracle_on_sampled_five_and_six_point_relations():
    assert _check_against_oracles(_sampled_relations(2000, seed=1)) == DEFECT_CODES


def test_meet_defect_is_reported_before_the_join_defect_of_its_pair():
    # 0 < p, q < x, y < r, s < top, each level below all of the next: the
    # pair (x, y) = (1, 2) has two maximal lower and two minimal upper bounds
    level = {0: 0, 3: 1, 4: 1, 1: 2, 2: 2, 5: 3, 6: 3, 7: 4}
    leq = tuple(tuple(i == j or level[i] < level[j] for j in range(8))
                for i in range(8))
    _check_against_oracles([leq])
    assert Lattice(leq).defect == ("lattice-meet", (1, 2))


def test_equal_orders_share_one_lattice():
    A = corpus("D4")
    B = FiniteAlgebra.make(A.leq, A.box, A.diamond)
    assert B.leq is not A.leq
    assert A.lattice is B.lattice
    assert A.rename("renamed").lattice is A.lattice


def test_lattice_is_dropped_with_its_last_algebra():
    n = 23                      # a chain no other test builds
    leq = chain_order(n)
    ident = tuple(range(n))
    A = FiniteAlgebra(n, leq, ident, ident)
    ref = weakref.ref(A.lattice)
    assert Lattice._interned.get(leq) is A.lattice
    del A
    gc.collect()
    assert ref() is None
    assert leq not in Lattice._interned


def _oracle_reach(edges):
    """x and every point some path x -> edges[x] -> ... reaches, by search."""
    out = []
    for x in range(len(edges)):
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for z in range(len(edges)):
                if edges[y] >> z & 1 and z not in seen:
                    seen.add(z)
                    todo.append(z)
        out.append(sum(1 << z for z in seen))
    return out


def test_reach_unions_and_closed_masks_match_brute_force_on_seven_to_ten_points():
    # most of these relations are neither reflexive nor transitive
    rng = random.Random(15)
    for n in range(7, 11):
        for density in (0.1, 0.2, 0.4):
            for _ in range(2):
                edges = [sum(1 << y for y in range(n) if rng.random() < density)
                         for _ in range(n)]
                reach = _reach(edges)
                assert list(reach) == _oracle_reach(edges), edges
                unions = list(_unions(reach))
                subsets = {0}
                for m in reach:
                    subsets |= {s | m for s in subsets}
                assert unions[0] == 0 and len(unions) == len(set(unions)), edges
                assert set(unions) == subsets, edges
                leq = tuple(tuple(bool(edges[j] >> i & 1) for j in range(n))
                            for i in range(n))
                expected = oracle_downsets(leq)
                assert [frozenset(i for i in range(n) if m >> i & 1)
                        for m in closed_masks(edges)] == expected, edges
                assert downset_masks(leq) == closed_masks(edges), edges


def test_unions_keep_the_order_of_one_pass_per_distinct_member():
    family = (0b0011, 0b0100, 0b0011, 0b1000, 0b0110)
    assert list(_unions(family)) == [0, 0b0011, 0b0100, 0b0111, 0b1000, 0b1011,
                                     0b1100, 0b1111, 0b0110, 0b1110]


def test_unions_read_a_family_that_grows_while_it_is_read():
    # the union 0b001 puts 0b010 on the pending list, and 0b010 puts 0b100,
    # as free_over pushes the images of each element it lists
    pending, listed = [0b001], []

    def family():
        while pending:
            yield pending.pop()

    for mask in _unions(family()):
        listed.append(mask)
        if mask in (0b001, 0b010):
            pending.append(mask << 1)
    assert listed == [0, 0b001, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111]


def test_covers_match_the_oracle_both_ways_on_every_relation_up_to_four_points():
    # lower covers are the covers of the transpose; most of these relations
    # are not reflexive, so the third point must differ from y as well as x
    for n in range(1, 5):
        for leq in _all_relations(n):
            up, down = list(map(_mask, leq)), list(map(_mask, zip(*leq)))
            for rows, near, far in ((leq, up, down), (tuple(zip(*leq)), down, up)):
                pairs = oracle_covers(rows)
                assert [(x, y) for x in range(n) for y in _covers(near, far, x)] == pairs, leq


def test_distributivity_of_a_490_element_lattice_is_decided_in_quadratic_time():
    """The rank-2 free algebra over the four SI PS4 algebras of size <= 3 is
    distributive.  Birkhoff's criterion decides that from n^2 joins; the
    search over all n^3 triples took about 10 s.  The child is killed after
    4 s of CPU time, building the algebra included."""
    proc = run_capped(
        "from poma import EnumerationTask, enum_algebras, free_over\n"
        "F = free_over(enum_algebras(EnumerationTask('PS4', 3, si_only=True)), 2).algebra\n"
        "print(F.size, F.lattice.distributivity_witness())", cpu_seconds=4)
    assert (proc.returncode, proc.stdout) == (0, "490 None\n"), proc.stderr


def test_downsets_of_a_forty_chain_are_listed_without_a_table_over_all_subsets():
    """A chain of 40 has 41 downsets.  The child process runs under a 1 GiB
    address-space limit, so a table over all 2^40 subsets fails there
    instead of filling the machine's memory."""
    proc = run_capped(
        "from poma.algebras import chain_order, downset_masks\n"
        "print(downset_masks(chain_order(40)) == [(1 << k) - 1 for k in range(41)])")
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_downsets_of_a_seventeen_point_antichain_exceed_the_upset_budget():
    """2^17 downsets: the lister counts them against MAX_UPSETS as it goes
    and stops one past the budget, instead of listing all 131,072."""
    with pytest.raises(BudgetError, match="frame exceeds the 65,536-upset budget") as info:
        downset_masks(tuple(tuple(x == y for y in range(17)) for x in range(17)))
    assert info.value.partial == 65_537
