"""Homomorphism extension by a replayed generation program, on one value
vector per element for many maps at once, the cone test of the homomorphism
check and the incremental subuniverse closure, against the fixed-point
extension, the method-call check and brute-force subuniverses in conftest."""
import itertools
import random
from operator import and_, or_

import pytest

from poma import FiniteAlgebra, corpus, validate
from poma import morphisms
from poma.algebras import powerset
from poma.corpus import FIG2_NAMES
from poma.enumeration import EnumerationTask, enum_algebras
from poma.errors import BudgetError, PreconditionError, StructuralError
from poma.free import figure1_algebra, free_over, same_one_var_theory
from poma.morphisms import (Hom, _extensions, _generation, _is_hom, _Targets,
                            closure_universe, extend_hom, generating_set, homs, product,
                            subuniverses)
from poma.terms import Vectors

from conftest import oracle_extend_hom, oracle_is_hom, oracle_subuniverses
from test_congruence_masks import M3, N5, _closure_system, _lattice_algebra

SMALL = list(enum_algebras(EnumerationTask("PMA", 4)))   # every algebra of size <= 4
POOL = (SMALL + list(enum_algebras(EnumerationTask("PS4", 5)))
        + list(enum_algebras(EnumerationTask("PK4", 5))))
ANTICHAIN = FiniteAlgebra(2, ((True, False), (False, True)), (0, 1), (0, 1))


def test_every_generating_set_seed_on_small_pairs():
    """The generating set ``homs`` uses, sent to every tuple of the target,
    for every ordered pair of algebras of size <= 4."""
    checked = found = 0
    for A in SMALL:
        gens = generating_set(A)
        for B in SMALL:
            for combo in itertools.product(range(B.size), repeat=len(gens)):
                seed = dict(zip(gens, combo))
                got = extend_hom(A, B, seed)
                assert got == oracle_extend_hom(A, B, seed), (A, B, seed)
                checked += 1
                found += got is not None
    assert checked == 48_318 and 0 < found < checked


def test_random_seeds():
    """Seeds of 0-3 keys, some on the bounds and so often conflicting, many
    not generating the source; the free algebra F1 on either side."""
    rng = random.Random(4)
    f1 = figure1_algebra().algebra
    outcomes = {"hom": 0, "conflict": 0, "not generated": 0, "not a hom": 0}
    for trial in range(3_000):
        A, B = rng.choice(POOL), rng.choice(POOL)
        if trial % 100 == 0:
            A, B = (f1, B) if trial % 200 == 0 else (A, f1)
        keys = rng.sample(range(A.size), rng.randint(0, min(3, A.size)))
        if rng.random() < 0.25:
            keys.append(rng.choice((A.bottom(), A.top())))
        hom = extend_hom(A, B, {g: rng.randrange(B.size) for g in generating_set(A)})
        if hom is not None and rng.random() < 0.5:          # a consistent seed
            seed = {k: hom[k] for k in keys}
        else:
            seed = {k: rng.randrange(B.size) for k in keys}
        got = extend_hom(A, B, seed)
        assert got == oracle_extend_hom(A, B, seed), (A, B, seed)
        bounds = {A.bottom(): B.bottom(), A.top(): B.top()}
        if got is not None:
            outcomes["hom"] += 1
        elif any(bounds.get(k, v) != v for k, v in seed.items()):
            outcomes["conflict"] += 1
        elif len(closure_universe(A, seed)) < A.size:
            outcomes["not generated"] += 1
        else:
            outcomes["not a hom"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_random_maps_through_is_valid():
    """Arbitrary maps, homomorphisms, and homomorphisms with one value moved."""
    rng = random.Random(5)
    valid = 0
    for _ in range(3_000):
        A, B = rng.choice(POOL), rng.choice(POOL)
        f = extend_hom(A, B, {g: rng.randrange(B.size) for g in generating_set(A)})
        if f is None:
            B, f = A, tuple(range(A.size))
        if rng.random() < 0.3:
            f = tuple(rng.randrange(B.size) for _ in range(A.size))
        elif rng.random() < 0.5:
            f = list(f)
            f[rng.randrange(A.size)] = rng.randrange(B.size)
            f = tuple(f)
        verdict = Hom(A, B, f).is_valid()
        assert verdict == oracle_is_hom(A, B, f), (A, B, f)
        valid += verdict
    assert 300 < valid < 2_700


def test_identity_with_one_value_moved():
    """Maps that break the operations at a few pairs, on algebras large
    enough that those pairs need not be neighbours in the element order."""
    for A in (figure1_algebra().algebra, product(corpus("D4"), corpus("C3a"))):
        for z, w in itertools.product(range(A.size), repeat=2):
            f = tuple(w if x == z else x for x in range(A.size))
            assert Hom(A, A, f).is_valid() == oracle_is_hom(A, A, f) == (z == w)


def test_non_lattice_side_raises():
    chain = corpus("D3")
    for A, B in ((ANTICHAIN, chain), (chain, ANTICHAIN), (ANTICHAIN, ANTICHAIN)):
        for check in (oracle_extend_hom, extend_hom):
            with pytest.raises(StructuralError):
                check(A, B, {})
        f = tuple(x % B.size for x in range(A.size))
        for check in (oracle_is_hom, lambda A, B, f: Hom(A, B, f).is_valid()):
            with pytest.raises(StructuralError):
                check(A, B, f)


def _agreed(A, B, f):
    """The oracle's verdict, after checking that the cone test gives it."""
    expected = oracle_is_hom(A, B, f)
    assert _is_hom(A, B, f) == expected, (A, B, f)
    return expected


def _keeps(A, B, f, op):
    """Whether f preserves the binary lattice operation op on every pair."""
    return all(getattr(B, op)(f[x], f[y]) == f[getattr(A, op)(x, y)]
               for x in range(A.size) for y in range(A.size))


def _bounded_maps(A, B, rng, count):
    """Maps keeping the bounds, the rest of each value drawn at random."""
    for _ in range(count):
        f = [rng.randrange(B.size) for _ in range(A.size)]
        f[A.bottom()], f[A.top()] = B.bottom(), B.top()
        yield tuple(f)


def test_cones_on_closure_system_lattices():
    """M3, N5 and random lattices with random operators: the identity with
    every one-value move, and random bound-keeping maps into the lattice
    itself and into another one."""
    rng = random.Random(20191010)
    algebras = [_lattice_algebra(M3), _lattice_algebra(N5),
                _lattice_algebra(M3, rng), _lattice_algebra(N5, rng)]
    algebras += [_lattice_algebra(_closure_system(rng, rng.randrange(3, 6)), rng)
                 for _ in range(320)]
    non_distributive = sum(not validate(A).is_distributive for A in algebras)
    verdicts = {True: 0, False: 0}
    for A in algebras:
        for z, w in itertools.product(range(A.size), repeat=2):
            f = tuple(w if x == z else x for x in range(A.size))
            verdicts[_agreed(A, A, f)] += 1
        for B in (A, rng.choice(algebras)):
            for f in _bounded_maps(A, B, rng, 5):
                verdicts[_agreed(A, B, f)] += 1
    assert non_distributive >= 80
    assert min(verdicts.values()) >= 300, verdicts


def _cube(k):
    """The Boolean lattice of subsets of k points, identity operators."""
    return _lattice_algebra(powerset(k)[0])


def test_cones_on_maps_keeping_one_operation():
    """Maps into a cube that keep the bounds and the operators (all identity)
    and one of meet and join: x -> {i : a_i <= x} keeps meets, and joins iff
    every a_i is join-prime; x -> {i : x not <= m_i} keeps joins, and meets iff
    every m_i is meet-prime."""
    rng = random.Random(7)
    sources = [_lattice_algebra(M3), _lattice_algebra(N5)]
    sources += [_lattice_algebra(_closure_system(rng, rng.randrange(3, 6)))
                for _ in range(60)]
    only = {"meet": 0, "join": 0}
    for A in sources:
        up, down = A.lattice.up, A.lattice.down
        for k in (1, 2, 3):
            B, index = _cube(k), {m: i for i, m in enumerate(powerset(k)[0])}
            for _ in range(4 if k > 1 else A.size):
                a = [rng.choice([x for x in range(A.size) if x != A.bottom()]) for _ in range(k)]
                m = [rng.choice([x for x in range(A.size) if x != A.top()]) for _ in range(k)]
                f = tuple(index[sum(1 << i for i in range(k) if up[a[i]] >> x & 1)]
                          for x in range(A.size))
                g = tuple(index[sum(1 << i for i in range(k) if not down[m[i]] >> x & 1)]
                          for x in range(A.size))
                for kept, h in (("meet", f), ("join", g)):
                    assert _keeps(A, B, h, kept)
                    if not _agreed(A, B, h):
                        assert not _keeps(A, B, h, {"meet": "join", "join": "meet"}[kept])
                        only[kept] += 1
    assert min(only.values()) >= 100, only


def test_cones_on_free_algebra_into_figure2():
    """Every homomorphism from the free algebra F1 to each of the eleven
    Figure 2 algebras (one per image of the generator), and every map one
    value away from one."""
    F = figure1_algebra()
    A, gen = F.algebra, F.generators[0]
    checked = 0
    for name in FIG2_NAMES:
        B = corpus(name)
        for b in range(B.size):
            h = extend_hom(A, B, {gen: b})
            assert h is not None and _agreed(A, B, h)
            for x, w in itertools.product(range(A.size), range(B.size)):
                if w != h[x]:
                    assert not _agreed(A, B, h[:x] + (w,) + h[x + 1:])
                    checked += 1
    assert checked == sum(corpus(name).size * (corpus(name).size - 1)
                          for name in FIG2_NAMES) * A.size


def test_generation_program():
    """Each step derives a new element from earlier ones in the source; the
    steps and the seeds reach every element once; the cache is bounded."""
    F = figure1_algebra()
    A, gen = F.algebra, F.generators[0]
    program = _generation(A, (gen,))
    known = {A.bottom(), A.top(), gen}
    ops = {"box": lambda i, j: A.box[i], "diamond": lambda i, j: A.diamond[i],
           "meet": A.meet, "join": A.join}
    for k, op, i, j in program:
        assert k not in known and i in known and (j is None) == (op in ("box", "diamond"))
        assert j is None or j in known
        assert ops[op](i, j) == k
        known.add(k)
    assert len(known) == A.size
    assert _generation(A, ()) is None
    assert _generation.cache_info().maxsize is not None


def test_subuniverses_and_closures_against_brute_force():
    for A in POOL:
        assert subuniverses(A) == oracle_subuniverses(A)
    for A in SMALL:
        universes = [set(u) for u in oracle_subuniverses(A)]
        for r in range(A.size + 1):
            for gens in itertools.combinations(range(A.size), r):
                least = min((u for u in universes if u >= set(gens)), key=len)
                assert closure_universe(A, gens) == least


def _oracle_same_one_var_theory(A, B):
    fa, fb = free_over([A], 1), free_over([B], 1)
    if fa.algebra.size != fb.algebra.size:
        return False
    mapping = oracle_extend_hom(fa.algebra, fb.algebra,
                                {fa.generators[0]: fb.generators[0]})
    return mapping is not None and len(set(mapping)) == fa.algebra.size


def test_one_variable_theories_of_the_varieties_pairs():
    """The pairs of the one-variable shadows in test_varieties.py: every
    enumerated si PS4 algebra of size <= 6 against D3, C3a and C3b."""
    agree = 0
    for A in enum_algebras(EnumerationTask("PS4", 6, si_only=True)):
        fa = free_over([A], 1)
        for name in ("D3", "C3a", "C3b"):
            B = corpus(name)
            assert same_one_var_theory(A, B) == _oracle_same_one_var_theory(A, B)
            fb = free_over([B], 1)
            seed = {fb.generators[0]: fa.generators[0]}
            assert extend_hom(fb.algebra, fa.algebra, seed) == \
                oracle_extend_hom(fb.algebra, fa.algebra, seed)
            agree += same_one_var_theory(A, B)
    assert agree


# -- many maps at once ------------------------------------------------------------

def _against_oracle(A, targets, keys, rows, carrier=None):
    """One :func:`_extensions` call, coordinate c sending ``keys`` to
    ``rows[c]`` in ``targets[c]``, each coordinate against the oracle; the
    carrier is ``_Targets(targets)`` unless given.  Returns the verdicts."""
    carrier = carrier or _Targets(targets)
    vector = bytes if isinstance(carrier, _Targets) else tuple
    seed = {k: vector(column) for k, column in zip(keys, zip(*rows))}
    g, ok = _extensions(A, carrier, seed)
    assert len(ok) == len(rows)
    for c, (B, row) in enumerate(zip(targets, rows)):
        got = tuple(u[c] for u in g) if ok[c] else None
        assert got == oracle_extend_hom(A, B, dict(zip(keys, row))), (A, B, row)
    return ok


def _moved(B, rng):
    """B with one box or diamond entry moved to another element."""
    tables = [list(B.box), list(B.diamond)]
    table, x = rng.choice(tables), rng.randrange(B.size)
    table[x] = rng.choice([y for y in range(B.size) if y != table[x]])
    return FiniteAlgebra(B.size, B.leq, *map(tuple, tables))


def test_free_algebra_into_every_small_ps4_pair():
    """F1 into every (B, b) with B a PS4 algebra of size <= 5, as the
    universal-property stage checks them, then into each B with one operator
    entry moved: every coordinate of one carrier against the oracle."""
    rng = random.Random(24)
    F = figure1_algebra()
    A, gen = F.algebra, F.generators[0]
    algebras = list(enum_algebras(EnumerationTask("PS4", 5)))
    for pool in (algebras, [_moved(B, rng) for B in algebras if B.size > 1]):
        targets = [B for B in pool for _ in range(B.size)]
        rows = [(b,) for B in pool for b in range(B.size)]
        ok = _against_oracle(A, targets, (gen,), rows)
        if pool is algebras:
            assert all(ok) and len(ok) == 541
        else:
            assert 50 < ok.count(False) < len(ok) - 50, ok.count(False)


def _m3_n5_targets(rng):
    return [_lattice_algebra(M3), _lattice_algebra(N5)] + [
        _lattice_algebra(rng.choice((M3, N5)), rng) for _ in range(6)]


def _rows(A, targets, keys, rng):
    """Per target, mostly the keys' values under a homomorphism that the
    oracle finds from random values on a generating set (in ten tries),
    else random values."""
    rows = []
    for B in targets:
        for _ in range(10):
            h = oracle_extend_hom(A, B, {k: rng.randrange(B.size) for k in generating_set(A)})
            if h:
                break
        rows.append(tuple(h[k] if h and rng.random() < 0.7 else rng.randrange(B.size)
                          for k in keys))
    return rows


def test_mixed_targets_with_lattices_m3_and_n5():
    """Distributive sources into carriers that mix M3 and N5 with random
    tables, algebras of the pool and the source itself, seeded on a
    generating set, through one carrier and through one target at a time."""
    rng = random.Random(2410)
    extra = _m3_n5_targets(rng)
    verdicts = {True: 0, False: 0}
    for A in rng.sample(POOL, 60) + [figure1_algebra().algebra]:
        keys = generating_set(A)
        targets = [A] * 4 + extra + rng.sample(POOL, 12)
        rng.shuffle(targets)
        rows = _rows(A, targets, keys, rng)
        for verdict in _against_oracle(A, targets, keys, rows):
            verdicts[verdict] += 1
        B = rng.choice(targets)
        rows = _rows(A, [B] * 6, keys, rng)
        _against_oracle(A, [B] * 6, keys, rows, Vectors.of(B, 6))
    assert min(verdicts.values()) >= 300, verdicts


def test_non_distributive_sources():
    """Sources on random closure-system lattices, many not distributive, so
    each coordinate goes through the cone test, into the source itself (the
    identity with one value moved among them) and into M3 and N5 targets."""
    rng = random.Random(2411)
    extra = _m3_n5_targets(rng)
    checked = {True: 0, False: 0}
    for _ in range(120):
        A = _lattice_algebra(_closure_system(rng, rng.randrange(3, 6)), rng)
        if validate(A).is_distributive:
            continue
        assert _generation(A, ()) is None or _generation(A, ()).covers is None
        keys = tuple(range(A.size))
        moved = [tuple(w if x == z else x for x in keys)
                 for z, w in itertools.product(keys, repeat=2)]
        _against_oracle(A, [A] * len(moved), keys, moved, Vectors.of(A, len(moved)))
        keys = generating_set(A)
        targets = [A] * 3 + extra
        for verdict in _against_oracle(A, targets, keys, _rows(A, targets, keys, rng)):
            checked[verdict] += 1
    assert min(checked.values()) >= 40, checked


def _ring_of_sets(rng, points):
    """A random family of subsets of the points closed under union and
    intersection, with the empty and the full set (a distributive lattice),
    in random order, so that which covers come first varies."""
    family = {0, (1 << points) - 1} | {rng.randrange(1 << points) for _ in range(3)}
    while True:
        more = {op(a, b) for a in family for b in family for op in (and_, or_)} - family
        if not more:
            return rng.sample(sorted(family), len(family))
        family |= more


def test_maps_keeping_one_operation_from_irreducibles():
    """Distributive sources with identity operators, seeded with the values
    of a map into a cube that keeps the bounds and meets (or joins), as in
    test_cones_on_maps_keeping_one_operation, on the join-irreducibles (so
    the replay makes every other element by join steps) or on the
    meet-irreducibles (by meet steps)."""
    rng = random.Random(2414)
    verdicts = {True: 0, False: 0}
    for _ in range(100):
        A = _lattice_algebra(_ring_of_sets(rng, rng.randrange(3, 6)))
        if A.size < 3:
            continue
        up, down = A.lattice.up, A.lattice.down
        k = rng.randrange(1, 4)
        B, index = _cube(k), {m: i for i, m in enumerate(powerset(k)[0])}
        a = [rng.choice([x for x in range(A.size) if x != A.bottom()]) for _ in range(k)]
        m = [rng.choice([x for x in range(A.size) if x != A.top()]) for _ in range(k)]
        for keys in (A.lattice.join_irreducibles, A.lattice.meet_irreducibles):
            rows = [tuple(index[sum(1 << i for i in range(k) if up[a[i]] >> x & 1)]
                          for x in keys),
                    tuple(index[sum(1 << i for i in range(k) if not down[m[i]] >> x & 1)]
                          for x in keys)]
            for verdict in _against_oracle(A, [B, B], keys, rows):
                verdicts[verdict] += 1
    assert min(verdicts.values()) >= 60, verdicts


def test_conflicting_and_non_generating_seeds():
    """Seeds holding a bound, sent to the bound's image or elsewhere, and
    seeds on too few elements to generate the source."""
    rng = random.Random(2412)
    outcomes = {"hom": 0, "conflict": 0, "not generated": 0}
    for A in rng.sample(POOL, 150):
        targets = rng.sample(POOL, 8) + [A] * 4
        keys = list(generating_set(A)) if rng.random() < 0.5 else \
            rng.sample(range(A.size), rng.randint(0, min(2, A.size)))
        keys = tuple(dict.fromkeys(keys + [rng.choice((A.bottom(), A.top()))]))
        rows = _rows(A, targets, keys, rng)
        ok = _against_oracle(A, targets, keys, rows)
        if _generation(A, tuple(sorted(keys))) is None:
            outcomes["not generated"] += 1
            assert not any(ok)
        for B, row, good in zip(targets, rows, ok):
            bounds = {A.bottom(): B.bottom(), A.top(): B.top()}
            outcomes["hom"] += good
            outcomes["conflict"] += any(bounds.get(k, v) != v for k, v in zip(keys, row))
    assert min(outcomes.values()) >= 30, outcomes


# -- checked input and budgets ------------------------------------------------------

@pytest.mark.parametrize("seed", [{16: -1}, {16: 4}, {99: 0}, {-1: 0}, {16: 1.0},
                                  {16: True}, {True: 0}])
def test_seed_outside_the_algebras(seed):
    F, D4 = figure1_algebra().algebra, corpus("D4")
    with pytest.raises(PreconditionError):
        extend_hom(F, D4, seed)
    with pytest.raises(PreconditionError):
        homs(F, D4, seed=seed)


def test_hom_budget_is_checked_before_any_candidate(monkeypatch):
    """|B|^k candidates for k generators: a count at the budget runs, one
    above it raises before :func:`_extensions` is called."""
    A, B = corpus("D4"), corpus("C3a")
    k = len(generating_set(A))
    expected = homs(A, B)
    monkeypatch.setattr(morphisms, "HOM_BUDGET", B.size ** k)
    assert homs(A, B) == expected
    monkeypatch.setattr(morphisms, "HOM_BUDGET", B.size ** k - 1)

    def never(*args):
        raise AssertionError("a candidate was tried")

    monkeypatch.setattr(morphisms, "_extensions", never)
    with pytest.raises(BudgetError, match=f"exceeded {B.size ** k - 1} candidates"):
        homs(A, B)
