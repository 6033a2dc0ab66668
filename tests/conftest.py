"""Shared fixtures and independent brute-force oracles used by the tests."""
import itertools
import os
import resource
import subprocess
import sys
from functools import reduce
from operator import and_
from typing import Sequence

import pytest

import poma
from poma import FiniteAlgebra, Partition, ValidationReport, corpus, validate
from poma.algebras import downset_masks, subset_order
from poma.congruences import _con_ids, _generators, cmi_congruences, is_fsi, is_si
from poma.duality import DualSpace
from poma.enumeration import (_conjugate, _downset_lattice, _enumerate_size, _extend_with_max,
                              _lattice_automorphisms, _mixed_axioms_hold, _operator_tables,
                              _poset_levels, _tables_satisfy, canonical_poset, enum_bdl)
from poma.errors import BudgetError, PomaError, PreconditionError
from poma.free import FreeAlgebraResult
from poma.morphisms import (Hom, canonical_algebra, canonical_form, quotient,
                            subalgebra_from_universe, subuniverses)
from poma.terms import (Equation, Term, Var, assignment_blocks, equation_variables, holds_eq,
                        term_kinds)


def run_capped(code, cpu_seconds=None):
    """Run ``code`` in a child interpreter that imports this checkout's
    poma, under a 1 GiB address-space limit: a test of a bounded-memory path
    then fails there instead of filling the machine's memory when the bound
    is lost.  With ``cpu_seconds`` the child is also killed once it has used
    that much CPU time, so a slow path fails the test instead of stalling it."""
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if cpu_seconds is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))

    src = os.path.dirname(os.path.dirname(os.path.abspath(poma.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap)


def relabel(A, order):
    """The isomorphic copy of A in which element k stands for A's element
    ``order[k]``."""
    n = A.size
    pos = [0] * n
    for k, old in enumerate(order):
        pos[old] = k
    leq = tuple(tuple(A.leq[order[i]][order[j]] for j in range(n)) for i in range(n))
    box = tuple(pos[A.box[order[i]]] for i in range(n))
    dia = tuple(pos[A.diamond[order[i]]] for i in range(n))
    return FiniteAlgebra(n, leq, box, dia)


def oracle_derive_order(leq):
    """Brute-force oracle for :class:`poma.algebras.Lattice`: check partial
    order then bounded lattice, searching every candidate meet and join.

    Returns (defect, meet, join, bottom, top); defect is (code, witness) or
    None, and the remaining entries are None whenever there is a defect.
    """
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return ("order-reflexive", (i,)), None, None, None, None
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return ("order-antisymmetric", (i, j)), None, None, None, None
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    return ("order-transitive", (i, j, k)), None, None, None, None
    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    if not bottoms:
        return ("lattice-bottom", ()), None, None, None, None
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if not tops:
        return ("lattice-top", ()), None, None, None, None
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            best = [k for k in lower if all(leq[l][k] for l in lower)]
            if len(best) != 1:
                return ("lattice-meet", (i, j)), None, None, None, None
            meet[i][j] = meet[j][i] = best[0]
            upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
            best = [k for k in upper if all(leq[k][l] for l in upper)]
            if len(best) != 1:
                return ("lattice-join", (i, j)), None, None, None, None
            join[i][j] = join[j][i] = best[0]
    return (None,
            tuple(tuple(row) for row in meet),
            tuple(tuple(row) for row in join),
            bottoms[0], tops[0])


def oracle_join_irreducibles(leq):
    """Elements whose strict downset is nonempty with exactly one maximum."""
    n = len(leq)
    out = []
    for j in range(n):
        below = [x for x in range(n) if x != j and leq[x][j]]
        if not below:
            continue
        maxima = [x for x in below if all(leq[y][x] for y in below)]
        if len(maxima) == 1:
            out.append(j)
    return out


def oracle_meet_irreducibles(leq):
    """Elements whose strict upset is nonempty with exactly one minimum."""
    n = len(leq)
    out = []
    for m in range(n):
        above = [x for x in range(n) if x != m and leq[m][x]]
        if not above:
            continue
        minima = [x for x in above if all(leq[x][y] for y in above)]
        if len(minima) == 1:
            out.append(m)
    return out


def oracle_covers(leq):
    """Pairs (x, y), x != y, x <= y, with no third element between them."""
    n = len(leq)
    return [(x, y) for x in range(n) for y in range(n)
            if x != y and leq[x][y] and not any(
                leq[x][z] and leq[z][y] and z not in (x, y) for z in range(n))]


def oracle_downsets(leq):
    """Every subset closed downward under the relation, found by testing all
    2^n subsets as frozensets, sorted by (cardinality, sorted contents)."""
    n = len(leq)
    out = []
    for mask in range(1 << n):
        d = frozenset(i for i in range(n) if mask >> i & 1)
        if all(leq[y][x] <= (y in d) for x in d for y in range(n)):
            out.append(d)
    return sorted(out, key=lambda d: (len(d), sorted(d)))


def oracle_cg(A, pairs):
    """Least congruence containing the pairs, by union-find over elements:
    every merge is propagated through both unary tables and through the
    meet/join tables against every element."""
    n = A.size
    lat = A.lattice.require()
    meet, join = lat.meet, lat.join
    box, dia = A.box, A.diamond
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(a, b) for a, b in pairs]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        work.append((box[a], box[b]))
        work.append((dia[a], dia[b]))
        ma, mb = meet[a], meet[b]
        ja, jb = join[a], join[b]
        for c in range(n):
            if ma[c] != mb[c]:
                work.append((ma[c], mb[c]))
            if ja[c] != jb[c]:
                work.append((ja[c], jb[c]))
    return Partition.from_block_ids([find(x) for x in range(n)])


def oracle_is_congruence(A, p):
    """Whether every block's members agree under box, diamond and meet and
    join with every element, by scanning the tables."""
    ids = p.block_ids()
    meet, join = A.lattice.meet, A.lattice.join
    for block in p.blocks:
        a = block[0]
        for b in block[1:]:
            if ids[A.box[a]] != ids[A.box[b]] or ids[A.diamond[a]] != ids[A.diamond[b]]:
                return False
            for c in range(A.size):
                if ids[meet[a][c]] != ids[meet[b][c]] or ids[join[a][c]] != ids[join[b][c]]:
                    return False
    return True


def oracle_principal_congruences(A):
    """Distinct non-identity principal congruences: one closure per
    comparable pair, in pair order."""
    seen = {}
    for a in range(A.size):
        for b in range(A.size):
            if a != b and A.leq[a][b]:
                p = oracle_cg(A, [(a, b)])
                seen.setdefault(p.blocks, p)
    return tuple(seen.values())


def _normalize_ids(ids):
    seen = {}
    return tuple(seen.setdefault(b, len(seen)) for b in ids)


def _join_ids(n, p, q):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ids in (p, q):
        first = {}
        for x in range(n):
            b = ids[x]
            if b in first:
                ra, rb = find(first[b]), find(x)
                if ra != rb:
                    parent[ra] = rb
            else:
                first[b] = x
    return _normalize_ids(find(x) for x in range(n))


def _ids_refine(p, q):
    image = {}
    return all(image.setdefault(pb, qb) == qb for pb, qb in zip(p, q))


def oracle_con_ids(A, max_congruences=100_000, principals=None):
    """All congruences as normalized block-id tuples, by closing the
    principal congruences under equivalence joins; raises BudgetError once
    more than max_congruences are found."""
    if principals is None:
        principals = oracle_principal_congruences(A)
    generators = [_normalize_ids(p.block_ids()) for p in principals]
    found = {_normalize_ids(range(A.size))}
    frontier = []

    def add(ids):
        if ids not in found:
            found.add(ids)
            frontier.append(ids)
            if len(found) > max_congruences:
                raise BudgetError(
                    f"congruence lattice exceeds {max_congruences} members",
                    partial=len(found))

    for ids in generators:
        add(ids)
    while frontier:
        p = frontier.pop()
        for g in generators:
            add(_join_ids(A.size, p, g))
    return found


def oracle_con_lattice(A, max_congruences=100_000, principals=None):
    return tuple(sorted((Partition.from_block_ids(ids)
                         for ids in oracle_con_ids(A, max_congruences, principals)),
                        key=lambda p: p.blocks))


def oracle_cmi_congruences(A, principals):
    """Congruences whose joins with the principal congruences they miss have
    a least member."""
    generators = [_normalize_ids(p.block_ids()) for p in principals]
    out = []
    for ids in oracle_con_ids(A, principals=principals):
        cands = {_join_ids(A.size, ids, g) for g in generators if not _ids_refine(g, ids)}
        if any(all(_ids_refine(c, d) for d in cands) for c in cands):
            out.append(Partition.from_block_ids(ids))
    return tuple(sorted(out, key=lambda p: p.blocks))


def oracle_cmi_masks(A):
    """The masks of the congruences with a least strict upper bound, by a
    scan over all of Con(A): each strict upper bound of theta contains
    theta | G_k for a G_k not inside theta, so the least one exists iff the
    intersection of those joins is one of them."""
    gens = set(_generators(A))
    out = set()
    for theta in _con_ids(A, 100_000):
        above = {theta | g for g in gens if g & ~theta}
        if above and reduce(and_, above) in above:   # empty: theta is total
            out.add(theta)
    return out


def oracle_si_quotients(A):
    """si_quotients through the public quotient, which checks each
    congruence; every quotient must be subdirectly irreducible."""
    out = {}
    for theta in cmi_congruences(A):
        Q, _ = quotient(A, theta)
        assert is_si(Q), theta
        out.setdefault(canonical_form(Q), canonical_algebra(Q))
    return sorted(out.values(), key=lambda q: (q.size, canonical_form(q)))


def oracle_hs_si(A):
    """hs_si with one subalgebra per subuniverse and the catalog of
    :func:`oracle_si_quotients` for each, deduplicated by canonical form."""
    out = {}
    for universe in subuniverses(A):
        sub, _ = subalgebra_from_universe(A, universe)
        for q in oracle_si_quotients(sub):
            out.setdefault(canonical_form(q), q)
    return sorted(out.values(), key=lambda q: (q.size, canonical_form(q)))


def oracle_atoms(principals):
    """Minimal members of a list of principal congruences: the atoms of the
    congruence lattice, since every atom is principal."""
    return [p for p in principals
            if not any(q is not p and q.refines(p) and q.blocks != p.blocks
                       for q in principals)]


def oracle_is_hom(A, B, f):
    """Homomorphism check through the method calls, every ordered pair."""
    if f[A.bottom()] != B.bottom() or f[A.top()] != B.top():
        return False
    for x in range(A.size):
        if B.box[f[x]] != f[A.box[x]] or B.diamond[f[x]] != f[A.diamond[x]]:
            return False
        for y in range(A.size):
            if B.meet(f[x], f[y]) != f[A.meet(x, y)]:
                return False
            if B.join(f[x], f[y]) != f[A.join(x, y)]:
                return False
    return True


def oracle_extend_hom(A, B, seed):
    """Extend the seed (and the bounds) by rescanning the domain through the
    operations until nothing changes; None on a conflict, when the domain
    does not reach all of A, or when the total map is not a homomorphism."""
    f = {A.bottom(): B.bottom(), A.top(): B.top()}
    for k, v in seed.items():
        if f.get(k, v) != v:
            return None
        f[k] = v
    changed = True
    while changed:
        changed = False
        dom = list(f)
        for x in dom:
            for val, img in ((A.box[x], B.box[f[x]]),
                             (A.diamond[x], B.diamond[f[x]])):
                if val in f:
                    if f[val] != img:
                        return None
                else:
                    f[val] = img
                    changed = True
            for y in dom:
                for val, img in ((A.meet(x, y), B.meet(f[x], f[y])),
                                 (A.join(x, y), B.join(f[x], f[y]))):
                    if val in f:
                        if f[val] != img:
                            return None
                    else:
                        f[val] = img
                        changed = True
    if len(f) != A.size:
        return None
    mapping = tuple(f[x] for x in range(A.size))
    return mapping if oracle_is_hom(A, B, mapping) else None


def oracle_subuniverses(A):
    """Every subset holding the bounds and closed under the operations, found
    by trying all subsets, sorted like ``subuniverses``."""
    out = []
    for r in range(A.size + 1):
        for u in itertools.combinations(range(A.size), r):
            s = set(u)
            if A.bottom() in s and A.top() in s and all(
                    A.box[x] in s and A.diamond[x] in s
                    and all(A.meet(x, y) in s and A.join(x, y) in s for y in u)
                    for x in u):
                out.append(u)
    return out


def labeled_bounded_dls(n):
    """Brute-force oracle: every bounded distributive lattice on n labeled
    elements whose identity labeling is a linear extension (every poset has
    one, so this finds every isomorphism type)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(pairs, bits):
            leq[i][j] = b
        ok = True
        for i in range(n):
            for j in range(n):
                if not leq[i][j]:
                    continue
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        ident = tuple(range(n))
        A = FiniteAlgebra.make(leq, ident, ident)
        rep = validate(A)
        if rep.is_bounded_lattice and rep.is_distributive:
            yield A


def oracle_bdl_count(n):
    """Number of bounded distributive lattices with exactly n elements, up to
    isomorphism, via the labeled brute-force oracle."""
    seen = set()
    for A in labeled_bounded_dls(n):
        seen.add(canonical_poset(A.leq))
    return len(seen)


def oracle_enum_posets(k, max_downsets=None):
    """The posets with exactly k elements, sorted by canonical form, each
    level built again from the empty poset: the per-k route that enum_bdl
    took before it walked the levels once."""
    level = {canonical_poset(()): ()}
    for _ in range(k):
        nxt = {}
        for leq in level.values():
            for down in downset_masks(leq):
                bigger = _extend_with_max(leq, down)
                if max_downsets is not None and len(downset_masks(bigger)) > max_downsets:
                    continue
                nxt.setdefault(canonical_poset(bigger), bigger)
        level = nxt
    return [level[key] for key in sorted(level)]


def oracle_enum_bdl(max_size):
    """enum_bdl through one oracle_enum_posets call per number of points."""
    out = {}
    for k in range(max_size):
        for leq in oracle_enum_posets(k, max_downsets=max_size):
            ds = downset_masks(leq)
            if len(ds) > max_size:
                continue
            ident = tuple(range(len(ds)))
            L = FiniteAlgebra(len(ds), subset_order(ds), ident, ident)
            out.setdefault(canonical_form(L), L)
    return tuple(sorted(out.values(), key=lambda L: (L.size, canonical_form(L))))


def _box_candidates(L):
    n = L.size
    out = []
    for table in itertools.product(range(n), repeat=n):
        if table[L.top()] != L.top():
            continue
        if all(table[L.meet(a, b)] == L.meet(table[a], table[b])
               for a in range(n) for b in range(n)):
            out.append(table)
    return out


def _dia_candidates(L):
    n = L.size
    out = []
    for table in itertools.product(range(n), repeat=n):
        if table[L.bottom()] != L.bottom():
            continue
        if all(table[L.join(a, b)] == L.join(table[a], table[b])
               for a in range(n) for b in range(n)):
            out.append(table)
    return out


def oracle_algebras(kind, max_size):
    """Brute-force oracle over all operator-table pairs on all labeled
    lattices, filtered by validate, deduplicated by canonical form."""
    found = {}
    for n in range(1, max_size + 1):
        lattice_skeletons = {}
        for L in labeled_bounded_dls(n):
            lattice_skeletons.setdefault(canonical_poset(L.leq), L)
        for L in lattice_skeletons.values():
            for box in _box_candidates(L):
                for dia in _dia_candidates(L):
                    A = FiniteAlgebra(L.size, L.leq, box, dia)
                    if validate(A).flag(kind):
                        found.setdefault(canonical_form(A), A)
    return sorted(found.values(), key=lambda a: (a.size, canonical_form(a)))


CORPUS_LABELS = ("C2", "B2", "D3", "C3a", "C3b", "D4", "C4a", "C4b",
                 "C5a", "C5b", "C6a", "C6b", "A4", "D5a", "D5b", "B4",
                 "EX44III", "EX44IV")


def corpus_label_of(A):
    for name in CORPUS_LABELS:
        B = corpus(name)
        if B.size == A.size and canonical_form(B) == canonical_form(A):
            return name
    return None


@pytest.fixture(scope="session")
def fig2_algebras():
    return [corpus(n) for n in ("C2", "D3", "C3a", "C3b", "D4", "C4a", "C4b",
                                "C5a", "C5b", "C6a", "C6b")]


def oracle_refine_round(n, leq, box, dia, colors):
    """One round of colour refinement, rescanning all n elements for the
    neighbours of each element."""
    keys = []
    for i in range(n):
        below = sorted(colors[j] for j in range(n) if j != i and leq[j][i])
        above = sorted(colors[j] for j in range(n) if j != i and leq[i][j])
        box_pre = sorted(colors[j] for j in range(n) if box[j] == i)
        dia_pre = sorted(colors[j] for j in range(n) if dia[j] == i)
        keys.append((colors[i], colors[box[i]], colors[dia[i]],
                     tuple(below), tuple(above),
                     tuple(box_pre), tuple(dia_pre)))
    palette = {k: c for c, k in enumerate(sorted(set(keys)))}
    return [palette[k] for k in keys]


def _oracle_refine_colors(n, leq, box, dia, colors):
    """Rounds of :func:`oracle_refine_round` until one changes no colour."""
    while True:
        new = oracle_refine_round(n, leq, box, dia, colors)
        if new == colors:
            return colors
        colors = new


def _oracle_encode(n, leq, box, dia, order):
    pos = [0] * n
    for k, e in enumerate(order):
        pos[e] = k
    bits = tuple(leq[order[i]][order[j]] for i in range(n) for j in range(n))
    return (n, bits,
            tuple(pos[box[order[i]]] for i in range(n)),
            tuple(pos[dia[order[i]]] for i in range(n)))


def _oracle_orders(n, leq, box, dia, colors):
    colors = _oracle_refine_colors(n, leq, box, dia, list(colors))
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    split = next((c for c in sorted(classes) if len(classes[c]) > 1), None)
    if split is None:
        yield tuple(sorted(range(n), key=colors.__getitem__))
        return
    for member in classes[split]:
        branched = [2 * c + 2 for c in colors]
        branched[member] = 0
        yield from _oracle_orders(n, leq, box, dia, branched)


def oracle_canonical_encoding(n, leq, box, dia):
    """Least encoding over the leaves of the individualization-refinement
    search, refining by full rescans."""
    return min(_oracle_encode(n, leq, box, dia, order)
               for order in _oracle_orders(n, leq, box, dia, [0] * n))


def oracle_canonical_form(A):
    return oracle_canonical_encoding(A.size, A.leq, A.box, A.diamond)


def oracle_automorphisms(A):
    """Every permutation preserving the order and both operators, sorted."""
    n = A.size
    return tuple(p for p in itertools.permutations(range(n))
                 if all(A.leq[x][y] == A.leq[p[x]][p[y]] for x in range(n) for y in range(n))
                 and all(p[A.box[x]] == A.box[p[x]] and p[A.diamond[x]] == A.diamond[p[x]]
                         for x in range(n)))


def oracle_validate(A):
    """The axiom checks with a triple loop for distributivity and one
    predicate call per tuple for the operator axioms."""
    violations = []
    lat = A.lattice
    if lat.defect is not None:
        return ValidationReport(False, False, False, False, False, (lat.defect,))
    n = A.size
    meet, join, box, dia, leq = lat.meet, lat.join, A.box, A.diamond, A.leq

    distributive = True
    for a, b, c in itertools.product(range(n), repeat=3):
        if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
            violations.append(("distributivity", (a, b, c)))
            distributive = False
            break

    def first_violation(code, pred, arity):
        for args in itertools.product(range(n), repeat=arity):
            if not pred(*args):
                violations.append((code, args))
                return False
        return True

    top, bot = lat.top, lat.bottom
    pma = True
    if box[top] != top:
        violations.append(("box-top", (top,)))
        pma = False
    if dia[bot] != bot:
        violations.append(("diamond-bottom", (bot,)))
        pma = False
    pma &= first_violation("box-meet", lambda a, b: box[meet[a][b]] == meet[box[a]][box[b]], 2)
    pma &= first_violation("diamond-join", lambda a, b: dia[join[a][b]] == join[dia[a]][dia[b]], 2)
    pma &= first_violation("box-diamond-meet",
                           lambda a, b: leq[meet[box[a]][dia[b]]][dia[meet[a][b]]], 2)
    pma &= first_violation("box-diamond-join",
                           lambda a, b: leq[box[join[a][b]]][join[box[a]][dia[b]]], 2)
    pma = pma and distributive
    pk4 = pma
    if pma:
        pk4 &= first_violation("box-transitive", lambda a: leq[box[a]][box[box[a]]], 1)
        pk4 &= first_violation("diamond-transitive", lambda a: leq[dia[dia[a]]][dia[a]], 1)
    ps4 = pk4
    if pk4:
        ps4 &= first_violation("box-decreasing", lambda a: leq[box[a]][a], 1)
        ps4 &= first_violation("diamond-increasing", lambda a: leq[a][dia[a]], 1)
    return ValidationReport(True, distributive, bool(pma), bool(pk4), bool(ps4),
                            tuple(violations))


def oracle_sublattices01(L):
    n = L.size
    bot, top = L.bottom(), L.top()
    middle = [x for x in range(n) if x != bot and x != top]
    out = []
    for picks in itertools.chain.from_iterable(
            itertools.combinations(middle, r) for r in range(len(middle) + 1)):
        members = {bot, top, *picks}
        if all(L.meet(x, y) in members and L.join(x, y) in members
               for x in members for y in members):
            out.append(tuple(sorted(members)))
    return out


def _fold(table, start, xs):
    """start op x1 op x2 ..., op given by its table."""
    for x in xs:
        start = table[start][x]
    return start


def oracle_preserving_tables(L, dual):
    """The meet- and top-preserving tables (with ``dual`` join- and
    bottom-preserving) through every value assignment on the meet- (join-)
    irreducibles, each folded into a table by meets (joins), the distinct
    tables kept in the order first seen."""
    n, leq, lat = L.size, L.leq, L.lattice.require()
    if dual:
        op, unit, irr = lat.join, lat.bottom, lat.join_irreducibles
        sources = [[k for k, j in enumerate(irr) if leq[j][a]] for a in range(n)]
    else:
        op, unit, irr = lat.meet, lat.top, lat.meet_irreducibles
        sources = [[k for k, m in enumerate(irr) if leq[a][m]] for a in range(n)]
    seen = {}
    for values in itertools.product(range(n), repeat=len(irr)):
        seen.setdefault(tuple(_fold(op, unit, (values[k] for k in ks)) for ks in sources))
    return list(seen)


def oracle_interior_table(L, fixed):
    """Box from its fixed-point sublattice: the join of the fixed points below."""
    lat, leq = L.lattice.require(), L.leq
    return tuple(_fold(lat.join, lat.bottom, (c for c in fixed if leq[c][a]))
                 for a in range(L.size))


def oracle_closure_table(L, fixed):
    """Diamond from its fixed-point sublattice: the meet of the fixed points above."""
    lat, leq = L.lattice.require(), L.leq
    return tuple(_fold(lat.meet, lat.top, (c for c in fixed if leq[a][c]))
                 for a in range(L.size))


def oracle_operator_tables(kind, L):
    """Candidate box and diamond tables through the method calls: interior
    and closure operators of the 0,1-sublattices for PS4, else the
    meet- and join-preserving tables from values on the irreducibles."""
    n = L.size
    if kind == "PS4":
        subs = oracle_sublattices01(L)
        return ([tuple(reduce(L.join, (c for c in s if L.leq[c][a]), L.bottom())
                       for a in range(n)) for s in subs],
                [tuple(reduce(L.meet, (c for c in s if L.leq[a][c]), L.top())
                       for a in range(n)) for s in subs])
    boxes, dias = {}, {}
    mi, ji = L.lattice.meet_irreducibles, L.lattice.join_irreducibles
    for values in itertools.product(range(n), repeat=len(mi)):
        boxes.setdefault(tuple(reduce(L.meet, (values[k] for k, m in enumerate(mi)
                                               if L.leq[a][m]), L.top())
                               for a in range(n)))
    for values in itertools.product(range(n), repeat=len(ji)):
        dias.setdefault(tuple(reduce(L.join, (values[k] for k, j in enumerate(ji)
                                              if L.leq[j][a]), L.bottom())
                              for a in range(n)))
    boxes = [t for t in boxes if t[L.top()] == L.top() and all(
        t[L.meet(a, b)] == L.meet(t[a], t[b]) for a in range(n) for b in range(n))]
    dias = [t for t in dias if t[L.bottom()] == L.bottom() and all(
        t[L.join(a, b)] == L.join(t[a], t[b]) for a in range(n) for b in range(n))]
    if kind == "PK4":
        boxes = [t for t in boxes if all(L.leq[t[a]][t[t[a]]] for a in range(n))]
        dias = [t for t in dias if all(L.leq[t[t[a]]][t[a]] for a in range(n))]
    return boxes, dias


def oracle_orbit_runs(boxes, dias, others):
    """The first pair of each orbit by a walk over every pair in order: a
    pair not yet seen opens its orbit, and every conjugate of it under the
    automorphisms ``others`` is marked seen.  One run per box, empty runs
    included."""
    seen, runs = set(), []
    dia_images = [[_conjugate(s, dia) for s in others] for dia in dias]
    for b, box in enumerate(boxes):
        box_images = [_conjugate(s, box) for s in others]
        run = []
        for d, (dia, images) in enumerate(zip(dias, dia_images)):
            if (box, dia) in seen:
                continue
            seen.update(zip(box_images, images))
            run.append(d)
        runs.append((b, run))
    return runs


def oracle_enumerate_size(kind, size):
    """Every operator pair on every lattice of the size that passes the
    mixed axioms, the first of each canonical form kept, sorted by it."""
    found = {}
    for L in enum_bdl(size):
        if L.size != size:
            continue
        boxes, dias = oracle_operator_tables(kind, L)
        for box in boxes:
            for dia in dias:
                if _mixed_axioms_hold(L, box, dia):
                    A = FiniteAlgebra(L.size, L.leq, box, dia)
                    found.setdefault(oracle_canonical_form(A), A)
    return tuple(found[key] for key in sorted(found))


def oracle_enum_algebras(task):
    """Every algebra of every size first, then the equations, the SI and the
    FSI filters over the whole list: the route of enum_algebras before the
    equations moved into the enumerator."""
    out = [A for size in range(1, task.max_size + 1)
           for A in _enumerate_size(task.kind, size, ())]
    for eq in task.satisfying:
        out = [A for A in out if holds_eq(A, eq)]
    if task.si_only:
        out = [A for A in out if is_si(A)]
    if task.fsi_only:
        out = [A for A in out if is_fsi(A)]
    return out


def oracle_burnside_count(kind, size, equations=()):
    """The number of algebras of the kind with ``size`` elements that satisfy
    the equations, up to isomorphism, by Burnside's lemma: on each lattice L,
    the number of classes is (1/|Aut L|) times the sum over s in Aut L of
    the valid pairs (box, dia) that s fixes, s box = box and s dia = dia.  A
    pair is valid when the mixed axioms and every equation, evaluated whole,
    hold on it.  No orbit representative, stabiliser rule or canonical form
    is used; each sum must divide by |Aut L|."""
    checks = [(e, [(env, len(block)) for block, env in
                   assignment_blocks(sorted(equation_variables(e)), size)]) for e in equations]
    total = 0
    for level in itertools.islice(_poset_levels(size), size):
        for poset in level.values():
            if len(poset.downsets) != size:
                continue
            L = _downset_lattice(poset.downsets)
            boxes, dias = _operator_tables(kind, L)
            valid = [(b, d) for b in boxes for d in dias if _mixed_axioms_hold(L, b, d)
                     and _tables_satisfy(L.lattice, b, d, checks)]
            auts = _lattice_automorphisms(poset)
            fixed = sum(_conjugate(s, b) == b and _conjugate(s, d) == d
                        for s in auts for b, d in valid)
            assert fixed % len(auts) == 0, (kind, size, poset.leq)
            total += fixed // len(auts)
    return total


def oracle_hoist(e):
    """The hoisting of e by a walk from each root: a subterm that mentions
    both operators keeps its kind over its arguments' walks, and any other
    is replaced by the fresh variable of its side, numbered in the order
    the walk first meets it."""
    names = {}

    def walk(t):
        kinds = term_kinds(t)
        if "dia" in kinds and "box" in kinds:
            return Term(t.kind, tuple(map(walk, t.args)))
        if t not in names:
            names[t] = f"{'d' if 'dia' in kinds else 'b'}{len(names)}"
        return Var(names[t])

    skeleton = Equation(walk(e.lhs), walk(e.rhs))
    return skeleton, *(tuple((name, t) for t, name in names.items() if name[0] == side)
                       for side in "bd")


def oracle_figure1_stage_d(F, gen, bound):
    """The detail of verify_figure1's stage d for F generated by gen: one
    oracle_extend_hom per (B, b), B over the brute-force enumeration sorted by
    canonical form size by size, the first three failures named."""
    pairs = [(B, b) for size in range(1, bound + 1)
             for B in oracle_enumerate_size("PS4", size) for b in range(B.size)]
    failures = [(B.size, b) for B, b in pairs if oracle_extend_hom(F, B, {gen: b}) is None]
    return (f"{len(pairs)} (algebra, target) pairs checked"
            + (f"; failures {failures[:3]}" if failures else ""))


# -- duality: the frozenset routes that the bitmask ones replaced -----------------

def _compose(P, Q):
    """Relational product of two square boolean matrices."""
    n = len(P)
    return tuple(tuple(any(P[x][z] and Q[z][y] for z in range(n))
                       for y in range(n)) for x in range(n))


def _is_upset(leq, v):
    n = len(leq)
    return all(leq[x][y] <= (y in v) for x in v for y in range(n))


def _box_r(R, v):
    n = len(R)
    return frozenset(x for x in range(n) if all(y in v for y in range(n) if R[x][y]))


def _dia_r(R, v):
    n = len(R)
    return frozenset(x for x in range(n) if any(y in v for y in range(n) if R[x][y]))


def oracle_dual_space(A):
    """Prime filters as frozensets, related by frozenset inclusion tests."""
    if not validate(A).is_pma:
        raise PreconditionError("dual spaces are defined for positive modal algebras")
    ji = oracle_join_irreducibles(A.leq)
    points = tuple(sorted((frozenset(a for a in range(A.size) if A.leq[j][a]) for j in ji),
                          key=lambda f: (len(f), sorted(f))))
    n = len(points)
    leq = tuple(tuple(points[i] <= points[j] for j in range(n)) for i in range(n))
    rel = []
    for f in points:
        box_inv = frozenset(a for a in range(A.size) if A.box[a] in f)
        dia_inv = frozenset(a for a in range(A.size) if A.diamond[a] in f)
        rel.append(tuple(box_inv <= g <= dia_inv for g in points))
    return DualSpace(points, leq, tuple(rel))


def oracle_check_kplus(X):
    """R must equal (R;leq) meet (R;leq^-1), then box and diamond must send
    every upset, found by testing all subsets, to an upset."""
    n = len(X.points)
    inv = tuple(tuple(X.leq[j][i] for j in range(n)) for i in range(n))
    expected = tuple(tuple(a and b for a, b in zip(r1, r2))
                     for r1, r2 in zip(_compose(X.R, X.leq), _compose(X.R, inv)))
    if expected != X.R:
        raise PreconditionError("relation is not order-compatible")
    if n > 16:
        raise BudgetError("too many points to enumerate upsets")
    for v in oracle_downsets(inv):
        if not _is_upset(X.leq, _box_r(X.R, v)) or not _is_upset(X.leq, _dia_r(X.R, v)):
            raise PreconditionError("upsets are not closed under the modal operators")


def oracle_upset_algebra(X, name=""):
    oracle_check_kplus(X)
    carrier = oracle_downsets(tuple(zip(*X.leq)))
    index = {v: i for i, v in enumerate(carrier)}
    n = len(carrier)
    leq = tuple(tuple(carrier[i] <= carrier[j] for j in range(n)) for i in range(n))
    box = tuple(index[_box_r(X.R, v)] for v in carrier)
    dia = tuple(index[_dia_r(X.R, v)] for v in carrier)
    return FiniteAlgebra(n, leq, box, dia, name)


def oracle_kappa(A):
    """a goes to the frozenset of the prime filters holding it."""
    X = oracle_dual_space(A)
    U = oracle_upset_algebra(X)
    index = {v: i for i, v in enumerate(oracle_downsets(tuple(zip(*X.leq))))}
    mapping = tuple(index[frozenset(i for i, f in enumerate(X.points) if a in f)]
                    for a in range(A.size))
    return Hom(A, U, mapping)


def oracle_boolean_envelope(A):
    """The powerset algebra over oracle_dual_space's R on frozensets, listed
    by (size, bitmask value) and named M(name) after A, with its complement
    table and the embedding sending a to the prime filters holding it."""
    X = oracle_dual_space(A)
    k = len(X.points)
    if k > 8:
        raise BudgetError(f"envelope over {k} points exceeds the 8-point cap")
    subsets = sorted((frozenset(c) for r in range(k + 1)
                      for c in itertools.combinations(range(k), r)),
                     key=lambda v: (len(v), sum(1 << x for x in v)))
    index = {v: i for i, v in enumerate(subsets)}
    leq = tuple(tuple(v <= w for w in subsets) for v in subsets)
    M = FiniteAlgebra(len(subsets), leq, tuple(index[_box_r(X.R, v)] for v in subsets),
                      tuple(index[_dia_r(X.R, v)] for v in subsets),
                      f"M({A.name})" if A.name else "")
    complement = tuple(index[frozenset(range(k)) - v] for v in subsets)
    mapping = tuple(index[frozenset(i for i, f in enumerate(X.points) if a in f)]
                    for a in range(A.size))
    return M, complement, mapping


def oracle_dual_of_hom(h):
    """Each prime filter of the target, as a frozenset, sent to the index of
    its inverse image among the source's."""
    if not h.is_valid():
        raise PreconditionError("the map is not a homomorphism")
    source = oracle_dual_space(h.source).points
    return tuple(source.index(frozenset(a for a, b in enumerate(h.mapping) if b in g))
                 for g in oracle_dual_space(h.target).points)


# -- terms: one walk per assignment, the evaluator the value vectors replaced ------

def oracle_eval_term(A, t, asg):
    kind = t.kind
    if kind == "var":
        try:
            return asg[t.var]
        except KeyError:
            raise PomaError(f"unassigned variable {t.var!r}")
    if kind == "zero":
        return A.bottom()
    if kind == "one":
        return A.top()
    if kind == "box":
        return A.box[oracle_eval_term(A, t.args[0], asg)]
    if kind == "dia":
        return A.diamond[oracle_eval_term(A, t.args[0], asg)]
    x = oracle_eval_term(A, t.args[0], asg)
    y = oracle_eval_term(A, t.args[1], asg)
    return A.meet(x, y) if kind == "meet" else A.join(x, y)


_ORACLE_LEVEL = {"var": 0, "zero": 0, "one": 0, "box": 1, "dia": 1, "meet": 2, "join": 3}


def oracle_term_to_str(t):
    """The recursive printer that the explicit stack of ``term_to_str``
    replaced: each node rendered as one string, parenthesised when its level
    is looser than its place allows."""
    def render(t, ceiling):
        kind = t.kind
        if kind == "var":
            s = t.var
        elif kind == "zero":
            s = "0"
        elif kind == "one":
            s = "1"
        elif kind in ("box", "dia"):
            s = f"{kind} {render(t.args[0], _ORACLE_LEVEL[kind])}"
        else:
            op = " /\\ " if kind == "meet" else " \\/ "
            lhs = render(t.args[0], _ORACLE_LEVEL[kind])
            rhs = render(t.args[1], _ORACLE_LEVEL[kind] - 1)
            s = f"{lhs}{op}{rhs}"
        return f"({s})" if _ORACLE_LEVEL[kind] > ceiling else s
    return render(t, 3)


def oracle_assignments(A, variables):
    """All assignments, lexicographic by variable name then element index."""
    names = sorted(variables)
    for combo in itertools.product(range(A.size), repeat=len(names)):
        yield dict(zip(names, combo))


def oracle_eq_holds_under(A, e, asg):
    return oracle_eval_term(A, e.lhs, asg) == oracle_eval_term(A, e.rhs, asg)


def oracle_solution(A, premises):
    """The first assignment to the premises' variables satisfying them all."""
    variables = set().union(*map(equation_variables, premises))
    return next((asg for asg in oracle_assignments(A, variables)
                 if all(oracle_eq_holds_under(A, p, asg) for p in premises)), None)


def oracle_refutation(A, q):
    """The first assignment satisfying q's premises but not its conclusion."""
    variables = set().union(*map(equation_variables, (*q.premises, q.conclusion)))
    for asg in oracle_assignments(A, variables):
        if all(oracle_eq_holds_under(A, p, asg) for p in q.premises):
            if not oracle_eq_holds_under(A, q.conclusion, asg):
                return asg
    return None


def oracle_holds_pos_exist(A, s):
    return any(all(any(oracle_eq_holds_under(A, e, asg) for e in clause)
                   for clause in s.matrix)
               for asg in oracle_assignments(A, s.variables))


# -- free algebras: the value-vector closure the join-irreducible masks replaced --

def oracle_free_over(basis: Sequence[FiniteAlgebra], n: int,
                     max_size: int = 20_000) -> FreeAlgebraResult:
    """Free n-generated algebra over the quasi-variety generated by `basis`:
    the subalgebra of the product of all `A^(A^n)` generated by the n
    projection tuples.  Elements are represented as value vectors, one
    coordinate per (algebra, assignment) pair."""
    basis = tuple(basis)
    if not basis:
        raise PreconditionError("free_over needs at least one basis algebra")
    if n < 0:
        raise PreconditionError(f"rank {n}: the rank must be >= 0")
    coords: list[tuple[FiniteAlgebra, tuple[int, ...]]] = []
    for A in basis:
        for v in itertools.product(range(A.size), repeat=n):
            coords.append((A, v))

    lats = [A.lattice.require() for A, _ in coords]
    meets, joins = [lat.meet for lat in lats], [lat.join for lat in lats]
    bot = tuple(lat.bottom for lat in lats)
    top = tuple(lat.top for lat in lats)
    gens = [tuple(v[i] for _, v in coords) for i in range(n)]

    def vbox(vec):
        return tuple(A.box[x] for (A, _), x in zip(coords, vec))

    def vdia(vec):
        return tuple(A.diamond[x] for (A, _), x in zip(coords, vec))

    def vmeet(u, w):
        return tuple(meet[x][y] for meet, x, y in zip(meets, u, w))

    def vjoin(u, w):
        return tuple(join[x][y] for join, x, y in zip(joins, u, w))

    pool: dict[tuple, None] = {}
    frontier = []
    for vec in [bot, top, *gens]:
        if vec not in pool:
            pool[vec] = None
            frontier.append(vec)
    while frontier:
        x = frontier.pop()
        fresh = [vbox(x), vdia(x)]
        for y in list(pool):
            fresh.append(vmeet(x, y))
            fresh.append(vjoin(x, y))
        for vec in fresh:
            if vec not in pool:
                pool[vec] = None
                frontier.append(vec)
                if len(pool) > max_size:
                    raise BudgetError(
                        f"free algebra exceeds {max_size} elements",
                        partial=len(pool))

    elems = sorted(pool)
    pos = {vec: i for i, vec in enumerate(elems)}
    size = len(elems)
    leq = tuple(tuple(all(A.leq[x][y] for (A, _), x, y in zip(coords, u, w))
                      for w in elems) for u in elems)
    box = tuple(pos[vbox(vec)] for vec in elems)
    dia = tuple(pos[vdia(vec)] for vec in elems)
    label = ",".join(a.name or "?" for a in basis)
    algebra = FiniteAlgebra(size, leq, box, dia, f"F({label};{n})")
    return FreeAlgebraResult(algebra, tuple(pos[g] for g in gens), basis)
