"""Free algebras over finitely generated classes, the finite free
one-generated positive S4-algebra with its verification battery, one-variable
theory comparison, and the two-generator growth experiment.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .algebras import FiniteAlgebra, downset_masks, subset_order, validate
from .errors import BudgetError, PreconditionError
from .morphisms import (canonical_form, closure_universe, extend_hom,
                        si_quotients)
from .terms import Box, Diamond, Join, Term, Var, eval_term

_X = Var("x")
_Y = Var("y")


@dataclass(frozen=True)
class FreeAlgebraResult:
    algebra: FiniteAlgebra
    generators: tuple[int, ...]
    basis: tuple[FiniteAlgebra, ...]

    def to_dict(self) -> dict:
        obj = self.algebra.to_dict()
        obj["generators"] = list(self.generators)
        return obj


def free_over(basis: Sequence[FiniteAlgebra], n: int,
              max_size: int = 20_000) -> FreeAlgebraResult:
    """Free n-generated algebra over the quasi-variety generated by `basis`:
    the subalgebra of the product of all `A^(A^n)` generated by the n
    projection tuples.  Elements are represented as value vectors, one
    coordinate per (algebra, assignment) pair."""
    basis = tuple(basis)
    if not basis:
        raise PreconditionError("free_over needs at least one basis algebra")
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


def free_zero(basis: Sequence[FiniteAlgebra]) -> FiniteAlgebra:
    """Subalgebra generated by the constants in the product of the basis."""
    return free_over(basis, 0).algebra


# -- the seven one-variable landmarks -------------------------------------------

def sigma_terms() -> list[Term]:
    x = _X
    return [x, Box(x), Diamond(Box(x)), Box(Diamond(Box(x))),
            Diamond(x), Box(Diamond(x)), Diamond(Box(Diamond(x)))]


# order facts among the landmarks, as index pairs into sigma_terms()
_FACT52_EDGES = ((1, 3), (3, 5), (3, 2), (5, 6), (2, 6), (6, 4), (1, 0), (0, 4))


def _fact52_leq() -> tuple[tuple[bool, ...], ...]:
    leq = [[i == j for j in range(7)] for i in range(7)]
    for a, b in _FACT52_EDGES:
        leq[a][b] = True
    for k in range(7):
        for i in range(7):
            for j in range(7):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return tuple(tuple(row) for row in leq)


def fact52_check(B: FiniteAlgebra, b: int) -> bool:
    """Do the seven landmark values at b satisfy every order relation of the
    landmark diagram?  (They may collapse; only the order is asserted.)"""
    if not validate(B).is_ps4:
        raise PreconditionError("the landmark diagram is asserted for positive S4-algebras")
    values = [eval_term(B, t, {"x": b}) for t in sigma_terms()]
    expected = _fact52_leq()
    return all(B.leq[values[i]][values[j]]
               for i in range(7) for j in range(7) if expected[i][j])


# -- the free one-generated positive S4-algebra ----------------------------------

@lru_cache(maxsize=None)
def figure1_algebra() -> FreeAlgebraResult:
    """The finite free one-generated positive S4-algebra, shipped as data.

    Its bounded-lattice reduct is the free bounded distributive lattice over
    the seven-element landmark poset (realized as upsets of the poset of that
    poset's upsets); box and diamond are the interior/closure operators of the
    fixed-point chains bottom < [box x] < [box dia box x] < [box dia x] < top
    and bottom < [dia box x] < [dia box dia x] < [dia x] < top.  The battery
    in verify_figure1 guards this transcription."""
    p_leq = _fact52_leq()
    points = downset_masks(tuple(zip(*p_leq)))      # prime-filter skeleton (upsets)
    carrier = downset_masks(tuple(zip(*subset_order(points))))
    index = {u: i for i, u in enumerate(carrier)}
    n = len(carrier)
    leq = subset_order(carrier)

    def ghat(p: int) -> int:
        return index[sum(1 << i for i, u in enumerate(points) if u >> p & 1)]

    bot, top = index[0], index[(1 << len(points)) - 1]
    box_fixed = [bot, ghat(1), ghat(3), ghat(5), top]
    dia_fixed = [bot, ghat(2), ghat(6), ghat(4), top]
    box = tuple(max((f for f in box_fixed if leq[f][a]),
                    key=lambda f: carrier[f].bit_count()) for a in range(n))
    dia = tuple(min((f for f in dia_fixed if leq[a][f]),
                    key=lambda f: carrier[f].bit_count()) for a in range(n))
    algebra = FiniteAlgebra(n, leq, box, dia, "F1_PS4")
    return FreeAlgebraResult(algebra, (ghat(0),), ())


@dataclass(frozen=True)
class Figure1Report:
    stages: tuple[tuple[str, bool, str], ...]
    enum_bound: int

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.stages)

    def lines(self) -> list[str]:
        out = [f"{'PASS' if ok else 'FAIL'} stage ({name}): {detail}"
               for name, ok, detail in self.stages]
        out.append(f"{'PASS' if self.passed else 'FAIL'} overall"
                   f" (enumeration bound {self.enum_bound})")
        return out


def verify_figure1(enum_bound: int = 6) -> Figure1Report:
    """Five-stage battery for the shipped free algebra: axioms, one-generation,
    the catalog of subdirectly irreducible quotients, the universal property
    against every enumerated positive S4-algebra up to the bound, and the
    landmark subposet at the generator."""
    from .corpus import FIG2_NAMES, corpus
    from .enumeration import EnumerationTask, enum_algebras

    result = figure1_algebra()
    F = result.algebra
    gen = result.generators[0]
    stages = []

    rep = validate(F)
    stages.append(("a: axioms", rep.is_ps4,
                   f"size {F.size}, ps4={rep.is_ps4}"))

    closure = len(closure_universe(F, (gen,)))
    stages.append(("b: one-generated", closure == F.size,
                   f"closure of generator has {closure} elements"))

    catalog = si_quotients(F)
    expected = {canonical_form(corpus(name)): name for name in FIG2_NAMES}
    got = [canonical_form(q) for q in catalog]
    names = sorted((expected.get(k, f"unknown<{q.size}>")
                    for k, q in zip(got, catalog)),
                   key=lambda s: (len(s), s))
    ok_c = len(catalog) == 11 and set(got) == set(expected)
    stages.append(("c: si quotient catalog", ok_c,
                   f"{len(catalog)} quotients: {', '.join(names)}"))

    failures = []
    count = 0
    for B in enum_algebras(EnumerationTask("PS4", enum_bound)):
        for b in range(B.size):
            count += 1
            if extend_hom(F, B, {gen: b}) is None:
                failures.append((B.size, b))
    stages.append(("d: universal property", not failures,
                   f"{count} (algebra, target) pairs checked"
                   + (f"; failures {failures[:3]}" if failures else "")))

    values = [eval_term(F, t, {"x": gen}) for t in sigma_terms()]
    expected_leq = _fact52_leq()
    exact = len(set(values)) == 7 and all(
        F.leq[values[i]][values[j]] == expected_leq[i][j]
        for i in range(7) for j in range(7))
    stages.append(("e: landmark subposet", exact,
                   f"values {values}"))

    return Figure1Report(tuple(stages), enum_bound)


# -- growth of the two-generated free algebra -------------------------------------

def build_phi(n: int) -> Term:
    """Alternating box-join tower: phi_0 = box x, and phi_{m+1} boxes the join
    of phi_m with x when m is odd, with y when m is even."""
    t = Box(_X)
    for m in range(n):
        t = Box(Join(_X if m % 2 == 1 else _Y, t))
    return t


@dataclass(frozen=True)
class GrowthReport:
    n_worlds: int
    distinct_count: int
    truncation_boundary: int
    values_match_initial_segments: bool


def lemma53_growth(N: int) -> GrowthReport:
    """Evaluate phi_0..phi_{N-1} over the frame ({0..N-1}, >=) at x = evens,
    y = odds, and report how many distinct values arise.  The tower value at
    index k is the initial segment {0..k} up to the truncation boundary N-1."""
    if N < 2:
        raise PreconditionError("the growth experiment needs at least 2 worlds")
    from .duality import kripke_eval
    rel = {(i, j) for i in range(N) for j in range(N) if i >= j}
    evens = frozenset(w for w in range(N) if w % 2 == 0)
    odds = frozenset(w for w in range(N) if w % 2 == 1)
    values = [kripke_eval(N, rel, build_phi(k), {"x": evens, "y": odds})
              for k in range(N)]
    match = all(values[k] == frozenset(range(k + 1)) for k in range(N))
    return GrowthReport(N, len(set(values)), N - 1, match)


# -- one-variable theories ---------------------------------------------------------

def same_one_var_theory(A: FiniteAlgebra, B: FiniteAlgebra,
                        max_size: int = 20_000) -> bool:
    """Equality of one-variable equational theories, decided as a
    generator-to-generator isomorphism of the one-generated free algebras."""
    fa = free_over([A], 1, max_size)
    fb = free_over([B], 1, max_size)
    if fa.algebra.size != fb.algebra.size:
        return False
    mapping = extend_hom(fa.algebra, fb.algebra,
                         {fa.generators[0]: fb.generators[0]})
    return mapping is not None and len(set(mapping)) == fa.algebra.size
