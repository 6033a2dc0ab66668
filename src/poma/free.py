"""Free algebras over finitely generated classes, the finite free
one-generated positive S4-algebra with its verification battery, one-variable
theory comparison, and the two-generator growth experiment.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, getitem
from typing import Sequence

from .algebras import (FiniteAlgebra, Lattice, _budgeted, _mask, _order_of, _require_kind,
                       _unions, downset_masks, subset_order, validate)
from .corpus import FIG2_NAMES, corpus
from .duality import _kripke_values
from .enumeration import EnumerationTask, _closure_table, _in_search_order, _interior_table
from .errors import BudgetError, PreconditionError, _check_count
from .morphisms import _extensions, canonical_form, closure_universe, extend_hom, si_quotients
from .terms import BLOCK, Box, Diamond, Join, Term, Var, Vectors, eval_term, evaluate

_X = Var("x")
_Y = Var("y")

MAX_FREE_SIZE = 20_000      # elements of a free algebra, read at each call


@dataclass(frozen=True)
class FreeAlgebraResult:
    algebra: FiniteAlgebra
    generators: tuple[int, ...]
    basis: tuple[FiniteAlgebra, ...]

    def to_dict(self) -> dict:
        obj = self.algebra.to_dict()
        obj["generators"] = list(self.generators)
        return obj


# Dedekind numbers M(0)..M(8): the sizes of the free bounded distributive
# lattices on 0..8 generators
_DEDEKIND = (2, 3, 6, 20, 168, 7_581, 7_828_354, 2_414_682_040_998,
             56_130_437_228_687_557_907_788)


def free_over(basis: Sequence[FiniteAlgebra], n: int) -> FreeAlgebraResult:
    """Free n-generated algebra over the quasi-variety generated by `basis`:
    the subalgebra of the product of all `A^(A^n)` generated by the n
    projection tuples, one coordinate per (algebra, assignment) pair.

    Encoding.  In a finite distributive lattice, x -> {join-irreducibles <= x}
    is a 0,1-lattice embedding (Birkhoff), so ``join_masks`` turns meet into
    AND and join into OR.  Coordinate c holds ``join_masks[x_c]`` in a slot of
    len(J(A_c)) bits at a fixed shift, so an element is one int: meet and
    join are ``&`` and ``|``, and box and diamond map each slot's mask through
    a table.  In a lattice that is not distributive OR is not the join, so a
    basis algebra whose lattice is not distributive raises PreconditionError.
    The elements come out in the order of their value vectors, and u <= w iff
    ``u & ~w == 0``.

    Closure.  The elements are the joins of a family of members, listed by
    ``_unions`` and counted by ``_budgeted``.  As each element is listed its
    box and diamond are pushed onto a pending list; a pending g not yet
    listed becomes a member, with each of its meets with the members so far
    that is not yet listed.  So the meet of two members is always a join of
    members, and by distributivity the joins are closed under meet as well as
    join; once nothing is pending they are closed under box and diamond too.
    The work is about |F| times the number of members rather than |F|^2.

    Budget.  If some basis algebra A has two elements or more, then |F| is at
    least the Dedekind number M(n).  On the coordinates (A, v) with v in
    {0, 1}^n, the bounds and the generators are the constant and projection
    functions {0, 1}^n -> {0, 1}, and {0, 1} is a sublattice of A; under meet
    and join alone they give every monotone Boolean function of n variables
    (its disjunctive normal form), M(n) of them.  So F maps onto a set of
    M(n) values there, and a rank whose M(n) exceeds ``MAX_FREE_SIZE`` (M(8)
    for every n >= 8, as M grows) raises BudgetError before any coordinate is
    built.  Otherwise BudgetError comes when the closure passes
    ``MAX_FREE_SIZE`` elements."""
    basis = tuple(basis)
    if not basis:
        raise PreconditionError("free_over needs at least one basis algebra")
    _check_count(n, "rank", "rank")
    lats = [A.lattice.require() for A in basis]
    for A, lat in zip(basis, lats):
        witness = lat.distributivity_witness()
        if witness is not None:
            raise PreconditionError(f"{A.name or '?'}: free_over needs a distributive"
                                    f" lattice, distributivity fails at {witness}")
    if max(A.size for A in basis) > 1 and _DEDEKIND[min(n, 8)] > MAX_FREE_SIZE:
        raise BudgetError(f"free algebra exceeds {MAX_FREE_SIZE} elements: rank {n} gives"
                          f" at least M({min(n, 8)}) = {_DEDEKIND[min(n, 8)]}")

    boxes, dias, decodes = [], [], []      # (shift, slot mask, table) per coordinate
    gens = [0] * n
    shift = 0
    for A, lat in zip(basis, lats):
        masks, full = lat.join_masks, (1 << len(lat.join_irreducibles)) - 1
        box = {m: masks[y] for m, y in zip(masks, A.box)}
        dia = {m: masks[y] for m, y in zip(masks, A.diamond)}
        decode = {m: x for x, m in enumerate(masks)}
        for v in itertools.product(range(A.size), repeat=n):
            for i, x in enumerate(v):
                gens[i] |= masks[x] << shift
            boxes.append((shift, full, box))
            dias.append((shift, full, dia))
            decodes.append((shift, full, decode))
            shift += full.bit_length()

    def image(e, slots):
        return sum([table[e >> s & f] << s for s, f, table in slots])

    boxed, dia_of = {}, {}
    pending = [(1 << shift) - 1, *gens]     # top and generators: the bottom 0 is the empty union

    def members():
        meets = []
        while pending:
            g = pending.pop()
            if g not in boxed:
                for m in [g] + [g & m for m in meets]:
                    if m not in boxed:
                        meets.append(m)
                        yield m

    def closed():
        for e in _unions(members()):
            boxed[e], dia_of[e] = image(e, boxes), image(e, dias)
            pending.extend((boxed[e], dia_of[e]))
            yield e

    found = _budgeted(closed(), MAX_FREE_SIZE, f"free algebra exceeds {MAX_FREE_SIZE} elements")
    elems = sorted(found, key=lambda e: [table[e >> s & f] for s, f, table in decodes])
    pos = {e: i for i, e in enumerate(elems)}
    leq = subset_order(elems)
    box = tuple(pos[boxed[e]] for e in elems)
    dia = tuple(pos[dia_of[e]] for e in elems)
    label = ",".join(a.name or "?" for a in basis)
    algebra = FiniteAlgebra(len(elems), leq, box, dia, f"F({label};{n})")
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


# the landmark order: the reflexive-transitive closure of the edges
_FACT52_LEQ = _order_of(7, _FACT52_EDGES)


def fact52_check(B: FiniteAlgebra, b: int) -> bool:
    """Do the seven landmark values at b satisfy every order relation of the
    landmark diagram?  (They may collapse; only the order is asserted.)"""
    _require_kind(B, "PS4", "the landmark diagram")
    values = [eval_term(B, t, {"x": b}) for t in sigma_terms()]
    return all(B.leq[values[i]][values[j]]
               for i in range(7) for j in range(7) if _FACT52_LEQ[i][j])


def _fact52_verdicts(B: FiniteAlgebra) -> list[bool]:
    """``fact52_check(B, b)`` for every element b, in order, from one
    evaluation of each landmark on the vector of all elements.  B's order is
    reflexive and transitive, so the diagram's edges imply all its relations."""
    _require_kind(B, "PS4", "the landmark diagram")
    carrier, env = Vectors.of(B, B.size), {"x": tuple(range(B.size))}
    values = [evaluate(t, env, carrier) for t in sigma_terms()]
    verdicts = [True] * B.size
    for i, j in _FACT52_EDGES:
        below = map(getitem, map(B.leq.__getitem__, values[i]), values[j])
        verdicts = list(map(and_, verdicts, below))
    return verdicts


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
    points = downset_masks(tuple(zip(*_FACT52_LEQ)))      # prime-filter skeleton (upsets)
    carrier = downset_masks(tuple(zip(*subset_order(points))))
    index = {u: i for i, u in enumerate(carrier)}
    leq = subset_order(carrier)
    lattice = Lattice.of(leq)

    def ghat(p: int) -> int:
        return index[_mask(u >> p & 1 for u in points)]

    bot, top = index[0], index[(1 << len(points)) - 1]
    box = _interior_table(lattice.down, (bot, ghat(1), ghat(3), ghat(5), top))
    dia = _closure_table(lattice.up, (bot, ghat(2), ghat(6), ghat(4), top))
    algebra = FiniteAlgebra(len(carrier), leq, box, dia, "F1_PS4")
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

    # one coordinate per pair (B, b); a quarter block of pairs per call keeps
    # the replay's tuples, one per element of F, near 0.3 MB.  The pairs come
    # in search order; the failures named are the first in enumerate order,
    # so of the enumerated algebras only the failing ones get canonical forms.
    failures, count = [], 0
    pairs = ((B, b) for B in _in_search_order(EnumerationTask("PS4", enum_bound))
             for b in range(B.size))
    while block := list(itertools.islice(pairs, BLOCK // 4)):
        targets, values = zip(*block)
        _, ok = _extensions(F, Vectors.over(targets), {gen: values})
        failures += [(B, b) for (B, b), good in zip(block, ok) if not good]
        count += len(block)
    first = [(B.size, b) for B, b in
             sorted(failures, key=lambda f: (canonical_form(f[0]), f[1]))[:3]]
    stages.append(("d: universal property", not failures,
                   f"{count} (algebra, target) pairs checked"
                   + (f"; failures {first}" if failures else "")))

    values = [eval_term(F, t, {"x": gen}) for t in sigma_terms()]
    exact = len(set(values)) == 7 and all(
        F.leq[values[i]][values[j]] == _FACT52_LEQ[i][j]
        for i in range(7) for j in range(7))
    stages.append(("e: landmark subposet", exact,
                   f"values {values}"))

    return Figure1Report(tuple(stages), enum_bound)


# -- growth of the two-generated free algebra -------------------------------------

def build_phi(n: int) -> Term:
    """Alternating box-join tower: phi_0 = box x, and phi_{m+1} boxes the join
    of phi_m with x when m is odd, with y when m is even."""
    _check_count(n, "phi index", "index")
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
    index k is the initial segment {0..k} up to the truncation boundary N-1.
    They are the box steps of phi_{N-1}'s program, in order: one pass."""
    _check_count(N, "N", "number of worlds", least=2)
    rel = {(i, j) for i in range(N) for j in range(N) if i >= j}
    evens = frozenset(w for w in range(N) if w % 2 == 0)
    odds = frozenset(w for w in range(N) if w % 2 == 1)
    phi = build_phi(N - 1)
    masks = _kripke_values(N, rel, phi, {"x": evens, "y": odds})
    values = [m for (kind, _, _), m in zip(phi.program, masks) if kind == "box"]
    match = all(m == (2 << k) - 1 for k, m in enumerate(values))
    return GrowthReport(N, len(set(values)), N - 1, match)


# -- one-variable theories ---------------------------------------------------------

def same_one_var_theory(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """Equality of one-variable equational theories, decided as a
    generator-to-generator isomorphism of the one-generated free algebras."""
    fa = free_over([A], 1)
    fb = free_over([B], 1)
    if fa.algebra.size != fb.algebra.size:
        return False
    mapping = extend_hom(fa.algebra, fb.algebra,
                         {fa.generators[0]: fb.generators[0]})
    return mapping is not None and len(set(mapping)) == fa.algebra.size
