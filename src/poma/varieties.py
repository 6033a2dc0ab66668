"""Finitely generated varieties as first-class handles: inclusion and covers,
splitting-equation consistency checks, the subvariety-lattice reconstruction
around the four minimal covers, and the equation batteries.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebras import FiniteAlgebra, _covers, _mask, _require_kind
from .congruences import Partition, cg, is_congruence, is_si, monolith
from .corpus import CORPUS_NAMES, PARAMETRIC_NAMES, corpus, corpus_by_spec
from .enumeration import EnumerationTask, enum_algebras
from .errors import PreconditionError
from .morphisms import canonical_form, hs_si
from .terms import (Box, Diamond, Equation, Join, Leq, Meet, Term, Var,
                    Vectors, evaluate, holds_eq)

_X = Var("x")

EQ_BOX_IDEMPOTENT = Equation(Box(Diamond(_X)), Box(_X))        # box dia x ~ box x
EQ_DIA_IDEMPOTENT = Equation(Diamond(Box(_X)), Diamond(_X))    # dia box x ~ dia x
EQ_SPLIT_C3A = Equation(Diamond(Box(Diamond(_X))), Diamond(_X))
EQ_SPLIT_C3B = Equation(Box(Diamond(Box(_X))), Box(_X))
EQ_SPLIT_D3 = Leq(Meet(Diamond(_X), Box(Diamond(_X))),
                  Join(Join(_X, Box(_X)), Diamond(Box(_X))))
EQ_BOX_ONE = Equation(Box(_X), Term("one"))
EQ_DIA_ZERO = Equation(Diamond(_X), Term("zero"))
EQ_DIA_TOP = Equation(Diamond(Term("one")), Term("one"))
EQ_BOX_BOT = Equation(Box(Term("zero")), Term("zero"))


@dataclass(frozen=True)
class VarietyHandle:
    """A finitely generated variety, represented by generators together with
    the subdirectly irreducible part of its HS-closure (canonical forms)."""

    generators: tuple[FiniteAlgebra, ...]
    si_closure: tuple[FiniteAlgebra, ...]
    label: str

    @property
    def si_keys(self) -> frozenset:
        return frozenset(canonical_form(a) for a in self.si_closure)

    @property
    def is_trivial(self) -> bool:
        return not self.si_closure

    def __repr__(self):
        return f"VarietyHandle({self.label})"


def variety_of(generators, label: str = "") -> VarietyHandle:
    gens = tuple(generators)
    si: dict[tuple, FiniteAlgebra] = {}
    for g in gens:
        for s in hs_si(g):
            si.setdefault(canonical_form(s), s)
    closure = tuple(sorted(si.values(), key=lambda a: (a.size, canonical_form(a))))
    if not label:
        label = "V(" + ",".join(g.name or f"A{g.size}" for g in gens) + ")"
    return VarietyHandle(gens, closure, label)


def includes(V: VarietyHandle, W: VarietyHandle) -> bool:
    """W is a subvariety of V (decided on subdirectly irreducible members)."""
    return W.si_keys <= V.si_keys


def equals(V: VarietyHandle, W: VarietyHandle) -> bool:
    return V.si_keys == W.si_keys


def member_si(V: VarietyHandle, A: FiniteAlgebra) -> bool:
    """Membership of a subdirectly irreducible algebra in V."""
    return canonical_form(A) in V.si_keys


def covers_poset(handles: list[VarietyHandle]) -> list[tuple[int, int]]:
    """Edges (i, j) of the Hasse diagram of inclusion restricted to the given
    handles: handles[j] covers handles[i]."""
    keys = [h.si_keys for h in handles]
    above = [_mask(k < w for w in keys) for k in keys]       # strict inclusion
    below = [_mask(w < k for w in keys) for k in keys]
    return [(i, j) for i in range(len(keys)) for j in _covers(above, below, i)]


@lru_cache(maxsize=None)
def figure4_handles() -> tuple[VarietyHandle, ...]:
    """The sixteen handles of the bottom of the subvariety lattice: the trivial
    variety, the minimal variety, its four covers, and their covers."""
    def v(*names):
        return variety_of([corpus(n) for n in names],
                          "V(" + ",".join(names) + ")")

    trivial = VarietyHandle((corpus("trivial"),), (), "Trivial")
    return (trivial, v("C2"),
            v("D3"), v("C3a"), v("C3b"), v("D4"),
            v("D3", "D4"), v("C3a", "D4"), v("C3b", "D4"),
            v("D3", "C3a"), v("D3", "C3b"), v("C3a", "C3b"),
            v("C4a"), v("C4b"), v("A4"), v("B4"))


# -- splittings ----------------------------------------------------------------

@dataclass(frozen=True)
class SplittingVerdict:
    satisfies_equation: bool
    excludes_splitter: bool

    @property
    def consistent(self) -> bool:
        return self.satisfies_equation == self.excludes_splitter

    def __bool__(self):
        return self.consistent


def _splitting(A: FiniteAlgebra, equation: Equation, splitter: FiniteAlgebra,
               kind: str) -> SplittingVerdict:
    _require_kind(A, kind, "splitting check")
    sat = bool(holds_eq(A, equation))
    excl = canonical_form(splitter) not in {canonical_form(b) for b in hs_si(A)}
    return SplittingVerdict(sat, excl)


def splitting_c3a(A: FiniteAlgebra) -> SplittingVerdict:
    return _splitting(A, EQ_SPLIT_C3A, corpus("C3a"), "PS4")


def splitting_c3b(A: FiniteAlgebra) -> SplittingVerdict:
    return _splitting(A, EQ_SPLIT_C3B, corpus("C3b"), "PS4")


def splitting_d3(A: FiniteAlgebra) -> SplittingVerdict:
    return _splitting(A, EQ_SPLIT_D3, corpus("D3"), "PK4")


# -- batteries ------------------------------------------------------------------

@dataclass(frozen=True)
class BatteryReport:
    passed: bool
    bound: int
    witnesses: tuple[str, ...]

    def __bool__(self):
        return self.passed


def _label_for(A: FiniteAlgebra) -> str:
    for name in CORPUS_NAMES:
        if name in PARAMETRIC_NAMES + ("F1_PS4",):
            continue
        B = corpus_by_spec(name)
        if A.size == B.size and canonical_form(A) == canonical_form(B):
            return name
    return f"<{A.size}-element {A.to_json()}>"


def theorem610_battery(max_size: int = 8) -> BatteryReport:
    """Every enumerated subdirectly irreducible PS4 algebra (up to the bound)
    satisfying both operator-idempotence equations must be C2 or D4."""
    return _si_battery("PS4", max_size, (EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT), ("C2", "D4"))


def lemma92_battery(max_size: int = 6) -> BatteryReport:
    """Every enumerated subdirectly irreducible PMA algebra satisfying
    box x ~ 1 and dia x ~ 0 must be the two-element collapsed algebra."""
    return _si_battery("PMA", max_size, (EQ_BOX_ONE, EQ_DIA_ZERO), ("B2",))


def _si_battery(kind: str, max_size: int, equations, allowed_names) -> BatteryReport:
    """Every enumerated subdirectly irreducible algebra of the kind up to the
    bound satisfying the equations must be one of the named corpus algebras."""
    found = enum_algebras(EnumerationTask(kind, max_size, si_only=True, satisfying=equations))
    allowed = {canonical_form(corpus(name)) for name in allowed_names}
    witnesses = tuple(sorted(_label_for(A) for A in found))
    passed = {canonical_form(A) for A in found} <= allowed
    return BatteryReport(passed, max_size, witnesses)


@dataclass(frozen=True)
class EndomorphismReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def __bool__(self):
        return self.passed


def lemma64_66_properties(A: FiniteAlgebra) -> EndomorphismReport:
    """For a PS4 algebra satisfying the operator-idempotence equations: box
    and diamond are bounded lattice endomorphisms with one shared kernel
    congruence; when the algebra is subdirectly irreducible, elements between
    the monolith pair and the bounds are operator fixed points, and every
    strict operator move generates the monolith."""
    _require_kind(A, "PS4", "endomorphism battery")
    if not holds_eq(A, EQ_BOX_IDEMPOTENT) or not holds_eq(A, EQ_DIA_IDEMPOTENT):
        raise PreconditionError("endomorphism battery needs the idempotence equations")
    n, box, dia = A.size, A.box, A.diamond
    lat = A.lattice.require()
    meet, join = lat.meet, lat.join
    checks = []
    endo = all(box[join[a][b]] == join[box[a]][box[b]] and
               box[meet[a][b]] == meet[box[a]][box[b]] and
               dia[join[a][b]] == join[dia[a]][dia[b]] and
               dia[meet[a][b]] == meet[dia[a]][dia[b]]
               for a in range(n) for b in range(n))
    checks.append(("operators are bounded lattice endomorphisms", endo))
    kernels = all((box[a] == box[b]) == (dia[a] == dia[b])
                  for a in range(n) for b in range(n))
    checks.append(("kernels coincide", kernels))
    kernel = Partition.from_block_ids(box)
    checks.append(("kernel is a congruence", is_congruence(A, kernel)))
    if is_si(A):
        mono = monolith(A)
        block = next(b for b in mono.blocks if len(b) > 1)
        lo = next(x for x in block if all(A.leq[x][y] for y in block))
        hi = next(x for x in block if all(A.leq[y][x] for y in block))
        top, bot = lat.top, lat.bottom
        fixed_hi = all(dia[c] == c for c in range(n)
                       if A.leq[hi][c] and c != top)
        fixed_lo = all(box[c] == c for c in range(n)
                       if A.leq[c][lo] and c != bot)
        checks.append(("elements above the monolith are diamond-fixed", fixed_hi))
        checks.append(("elements below the monolith are box-fixed", fixed_lo))
        mono_box = all(cg(A, [(box[a], a)]).blocks == mono.blocks
                       for a in range(n) if box[a] != a)
        mono_dia = all(cg(A, [(a, dia[a])]).blocks == mono.blocks
                       for a in range(n) if dia[a] != a)
        checks.append(("strict box moves generate the monolith", mono_box))
        checks.append(("strict diamond moves generate the monolith", mono_dia))
    return EndomorphismReport(tuple(checks))


# -- equation separation oracle ----------------------------------------------------

def equation_separation(A: FiniteAlgebra, B: FiniteAlgebra) -> Equation | None:
    """Search for an equation valid in B but failing in A, over the terms in
    x0 and x1 of depth at most 4.  Terms are deduplicated by their joint value
    vectors, so the frontier stays small; a new term's vectors are computed
    from those of its parts."""
    names = ["x0", "x1"]

    def vectors(C: FiniteAlgebra):
        combos = list(itertools.product(range(C.size), repeat=2))
        return dict(zip(names, zip(*combos))), Vectors.of(C, len(combos))

    (env_b, ops_b), (env_a, ops_a) = vectors(B), vectors(A)
    by_bvec: dict[tuple, tuple[Term, tuple]] = {}
    seen: dict[tuple, Term] = {}

    def register(t: Term, bv: tuple, av: tuple):
        if (bv, av) in seen:
            return None, False
        seen[(bv, av)] = t
        if bv in by_bvec and by_bvec[bv][1] != av:
            return Equation(t, by_bvec[bv][0]), True
        by_bvec.setdefault(bv, (t, av))
        return None, True

    def candidates(frontier, pool):
        """The next level's terms with their vectors, in a fixed order."""
        for op, make in (("box", Box), ("dia", Diamond)):
            for t, bv, av in frontier:
                yield make(t), getattr(ops_b, op)(bv), getattr(ops_a, op)(av)
        for t, bv, av in frontier:
            for s, bw, aw in pool:
                yield Meet(t, s), ops_b.meet(bv, bw), ops_a.meet(av, aw)
                yield Join(t, s), ops_b.join(bv, bw), ops_a.join(av, aw)

    level = ((t, evaluate(t, env_b, ops_b), evaluate(t, env_a, ops_a))
             for t in [Term("zero"), Term("one"), *(Var(nm) for nm in names)])
    for _ in range(5):                  # depths 0..4
        frontier = []
        for t, bv, av in level:
            eqn, fresh = register(t, bv, av)
            if eqn:
                return eqn
            if fresh:
                frontier.append((t, bv, av))
        if not frontier:
            break
        level = candidates(frontier, [(t, bv, av) for (bv, av), t in seen.items()])
    return None
