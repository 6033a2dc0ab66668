"""Exhaustive generation, up to isomorphism, of finite posets, bounded
distributive lattices, and their PMA/PK4/PS4 operator expansions.

Lattices are generated through their posets of join-irreducibles (a finite
bounded distributive lattice is the downset lattice of that poset).  PS4
operator pairs are generated from pairs of 0,1-sublattices of fixed points;
PMA/PK4 operator tables are generated from value assignments on the meet-
resp. join-irreducible elements, which determine every meet- (join-)
preserving table over a distributive lattice.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .algebras import BoolMatrix, FiniteAlgebra, downsets, validate
from .congruences import is_fsi, is_si
from .errors import PomaError
from .morphisms import canonical_form, _encode, _discrete_orders
from .terms import Equation, holds_eq

KINDS = ("PMA", "PK4", "PS4")


@dataclass(frozen=True)
class EnumerationTask:
    kind: str
    max_size: int
    si_only: bool = False
    fsi_only: bool = False
    satisfying: tuple[Equation, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PomaError(f"kind must be one of {KINDS}")
        if self.max_size < 1:
            raise PomaError("max_size must be >= 1")


# -- posets up to isomorphism --------------------------------------------------

def canonical_poset(leq: BoolMatrix) -> tuple:
    n = len(leq)
    ident = tuple(range(n))
    best = None
    for order in _discrete_orders(n, leq, ident, ident, [0] * n, 100_000, [0]):
        enc = _encode(n, leq, ident, ident, order)
        if best is None or enc < best:
            best = enc
    return best


def _extend_with_max(leq: BoolMatrix, down: frozenset[int]) -> BoolMatrix:
    """Add one new maximal element whose strict lower set is the given downset."""
    n = len(leq)
    rows = [list(row) + [i in down] for i, row in enumerate(leq)]
    rows.append([False] * n + [True])
    return tuple(tuple(row) for row in rows)


def enum_posets(k: int, max_downsets: int | None = None) -> list[BoolMatrix]:
    """All posets with exactly k elements, up to isomorphism, as order matrices.

    Every poset is reached by repeatedly adding a new maximal element; when
    `max_downsets` is set, branches whose downset count already exceeds it are
    pruned (downset counts only grow)."""
    if k < 0:
        raise PomaError("k must be >= 0")
    level: dict[tuple, BoolMatrix] = {canonical_poset(()): ()}
    for _ in range(k):
        nxt: dict[tuple, BoolMatrix] = {}
        for leq in level.values():
            for down in downsets(leq):
                bigger = _extend_with_max(leq, down)
                if max_downsets is not None and len(downsets(bigger)) > max_downsets:
                    continue
                nxt.setdefault(canonical_poset(bigger), bigger)
        level = nxt
    return [level[key] for key in sorted(level)]


@lru_cache(maxsize=None)
def enum_bdl(max_size: int) -> tuple[FiniteAlgebra, ...]:
    """All bounded distributive lattices with at most max_size elements, up to
    isomorphism, as algebras with identity operators; sorted by size then
    canonical form."""
    out: dict[tuple, FiniteAlgebra] = {}
    for k in range(max_size):
        for leq in enum_posets(k, max_downsets=max_size):
            ds = downsets(leq)
            if len(ds) > max_size:
                continue
            n = len(ds)
            order = tuple(tuple(ds[i] <= ds[j] for j in range(n)) for i in range(n))
            ident = tuple(range(n))
            L = FiniteAlgebra(n, order, ident, ident)
            out.setdefault(canonical_form(L), L)
    return tuple(sorted(out.values(), key=lambda L: (L.size, canonical_form(L))))


# -- operator tables -------------------------------------------------------------

def sublattices01(L: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Subsets containing the bounds and closed under meet and join."""
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


def _interior_table(L: FiniteAlgebra, fixed: tuple[int, ...]) -> tuple[int, ...]:
    """box from its fixed-point sublattice: greatest fixed point below."""
    return tuple(L.join_all(c for c in fixed if L.leq[c][a]) for a in range(L.size))


def _closure_table(L: FiniteAlgebra, fixed: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(L.meet_all(c for c in fixed if L.leq[a][c]) for a in range(L.size))


def _mixed_axioms_hold(L: FiniteAlgebra, box, dia) -> bool:
    n = L.size
    leq, meet, join = L.leq, L.lattice.meet, L.lattice.join
    for a in range(n):
        ba, da = box[a], dia[a]
        for b in range(n):
            if not leq[meet[ba][dia[b]]][dia[meet[a][b]]]:
                return False
            if not leq[box[join[a][b]]][join[ba][dia[b]]]:
                return False
    return True


def ps4_tables(L: FiniteAlgebra):
    """All (box, diamond) pairs making L a positive S4-algebra."""
    subs = sublattices01(L)
    boxes = [(s, _interior_table(L, s)) for s in subs]
    dias = [(s, _closure_table(L, s)) for s in subs]
    for _, box in boxes:
        for _, dia in dias:
            if _mixed_axioms_hold(L, box, dia):
                yield box, dia


def _meet_preserving_tables(L: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All unary tables preserving binary meets and the top element.  Over a
    distributive lattice these are exactly the tables determined by arbitrary
    values on the meet-irreducible elements."""
    n = L.size
    irr = L.lattice.meet_irreducibles
    seen = {}
    for values in itertools.product(range(n), repeat=len(irr)):
        table = tuple(
            L.meet_all(values[k] for k, m in enumerate(irr) if L.leq[a][m])
            for a in range(n))
        seen.setdefault(table, None)
    return [t for t in seen
            if all(t[L.meet(a, b)] == L.meet(t[a], t[b])
                   for a in range(n) for b in range(n)) and t[L.top()] == L.top()]


def _join_preserving_tables(L: FiniteAlgebra) -> list[tuple[int, ...]]:
    n = L.size
    irr = L.lattice.join_irreducibles
    seen = {}
    for values in itertools.product(range(n), repeat=len(irr)):
        table = tuple(
            L.join_all(values[k] for k, j in enumerate(irr) if L.leq[j][a])
            for a in range(n))
        seen.setdefault(table, None)
    return [t for t in seen
            if all(t[L.join(a, b)] == L.join(t[a], t[b])
                   for a in range(n) for b in range(n)) and t[L.bottom()] == L.bottom()]


def pma_tables(L: FiniteAlgebra, k4_only: bool = False):
    """All (box, diamond) pairs making L a positive modal algebra (optionally
    restricted to K4 pairs)."""
    n = L.size
    leq = L.leq
    boxes = _meet_preserving_tables(L)
    dias = _join_preserving_tables(L)
    if k4_only:
        boxes = [t for t in boxes if all(leq[t[a]][t[t[a]]] for a in range(n))]
        dias = [t for t in dias if all(leq[t[t[a]]][t[a]] for a in range(n))]
    for box in boxes:
        for dia in dias:
            if _mixed_axioms_hold(L, box, dia):
                yield box, dia


def _generate_kind(kind: str, L: FiniteAlgebra):
    if kind == "PS4":
        yield from ps4_tables(L)
    else:
        yield from pma_tables(L, k4_only=(kind == "PK4"))


def enum_algebras(task: EnumerationTask, cache_dir: str | os.PathLike | None = None,
                  resume: bool = False) -> list[FiniteAlgebra]:
    """Enumerate all algebras of the given kind up to isomorphism, size by
    size, optionally caching each (kind, size) slice as a JSON-lines file."""
    out: list[FiniteAlgebra] = []
    for size in range(1, task.max_size + 1):
        out.extend(_algebras_of_size(task.kind, size, cache_dir, resume))
    # all filters are pure; the equations are the cheap and selective ones
    for eq in task.satisfying:
        out = [A for A in out if holds_eq(A, eq)]
    if task.si_only:
        out = [A for A in out if is_si(A)]
    if task.fsi_only:
        out = [A for A in out if is_fsi(A)]
    return out


def _cache_path(cache_dir, kind: str, size: int) -> Path:
    return Path(cache_dir) / f"{kind.lower()}_size{size}.jsonl"


def _algebras_of_size(kind: str, size: int, cache_dir, resume: bool) -> list[FiniteAlgebra]:
    if cache_dir is not None and resume:
        path = _cache_path(cache_dir, kind, size)
        if path.exists():
            with open(path) as fh:
                return [FiniteAlgebra.from_json(line) for line in fh if line.strip()]
    algebras = _enumerate_size(kind, size)
    if cache_dir is not None:
        path = _cache_path(cache_dir, kind, size)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for A in algebras:
                fh.write(A.to_json() + "\n")
    return list(algebras)


@lru_cache(maxsize=None)
def _enumerate_size(kind: str, size: int) -> tuple[FiniteAlgebra, ...]:
    found: dict[tuple, FiniteAlgebra] = {}
    for L in enum_bdl(size):
        if L.size != size:
            continue
        for box, dia in _generate_kind(kind, L):
            A = FiniteAlgebra(L.size, L.leq, box, dia)
            found.setdefault(canonical_form(A), A)
    result = tuple(sorted(found.values(), key=canonical_form))
    for A in result:
        if not validate(A).flag(kind):
            raise PomaError(f"enumeration produced an invalid {kind} algebra")
    return result
