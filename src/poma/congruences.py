"""Congruence generation, congruence lattices, irreducibility predicates,
well-connectedness, the simplicity criterion for positive K4-algebras, the
order-definable principal-congruence shortcuts, and the congruence extension
property check.

Past :func:`cg`, a congruence is a mask over the join-irreducibles J of the
lattice: bit k is set when ``join_irreducibles[k]`` is collapsed with its
lower cover.  In every finite lattice, distributive or not:

- x <= y are related iff every j in J with j <= y and not j <= x is
  collapsed, so the mask fixes the congruence;
- the mask of a join of congruences is the union of their masks, since a
  covering pair related by the join is related by one of them.

So Con(A) is the set of unions of the |J| generators G_k, the masks of
Cg(lower cover of J[k], J[k]), and for x < y, Cg(x, y) is the union of the
G_k with J[k] <= y and not J[k] <= x.  Reading a mask back, x and y are
related iff they lie above the same uncollapsed members of J.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Iterable, Optional

from .algebras import FiniteAlgebra, ModalAlgebra, validate
from .errors import BudgetError, PreconditionError


@dataclass(frozen=True)
class Partition:
    """A partition of 0..size-1 in canonical form: every block sorted, blocks
    ordered by their least element."""

    size: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_block_ids(cls, ids) -> "Partition":
        groups: dict[int, list[int]] = {}
        for x, b in enumerate(ids):
            groups.setdefault(b, []).append(x)
        blocks = sorted((tuple(sorted(g)) for g in groups.values()),
                        key=lambda b: b[0])
        return cls(len(ids), tuple(blocks))

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(n, tuple((i,) for i in range(n)))

    @classmethod
    def total(cls, n: int) -> "Partition":
        return cls(n, (tuple(range(n)),))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return cls.from_block_ids([find(x) for x in range(n)])

    def block_ids(self) -> tuple[int, ...]:
        ids = [0] * self.size
        for k, block in enumerate(self.blocks):
            for x in block:
                ids[x] = k
        return tuple(ids)

    def relates(self, a: int, b: int) -> bool:
        ids = self.block_ids()
        return ids[a] == ids[b]

    def refines(self, other: "Partition") -> bool:
        oid = other.block_ids()
        return all(len({oid[x] for x in block}) == 1 for block in self.blocks)

    def join(self, other: "Partition") -> "Partition":
        pairs = [(b[0], x) for b in self.blocks for x in b[1:]]
        pairs += [(b[0], x) for b in other.blocks for x in b[1:]]
        return Partition.from_pairs(self.size, pairs)

    def meet(self, other: "Partition") -> "Partition":
        oid = other.block_ids()
        sid = self.block_ids()
        keys = {}
        ids = []
        for x in range(self.size):
            key = (sid[x], oid[x])
            ids.append(keys.setdefault(key, len(keys)))
        return Partition.from_block_ids(ids)

    @property
    def is_identity(self) -> bool:
        return len(self.blocks) == self.size

    @property
    def is_total(self) -> bool:
        return len(self.blocks) == 1

    def to_json_obj(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def cg(A: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence of A containing the given pairs.

    Worklist closure: whenever two classes merge through a named pair, the
    merge is propagated through both unary tables and through the meet/join
    tables against every element.
    """
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


def is_congruence(A: FiniteAlgebra, p: Partition) -> bool:
    ids = p.block_ids()
    n = A.size
    meet, join = A.lattice.meet, A.lattice.join
    for block in p.blocks:
        a = block[0]
        for b in block[1:]:
            if ids[A.box[a]] != ids[A.box[b]]:
                return False
            if ids[A.diamond[a]] != ids[A.diamond[b]]:
                return False
            for c in range(n):
                if ids[meet[a][c]] != ids[meet[b][c]]:
                    return False
                if ids[join[a][c]] != ids[join[b][c]]:
                    return False
    return True


@lru_cache(maxsize=None)
def _generators(A: FiniteAlgebra) -> tuple[int, ...]:
    """Masks G_k = Cg(lower_covers[k], join_irreducibles[k]), one per
    join-irreducible: every congruence is a union of them."""
    lat = A.lattice.require()
    covers = tuple(zip(lat.lower_covers, lat.join_irreducibles))
    out = []
    for pair in covers:
        ids = cg(A, [pair]).block_ids()
        out.append(sum(1 << k for k, (low, j) in enumerate(covers) if ids[low] == ids[j]))
    return tuple(out)


def _partition(A: FiniteAlgebra, mask: int) -> Partition:
    """The congruence with this mask: x and y are related iff they lie above
    the same join-irreducibles that the mask leaves uncollapsed."""
    lat = A.lattice
    kept = sum(1 << j for k, j in enumerate(lat.join_irreducibles) if not mask >> k & 1)
    return Partition.from_block_ids([d & kept for d in lat.down])


@lru_cache(maxsize=None)
def principal_congruences(A: FiniteAlgebra) -> tuple[Partition, ...]:
    """Distinct non-identity principal congruences, in the order of the first
    comparable pair generating each: Cg(a, b) = Cg(a meet b, a join b)."""
    lat = A.lattice.require()
    gens = _generators(A)
    below = [sum(1 << k for k, j in enumerate(lat.join_irreducibles) if d >> j & 1)
             for d in lat.down]
    seen: dict[int, Partition] = {}
    for a in range(A.size):
        for b in range(A.size):
            if a != b and lat.leq[a][b]:
                ks = below[b] & ~below[a]
                mask = reduce(or_, (g for k, g in enumerate(gens) if ks >> k & 1))
                if mask not in seen:
                    seen[mask] = _partition(A, mask)
    return tuple(seen.values())


@lru_cache(maxsize=None)
def _con_ids(A: FiniteAlgebra, max_congruences: int) -> tuple[int, ...]:
    """All congruences as masks: the unions of the generators, built one
    generator at a time."""
    found = [0]
    seen = {0}
    for g in dict.fromkeys(_generators(A)):
        for i in range(len(found)):
            mask = found[i] | g
            if mask not in seen:
                seen.add(mask)
                found.append(mask)
                if len(found) > max_congruences:
                    raise BudgetError(
                        f"congruence lattice exceeds {max_congruences} members",
                        partial=len(found))
    return tuple(found)


@lru_cache(maxsize=None)
def con_lattice(A: FiniteAlgebra, max_congruences: int = 100_000) -> tuple[Partition, ...]:
    """All congruences, canonically sorted."""
    return tuple(sorted((_partition(A, mask) for mask in _con_ids(A, max_congruences)),
                        key=lambda p: p.blocks))


@lru_cache(maxsize=None)
def cmi_congruences(A: FiniteAlgebra, max_congruences: int = 100_000) -> tuple[Partition, ...]:
    """Congruences theta whose strict upper bounds have a least element, i.e.
    exactly those with subdirectly irreducible quotient.  Each strict upper
    bound contains theta | G_k for a G_k not inside theta, so the least one
    exists iff the intersection of those joins is one of them."""
    gens = set(_generators(A))
    out = []
    for theta in _con_ids(A, max_congruences):
        above = {theta | g for g in gens if g & ~theta}
        if above and reduce(and_, above) in above:   # empty: theta is total
            out.append(_partition(A, theta))
    return tuple(sorted(out, key=lambda p: p.blocks))


def _monolith_mask(A: FiniteAlgebra) -> Optional[int]:
    """The least nonzero congruence as a mask, or None.  Every nonzero one
    contains a generator, so it exists iff their intersection is one."""
    if A.size < 2:
        return None
    gens = _generators(A)
    least = reduce(and_, gens)
    return least if least in gens else None


def is_simple(A: FiniteAlgebra) -> bool:
    if A.size < 2:
        return False
    gens = _generators(A)
    return all(g == (1 << len(gens)) - 1 for g in gens)


def is_si(A: FiniteAlgebra) -> bool:
    """Subdirect irreducibility: a unique minimal non-identity congruence.
    For finite algebras this coincides with finite subdirect irreducibility."""
    return _monolith_mask(A) is not None


def is_fsi(A: FiniteAlgebra) -> bool:
    """At most one minimal non-identity congruence, on a nontrivial algebra;
    a finite one has at least one, so this is :func:`is_si`."""
    return _monolith_mask(A) is not None


def monolith(A: FiniteAlgebra) -> Partition:
    mask = _monolith_mask(A)
    if mask is None:
        raise PreconditionError("monolith requested on a non-subdirectly-irreducible algebra")
    return _partition(A, mask)


def is_well_connected(A: FiniteAlgebra) -> bool:
    rep = validate(A)
    if not rep.is_ps4:
        raise PreconditionError("well-connectedness is defined for positive S4-algebras")
    n, box, dia = A.size, A.box, A.diamond
    top, bot = A.top(), A.bottom()
    for a in range(n):
        for b in range(n):
            if A.join(box[a], box[b]) == top and a != top and b != top:
                return False
            if A.meet(dia[a], dia[b]) == bot and a != bot and b != bot:
                return False
    return True


def is_simple_lemma45(A: FiniteAlgebra) -> bool:
    """Direct simplicity criterion for non-trivial positive K4-algebras:
    either the two-element algebra with collapsed operators, or (i) box/diamond
    send every non-bound element to the bounds and (ii) every proper chain
    0 < a < b < 1 admits a separating middle element c."""
    rep = validate(A)
    if not rep.is_pk4 or A.size < 2:
        raise PreconditionError("the simplicity criterion needs a non-trivial positive K4-algebra")
    n, box, dia = A.size, A.box, A.diamond
    top, bot = A.top(), A.bottom()
    if n == 2 and box[bot] == top and dia[top] == bot:
        return True
    for a in range(n):
        if box[a] != (top if a == top else bot):
            return False
        if dia[a] != (bot if a == bot else top):
            return False
    middles = [c for c in range(n) if c != bot and c != top]
    for a in middles:
        for b in middles:
            if a != b and A.leq[a][b]:
                if not any((A.leq[a][c] and A.join(b, c) == top)
                           or (A.leq[c][b] and A.meet(a, c) == bot)
                           for c in middles):
                    return False
    return True


def cg_dl(A: FiniteAlgebra, a: int, b: int) -> Partition:
    """Principal congruence of the bounded-lattice reduct, computed pointwise:
    c and d collapse iff they agree after meeting and joining with both
    generators."""
    A.lattice.require()
    n = A.size
    keys = {}
    ids = []
    m = A.meet(a, b)
    j = A.join(a, b)
    for c in range(n):
        key = (A.meet(c, m), A.join(c, j))
        ids.append(keys.setdefault(key, len(keys)))
    return Partition.from_block_ids(ids)


def cg_k4(M: ModalAlgebra, a: int, b: int) -> Partition:
    """Principal congruence of a Boolean-complemented K4 algebra, computed
    pointwise from the definable-congruence inequality."""
    A = M.algebra
    rep = validate(A)
    if not rep.is_pk4:
        raise PreconditionError("cg_k4 needs K4 operators")
    neg = M.complement

    def iff(x, y):
        return A.meet(A.join(neg[x], y), A.join(neg[y], x))

    e = A.meet(iff(a, b), A.box[iff(a, b)])
    n = A.size
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)
             if A.leq[e][iff(x, y)]]
    return Partition.from_pairs(n, pairs)


@dataclass(frozen=True)
class CepResult:
    has_cep: bool
    witness: Optional[tuple[FiniteAlgebra, Partition]] = None

    def __bool__(self):
        return self.has_cep


def has_cep(A: FiniteAlgebra, max_subuniverses: int = 10_000) -> CepResult:
    """Check the congruence extension property over every subalgebra: each
    congruence of a subalgebra must be the trace of a congruence of A."""
    from .morphisms import subalgebra_from_universe, subuniverses

    con_a = con_lattice(A)
    for universe in subuniverses(A, limit=max_subuniverses):
        if len(universe) == A.size:
            continue
        sub, embed = subalgebra_from_universe(A, universe)
        traces = set()
        for theta in con_a:
            ids = theta.block_ids()
            trace_ids = [ids[embed.mapping[x]] for x in range(sub.size)]
            traces.add(Partition.from_block_ids(trace_ids).blocks)
        for theta in con_lattice(sub):
            if theta.blocks not in traces:
                return CepResult(False, (sub, theta))
    return CepResult(True)
