"""Congruence generation, congruence lattices, irreducibility predicates,
well-connectedness, the simplicity criterion for positive K4-algebras, the
order-definable principal-congruence shortcuts, and the congruence extension
property check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
def principal_congruences(A: FiniteAlgebra) -> tuple[Partition, ...]:
    """Distinct non-identity principal congruences.  Only comparable pairs are
    generated: Cg(a, b) = Cg(a meet b, a join b) in any lattice-based algebra."""
    seen: dict[tuple, Partition] = {}
    n = A.size
    for a in range(n):
        for b in range(n):
            if a != b and A.leq[a][b]:
                p = cg(A, [(a, b)])
                seen.setdefault(p.blocks, p)
    return tuple(seen.values())


def _normalize_ids(ids) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(b, len(seen)) for b in ids)


def _join_ids(n: int, p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ids in (p, q):
        first: dict[int, int] = {}
        for x in range(n):
            b = ids[x]
            if b in first:
                ra, rb = find(first[b]), find(x)
                if ra != rb:
                    parent[ra] = rb
            else:
                first[b] = x
    return _normalize_ids(find(x) for x in range(n))


@lru_cache(maxsize=None)
def _con_ids(A: FiniteAlgebra, max_congruences: int) -> tuple[tuple[int, ...], ...]:
    """All congruences as normalized block-id tuples.  Joins of congruences
    are plain equivalence joins, so closing the principal congruences under
    joins with the principal generators reaches every congruence."""
    n = A.size
    generators = [_normalize_ids(p.block_ids()) for p in principal_congruences(A)]
    found: set[tuple[int, ...]] = {_normalize_ids(range(n))}
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
            add(_join_ids(n, p, g))
    return tuple(found)


@lru_cache(maxsize=None)
def con_lattice(A: FiniteAlgebra, max_congruences: int = 100_000) -> tuple[Partition, ...]:
    """All congruences, canonically sorted."""
    return tuple(sorted((Partition.from_block_ids(ids)
                         for ids in _con_ids(A, max_congruences)),
                        key=lambda p: p.blocks))


def _ids_refine(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    image: dict[int, int] = {}
    for pb, qb in zip(p, q):
        prev = image.setdefault(pb, qb)
        if prev != qb:
            return False
    return True


@lru_cache(maxsize=None)
def cmi_congruences(A: FiniteAlgebra, max_congruences: int = 100_000) -> tuple[Partition, ...]:
    """Congruences theta whose strict upper bounds have a least element, i.e.
    exactly those with subdirectly irreducible quotient.  The candidate upper
    bounds are the joins of theta with the principal congruences it misses."""
    n = A.size
    principals = [_normalize_ids(p.block_ids()) for p in principal_congruences(A)]
    out = []
    for ids in _con_ids(A, max_congruences):
        candidates = {}
        for g in principals:
            if not _ids_refine(g, ids):
                j = _join_ids(n, ids, g)
                candidates[j] = None
        if not candidates:
            continue                      # theta is the total congruence
        cands = list(candidates)
        least = [c for c in cands if all(_ids_refine(c, d) for d in cands)]
        if least:
            out.append(Partition.from_block_ids(ids))
    return tuple(sorted(out, key=lambda p: p.blocks))


def _atoms(A: FiniteAlgebra) -> list[Partition]:
    """Minimal non-identity congruences; every atom is principal."""
    principals = [p for p in principal_congruences(A) if not p.is_identity]
    return [p for p in principals
            if not any(q is not p and q.refines(p) and q.blocks != p.blocks
                       for q in principals)]


def is_simple(A: FiniteAlgebra) -> bool:
    if A.size < 2:
        return False
    return all(p.is_total for p in principal_congruences(A))


def is_si(A: FiniteAlgebra) -> bool:
    """Subdirect irreducibility: a unique minimal non-identity congruence.
    For finite algebras this coincides with finite subdirect irreducibility."""
    if A.size < 2:
        return False
    return len(_atoms(A)) == 1


def is_fsi(A: FiniteAlgebra) -> bool:
    if A.size < 2:
        return False
    return len(_atoms(A)) <= 1


def monolith(A: FiniteAlgebra) -> Partition:
    atoms = _atoms(A) if A.size >= 2 else []
    if len(atoms) != 1:
        raise PreconditionError("monolith requested on a non-subdirectly-irreducible algebra")
    return atoms[0]


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
