"""Congruence generation, congruence lattices, irreducibility predicates,
well-connectedness, the simplicity criterion for positive K4-algebras, the
order-definable principal-congruence shortcuts, and the congruence extension
property check.

A congruence is a mask over the join-irreducibles J of the lattice: bit k is
set when ``join_irreducibles[k]`` is collapsed with its lower cover.  In
every finite lattice, distributive or not:

- x <= y are related iff every j in J with j <= y and not j <= x is
  collapsed, so the mask fixes the congruence;
- the mask of a join of congruences is the union of their masks, since a
  covering pair related by the join is related by one of them.

Write (l, j) for the pair (``lower_covers[k]``, ``join_irreducibles[k]``)
and span(a, b) for the members of J below a join b and not below a meet b.
Cg(a, b) is the union of the masks G_k of Cg(l, j) over k in span(a, b), and
Con(A) is the set of unions of the G_k.

G_k is the set of indices that k reaches (R. Freese, "Computing
congruences efficiently", Algebra Universalis 59, 2008).  While (l, j) is
collapsed, so is (l join x, j join x) for every x, and so are the box and
diamond images of that pair; k has an edge to the span of each of the three.
So everything k reaches lies in G_k.  Conversely, let R be what k reaches,
relate the ends of every covering pair c < d with span(c, d) inside R, and
close transitively.  Such a pair is (l' join c, j' join c) for j' minimal in
span(c, d); j' is in R, so its edges keep the join translates and operator
images of c < d inside R, and its meet translates stay inside span(c, d).
So the relation is a congruence, and it contains (l, j).  It collapses
(l', j') only for j' in R, since z -> (z meet j') join l' sends any path
from l' to j' across a covering pair whose span holds j'.  So G_k = R.

The join translates alone give the dependency relation on J of Freese,
Ježek and Nation (Free Lattices, AMS, 1995).  On a distributive lattice a
join translate of (l, j) has span {k} or none, so only the operators add
edges there.

So a mask is a congruence iff it is closed under reach, and Con(A) is the
lattice of closed sets of a preorder (B. A. Davey and H. A. Priestley,
Introduction to Lattices and Order, 2nd ed., 2002, ch. 5).  theta_k =
{i : k not in G_i} is the largest closed set that misses k: i reaching i'
puts G_i' inside G_i, and a closed set holding i but not k has k outside
G_i.  Every closed S is the intersection of the theta_k for k not in S, so
if S has a least strict upper bound it is one of them (else all would hold
that bound, and so would S).  And theta_k has one, theta_k | G_k: a closed
set strictly above theta_k holds some i with k in G_i, hence G_k.  So the
completely meet-irreducible congruences are the distinct theta_k.  A mask
becomes a :class:`Partition` only where a public function returns one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from operator import and_
from typing import Iterable, Optional

from .algebras import (FiniteAlgebra, ModalAlgebra, _bits, _budgeted, _mask, _reach,
                       _require_kind, _unions)
from .errors import PreconditionError, _check_count, _check_elements

MAX_CONGRUENCES = 100_000       # members of a congruence lattice


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


def _span(lat, a: int, b: int) -> int:
    """The mask of the lattice congruence Cg(a, b): the members of J below
    a join b and not below a meet b."""
    return lat.join_masks[lat.join[a][b]] & ~lat.join_masks[lat.meet[a][b]]


def _union(masks, ks: int) -> int:
    """The union of ``masks[k]`` over the bits k of ks."""
    out = 0
    for k in _bits(ks):
        out |= masks[k]
    return out


@lru_cache(maxsize=None)
def _generators(A: FiniteAlgebra) -> tuple[int, ...]:
    """Masks G_k = Cg(lower_covers[k], join_irreducibles[k]), one per
    join-irreducible: everything reachable from k (module docstring)."""
    lat = A.lattice.require()
    box, dia = A.box, A.diamond
    edges = []
    for low, j in zip(lat.lower_covers, lat.join_irreducibles):
        out = 0                         # x = bottom gives the pair itself
        for a, b in zip(lat.join[low], lat.join[j]):
            if a != b:
                out |= (_span(lat, a, b) | _span(lat, box[a], box[b])
                        | _span(lat, dia[a], dia[b]))
        edges.append(out)
    return _reach(edges)


def _partition(A: FiniteAlgebra, mask: int) -> Partition:
    """The congruence with this mask: x and y are related iff they lie above
    the same join-irreducibles that the mask leaves uncollapsed."""
    return Partition.from_block_ids([m & ~mask for m in A.lattice.join_masks])


def _closure(A: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> int:
    """The mask of the least congruence containing the pairs: the union of
    the generators over the spans of the pairs."""
    lat = A.lattice.require()
    ks = 0
    for a, b in pairs:
        ks |= _span(lat, a, b)
    return _union(_generators(A), ks)


def cg(A: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence of A containing the given pairs."""
    pairs = list(pairs)
    _check_elements(chain.from_iterable(pairs), A.size)
    return _partition(A, _closure(A, pairs))


def is_congruence(A: FiniteAlgebra, p: Partition) -> bool:
    """Whether p is a congruence of A; PreconditionError unless p's blocks
    are nonempty and cover the carrier exactly once.  The least congruence
    relating each element to the first of its block contains p, so it is p
    exactly when it has as many blocks."""
    if p.size != A.size:
        raise PreconditionError(f"a partition of {p.size} elements on an algebra of {A.size}")
    members = [x for block in p.blocks for x in block]
    _check_elements(members, A.size)
    if not all(p.blocks) or len(members) != p.size or set(members) != set(range(p.size)):
        raise PreconditionError(f"blocks {p.blocks} do not cover 0..{p.size - 1} exactly once")
    mask = _closure(A, ((block[0], x) for block in p.blocks for x in block[1:]))
    return len({m & ~mask for m in A.lattice.join_masks}) == len(p.blocks)


@lru_cache(maxsize=None)
def principal_congruences(A: FiniteAlgebra) -> tuple[Partition, ...]:
    """Distinct non-identity principal congruences, in the order of the first
    comparable pair generating each: Cg(a, b) = Cg(a meet b, a join b)."""
    lat = A.lattice.require()
    gens = _generators(A)
    seen: dict[int, Partition] = {}
    for a in range(A.size):
        for b in range(A.size):
            if a != b and lat.leq[a][b]:
                mask = _union(gens, _span(lat, a, b))
                if mask not in seen:
                    seen[mask] = _partition(A, mask)
    return tuple(seen.values())


@lru_cache(maxsize=None)
def _con_ids(A: FiniteAlgebra, max_congruences: int) -> tuple[int, ...]:
    """All congruences as masks: the unions of the generators.  The identity
    is always admitted; BudgetError past ``max_congruences`` members."""
    return _budgeted(_unions(_generators(A)), max(max_congruences, 1),
                     f"congruence lattice exceeds {max_congruences} members")


@lru_cache(maxsize=None, typed=True)      # typed: True is not a budget of 1
def con_lattice(A: FiniteAlgebra,
                max_congruences: int = MAX_CONGRUENCES) -> tuple[Partition, ...]:
    """All congruences, canonically sorted; the budget must be an int >= 0."""
    _check_count(max_congruences, "budget", "budget")
    return tuple(sorted((_partition(A, mask) for mask in _con_ids(A, max_congruences)),
                        key=lambda p: p.blocks))


def _cmi_masks(A: FiniteAlgebra) -> set[int]:
    """The masks of the completely meet-irreducible congruences: the distinct
    theta_k = {i : k not in G_i} (module docstring)."""
    gens = _generators(A)
    return {_mask(not g >> k & 1 for g in gens) for k in range(len(gens))}


@lru_cache(maxsize=None)
def cmi_congruences(A: FiniteAlgebra) -> tuple[Partition, ...]:
    """Congruences whose strict upper bounds have a least element, i.e.
    exactly those with subdirectly irreducible quotient, canonically sorted."""
    return tuple(sorted((_partition(A, theta) for theta in _cmi_masks(A)),
                        key=lambda p: p.blocks))


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
    _require_kind(A, "PS4", "well-connectedness")
    lat = A.lattice.require()
    meet, join, top, bot = lat.meet, lat.join, lat.top, lat.bottom
    n, box, dia = A.size, A.box, A.diamond
    for a in range(n):
        for b in range(n):
            if join[box[a]][box[b]] == top and a != top and b != top:
                return False
            if meet[dia[a]][dia[b]] == bot and a != bot and b != bot:
                return False
    return True


def is_simple_lemma45(A: FiniteAlgebra) -> bool:
    """Direct simplicity criterion for non-trivial positive K4-algebras:
    either the two-element algebra with collapsed operators, or (i) box/diamond
    send every non-bound element to the bounds and (ii) every proper chain
    0 < a < b < 1 admits a separating middle element c."""
    _require_kind(A, "PK4", "the simplicity criterion")
    if A.size < 2:
        raise PreconditionError("the simplicity criterion needs a non-trivial algebra")
    lat = A.lattice.require()
    meet, join, top, bot = lat.meet, lat.join, lat.top, lat.bottom
    n, box, dia, leq = A.size, A.box, A.diamond, A.leq
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
            if a != b and leq[a][b]:
                if not any((leq[a][c] and join[b][c] == top)
                           or (leq[c][b] and meet[a][c] == bot)
                           for c in middles):
                    return False
    return True


def cg_dl(A: FiniteAlgebra, a: int, b: int) -> Partition:
    """Principal congruence of the bounded-lattice reduct, computed pointwise:
    c and d collapse iff they agree after meeting and joining with both
    generators."""
    _check_elements((a, b), A.size)
    lat = A.lattice.require()
    m, j = lat.meet[a][b], lat.join[a][b]
    return Partition.from_block_ids([(lat.meet[c][m], lat.join[c][j]) for c in range(A.size)])


def cg_k4(M: ModalAlgebra, a: int, b: int) -> Partition:
    """Principal congruence of a Boolean-complemented K4 algebra, computed
    pointwise from the definable-congruence inequality: x and y collapse iff
    x <-> y >= e for e = (a <-> b) meet box(a <-> b).  In a Boolean algebra
    e <= not x or y iff e meet x <= y, so x <-> y >= e iff x meet e =
    y meet e, and the blocks are keyed by x meet e."""
    A = M.algebra
    _require_kind(A, "PK4", "cg_k4")
    _check_elements((a, b), A.size)
    meet, join, neg = A.lattice.meet, A.lattice.join, M.complement
    d = meet[join[neg[a]][b]][join[neg[b]][a]]              # a <-> b
    e = meet[d][A.box[d]]
    return Partition.from_block_ids([meet[x][e] for x in range(A.size)])


@dataclass(frozen=True)
class CepResult:
    has_cep: bool
    witness: Optional[tuple[FiniteAlgebra, Partition]] = None

    def __bool__(self):
        return self.has_cep


def has_cep(A: FiniteAlgebra) -> CepResult:
    """Check the congruence extension property over every subalgebra: each
    congruence of a subalgebra must be the trace of a congruence of A."""
    from .morphisms import subalgebra_from_universe, subuniverses

    join_masks, con_a = A.lattice.require().join_masks, _con_ids(A, MAX_CONGRUENCES)
    for universe in subuniverses(A):
        if len(universe) == A.size:
            continue
        sub, embed = subalgebra_from_universe(A, universe)
        e, lat = embed.mapping, sub.lattice
        # theta's trace collapses the covering pair l < j of sub iff theta
        # holds every join-irreducible of A below e(j) and not below e(l)
        gaps = [join_masks[e[j]] & ~join_masks[e[l]]
                for l, j in zip(lat.lower_covers, lat.join_irreducibles)]
        traces = {_mask(not gap & ~theta for gap in gaps) for theta in con_a}
        missing = [_partition(sub, m) for m in _con_ids(sub, MAX_CONGRUENCES) if m not in traces]
        if missing:
            return CepResult(False, (sub, min(missing, key=lambda p: p.blocks)))
    return CepResult(True)
