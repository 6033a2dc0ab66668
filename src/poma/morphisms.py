"""Algebraic constructions: products, subalgebras, quotients, homomorphism
search, isomorphism, canonical forms and automorphisms, retracts, and the
subdirectly irreducible part of the HS-closure.

Canonical forms come from individualization-refinement (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014): refine a
colouring of the elements until it is stable, branch on every member of the
first colour class with more than one element, and keep the least
relabelled serialization over the discrete leaves.  Refinement and the
choice of branch commute with isomorphisms, so the leaves of A are closed
under Aut(A), which acts on them freely, and two leaves have the same
encoding exactly when an automorphism carries one to the other: the leaves
with the least encoding form one Aut(A)-orbit.  :func:`automorphisms` reads
Aut(A) off that orbit.

A homomorphism check compares the operators element by element and the
lattice operations by cones.  For finite lattices A and B, a map f with
f(1) = 1 preserves meets iff the preimage of ↑j is a principal filter of A
for every join-irreducible j of B; dually, with f(0) = 0, f preserves joins
iff the preimage of ↓m is a principal ideal for every meet-irreducible m
(B. A. Davey and H. A. Priestley, Introduction to Lattices and Order, 2nd
ed., 2002, ch. 7 and 11).  In every finite lattice, distributive or not:

- each b is the join of the join-irreducibles below it, so ↑b is the
  intersection of their cones and its preimage an intersection of principal
  filters, itself a principal filter (all of A for b = 0);
- so f is monotone: y >= x lies in the filter that is the preimage of
  ↑f(x);
- and x, y both lie in the preimage of ↑(f(x) meet f(y)), so x meet y does,
  which gives f(x meet y) >= f(x) meet f(y); monotonicity gives <=;
- conversely the preimage of ↑b under a meet-preserving f with f(1) = 1 is
  ↑ of the meet of its members.

The test costs O(|A| + |f(A)|·(|J(B)| + |M(B)|)), where the meet and join
tables on every index pair cost O(|A|²).

Quotients have one builder, :func:`_quotient`.  The public :func:`quotient`
first checks that its partition is a congruence; :func:`si_quotients` hands
it the congruences of :func:`cmi_congruences` unchecked.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .algebras import FiniteAlgebra
from .congruences import Partition, cmi_congruences, is_congruence
from .errors import BudgetError, PreconditionError


@dataclass(frozen=True)
class Hom:
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    @property
    def is_bijective(self) -> bool:
        return self.is_injective and self.is_surjective

    def is_valid(self) -> bool:
        """Whether the mapping is a homomorphism, by :func:`_is_hom`, the check
        extend_hom runs; StructuralError for a non-lattice side, and
        PreconditionError unless it sends each source element to a target one."""
        f, n, m = self.mapping, self.source.size, self.target.size
        if len(f) != n or min(f) < 0 or max(f) >= m:
            raise PreconditionError(f"{f!r} does not send each of {n} elements to one of {m}")
        return _is_hom(self.source, self.target, f)


def identity_hom(A: FiniteAlgebra) -> Hom:
    return Hom(A, A, tuple(range(A.size)))


# -- subuniverses ---------------------------------------------------------------

def _close(A: FiniteAlgebra, members: set[int], frontier: list[int],
           steps: Optional[list] = None) -> set[int]:
    """Grow ``members`` in place to the least subuniverse containing it and
    return it.  Only products with a frontier element are formed, so members
    off the frontier must be closed among themselves.  Each new element k goes
    to ``steps`` as (k, op, i, j): k = op(i, j), j None for box and diamond."""
    meet, join, box, dia = A.lattice.meet, A.lattice.join, A.box, A.diamond
    while frontier:
        x = frontier.pop()
        meet_x, join_x = meet[x], join[x]
        found = [(box[x], "box", None), (dia[x], "diamond", None)]
        for y in list(members):
            if meet_x[y] not in members:
                found.append((meet_x[y], "meet", y))
            if join_x[y] not in members:
                found.append((join_x[y], "join", y))
        for z, op, y in found:
            if z not in members:
                members.add(z)
                frontier.append(z)
                if steps is not None:
                    steps.append((z, op, x, y))
    return members


def closure_universe(A: FiniteAlgebra, gens: Iterable[int]) -> frozenset[int]:
    """Least subuniverse containing the generators (and the bounds)."""
    members = {A.bottom(), A.top(), *gens}
    return frozenset(_close(A, members, list(members)))


def subuniverses(A: FiniteAlgebra, limit: int = 10_000) -> list[tuple[int, ...]]:
    """All subuniverses, found by growing closed sets one generator at a time."""
    queue = [closure_universe(A, ())]
    seen = set(queue)
    while queue:
        u = queue.pop()
        for x in range(A.size):
            if x not in u:
                v = frozenset(_close(A, set(u) | {x}, [x]))
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
                    if len(seen) > limit:
                        raise BudgetError(f"more than {limit} subuniverses")
    return sorted((tuple(sorted(u)) for u in seen), key=lambda u: (len(u), u))


def subalgebra_from_universe(A: FiniteAlgebra, universe: Iterable[int],
                             name: str = "") -> tuple[FiniteAlgebra, Hom]:
    elems = tuple(sorted(universe))
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    leq = tuple(tuple(A.leq[elems[i]][elems[j]] for j in range(n)) for i in range(n))
    box = tuple(pos[A.box[e]] for e in elems)
    dia = tuple(pos[A.diamond[e]] for e in elems)
    sub = FiniteAlgebra(n, leq, box, dia, name)
    return sub, Hom(sub, A, elems)


def subalgebra_generated(A: FiniteAlgebra, gens: Iterable[int],
                         name: str = "") -> tuple[FiniteAlgebra, Hom]:
    return subalgebra_from_universe(A, closure_universe(A, gens), name)


def generating_set(A: FiniteAlgebra) -> tuple[int, ...]:
    """A small (greedy, not necessarily minimum) generating set."""
    gens: list[int] = []
    covered = set(closure_universe(A, ()))
    for x in range(A.size):
        if x not in covered:
            gens.append(x)
            covered.add(x)
            _close(A, covered, [x])
    return tuple(gens)


# -- products and quotients -------------------------------------------------------

def product(A: FiniteAlgebra, B: FiniteAlgebra, name: str = "") -> FiniteAlgebra:
    nb = B.size                             # the pair (i, j) is element i * nb + j
    pairs = list(itertools.product(range(A.size), range(nb)))
    leq = [[A.leq[i][k] and B.leq[j][l] for k, l in pairs] for i, j in pairs]
    box = [A.box[i] * nb + B.box[j] for i, j in pairs]
    dia = [A.diamond[i] * nb + B.diamond[j] for i, j in pairs]
    return FiniteAlgebra.make(leq, box, dia, name)


def quotient(A: FiniteAlgebra, p: Partition, name: str = "") -> tuple[FiniteAlgebra, Hom]:
    if not is_congruence(A, p):
        raise PreconditionError("partition is not a congruence")
    return _quotient(A, p, name)


def _quotient(A: FiniteAlgebra, p: Partition, name: str) -> tuple[FiniteAlgebra, Hom]:
    """The quotient by p, which must be a congruence: block i lies below
    block j iff the meet of their first elements lies in block i."""
    ids = p.block_ids()
    reps = [block[0] for block in p.blocks]
    meet = A.lattice.meet
    leq = tuple(tuple(ids[meet[r][s]] == i for s in reps) for i, r in enumerate(reps))
    box = tuple(ids[A.box[r]] for r in reps)
    dia = tuple(ids[A.diamond[r]] for r in reps)
    Q = FiniteAlgebra(len(reps), leq, box, dia, name)
    return Q, Hom(A, Q, ids)


# -- homomorphism search ------------------------------------------------------------

@lru_cache(maxsize=256)
def _generation(A: FiniteAlgebra, seeds: tuple[int, ...]) -> Optional[tuple]:
    """The steps of :func:`_close` deriving all of A from the bounds and the
    seeds, in order; None when the seeds do not generate A."""
    members = {A.bottom(), A.top(), *seeds}
    steps: list = []
    _close(A, members, list(members), steps)
    return tuple(steps) if len(members) == A.size else None


def _is_hom(A: FiniteAlgebra, B: FiniteAlgebra, f) -> bool:
    """Whether f is a homomorphism; StructuralError for a non-lattice side.

    Checks the bounds and the operators on every element, then the lattice
    operations by the preimages of B's irreducible cones (see the module
    docstring): that of ↑j must be a principal filter of A for each
    join-irreducible j, that of ↓m a principal ideal for each
    meet-irreducible m."""
    la, lb = A.lattice.require(), B.lattice.require()
    if f[la.bottom] != lb.bottom or f[la.top] != lb.top:
        return False
    pre: dict[int, int] = {}                        # f(x) -> mask of such x
    for x in range(A.size):
        fx = f[x]
        if B.box[fx] != f[A.box[x]] or B.diamond[fx] != f[A.diamond[x]]:
            return False
        pre[fx] = pre.get(fx, 0) | 1 << x
    image = pre.items()
    filters, ideals = la.principal_masks()
    for cones, irreducibles, principal in ((lb.up, lb.join_irreducibles, filters),
                                           (lb.down, lb.meet_irreducibles, ideals)):
        for k in irreducibles:
            cone, mask = cones[k], 0
            for v, xs in image:
                if cone >> v & 1:
                    mask |= xs
            if mask not in principal:
                return False
    return True


def extend_hom(A: FiniteAlgebra, B: FiniteAlgebra,
               seed: dict[int, int]) -> Optional[tuple[int, ...]]:
    """The homomorphism A -> B extending the seed (and the bounds), or None.

    The seed's keys fix a generation program of A (cached per algebra and key
    set).  Replaying it on B's tables gives the only candidate map, which
    :func:`_is_hom` accepts or rejects.  None also on a conflict in the seed
    and when the seed does not generate A."""
    f: dict[int, int] = {A.bottom(): B.bottom(), A.top(): B.top()}
    for k, v in seed.items():
        if f.get(k, v) != v:
            return None
        f[k] = v
    program = _generation(A, tuple(sorted(seed)))
    if program is None:
        return None
    g = [f.get(x) for x in range(A.size)]
    tables = {"box": B.box, "diamond": B.diamond,
              "meet": B.lattice.meet, "join": B.lattice.join}
    for k, op, i, j in program:
        value = tables[op][g[i]]
        g[k] = value if j is None else value[g[j]]
    return tuple(g) if _is_hom(A, B, g) else None


def homs(A: FiniteAlgebra, B: FiniteAlgebra, seed: dict[int, int] | None = None,
         budget: int = 1_000_000) -> list[Hom]:
    """All homomorphisms from A to B (extending the optional partial map),
    enumerated deterministically via a generating set of A."""
    gens = [g for g in generating_set(A) if not seed or g not in seed]
    base = dict(seed or {})
    out = []
    tried = 0
    for combo in itertools.product(range(B.size), repeat=len(gens)):
        tried += 1
        if tried > budget:
            raise BudgetError(f"hom search exceeded {budget} candidates")
        attempt = dict(base)
        attempt.update(zip(gens, combo))
        mapping = extend_hom(A, B, attempt)
        if mapping is not None:
            out.append(Hom(A, B, mapping))
    return out


def embeddings(A: FiniteAlgebra, B: FiniteAlgebra,
               budget: int = 1_000_000) -> list[Hom]:
    return [h for h in homs(A, B, budget=budget) if h.is_injective]


def is_retract(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """True when A embeds into B with a left inverse."""
    for f in embeddings(A, B):
        back = {f.mapping[a]: a for a in range(A.size)}
        if homs(B, A, seed=back):
            return True
    return False


# -- canonical forms -------------------------------------------------------------

def _neighbours(n, leq, box, dia):
    """Per element: the elements strictly below and strictly above it and its
    box and diamond preimages, built once per search."""
    box_pre: list[list[int]] = [[] for _ in range(n)]
    dia_pre: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        box_pre[box[j]].append(j)
        dia_pre[dia[j]].append(j)
    return [([j for j in range(n) if j != i and leq[j][i]],
             [j for j in range(n) if j != i and leq[i][j]],
             box_pre[i], dia_pre[i]) for i in range(n)]


def _refine_colors(box, dia, neighbours, colors):
    """The stable refinement of ``colors``; each round's key starts with the
    old colour and the palette sorts the keys, so a round only splits classes
    and keeps their order.  A round that splits none leaves a relabelling
    that the next round would return unchanged."""
    while True:
        get = colors.__getitem__
        keys = [(colors[i], colors[box[i]], colors[dia[i]],
                 tuple(sorted(map(get, below))), tuple(sorted(map(get, above))),
                 tuple(sorted(map(get, box_pre))), tuple(sorted(map(get, dia_pre))))
                for i, (below, above, box_pre, dia_pre) in enumerate(neighbours)]
        palette = {k: c for c, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if len(palette) == len(set(colors)):
            return new
        colors = new


def _encode(n, leq, box, dia, order):
    pos = [0] * n
    for k, e in enumerate(order):
        pos[e] = k
    rows = [leq[e] for e in order]
    return (n, tuple(row[e] for row in rows for e in order),
            tuple(pos[box[e]] for e in order),
            tuple(pos[dia[e]] for e in order))


def _discrete_orders(n, box, dia, neighbours, colors, cap, counter) -> Iterator[tuple[int, ...]]:
    colors = _refine_colors(box, dia, neighbours, list(colors))
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    split = next((c for c in sorted(classes) if len(classes[c]) > 1), None)
    if split is None:
        counter[0] += 1
        if counter[0] > cap:
            raise BudgetError("canonical-form search exceeded its cap")
        yield tuple(sorted(range(n), key=colors.__getitem__))
        return
    for member in classes[split]:
        branched = [2 * c + 2 for c in colors]
        branched[member] = 0
        yield from _discrete_orders(n, box, dia, neighbours, branched, cap, counter)


def _least_leaves(n, leq, box, dia, cap) -> tuple[tuple, list[tuple[int, ...]]]:
    """The least encoding over the leaves of the search, and the leaves
    (orders) that reach it, in search order."""
    neighbours = _neighbours(n, leq, box, dia)
    best, least = None, []
    for order in _discrete_orders(n, box, dia, neighbours, [0] * n, cap, [0]):
        enc = _encode(n, leq, box, dia, order)
        if best is None or enc < best:
            best, least = enc, [order]
        elif enc == best:
            least.append(order)
    return best, least


SEARCH_CAP = 50_000                 # leaves before the search raises BudgetError


@lru_cache(maxsize=None)
def canonical_form(A: FiniteAlgebra, cap: int = SEARCH_CAP) -> tuple:
    """Isomorphism-invariant encoding: minimum relabelled serialization over
    the orderings produced by colour refinement with individualization."""
    return _least_leaves(A.size, A.leq, A.box, A.diamond, cap)[0]


def automorphisms(A: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """Aut(A) as sorted mappings x -> s[x]; the identity sorts first.

    The leaves of the canonical-form search with the least encoding are one
    Aut(A)-orbit (see the module docstring), so with base the first of them
    the automorphisms are exactly base⁻¹ then o, for o a least leaf."""
    _, least = _least_leaves(A.size, A.leq, A.box, A.diamond, SEARCH_CAP)
    base = least[0]
    pos = [0] * A.size
    for k, e in enumerate(base):
        pos[e] = k
    return tuple(sorted(tuple(o[pos[x]] for x in range(A.size)) for o in least))


def canonical_algebra(A: FiniteAlgebra, name: str = "") -> FiniteAlgebra:
    n, bits, box, dia = canonical_form(A)
    leq = tuple(tuple(bits[i * n + j] for j in range(n)) for i in range(n))
    return FiniteAlgebra(n, leq, box, dia, name or A.name)


def is_iso(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    return A.size == B.size and canonical_form(A) == canonical_form(B)


# -- subdirectly irreducible closures ------------------------------------------------

def si_quotients(A: FiniteAlgebra) -> tuple[FiniteAlgebra, ...]:
    """Subdirectly irreducible homomorphic images, deduplicated up to
    isomorphism and sorted by (size, canonical form).  These are the quotients
    by congruences whose strict upper bounds have a least element."""
    out: dict[tuple, FiniteAlgebra] = {}
    for theta in cmi_congruences(A):
        Q, _ = _quotient(A, theta, "")
        out.setdefault(canonical_form(Q), canonical_algebra(Q))
    return tuple(sorted(out.values(), key=lambda q: (q.size, canonical_form(q))))


@lru_cache(maxsize=None)
def hs_si(A: FiniteAlgebra, max_subuniverses: int = 10_000) -> tuple[FiniteAlgebra, ...]:
    """Subdirectly irreducible members of HS(A) up to isomorphism.  For the
    lattice-based algebras here this is the subdirectly irreducible part of
    the variety generated by A."""
    out: dict[tuple, FiniteAlgebra] = {}
    for universe in subuniverses(A, limit=max_subuniverses):
        sub, _ = subalgebra_from_universe(A, universe)
        for q in si_quotients(sub):
            out.setdefault(canonical_form(q), q)
    return tuple(sorted(out.values(), key=lambda q: (q.size, canonical_form(q))))
