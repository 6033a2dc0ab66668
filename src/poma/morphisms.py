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

Two shortcuts leave the leaves, their order and their count unchanged:

- A colouring with n colours is final.  The next round's keys would start
  with n distinct colours, so its palette would rank them in the same order
  and return the same list.  A branch that is discrete before any round
  needs none either, since a leaf reads only the order of its colours.
- From the uniform colouring every key is (0, 0, 0, 0^a, 0^b, 0^c, 0^d): a
  and b the numbers of elements strictly below and strictly above, c and d
  the numbers of box and diamond preimages.  Tuples of zeros order by length,
  so the palette orders the keys as it orders the tuples (a, b, c, d), and
  the root's first round is a ranking of these counts.  They count the
  truthy entries off the diagonal, as the neighbour lists hold them, so
  0/1-int matrices and non-reflexive relations get the same colours.

So the neighbour lists are built only when a second round or a branch
needs them.

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

Extension replays a generation program of A once on value vectors with one
coordinate per (target, seed), so one pass serves many maps.  Each
coordinate g must keep the bounds, and box and diamond on every element.
For a distributive A the lattice operations are checked by covers: for each
x ≠ 0 not made by a join step, g(x) = g(y) ∨ g(z), with y and z two lower
covers of x, or y its only lower cover and z = x.  Then g(x) = ⋁ g(J(x)),
J(x) the join-irreducibles below x, by induction up A:

- J(0) is empty and g(0) = 0;
- a join step makes x = y ∨ z from y, z < x, and J(y ∨ z) = J(y) ∪ J(z) in
  a distributive lattice (see ``Lattice.distributivity_witness``);
- two lower covers y, z of x join to x, so again J(x) = J(y) ∪ J(z);
- a single lower cover y holds everything strictly below x, so
  J(x) = J(y) ∪ {x}, and g(x) = g(y) ∨ g(x).

So g(a ∨ b) = ⋁ g(J(a) ∪ J(b)) = g(a) ∨ g(b), in any target lattice.  Meets
are checked dually, with upper covers and the meet-irreducibles above x.
When A is not distributive, the meet and the join of every pair are checked.

Quotient tables have one builder, :func:`_quotient_tables`; :func:`quotient`
checks its partition first, :func:`si_quotients` and :func:`hs_si` do not.
These two skip a subalgebra or quotient whose tables they have met, so they
build one algebra and canonical form per distinct table, and one canonical
algebra, from its key, per isomorphism class.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, eq, truth
from typing import Iterable, Iterator, Optional

from .algebras import FiniteAlgebra, _covers
from .congruences import Partition, _cmi_masks, is_congruence
from .errors import BudgetError, PreconditionError, _check_elements
from .terms import Vectors, assignment_blocks

# search budgets: past them the search raises BudgetError
MAX_SUBUNIVERSES = 10_000           # subuniverses found
HOM_BUDGET = 1_000_000              # candidate maps tried by homs
SEARCH_CAP = 50_000                 # leaves of the canonical-form search


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
        """Whether the mapping is a homomorphism, by :func:`_is_hom`;
        StructuralError for a non-lattice side, and
        PreconditionError unless it sends each source element to a target one."""
        f, n, m = self.mapping, self.source.size, self.target.size
        if len(f) != n:
            raise PreconditionError(f"{f!r} does not send each of {n} elements to one of {m}")
        _check_elements(f, m)
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
    gens = tuple(gens)
    _check_elements(gens, A.size)
    members = {A.bottom(), A.top(), *gens}
    return frozenset(_close(A, members, list(members)))


def subuniverses(A: FiniteAlgebra) -> list[tuple[int, ...]]:
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
                    if len(seen) > MAX_SUBUNIVERSES:
                        raise BudgetError(f"more than {MAX_SUBUNIVERSES} subuniverses",
                                          partial=len(seen))
    return sorted((tuple(sorted(u)) for u in seen), key=lambda u: (len(u), u))


def _subalgebra_tables(A: FiniteAlgebra, elems: tuple[int, ...]) -> tuple:
    """(size, leq, box, diamond) of the subalgebra on the sorted subuniverse
    ``elems``, element i standing for ``elems[i]``."""
    pos = {e: i for i, e in enumerate(elems)}
    leq = tuple(tuple(row[e] for e in elems) for row in map(A.leq.__getitem__, elems))
    box = tuple(pos[A.box[e]] for e in elems)
    dia = tuple(pos[A.diamond[e]] for e in elems)
    return len(elems), leq, box, dia


def subalgebra_from_universe(A: FiniteAlgebra,
                             universe: Iterable[int]) -> tuple[FiniteAlgebra, Hom]:
    elems = tuple(sorted(universe))
    sub = FiniteAlgebra(*_subalgebra_tables(A, elems))
    return sub, Hom(sub, A, elems)


def subalgebra_generated(A: FiniteAlgebra, gens: Iterable[int]) -> tuple[FiniteAlgebra, Hom]:
    return subalgebra_from_universe(A, closure_universe(A, gens))


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

def product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    nb = B.size                             # the pair (i, j) is element i * nb + j
    pairs = list(itertools.product(range(A.size), range(nb)))
    leq = [[A.leq[i][k] and B.leq[j][l] for k, l in pairs] for i, j in pairs]
    box = [A.box[i] * nb + B.box[j] for i, j in pairs]
    dia = [A.diamond[i] * nb + B.diamond[j] for i, j in pairs]
    return FiniteAlgebra.make(leq, box, dia)


def quotient(A: FiniteAlgebra, p: Partition) -> tuple[FiniteAlgebra, Hom]:
    if not is_congruence(A, p):
        raise PreconditionError("partition is not a congruence")
    ids = p.block_ids()
    Q = FiniteAlgebra(*_quotient_tables(A, ids))
    return Q, Hom(A, Q, ids)


def _quotient_tables(A: FiniteAlgebra, ids) -> tuple:
    """(size, leq, box, diamond) of the quotient by the congruence that puts
    x in block ``ids[x]``, blocks numbered 0, 1, ...: block i lies below
    block j iff the meet of their first elements lies in block i."""
    reps = [ids.index(i) for i in range(max(ids) + 1)]
    meet = A.lattice.meet
    leq = tuple(tuple(ids[meet[r][s]] == i for s in reps) for i, r in enumerate(reps))
    box = tuple(ids[A.box[r]] for r in reps)
    dia = tuple(ids[A.diamond[r]] for r in reps)
    return len(reps), leq, box, dia


# -- homomorphism search ------------------------------------------------------------

@lru_cache(maxsize=256)
def _generation(A: FiniteAlgebra, seeds: tuple[int, ...]) -> Optional[tuple[tuple, tuple]]:
    """The steps of :func:`_close` deriving all of A from the bounds and the
    seeds, in order, and the lattice checks of :func:`_extensions` in the
    same layout; None when the seeds do not generate A."""
    members = {A.bottom(), A.top(), *seeds}
    steps: list = []
    _close(A, members, list(members), steps)
    if len(members) < A.size:
        return None
    return tuple(steps), _cover_checks(A.lattice, steps)


def _cover_checks(lat, steps) -> tuple:
    """The lattice checks (x, op, y, z), g(x) = op(g(y), g(z)): for a
    distributive lattice the cover checks of the module docstring, for the
    elements the steps do not make by the same operation; otherwise
    g(y ∧ z) = g(y) ∧ g(z) and g(y ∨ z) = g(y) ∨ g(z) for every pair y < z."""
    if lat.distributivity_witness() is not None:
        return tuple((rows[y][z], op, y, z) for op, rows in (("meet", lat.meet), ("join", lat.join))
                     for y, z in itertools.combinations(range(lat.size), 2))
    checks = []
    for op, below, above, least in (("join", lat.down, lat.up, lat.bottom),
                                    ("meet", lat.up, lat.down, lat.top)):
        made = {k for k, o, _, _ in steps if o == op}
        for x in range(lat.size):
            if x != least and x not in made:
                checks.append((x, op, *(_covers(below, above, x) + [x])[:2]))
    return tuple(checks)


def _extensions(A: FiniteAlgebra, carrier: Vectors,
                seed: dict[int, tuple]) -> tuple[list[tuple], list[bool]]:
    """Extend the bounds and ``seed``, a value vector of the carrier for
    each of some elements of A, to all of A by one replay of A's generation
    program, and check each coordinate as the module docstring says.
    Returns the value vector of each element of A and, per coordinate,
    whether its map is a homomorphism: no vectors and none when the seed's
    keys do not generate A.  StructuralError for a non-lattice side."""
    la = A.lattice.require()
    zero, one = carrier.zero(), carrier.one()
    program = _generation(A, tuple(sorted(seed)))
    if program is None:
        return [], [False] * carrier.length
    steps, checks = program
    g: list = [None] * A.size
    g[la.bottom], g[la.top] = zero, one
    for k, v in seed.items():
        g[k] = v
    ops = {"box": carrier.box, "diamond": carrier.dia,
           "meet": carrier.meet, "join": carrier.join}
    for k, op, i, j in steps:
        g[k] = ops[op](g[i]) if j is None else ops[op](g[i], g[j])
    ok = [True] * carrier.length

    def agree(u, v):
        if u != v:
            ok[:] = map(and_, ok, map(eq, u, v))

    agree(g[la.bottom], zero)
    agree(g[la.top], one)
    for u, b, d in zip(g, A.box, A.diamond):
        agree(carrier.box(u), g[b])
        agree(carrier.dia(u), g[d])
    for x, op, y, z in checks:
        agree(g[x], ops[op](g[y], g[z]))
    return g, ok


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
    for cones, irreducibles, principal in ((lb.up, lb.join_irreducibles, la.by_up),
                                           (lb.down, lb.meet_irreducibles, la.by_down)):
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
    """The homomorphism A -> B extending the seed (and the bounds), or None:
    :func:`_extensions` on one coordinate.  None also on a conflict in the
    seed and when the seed does not generate A; PreconditionError unless the
    seed sends elements of A to elements of B."""
    _check_elements(seed, A.size)
    _check_elements(seed.values(), B.size)
    g, ok = _extensions(A, Vectors.of(B, 1), {k: (v,) for k, v in seed.items()})
    return tuple(u[0] for u in g) if ok[0] else None


def homs(A: FiniteAlgebra, B: FiniteAlgebra, seed: dict[int, int] | None = None) -> list[Hom]:
    """All homomorphisms from A to B (extending the optional partial map),
    enumerated deterministically via a generating set of A: its k values run
    through B^k in lexicographic order, one :func:`_extensions` per block of
    them.  BudgetError before any is tried when |B|^k passes ``HOM_BUDGET``."""
    base = dict(seed or {})
    _check_elements(base, A.size)
    _check_elements(base.values(), B.size)
    gens = [g for g in generating_set(A) if g not in base]
    if B.size ** len(gens) > HOM_BUDGET:
        raise BudgetError(f"hom search exceeded {HOM_BUDGET} candidates")
    out = []
    for block, env in assignment_blocks(gens, B.size):
        env.update((k, (v,) * len(block)) for k, v in base.items())
        g, ok = _extensions(A, Vectors.of(B, len(block)), env)
        out += [Hom(A, B, mapping) for mapping in itertools.compress(zip(*g), ok)]
    return out


def embeddings(A: FiniteAlgebra, B: FiniteAlgebra) -> list[Hom]:
    return [h for h in homs(A, B) if h.is_injective]


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
    box and diamond preimages, built once per search, when a round first
    needs them."""
    box_pre: list[list[int]] = [[] for _ in range(n)]
    dia_pre: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        box_pre[box[j]].append(j)
        dia_pre[dia[j]].append(j)
    return [([j for j in range(n) if j != i and leq[j][i]],
             [j for j in range(n) if j != i and leq[i][j]],
             box_pre[i], dia_pre[i]) for i in range(n)]


def _first_colors(n, leq, box, dia) -> tuple[list[int], int]:
    """The first refinement round from the uniform colouring, and its number
    of colours, from the degree counts of the module docstring: truthy
    entries off the diagonal, as :func:`_neighbours` lists them."""
    below = [sum(map(truth, col)) - truth(col[i]) for i, col in enumerate(zip(*leq))]
    above = [sum(map(truth, row)) - truth(row[i]) for i, row in enumerate(leq)]
    keys = list(zip(below, above, map(box.count, range(n)), map(dia.count, range(n))))
    palette = {k: c for c, k in enumerate(sorted(set(keys)))}
    return [palette[k] for k in keys], len(palette)


def _refine_colors(box, dia, neighbours, colors, count):
    """The stable refinement of ``colors``, which has ``count`` colours;
    ``neighbours()`` gives the lists of :func:`_neighbours`.  Each round's
    key starts with the old colour and the palette sorts the keys, so a round
    only splits classes and keeps their order.  A round that splits none
    leaves a relabelling that the next round would return unchanged, and a
    discrete colouring is returned as it is (see the module docstring)."""
    n = len(colors)
    while count < n:
        get = colors.__getitem__
        keys = [(colors[i], colors[box[i]], colors[dia[i]],
                 tuple(sorted(map(get, below))), tuple(sorted(map(get, above))),
                 tuple(sorted(map(get, box_pre))), tuple(sorted(map(get, dia_pre))))
                for i, (below, above, box_pre, dia_pre) in enumerate(neighbours())]
        palette = {k: c for c, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if len(palette) == count:
            return new
        colors, count = new, len(palette)
    return colors


def _encode(n, leq, box, dia, order):
    pos = [0] * n
    for k, e in enumerate(order):
        pos[e] = k
    rows = [leq[e] for e in order]
    return (n, tuple(row[e] for row in rows for e in order),
            tuple(pos[box[e]] for e in order),
            tuple(pos[dia[e]] for e in order))


def _discrete_orders(n, leq, box, dia, cap) -> Iterator[tuple[int, ...]]:
    """The leaves of the search, in search order: below a stable colouring,
    one branch per member of its first class with more than one element, each
    refined; at a discrete colouring, the order it gives.  BudgetError past
    ``cap`` leaves, with the count reached."""
    built: list = []
    leaves = 0

    def neighbours():
        if not built:
            built.extend(_neighbours(n, leq, box, dia))
        return built

    def below(colors):
        nonlocal leaves
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        split = next((c for c in sorted(classes) if len(classes[c]) > 1), None)
        if split is None:
            leaves += 1
            if leaves > cap:
                raise BudgetError("canonical-form search exceeded its cap", partial=leaves)
            yield tuple(sorted(range(n), key=colors.__getitem__))
            return
        for member in classes[split]:
            branched = [2 * c + 2 for c in colors]
            branched[member] = 0
            yield from below(_refine_colors(box, dia, neighbours, branched, len(classes) + 1))

    colors, count = _first_colors(n, leq, box, dia)
    if count > 1:                   # else the uniform colouring is stable
        colors = _refine_colors(box, dia, neighbours, colors, count)
    yield from below(colors)


def _least_leaves(n, leq, box, dia, cap) -> tuple[tuple, list[tuple[int, ...]]]:
    """The least encoding over the leaves of the search, and the leaves
    (orders) that reach it, in search order."""
    best, least = None, []
    for order in _discrete_orders(n, leq, box, dia, cap):
        enc = _encode(n, leq, box, dia, order)
        if best is None or enc < best:
            best, least = enc, [order]
        elif enc == best:
            least.append(order)
    return best, least


@lru_cache(maxsize=None)
def canonical_form(A: FiniteAlgebra) -> tuple:
    """Isomorphism-invariant encoding: minimum relabelled serialization over
    the orderings produced by colour refinement with individualization."""
    return _least_leaves(A.size, A.leq, A.box, A.diamond, SEARCH_CAP)[0]


def automorphisms(A: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """Aut(A) as sorted mappings x -> s[x]; the identity sorts first.

    The leaves of the canonical-form search with the least encoding are one
    Aut(A)-orbit (see the module docstring), so with base the first of them
    the automorphisms are exactly base⁻¹ then o, for o a least leaf."""
    _, least = _least_leaves(A.size, A.leq, A.box, A.diamond, SEARCH_CAP)
    return tuple(sorted(_leaf_maps(least)))


def _leaf_maps(least: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The maps x -> o[base⁻¹(x)] for o in ``least``, in order, base its first
    leaf: Aut(A) when ``least`` are the least leaves of A's search."""
    pos = [0] * len(least[0])
    for k, e in enumerate(least[0]):
        pos[e] = k
    return [tuple(map(o.__getitem__, pos)) for o in least]


def _keyed_algebra(key: tuple, name: str = "") -> FiniteAlgebra:
    """The algebra whose serialization is the canonical form ``key``."""
    n, bits, box, dia = key
    leq = tuple(bits[i * n:(i + 1) * n] for i in range(n))
    return FiniteAlgebra(n, leq, box, dia, name)


def canonical_algebra(A: FiniteAlgebra) -> FiniteAlgebra:
    return _keyed_algebra(canonical_form(A), A.name)


def is_iso(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    return A.size == B.size and canonical_form(A) == canonical_form(B)


# -- subdirectly irreducible closures ------------------------------------------------

def _si_classes(A: FiniteAlgebra, out: dict[tuple, FiniteAlgebra], seen: set) -> None:
    """Add the canonical algebra of each subdirectly irreducible quotient of
    A to ``out``, keyed by its canonical form.  ``seen`` holds the quotient
    tables met so far; a table in it is skipped before any algebra is built."""
    join_masks = A.lattice.join_masks
    for theta in _cmi_masks(A):
        index: dict[int, int] = {}      # blocks by least element, as in Partition
        tables = _quotient_tables(A, [index.setdefault(m & ~theta, len(index))
                                      for m in join_masks])
        if tables not in seen:
            seen.add(tables)
            key = canonical_form(FiniteAlgebra(*tables))
            if key not in out:
                out[key] = _keyed_algebra(key)


def si_quotients(A: FiniteAlgebra) -> tuple[FiniteAlgebra, ...]:
    """Subdirectly irreducible homomorphic images, deduplicated up to
    isomorphism and sorted by canonical form, which starts with the size.
    These are the quotients by congruences whose strict upper bounds have a
    least element."""
    out: dict[tuple, FiniteAlgebra] = {}
    _si_classes(A, out, set())
    return tuple(out[key] for key in sorted(out))


@lru_cache(maxsize=None)
def hs_si(A: FiniteAlgebra) -> tuple[FiniteAlgebra, ...]:
    """Subdirectly irreducible members of HS(A) up to isomorphism, as
    :func:`si_quotients` sorts them.  For the lattice-based algebras here
    this is the subdirectly irreducible part of the variety generated by A."""
    out: dict[tuple, FiniteAlgebra] = {}
    subs: set[tuple] = set()
    seen: set[tuple] = set()
    for universe in subuniverses(A):
        tables = _subalgebra_tables(A, universe)
        if tables not in subs:
            subs.add(tables)
            _si_classes(FiniteAlgebra(*tables), out, seen)
    return tuple(out[key] for key in sorted(out))
