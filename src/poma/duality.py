"""Finite duality: prime-filter spaces, upset algebras, the Boolean envelope,
complex algebras of frames, frame-level term evaluation, open filters, and the
p-morphism predicate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .algebras import (BoolMatrix, FiniteAlgebra, ModalAlgebra, downsets,
                       powerset_masks, subset_order, validate)
from .congruences import Partition, con_lattice
from .errors import BudgetError, PreconditionError
from .morphisms import Hom
from .terms import Term

MAX_POINTS = 8          # powerset carriers beyond 2^8 elements are refused


def join_irreducibles(A: FiniteAlgebra) -> list[int]:
    """Elements with exactly one lower cover (excludes the bottom)."""
    return list(A.lattice.require().join_irreducibles)


def meet_irreducibles(A: FiniteAlgebra) -> list[int]:
    """Elements with exactly one upper cover (excludes the top)."""
    return list(A.lattice.require().meet_irreducibles)


@lru_cache(maxsize=None)
def prime_filters(A: FiniteAlgebra) -> tuple[frozenset[int], ...]:
    """All prime filters: the principal upsets of join-irreducible elements,
    sorted by (cardinality, contents)."""
    filters = [frozenset(a for a in range(A.size) if A.leq[j][a])
               for j in join_irreducibles(A)]
    return tuple(sorted(filters, key=lambda f: (len(f), sorted(f))))


@dataclass(frozen=True)
class DualSpace:
    points: tuple[frozenset[int], ...]
    leq: BoolMatrix           # inclusion of prime filters
    R: BoolMatrix

    def to_dict(self) -> dict:
        return {
            "points": [sorted(p) for p in self.points],
            "leq": [[1 if x else 0 for x in row] for row in self.leq],
            "R": [[1 if x else 0 for x in row] for row in self.R],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _compose(P: BoolMatrix, Q: BoolMatrix) -> BoolMatrix:
    n = len(P)
    return tuple(tuple(any(P[x][z] and Q[z][y] for z in range(n))
                       for y in range(n)) for x in range(n))


def dual_space(A: FiniteAlgebra) -> DualSpace:
    rep = validate(A)
    if not rep.is_pma:
        raise PreconditionError("dual spaces are defined for positive modal algebras")
    points = prime_filters(A)
    n = len(points)
    leq = tuple(tuple(points[i] <= points[j] for j in range(n)) for i in range(n))
    box, dia = A.box, A.diamond
    rel = []
    for f in points:
        box_inv = frozenset(a for a in range(A.size) if box[a] in f)
        dia_inv = frozenset(a for a in range(A.size) if dia[a] in f)
        rel.append(tuple(box_inv <= g <= dia_inv for g in points))
    return DualSpace(points, leq, tuple(rel))


def check_kplus(X: DualSpace) -> None:
    """Finite-scale compatibility conditions on an ordered frame: the
    accessibility relation must equal the intersection of its two order
    compositions, and the modal operators must map upsets to upsets."""
    n = len(X.points)
    inv = tuple(tuple(X.leq[j][i] for j in range(n)) for i in range(n))
    expected = tuple(tuple(a and b for a, b in zip(r1, r2))
                     for r1, r2 in zip(_compose(X.R, X.leq), _compose(X.R, inv)))
    if expected != X.R:
        raise PreconditionError("relation is not order-compatible")
    if n > 16:
        raise BudgetError("too many points to enumerate upsets")
    for v in downsets(inv):
        if not _is_upset(X.leq, _box_r(X.R, v)) or not _is_upset(X.leq, _dia_r(X.R, v)):
            raise PreconditionError("upsets are not closed under the modal operators")


def _is_upset(leq: BoolMatrix, v: frozenset[int]) -> bool:
    n = len(leq)
    return all(leq[x][y] <= (y in v) for x in v for y in range(n))


def _box_r(R: BoolMatrix, v: frozenset[int]) -> frozenset[int]:
    n = len(R)
    return frozenset(x for x in range(n)
                     if all(y in v for y in range(n) if R[x][y]))


def _dia_r(R: BoolMatrix, v: frozenset[int]) -> frozenset[int]:
    n = len(R)
    return frozenset(x for x in range(n)
                     if any(y in v for y in range(n) if R[x][y]))


def upset_algebra(X: DualSpace, name: str = "") -> FiniteAlgebra:
    """Algebra of all upsets of the space under intersection/union with the
    relational operators.  The space is checked for compatibility first."""
    check_kplus(X)
    carrier = downsets(tuple(zip(*X.leq)))
    index = {v: i for i, v in enumerate(carrier)}
    n = len(carrier)
    leq = tuple(tuple(carrier[i] <= carrier[j] for j in range(n)) for i in range(n))
    box = tuple(index[_box_r(X.R, v)] for v in carrier)
    dia = tuple(index[_dia_r(X.R, v)] for v in carrier)
    return FiniteAlgebra(n, leq, box, dia, name)


def kappa(A: FiniteAlgebra) -> Hom:
    """Representation map sending a to the set of prime filters containing it;
    the target is the upset algebra of the dual space."""
    X = dual_space(A)
    U = upset_algebra(X)
    carrier = downsets(tuple(zip(*X.leq)))
    index = {v: i for i, v in enumerate(carrier)}
    mapping = tuple(index[frozenset(i for i, f in enumerate(X.points) if a in f)]
                    for a in range(A.size))
    return Hom(A, U, mapping)


@dataclass(frozen=True)
class Envelope:
    modal: ModalAlgebra
    kappa: Hom

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.modal.algebra


def boolean_envelope(A: FiniteAlgebra) -> Envelope:
    """Powerset modal algebra over the prime-filter frame, named ``M(name)``
    after A, with the embedding of A into it."""
    modal, mapping = _nameless_envelope(A)
    if A.name:
        modal = ModalAlgebra(modal.algebra.rename(f"M({A.name})"), modal.complement)
    return Envelope(modal, Hom(A, modal.algebra, mapping))


@lru_cache(maxsize=None)
def _nameless_envelope(A: FiniteAlgebra) -> tuple[ModalAlgebra, tuple[int, ...]]:
    """The envelope without names: the cache is keyed on A's value, which
    ignores its name, so a cached name would be the first caller's."""
    X = dual_space(A)
    pts = X.points
    k = len(pts)
    if k > MAX_POINTS:
        raise BudgetError(f"envelope over {k} points exceeds the {MAX_POINTS}-point cap")
    masks = powerset_masks(k)
    index = {m: i for i, m in enumerate(masks)}
    succ = [sum(1 << y for y in range(k) if X.R[x][y]) for x in range(k)]
    full = (1 << k) - 1

    def box_mask(m):
        return sum(1 << x for x in range(k) if succ[x] & ~m == 0)

    def dia_mask(m):
        return sum(1 << x for x in range(k) if succ[x] & m)

    box = tuple(index[box_mask(m)] for m in masks)
    dia = tuple(index[dia_mask(m)] for m in masks)
    M = FiniteAlgebra(len(masks), subset_order(masks), box, dia)
    complement = tuple(index[full ^ m] for m in masks)
    mapping = tuple(index[sum(1 << i for i, f in enumerate(pts) if a in f)]
                    for a in range(A.size))
    return ModalAlgebra(M, complement), mapping


# the statistics of the value-keyed cache behind the public function
boolean_envelope.cache_info = _nameless_envelope.cache_info


def complex_algebra(n_worlds: int, relation, name: str = "") -> FiniteAlgebra:
    """Full powerset algebra of the frame ({0..n_worlds-1}, relation).

    `relation` is a set/iterable of pairs or a square boolean matrix."""
    if n_worlds > MAX_POINTS:
        raise BudgetError(f"{n_worlds} worlds exceeds the {MAX_POINTS}-world cap")
    pairs = _relation_pairs(n_worlds, relation)
    masks = powerset_masks(n_worlds)
    index = {m: i for i, m in enumerate(masks)}
    succ = [0] * n_worlds
    for x, y in pairs:
        succ[x] |= 1 << y
    box = tuple(index[sum(1 << x for x in range(n_worlds) if succ[x] & ~m == 0)]
                for m in masks)
    dia = tuple(index[sum(1 << x for x in range(n_worlds) if succ[x] & m)]
                for m in masks)
    return FiniteAlgebra(len(masks), subset_order(masks), box, dia, name)


def _relation_pairs(n: int, relation) -> set[tuple[int, int]]:
    if relation and isinstance(relation, (list, tuple)) and \
            isinstance(relation[0], (list, tuple)) and \
            all(len(row) == n for row in relation) and len(relation) == n and \
            all(isinstance(v, (bool, int)) and v in (0, 1, True, False)
                for row in relation for v in row):
        return {(x, y) for x in range(n) for y in range(n) if relation[x][y]}
    return {(int(x), int(y)) for x, y in relation}


def kripke_eval(n_worlds: int, relation, t: Term,
                asg: dict[str, frozenset[int]]) -> frozenset[int]:
    """Evaluate a term directly over a frame, without materializing the
    powerset algebra.  Used for growth experiments on larger frames."""
    pairs = _relation_pairs(n_worlds, relation)
    succ: dict[int, set[int]] = {x: set() for x in range(n_worlds)}
    for x, y in pairs:
        succ[x].add(y)

    def go(t: Term) -> frozenset[int]:
        if t.kind == "var":
            return asg[t.var]
        if t.kind == "zero":
            return frozenset()
        if t.kind == "one":
            return frozenset(range(n_worlds))
        if t.kind == "meet":
            return go(t.args[0]) & go(t.args[1])
        if t.kind == "join":
            return go(t.args[0]) | go(t.args[1])
        v = go(t.args[0])
        if t.kind == "box":
            return frozenset(x for x in range(n_worlds) if succ[x] <= v)
        return frozenset(x for x in range(n_worlds) if succ[x] & v)

    return go(t)


# -- open filters ----------------------------------------------------------------

def open_filters(M: ModalAlgebra) -> list[tuple[int, ...]]:
    """Filters closed under box, each listed as its sorted universe.  In a
    finite algebra every filter is the upset of its least element, so a filter
    is open exactly when box does not move that element down."""
    A = M.algebra
    out = []
    for g in range(A.size):
        if A.leq[g][A.box[g]]:
            out.append(tuple(sorted(a for a in range(A.size) if A.leq[g][a])))
    return sorted(out, key=lambda f: (len(f), f))


def open_filter_congruence_iso_check(M: ModalAlgebra) -> bool:
    """Verify that F |-> {(a,b) : a<->b in F} is an order isomorphism between
    open filters and congruences."""
    A = M.algebra
    neg = M.complement

    def iff(x, y):
        return A.meet(A.join(neg[x], y), A.join(neg[y], x))

    cons = {theta.blocks for theta in con_lattice(A)}
    filters = open_filters(M)
    images = []
    for f in filters:
        fset = set(f)
        pairs = [(a, b) for a in range(A.size) for b in range(a + 1, A.size)
                 if iff(a, b) in fset]
        images.append(Partition.from_pairs(A.size, pairs))
    if len({p.blocks for p in images}) != len(filters):
        return False
    if {p.blocks for p in images} != cons:
        return False
    for i, f in enumerate(filters):
        for j, g in enumerate(filters):
            if (set(f) <= set(g)) != images[i].refines(images[j]):
                return False
    return True


# -- p-morphisms -----------------------------------------------------------------

def is_p_morphism(X: DualSpace, Y: DualSpace, f: tuple[int, ...]) -> bool:
    nx, ny = len(X.points), len(Y.points)
    for x in range(nx):
        for y in range(nx):
            if X.leq[x][y] and not Y.leq[f[x]][f[y]]:
                return False
            if X.R[x][y] and not Y.R[f[x]][f[y]]:
                return False
    for x in range(nx):
        for y in range(ny):
            if Y.R[f[x]][y]:
                lower = any(X.R[x][z] and Y.leq[f[z]][y] for z in range(nx))
                upper = any(X.R[x][v] and Y.leq[y][f[v]] for v in range(nx))
                if not (lower and upper):
                    return False
    return True


def dual_of_hom(h: Hom) -> tuple[int, ...]:
    """Inverse-image map between dual spaces, from the target's space to the
    source's."""
    XB = dual_space(h.target)
    XA = dual_space(h.source)
    pos = {p: i for i, p in enumerate(XA.points)}
    out = []
    for f in XB.points:
        pre = frozenset(a for a in range(h.source.size) if h.mapping[a] in f)
        out.append(pos[pre])
    return tuple(out)
