"""Finite duality: prime-filter spaces, upset algebras, the Boolean envelope,
complex algebras of frames, frame-level term evaluation, open filters, and the
p-morphism predicate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_

from .algebras import (BoolMatrix, FiniteAlgebra, ModalAlgebra, _bits,
                       downset_masks, powerset, subset_order, validate)
from .congruences import Partition, con_lattice, iff
from .errors import BudgetError, PreconditionError
from .morphisms import Hom
from .terms import Term, evaluate

MAX_POINTS = 8          # powerset carriers beyond 2^8 elements are refused


def join_irreducibles(A: FiniteAlgebra) -> list[int]:
    """Elements with exactly one lower cover (excludes the bottom)."""
    return list(A.lattice.require().join_irreducibles)


@lru_cache(maxsize=1024)
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


def _mask(row) -> int:
    """The set bits of a boolean row."""
    return sum(1 << j for j, v in enumerate(row) if v)


def dual_space(A: FiniteAlgebra) -> DualSpace:
    if not validate(A).is_pma:
        raise PreconditionError("dual spaces are defined for positive modal algebras")
    points = prime_filters(A)
    masks = [sum(1 << a for a in f) for f in points]
    leq = tuple(tuple(f & g == f for g in masks) for f in masks)
    rel = []
    for f in masks:
        box_inv = sum(1 << a for a, b in enumerate(A.box) if f >> b & 1)
        dia_inv = sum(1 << a for a, d in enumerate(A.diamond) if f >> d & 1)
        rel.append(tuple(box_inv & g == box_inv and g & dia_inv == g for g in masks))
    return DualSpace(points, leq, tuple(rel))


def _modal_masks(succ: list[int], masks) -> tuple[list[int], list[int]]:
    """Box and diamond of each mask on the frame where point x sees ``succ[x]``:
    diamond m (the points seeing some point of m) is tabled over all masks, and
    box m (the points seeing only m) is the complement of diamond of not-m."""
    k = len(succ)
    pred = [sum(1 << x for x, s in enumerate(succ) if s >> y & 1) for y in range(k)]
    dia = [0] * (1 << k)
    for m in range(1, 1 << k):
        low = m & -m
        dia[m] = dia[m ^ low] | pred[low.bit_length() - 1]
    full = (1 << k) - 1
    return [full ^ dia[full ^ m] for m in masks], [dia[m] for m in masks]


def _upsets(X: DualSpace) -> tuple[list[int], dict[int, int], tuple[int, ...], tuple[int, ...]]:
    """Check the space as :func:`check_kplus` documents, then return its
    upsets as point masks in :func:`downset_masks` order, their index, and
    box and diamond on them as index tables."""
    n = len(X.points)
    up = [_mask(row) for row in X.leq]
    down = [_mask(col) for col in zip(*X.leq)]
    succ = [_mask(row) for row in X.R]
    for s in succ:
        above = below = 0
        for z in _bits(s):
            above |= up[z]
            below |= down[z]
        if above & below != s:
            raise PreconditionError("relation is not order-compatible")
    if n > 16:
        raise BudgetError("too many points to enumerate upsets")
    masks = downset_masks(tuple(zip(*X.leq)))
    index = {m: i for i, m in enumerate(masks)}
    box, dia = _modal_masks(succ, masks)
    try:
        return masks, index, tuple(index[m] for m in box), tuple(index[m] for m in dia)
    except KeyError:
        raise PreconditionError("upsets are not closed under the modal operators") from None


def check_kplus(X: DualSpace) -> None:
    """Finite-scale compatibility conditions on an ordered frame: the
    accessibility relation must equal the intersection of its two order
    compositions, and the modal operators must map upsets to upsets."""
    _upsets(X)


def upset_algebra(X: DualSpace, name: str = "") -> FiniteAlgebra:
    """Algebra of all upsets of the space under intersection/union with the
    relational operators.  The space is checked for compatibility first."""
    masks, _, box, dia = _upsets(X)
    return FiniteAlgebra(len(masks), subset_order(masks), box, dia, name)


def kappa(A: FiniteAlgebra) -> Hom:
    """Representation map sending a to the set of prime filters containing it;
    the target is the upset algebra of the dual space."""
    X = dual_space(A)
    masks, index, box, dia = _upsets(X)
    U = FiniteAlgebra(len(masks), subset_order(masks), box, dia)
    return Hom(A, U, tuple(index[_mask(a in f for f in X.points)] for a in range(A.size)))


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


def _powerset_frame(succ: list[int], name: str = "") -> FiniteAlgebra:
    """The powerset algebra of the frame where point x sees ``succ[x]``."""
    masks, index, order, _ = powerset(len(succ))
    box, dia = _modal_masks(succ, masks)
    return FiniteAlgebra(len(masks), order, tuple(index[m] for m in box),
                         tuple(index[m] for m in dia), name)


@lru_cache(maxsize=1024)
def _nameless_envelope(A: FiniteAlgebra) -> tuple[ModalAlgebra, tuple[int, ...]]:
    """The envelope without names: the cache is keyed on A's value, which
    ignores its name, so a cached name would be the first caller's."""
    X = dual_space(A)
    k = len(X.points)
    if k > MAX_POINTS:
        raise BudgetError(f"envelope over {k} points exceeds the {MAX_POINTS}-point cap")
    M = _powerset_frame([_mask(row) for row in X.R])
    _, index, _, complement = powerset(k)
    mapping = tuple(index[_mask(a in f for f in X.points)] for a in range(A.size))
    return ModalAlgebra(M, complement), mapping


# the statistics of the value-keyed cache behind the public function
boolean_envelope.cache_info = _nameless_envelope.cache_info


def complex_algebra(n_worlds: int, relation, name: str = "") -> FiniteAlgebra:
    """Full powerset algebra of the frame ({0..n_worlds-1}, relation), where
    `relation` is an iterable of (x, y) pairs of worlds: x sees y."""
    if n_worlds > MAX_POINTS:
        raise BudgetError(f"{n_worlds} worlds exceeds the {MAX_POINTS}-world cap")
    return _powerset_frame(_successors(n_worlds, relation), name)


def _successors(n: int, relation) -> list[int]:
    """Each world's successors as a mask, from the pairs of `relation`."""
    if n < 0:
        raise PreconditionError(f"{n} worlds: the count must be >= 0")
    succ = [0] * n
    for pair in relation:
        try:
            x, y = pair
        except (TypeError, ValueError):
            raise PreconditionError(f"{pair!r} is not a pair of worlds") from None
        if not all(isinstance(w, int) and 0 <= w < n for w in (x, y)):
            raise PreconditionError(f"pair ({x!r}, {y!r}) is not between two of the {n} worlds")
        succ[x] |= 1 << y
    return succ


class _Frame:
    """The carrier of the frame where world x sees ``succ[x]``: a value is
    the mask of the worlds where it holds."""

    meet, join = staticmethod(and_), staticmethod(or_)

    def __init__(self, succ: list[int]):
        self.succ = succ

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return (1 << len(self.succ)) - 1

    def box(self, v: int) -> int:
        return sum(1 << x for x, s in enumerate(self.succ) if s & ~v == 0)

    def dia(self, v: int) -> int:
        return sum(1 << x for x, s in enumerate(self.succ) if s & v)


def kripke_eval(n_worlds: int, relation, t: Term,
                asg: dict[str, frozenset[int]]) -> frozenset[int]:
    """Evaluate a term directly over a frame, without materializing the
    powerset algebra.  Used for growth experiments on larger frames."""
    frame = _Frame(_successors(n_worlds, relation))
    for v, ws in asg.items():
        if not all(isinstance(x, int) and 0 <= x < n_worlds for x in ws):
            raise PreconditionError(f"{v} = {set(ws)!r} is not a set of the {n_worlds} worlds")
    env = {v: _mask(x in ws for x in range(n_worlds)) for v, ws in asg.items()}
    return frozenset(_bits(evaluate(t, env, frame)))


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
    cons = {theta.blocks for theta in con_lattice(A)}
    filters = open_filters(M)
    images = []
    for f in filters:
        fset = set(f)
        pairs = [(a, b) for a in range(A.size) for b in range(a + 1, A.size)
                 if iff(M, a, b) in fset]
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
