"""Finite duality: prime-filter spaces, upset algebras, the Boolean envelope,
complex algebras of frames, frame-level term evaluation, open filters, and the
p-morphism predicate.  Each algebra's prime-filter frame is computed once, on
bitmasks, and shared by dual_space, kappa and the envelope.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_

from .algebras import (MAX_UPSETS, BoolMatrix, FiniteAlgebra, Lattice, ModalAlgebra, _bits,
                       _mask, _mask_key, _reach, closed_masks, powerset, subset_order,
                       validate)
from .congruences import Partition, con_lattice
from .errors import BudgetError, PreconditionError, _check_count, _check_elements, _check_pairs
from .morphisms import Hom
from .terms import Term, evaluate

MAX_POINTS = 8          # powerset carriers beyond 2^8 elements are refused


def join_irreducibles(A: FiniteAlgebra) -> list[int]:
    """Elements with exactly one lower cover (excludes the bottom)."""
    return list(A.lattice.require().join_irreducibles)


def _order_frame(lat: Lattice) -> tuple:
    """The half of the prime-filter frame that box and diamond do not touch,
    kept in the lattice's ``dual`` slot: the filters as element masks in
    :func:`prime_filters` order, ``up[i]``/``down[i]`` the filters holding/held
    by filter i, ``point[a]`` those holding a, and the upsets' :func:`_upset_list`,
    lattice (kappa's target order: it may be this one, a cycle the collector
    frees) and a -> index[point[a]] (None unless the lattice is distributive)."""
    if lat.dual is None:
        filters = tuple(sorted((lat.up[j] for j in lat.join_irreducibles), key=_mask_key))
        up = tuple(_mask(f & g == f for g in filters) for f in filters)
        down = tuple(_mask(f & g == g for g in filters) for f in filters)
        point = tuple(_mask(f >> a & 1 for f in filters) for a in range(lat.size))
        upsets = None
        if lat.distributivity_witness() is None:
            masks, index = _upset_list(up)
            upsets = masks, index, Lattice.of(subset_order(masks)), tuple(index[m] for m in point)
        lat.dual = filters, up, down, point, upsets
    return lat.dual


@lru_cache(maxsize=1024)
def _frame(A: FiniteAlgebra) -> tuple[tuple, tuple[int, ...] | None]:
    """The prime-filter frame on bitmasks: :func:`_order_frame` of A's lattice,
    and ``succ[i]`` the filters that filter i sees (None unless A is a PMA)."""
    filters, _, _, point, _ = half = _order_frame(A.lattice.require())
    if not validate(A).is_pma:
        return half, None
    # i sees j when box^-1 f_i <= f_j <= diamond^-1 f_i: f_j holds every a whose
    # box is in f_i and no a whose diamond is not
    succ = []
    for i in range(len(filters)):
        s = (1 << len(filters)) - 1
        for a, p in enumerate(point):
            if point[A.box[a]] >> i & 1:
                s &= p
            if not point[A.diamond[a]] >> i & 1:
                s &= ~p
        succ.append(s)
    return half, tuple(succ)


def _pma_frame(A: FiniteAlgebra) -> tuple[tuple, tuple[int, ...]]:
    """The frame of a positive modal algebra; PreconditionError for any other."""
    if A.lattice.defect is None and (frame := _frame(A))[1] is not None:
        return frame
    raise PreconditionError("dual spaces are defined for positive modal algebras")


def prime_filters(A: FiniteAlgebra) -> tuple[frozenset[int], ...]:
    """All prime filters: the principal upsets of join-irreducible elements,
    sorted by (cardinality, contents)."""
    return tuple(frozenset(_bits(f)) for f in _frame(A)[0][0])


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


def dual_space(A: FiniteAlgebra) -> DualSpace:
    (_, up, *_), succ = _pma_frame(A)
    rows = [tuple(tuple(bool(r >> j & 1) for j in range(len(up))) for r in m) for m in (up, succ)]
    return DualSpace(prime_filters(A), *rows)


def _modal_tables(succ: list[int], masks, index: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """Box and diamond as index tables over ``masks`` on the frame where x sees
    ``succ[x]``, one pass per mask: box m holds the points whose successors all
    lie in m, diamond m those with a successor in m (KeyError if not indexed)."""
    box, dia = [], []
    for m in masks:
        b = d = 0
        for x, s in enumerate(succ):
            if s & m:
                d |= 1 << x
            if not s & ~m:
                b |= 1 << x
        box.append(index[b])
        dia.append(index[d])
    return tuple(box), tuple(dia)


def _require_square(X: DualSpace) -> int:
    """The number n of X's points; PreconditionError unless ``leq`` and ``R``
    are n x n matrices."""
    n = len(X.points)
    if any(len(m) != n or any(len(row) != n for row in m) for m in (X.leq, X.R)):
        raise PreconditionError(f"leq and R must be {n} x {n} matrices over the points")
    return n


def _upsets(X: DualSpace):
    """:func:`_upset_masks` of a space given by its matrices, once they are
    square over its points and ``leq`` is reflexive and transitive."""
    _require_square(X)
    up = tuple(map(_mask, X.leq))
    if _reach(up) != up:
        raise PreconditionError("leq is not reflexive and transitive")
    return _upset_masks(up, list(map(_mask, zip(*X.leq))), list(map(_mask, X.R)))


def _upset_list(up) -> tuple[list[int], dict[int, int]]:
    """The upsets of the order where x is below ``up[x]`` as point masks in
    :func:`downset_masks` order, and their index: BudgetError past ``MAX_UPSETS``."""
    masks = closed_masks(up)
    return masks, {m: i for i, m in enumerate(masks)}


def _upset_masks(up, down, succ, upsets=None) -> tuple[list[int], dict[int, int], tuple, tuple]:
    """Check the frame where x is below ``up[x]``, above ``down[x]`` and sees
    ``succ[x]`` as :func:`check_kplus` documents, then return its upsets and their
    index (``upsets``, else :func:`_upset_list`), and box and diamond as index tables."""
    for s in succ:
        above = below = 0
        for z in _bits(s):
            above |= up[z]
            below |= down[z]
        if above & below != s:
            raise PreconditionError("relation is not order-compatible")
    masks, index = upsets or _upset_list(up)
    try:
        return masks, index, *_modal_tables(succ, masks, index)
    except KeyError:
        raise PreconditionError("upsets are not closed under the modal operators") from None


def check_kplus(X: DualSpace) -> None:
    """Finite-scale compatibility conditions on an ordered frame: the
    accessibility relation must equal the intersection of its two order
    compositions, and the modal operators must map upsets to upsets."""
    _upsets(X)


def upset_algebra(X: DualSpace) -> FiniteAlgebra:
    """Algebra of all upsets of the space under intersection/union with the
    relational operators.  The space is checked for compatibility first."""
    masks, _, box, dia = _upsets(X)
    return FiniteAlgebra(len(masks), subset_order(masks), box, dia)


def kappa(A: FiniteAlgebra) -> Hom:
    """Representation map sending a to the set of prime filters containing it;
    the target is the upset algebra of the dual space."""
    (_, up, down, _, (masks, index, target, image)), succ = _pma_frame(A)
    _, _, box, dia = _upset_masks(up, down, succ, (masks, index))
    return Hom(A, FiniteAlgebra(len(masks), target.leq, box, dia), image)


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


def _powerset_frame(succ: list[int]) -> FiniteAlgebra:
    """The powerset algebra of the frame where point x sees ``succ[x]``."""
    masks, index, order, _ = powerset(len(succ))
    return FiniteAlgebra(len(masks), order, *_modal_tables(succ, masks, index))


@lru_cache(maxsize=1024)
def _nameless_envelope(A: FiniteAlgebra) -> tuple[ModalAlgebra, tuple[int, ...]]:
    """The envelope without names: the cache is keyed on A's value, which
    ignores its name, so a cached name would be the first caller's."""
    (*_, point, _), succ = _pma_frame(A)
    k = len(succ)
    if k > MAX_POINTS:
        raise BudgetError(f"envelope over {k} points exceeds the {MAX_POINTS}-point cap")
    _, index, _, complement = powerset(k)
    return ModalAlgebra(_powerset_frame(succ), complement), tuple(index[m] for m in point)


# the statistics of the value-keyed caches behind the public functions
boolean_envelope.cache_info = _nameless_envelope.cache_info
prime_filters.cache_info = _frame.cache_info


def complex_algebra(n_worlds: int, relation) -> FiniteAlgebra:
    """Full powerset algebra of the frame ({0..n_worlds-1}, relation), where
    `relation` is an iterable of (x, y) pairs of worlds: x sees y."""
    _check_count(n_worlds, "worlds", "count")
    if n_worlds > MAX_POINTS:
        raise BudgetError(f"{n_worlds} worlds exceeds the {MAX_POINTS}-world cap")
    return _powerset_frame(_successors(n_worlds, relation))


def _successors(n: int, relation) -> list[int]:
    """Each world's successors as a mask, from the pairs of `relation`."""
    _check_count(n, "worlds", "count")
    succ = [0] * n
    for x, y in _check_pairs(relation, n, "world"):
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
        return _mask(s & ~v == 0 for s in self.succ)

    def dia(self, v: int) -> int:
        return _mask(s & v for s in self.succ)


def kripke_eval(n_worlds: int, relation, t: Term,
                asg: dict[str, frozenset[int]]) -> frozenset[int]:
    """Evaluate a term directly over a frame, without materializing the
    powerset algebra.  Used for growth experiments on larger frames."""
    frame = _Frame(_successors(n_worlds, relation))
    for ws in asg.values():
        _check_elements(ws, n_worlds, "world")
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
    open filters and congruences.  In a Boolean algebra g <= not a or b iff
    g meet a <= b, so a <-> b lies in the filter above g iff a meet g =
    b meet g, and the image of F is keyed by a meet g for g the least element
    of F.  PreconditionError unless the lattice is distributive, so Boolean."""
    A = M.algebra
    lat = A.lattice.require()
    if lat.distributivity_witness() is not None:
        raise PreconditionError("the open-filter check needs a Boolean algebra")
    cons = {theta.blocks for theta in con_lattice(A)}
    filters = open_filters(M)
    images = []
    for f in filters:
        g = lat.by_up[sum(1 << a for a in f)]
        images.append(Partition.from_block_ids([lat.meet[a][g] for a in range(A.size)]))
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
    nx, ny = _require_square(X), _require_square(Y)
    if len(f) != nx:
        raise PreconditionError(f"{f!r} does not send each of the {nx} points to one of {ny}")
    _check_elements(f, ny, "point")
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
    source's; PreconditionError unless h is a homomorphism of PMAs."""
    target, source = _pma_frame(h.target)[0][0], _pma_frame(h.source)[0][0]
    if not h.is_valid():
        raise PreconditionError("the map is not a homomorphism")
    return tuple(source.index(_mask(g >> b & 1 for b in h.mapping)) for g in target)
