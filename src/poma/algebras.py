"""Finite positive modal algebras: carrier, axiom checks, canonical JSON format.

An algebra is a finite bounded distributive lattice together with two unary
operator tables (`box`, `diamond`).  The order matrix is the single source of
truth; what is derived from it lives in a :class:`Lattice`, derived once per
distinct order and shared by every algebra on it.  Construction only rejects
*structurally* malformed input (wrong shapes, out-of-range entries); axiom
failures are reported by :func:`validate`, never raised.
"""
from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice
from typing import Iterator, Optional

from .errors import BudgetError, PreconditionError, StructuralError

BoolMatrix = tuple[tuple[bool, ...], ...]

MAX_UPSETS = 1 << 16    # as many upsets as a 16-point frame can have


def _freeze_matrix(rows) -> BoolMatrix:
    return tuple(tuple(map(bool, row)) for row in rows)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(row) -> int:
    """The set bits of a boolean row."""
    return sum(1 << j for j, v in enumerate(row) if v)


def _budgeted(items, limit: int, message: str) -> tuple:
    """The items as a tuple, counted as they come: once they pass ``limit``,
    BudgetError with ``message`` and ``partial`` limit + 1."""
    found = tuple(islice(items, limit + 1))
    if len(found) > limit:
        raise BudgetError(message, partial=len(found))
    return found


_UNKNOWN = object()


class Lattice:
    """An order matrix with everything derived from it.  Build it through
    :meth:`of`, which interns one per distinct order while an algebra holds it.

    ``up[i]``/``down[i]`` are the bitmasks of the elements above/below i;
    ``by_up``/``by_down`` map them back to i, so a mask is a principal filter
    (ideal) iff it is a key.
    ``lower_covers[k]`` is the unique lower cover of ``join_irreducibles[k]``;
    ``join_masks[i]`` has bit k set when ``join_irreducibles[k]`` <= i.
    ``defect`` is None for a bounded lattice, else ``(code, witness)`` of the
    first failed check in the order reflexive, antisymmetric, transitive,
    bottom, top, then meet before join for each index pair i <= j; the
    tables, bounds, cone maps and irreducibles are then None.  The
    distributivity witness is found on first use, and so is the ``dual``
    slot, the operator-free half of the prime-filter frame (None until then).
    """

    __slots__ = ("size", "leq", "up", "down", "by_up", "by_down", "defect", "meet", "join",
                 "bottom", "top", "join_irreducibles", "lower_covers", "join_masks",
                 "meet_irreducibles", "_distributivity", "dual", "__weakref__")

    _interned = weakref.WeakValueDictionary()      # order matrix -> Lattice

    @classmethod
    def of(cls, leq: BoolMatrix) -> "Lattice":
        lattice = cls._interned.get(leq)
        if lattice is None:
            lattice = cls._interned[leq] = cls(leq)
        return lattice

    def __init__(self, leq: BoolMatrix):
        n = len(leq)
        self.size, self.leq = n, leq
        self.up = tuple(map(_mask, leq))
        self.down = tuple(map(_mask, zip(*leq)))
        self.meet = self.join = self.by_up = self.by_down = self.bottom = self.top = None
        self.join_irreducibles = self.lower_covers = self.meet_irreducibles = self.join_masks = None
        self._distributivity, self.dual = _UNKNOWN, None
        self.defect = self._derive()

    def _derive(self) -> Optional[tuple[str, tuple[int, ...]]]:
        n, up, down = self.size, self.up, self.down
        for i in range(n):
            if not up[i] >> i & 1:
                return "order-reflexive", (i,)
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                return "order-antisymmetric", (i, next(_bits(both)))
        for i in range(n):
            for j in _bits(up[i]):
                beyond = up[j] & ~up[i]
                if beyond:
                    return "order-transitive", (i, j, next(_bits(beyond)))
        full = (1 << n) - 1
        if full not in up:
            return "lattice-bottom", ()
        if full not in down:
            return "lattice-top", ()
        # meet(i, j) is the element whose down mask is down[i] & down[j]: in
        # a partial order an element is fixed by its down (up) mask
        by_down = {d: k for k, d in enumerate(down)}
        by_up = {u: k for k, u in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            down_i, up_i = down[i], up[i]
            for j in range(i, n):
                m = by_down.get(down_i & down[j])
                if m is None:
                    return "lattice-meet", (i, j)
                k = by_up.get(up_i & up[j])
                if k is None:
                    return "lattice-join", (i, j)
                meet[i][j] = meet[j][i] = m
                join[i][j] = join[j][i] = k
        self.meet = tuple(map(tuple, meet))
        self.join = tuple(map(tuple, join))
        self.by_up, self.by_down, self.bottom, self.top = by_up, by_down, by_up[full], by_down[full]
        # exactly one lower (upper) cover: the strict down (up) set has a
        # greatest (least) element
        self.join_irreducibles = tuple(
            j for j in range(n) if (down[j] & ~(1 << j)) in by_down)
        self.lower_covers = tuple(
            by_down[down[j] & ~(1 << j)] for j in self.join_irreducibles)
        self.join_masks = tuple(_mask(d >> j & 1 for j in self.join_irreducibles) for d in down)
        self.meet_irreducibles = tuple(
            m for m in range(n) if (up[m] & ~(1 << m)) in by_up)
        return None

    def distributivity_witness(self) -> Optional[tuple[int, int, int]]:
        """The first (a, b, c) in index order with a ∧ (b ∨ c) ≠ (a ∧ b) ∨
        (a ∧ c); None when the lattice is distributive.  Computed once.

        Birkhoff's criterion decides first, from n^2 joins: the lattice is
        distributive iff J(a ∨ b) = J(a) ∪ J(b) for all a, b, where J(x),
        held in ``join_masks[x]``, is the set of join-irreducibles below x.
        J preserves meets and is injective, as x is the join of J(x); if it
        maps joins to unions it embeds the lattice in a powerset.  Conversely,
        if the lattice is distributive, j <= a ∨ b gives j = (j ∧ a) ∨ (j ∧ b),
        so a join-irreducible j is below a or b.  Only a lattice that fails
        the criterion runs the n^3 search for the first triple."""
        if self._distributivity is _UNKNOWN:
            meet, join, masks = self.require().meet, self.join, self.join_masks
            if all(masks[ab] == ma | mb for ma, row in zip(masks, join)
                   for ab, mb in zip(row, masks)):
                self._distributivity = None
            else:
                rng = range(self.size)
                self._distributivity = next(
                    (a, b, c) for a in rng for b in rng for c in rng
                    if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]])
        return self._distributivity

    def require(self) -> "Lattice":
        """This lattice; StructuralError when the order is not a bounded lattice."""
        if self.defect is not None:
            code, witness = self.defect
            raise StructuralError(f"not a bounded lattice: {code} at {witness}")
        return self


def downset_masks(leq: BoolMatrix) -> list[int]:
    """All downsets of the relation as bitmasks, sorted by (cardinality,
    sorted contents).  The upsets of ``leq`` are the downsets of its transpose."""
    return closed_masks(map(_mask, zip(*leq)))


def closed_masks(down) -> list[int]:
    """The masks m holding ``down[x]`` for each x in m, in downset_masks order:
    the unions of what each point reaches.  They are counted as they are
    listed: BudgetError past ``MAX_UPSETS``."""
    masks = _budgeted(_unions(_reach(down)), MAX_UPSETS,
                      f"frame exceeds the {MAX_UPSETS:,}-upset budget")
    return sorted(masks, key=_mask_key)


def _mask_key(mask: int) -> tuple[int, list[int]]:
    """The order of mask carriers: by cardinality, then by sorted contents."""
    return mask.bit_count(), list(_bits(mask))


def _order_of(n: int, pairs) -> BoolMatrix:
    """The reflexive-transitive closure of the pairs (x, y), x <= y, on n points."""
    up = _reach([sum(1 << y for x, y in pairs if x == k) for k in range(n)])
    return tuple(tuple(bool(u >> j & 1) for j in range(n)) for u in up)


def _covers(near, far, x: int) -> list[int]:
    """The y != x in ``near[x]`` with no third point of ``near[x]`` in ``far[y]``,
    ascending: what covers x for a relation's up/down masks, what x covers for down/up."""
    strict = near[x] & ~(1 << x)
    return [y for y in _bits(strict) if not far[y] & strict & ~(1 << y)]


def _reach(edges) -> tuple[int, ...]:
    """For each x, the mask of x and of everything it reaches along the
    edges x -> ``edges[x]`` (Warshall's transitive closure)."""
    reach = [e | 1 << x for x, e in enumerate(edges)]
    for i, via in enumerate(reach):
        for k, mask in enumerate(reach):
            if mask >> i & 1:
                reach[k] = mask | via
    return tuple(reach)


def _unions(family) -> Iterator[int]:
    """Every union of members of the family once, the empty union 0 first,
    then one pass per member over the unions found so far.  A member that
    is already one of them is skipped: its pass would find nothing new.  A
    member is read only once the unions of the one before are all yielded,
    so the family may grow while it is read, as ``free_over``'s does."""
    found, seen = [0], {0}
    yield 0
    for g in family:
        if g not in seen:
            for i in range(len(found)):
                mask = found[i] | g
                if mask not in seen:
                    seen.add(mask)
                    found.append(mask)
                    yield mask


@dataclass(frozen=True)
class FiniteAlgebra:
    """Carrier with elements ``0..size-1``; ``leq[i][j]`` iff ``i <= j``."""

    size: int
    leq: BoolMatrix
    box: tuple[int, ...]
    diamond: tuple[int, ...]
    name: str = field(default="", compare=False)
    lattice: Lattice = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.size
        if type(n) is not int or n < 1:     # a bool would print as true
            raise StructuralError(f"size must be an int >= 1, not {n!r}")
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise StructuralError("leq must be a size x size matrix")
        for table, label in ((self.box, "box"), (self.diamond, "diamond")):
            if len(table) != n:
                raise StructuralError(f"{label} table must have {n} entries")
            for v in table:
                if type(v) is not int or not 0 <= v < n:
                    raise StructuralError(f"{label} table entry {v!r} out of range")
        object.__setattr__(self, "lattice", Lattice.of(self.leq))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def make(cls, leq, box, diamond, name: str = "") -> "FiniteAlgebra":
        rows = _freeze_matrix(leq)
        return cls(len(rows), rows, tuple(box), tuple(diamond), name)

    @classmethod
    def from_dict(cls, obj: dict) -> "FiniteAlgebra":
        try:
            size = obj["size"]
            leq = obj["leq"]
            box = obj["box"]
            diamond = obj["diamond"]
        except (KeyError, TypeError) as exc:
            raise StructuralError(f"missing key in algebra object: {exc}")
        if type(size) is not int or not isinstance(leq, list) or len(leq) != size:
            raise StructuralError("size does not match leq matrix")
        try:    # booleans or truthy entries would print unlike the equal algebra
            valid = {*map(type, chain(*leq, box, diamond))} <= {int} and {*chain(*leq)} <= {0, 1}
        except TypeError:
            valid = False
        if not valid:
            raise StructuralError("leq entries must be 0 or 1 and table entries integers")
        name = obj.get("name", "")
        if not isinstance(name, str):
            raise StructuralError("name must be a string")
        return cls.make(leq, box, diamond, name)

    @classmethod
    def from_json(cls, text: str) -> "FiniteAlgebra":
        return cls.from_dict(json.loads(text))

    # -- canonical serialization ---------------------------------------------

    def to_dict(self) -> dict:
        obj = {
            "size": self.size,
            "leq": [[1 if x else 0 for x in row] for row in self.leq],
            "box": list(self.box),
            "diamond": list(self.diamond),
        }
        if self.name:
            obj["name"] = self.name
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    # -- lattice structure ---------------------------------------------------

    # the tables are None when the order is not a bounded lattice
    def meet(self, x: int, y: int) -> int:
        try:
            return self.lattice.meet[x][y]
        except TypeError:
            self.lattice.require()
            raise

    def join(self, x: int, y: int) -> int:
        try:
            return self.lattice.join[x][y]
        except TypeError:
            self.lattice.require()
            raise

    def bottom(self) -> int:
        return self.lattice.require().bottom

    def top(self) -> int:
        return self.lattice.require().top

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (x, y) with y covering x, for Hasse-diagram output."""
        up, down = self.lattice.up, self.lattice.down
        return [(x, y) for x in range(self.size) for y in _covers(up, down, x)]

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(self.size, self.leq, self.box, self.diamond, name)

    def __repr__(self):
        label = self.name or f"algebra<{self.size}>"
        return f"FiniteAlgebra({label}, size={self.size})"


@dataclass(frozen=True)
class ModalAlgebra:
    """A Boolean-complemented algebra: positive carrier plus complement table."""

    algebra: FiniteAlgebra
    complement: tuple[int, ...]

    def __post_init__(self):
        A = self.algebra
        if len(self.complement) != A.size:
            raise StructuralError("complement table has wrong length")
        lat = A.lattice
        if lat.defect is None:
            for x, c in enumerate(self.complement):
                if lat.meet[x][c] != lat.bottom or lat.join[x][c] != lat.top:
                    raise StructuralError(f"element {x} is not complemented by {c}")


@dataclass(frozen=True)
class ValidationReport:
    is_bounded_lattice: bool
    is_distributive: bool
    is_pma: bool
    is_pk4: bool
    is_ps4: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def flag(self, kind: str) -> bool:
        return {"PMA": self.is_pma, "PK4": self.is_pk4, "PS4": self.is_ps4}[kind]


@lru_cache(maxsize=None)
def validate(A: FiniteAlgebra) -> ValidationReport:
    """Exhaustively check the lattice and operator axioms.

    Flags are cumulative: ps4 implies pk4 implies pma.  Every false flag is
    justified by at least one recorded violation, and each violation names
    the first offending tuple in index order.
    """
    violations: list[tuple[str, tuple[int, ...]]] = []
    lat = A.lattice
    if lat.defect is not None:
        violations.append(lat.defect)
        return ValidationReport(False, False, False, False, False, tuple(violations))

    rng = range(A.size)
    meet, join, leq = lat.meet, lat.join, A.leq
    box, dia = A.box, A.diamond

    witness = lat.distributivity_witness()
    distributive = witness is None
    if not distributive:
        violations.append(("distributivity", witness))

    def holds(code, failures) -> bool:
        """Record the first of the failing tuples, generated in index order."""
        first = next(failures, None)
        if first is not None:
            violations.append((code, first))
        return first is None

    top, bot = lat.top, lat.bottom
    pma = True
    if box[top] != top:
        violations.append(("box-top", (top,)))
        pma = False
    if dia[bot] != bot:
        violations.append(("diamond-bottom", (bot,)))
        pma = False
    pma &= holds("box-meet", ((a, b) for a in rng for b in rng
                              if box[meet[a][b]] != meet[box[a]][box[b]]))
    pma &= holds("diamond-join", ((a, b) for a in rng for b in rng
                                  if dia[join[a][b]] != join[dia[a]][dia[b]]))
    pma &= holds("box-diamond-meet", ((a, b) for a in rng for b in rng
                                      if not leq[meet[box[a]][dia[b]]][dia[meet[a][b]]]))
    pma &= holds("box-diamond-join", ((a, b) for a in rng for b in rng
                                      if not leq[box[join[a][b]]][join[box[a]][dia[b]]]))
    pma = pma and distributive

    pk4 = pma
    if pma:
        pk4 &= holds("box-transitive", ((a,) for a in rng if not leq[box[a]][box[box[a]]]))
        pk4 &= holds("diamond-transitive", ((a,) for a in rng if not leq[dia[dia[a]]][dia[a]]))

    ps4 = pk4
    if pk4:
        ps4 &= holds("box-decreasing", ((a,) for a in rng if not leq[box[a]][a]))
        ps4 &= holds("diamond-increasing", ((a,) for a in rng if not leq[a][dia[a]]))

    return ValidationReport(True, distributive, bool(pma), bool(pk4), bool(ps4),
                            tuple(violations))


def _require_kind(A: FiniteAlgebra, kind: str, purpose: str) -> ValidationReport:
    """A's report; PreconditionError unless A is a ``kind`` algebra."""
    if not (rep := validate(A)).flag(kind):
        raise PreconditionError(f"{purpose} needs a {kind} algebra")
    return rep


# spec-level operation aliases -------------------------------------------------

def meet(A: FiniteAlgebra, x: int, y: int) -> int:
    return A.meet(x, y)


def join(A: FiniteAlgebra, x: int, y: int) -> int:
    return A.join(x, y)


def bottom(A: FiniteAlgebra) -> int:
    return A.bottom()


def top(A: FiniteAlgebra) -> int:
    return A.top()


def is_pma(A: FiniteAlgebra) -> bool:
    return validate(A).is_pma


def is_pk4(A: FiniteAlgebra) -> bool:
    return validate(A).is_pk4


def is_ps4(A: FiniteAlgebra) -> bool:
    return validate(A).is_ps4


def chain_order(n: int) -> BoolMatrix:
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))


def subset_order(masks) -> BoolMatrix:
    """Inclusion order on a family of bitmasks: a <= b iff a & ~b is 0."""
    outside = [~b for b in masks]
    return tuple([tuple([not a & o for o in outside]) for a in masks])


@lru_cache(maxsize=9)           # up to 8 atoms: the cap of duality.MAX_POINTS
def powerset(n_atoms: int) -> tuple[tuple[int, ...], dict[int, int], BoolMatrix, tuple[int, ...]]:
    """The subsets of an n_atoms set as bitmasks sorted by (cardinality,
    value), their index, their inclusion order and the complement table: one
    copy shared by every powerset carrier on n_atoms atoms."""
    masks = tuple(sorted(range(1 << n_atoms), key=lambda m: (m.bit_count(), m)))
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << n_atoms) - 1
    return masks, index, subset_order(masks), tuple(index[full ^ m] for m in masks)
