"""Exhaustive generation, up to isomorphism, of finite posets, bounded
distributive lattices, and their PMA/PK4/PS4 operator expansions.

Lattices are generated through their posets of join-irreducibles (a finite
bounded distributive lattice is the downset lattice of that poset), built
level by level, one new maximal element at a time.  Each walk is pruned at
the largest lattice it serves: ``enum_bdl(n)`` and the enumeration of size n
each walk once, and the walk keeps each poset's downsets, so a child's
downsets are counted, and listed if it is kept, from its parent's.  The
canonical-form search that names each poset also finds Aut(P), and Aut(L)
of its downset lattice is induced from it.  PS4 operator pairs are generated
from pairs of 0,1-sublattices of fixed points; PMA/PK4 operator tables are
the monotone maps on the meet- resp. join-irreducible elements, which
determine every meet- (join-) preserving table over a distributive lattice,
generated in the order in which folding every value assignment first finds
them.

Each isomorphism class is found once.  The lattices are pairwise
non-isomorphic, and two algebras on one lattice L are isomorphic exactly when
an automorphism of L conjugates one operator pair into the other; so the
classes on L are the Aut(L)-orbits of operator pairs, and the first pair of
each orbit is the only one checked.  Automorphisms preserve the axioms and
every equation, so the conjugates of a checked pair are skipped whether it
passed or failed.  Each automorphism s permutes the box tables and the
diamond tables (both lists are closed under conjugation), and pairs are
ordered by box index, then diamond index; so (b, d) is the first of its
orbit exactly when every s has s b > b, or s b = b and s d >= d.  Box b
thus opens a run only when no s sends it to a smaller index, and its run
keeps each d that every s fixing b sends to an index >= d.

A task's equations are the first test, run on the operator tables with
``terms.evaluate`` before any algebra is built.  An equation that does not
mention the diamond filters the box tables once per lattice, one that
mentions only the diamond filters the diamond tables, and one that mentions
both runs on each orbit representative; the mixed axioms run only on the
pairs that pass, and only the pairs that pass both become algebras, to be
validated and then, for output only, sorted by canonical form.  The output
is the full list filtered, in order.  An equation holds or fails alike on a
pair and on its conjugates under Aut(L), so each table filter removes whole
orbits; each filter keeps the relative order of the tables, and the orbit
representatives are all chosen before any mixed test runs, so every
surviving orbit keeps the same first pair as its representative.  Sorting
a subset by an injective key keeps its order.  The SI and FSI tests then
run on each size as it is produced.  Callers that only count or check the
algebras skip the sort, a canonical-form search per algebra.  Sorted
slices live in a bounded in-memory cache, one entry per kind, size and
equations; a JSON-lines cache on disk always holds the full, unfiltered
slice.

An equation that mentions both operators is hoisted once per size: each
maximal subterm without the diamond, and each maximal one without the box,
becomes a fresh variable of a skeleton.  Evaluation is compositional, so
the skeleton, with each fresh variable bound to the values of its subterm,
has the values of the equation; and a subterm without the diamond has the
same values on every pair that shares a box table (dually for the box).  So
per block of assignments the diamond-side values are computed once per
diamond table, the box-side values once per box, and the skeleton once per
slice of a run, its pairs laid side by side in one vector (box-side values
repeated, diamond-side ones concatenated, each coordinate reading its own
pair's diamond): the pairs kept are exactly those a full evaluation keeps.
The skeleton's leaves are all fresh variables, evaluated in an environment
of their own, so no name of the equation can clash with them.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count, repeat
from operator import and_, eq, ge
from pathlib import Path
from typing import NamedTuple

from .algebras import BoolMatrix, FiniteAlgebra, _bits, _covers, _mask_key, subset_order, validate
from .congruences import is_fsi, is_si
from .errors import PomaError, _check_count
from .morphisms import SEARCH_CAP, _leaf_maps, _least_leaves, canonical_form, subuniverses
from .terms import (BLOCK, Equation, Term, Var, Vectors, assignment_blocks,
                    equation_variables, evaluate, holds_eq, term_kinds)

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
        _check_count(self.max_size, "max size", "bound", least=1)
        if not (isinstance(self.satisfying, tuple)
                and all(isinstance(e, Equation) for e in self.satisfying)):
            raise PomaError("satisfying must be a tuple of Equation objects")


# -- posets up to isomorphism --------------------------------------------------

def _poset_search(leq: BoolMatrix) -> tuple[tuple, list[tuple[int, ...]]]:
    """The canonical form of a poset and the least leaves of its search."""
    ident = tuple(range(len(leq)))
    return _least_leaves(len(leq), leq, ident, ident, SEARCH_CAP)


def canonical_poset(leq: BoolMatrix) -> tuple:
    return _poset_search(leq)[0]


def _extend_with_max(leq: BoolMatrix, down: int) -> BoolMatrix:
    """Add one new maximal element whose strict lower set is the given downset."""
    n = len(leq)
    rows = [list(row) + [bool(down >> i & 1)] for i, row in enumerate(leq)]
    rows.append([False] * n + [True])
    return tuple(tuple(row) for row in rows)


def _extend_downsets(downsets: list[int], down: int) -> list[int]:
    """The downsets of the poset extended by ``_extend_with_max(leq, down)``,
    in ``downset_masks`` order, from ``downsets``, those of ``leq`` in that
    order: a downset of the extension either omits the new element t, and is
    a downset of the old poset, or holds t and the downset ``down`` below it.
    So |D(P + t)| = |D(P)| + #{d in D(P) : down ⊆ d}."""
    new = downsets[-1] + 1                  # the bit of t: the last downset is all of P
    return sorted(downsets + [d | new for d in downsets if d & down == down], key=_mask_key)


class _Poset(NamedTuple):
    """A poset of the walk with its downsets, in ``downset_masks`` order,
    and the least leaves of its canonical-form search (one Aut(P)-orbit)."""
    leq: BoolMatrix
    downsets: list[int]
    leaves: list[tuple[int, ...]]


def _poset_levels(max_downsets: int | None):
    """The posets with 0, 1, 2, ... elements, up to isomorphism: one dict
    per size from canonical form to :class:`_Poset`, in the order found.
    Every poset is reached by repeatedly adding a new maximal element; when
    `max_downsets` is set, branches whose downset count already exceeds it are
    pruned (downset counts only grow), counted from the parent's downsets,
    and the levels stop at the first empty one.  The levels pruned at m are
    the restriction of those pruned at any m' > m, with the same matrices in
    the same order: the posets the looser walk adds, and all their
    descendants, have more than m downsets."""
    key, leaves = _poset_search(())
    level = {key: _Poset((), [0], leaves)}
    while level:
        yield level
        nxt: dict[tuple, _Poset] = {}
        for leq, downsets, _ in level.values():
            for down in downsets:
                if max_downsets is not None and len(downsets) + sum(
                        d & down == down for d in downsets) > max_downsets:
                    continue
                bigger = _extend_with_max(leq, down)
                key, leaves = _poset_search(bigger)
                if key not in nxt:
                    nxt[key] = _Poset(bigger, _extend_downsets(downsets, down), leaves)
        level = nxt


def enum_posets(k: int) -> list[BoolMatrix]:
    """All posets with exactly k elements, up to isomorphism, as order
    matrices sorted by canonical form."""
    _check_count(k, "poset size", "size")
    level = next(itertools.islice(_poset_levels(None), k, None))
    return [level[key].leq for key in sorted(level)]


def _downset_lattice(downsets: list[int]) -> FiniteAlgebra:
    """The lattice of the downsets, ordered by inclusion and indexed in the
    given order (a linear extension: it sorts by cardinality first), as an
    algebra with identity operators."""
    ident = tuple(range(len(downsets)))
    return FiniteAlgebra(len(downsets), subset_order(downsets), ident, ident)


def _lattice_automorphisms(poset: _Poset) -> list[tuple[int, ...]]:
    """Aut(D(P)) as sorted mappings x -> s[x], the identity first: the
    automorphisms of P, read off the least leaves as ``automorphisms`` reads
    them, each moving the downsets pointwise.  By Birkhoff's representation
    these are all the automorphisms of D(P): one permutes the join-irreducible
    downsets, the principal ones, keeping their order, so it restricts to an
    automorphism of P, and it is fixed by that restriction, as every downset
    is the join of the principal ones it holds."""
    index = {d: i for i, d in enumerate(poset.downsets)}
    found = []
    for s in _leaf_maps(poset.leaves):
        images = [1 << y for y in s]
        found.append(tuple(index[sum(images[x] for x in _bits(d))] for d in poset.downsets))
    return sorted(found)


@lru_cache(maxsize=None, typed=True)
def enum_bdl(max_size: int) -> tuple[FiniteAlgebra, ...]:
    """All bounded distributive lattices with at most max_size elements, up to
    isomorphism, as algebras with identity operators; sorted by size then
    canonical form.  A poset with k elements has at least k + 1 downsets, so
    the levels below max_size hold every poset needed, and the pruning keeps
    only those with at most max_size downsets.  Non-isomorphic posets have
    non-isomorphic downset lattices."""
    _check_count(max_size, "max size", "bound")
    found = [_downset_lattice(poset.downsets)
             for level in itertools.islice(_poset_levels(max_size), max_size)
             for poset in level.values()]
    return tuple(sorted(found, key=lambda L: (L.size, canonical_form(L))))


# -- operator tables -------------------------------------------------------------

def _interior_table(down, fixed) -> tuple[int, ...]:
    """The interior operator whose fixed points are ``fixed``, a 0,1-sublattice
    of the order whose down masks are ``down``: the greatest fixed point below
    each element.  The fixed points below a hold the bottom and are closed
    under joins, so they have a greatest member; and the elements are indexed
    in a linear extension of the order (as ``enum_bdl`` and ``figure1_algebra``
    list them), so that member is the highest bit of ``down[a]`` among them."""
    mask = sum(1 << c for c in fixed)
    return tuple((m & mask).bit_length() - 1 for m in down)


def _closure_table(up, fixed) -> tuple[int, ...]:
    """The closure operator whose fixed points are ``fixed``: the least fixed
    point above each element, the lowest bit of ``up[a]`` among them (dually)."""
    mask = sum(1 << c for c in fixed)
    return tuple((m & mask & -(m & mask)).bit_length() - 1 for m in up)


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


def _preserving_tables(L: FiniteAlgebra, dual: bool) -> list[tuple[int, ...]]:
    """All unary tables preserving binary meets and the top element, or with
    ``dual`` binary joins and the bottom, in the order of their
    lexicographically first value assignment on the meet-irreducibles M
    (join-irreducibles J), ascending by index, folded by meets (joins).
    The elements are indexed in a linear extension, as ``enum_bdl`` lists them.

    Over a distributive lattice such a table t is fixed by t|M: each a is the
    meet of the m in M above it (the top the empty meet), so t(a) is the meet
    of the t(m).  And t|M is monotone.  Conversely the fold of a monotone v,
    t(a) = ⋀{v(m) : a <= m}, preserves both, as each m is meet-prime (a ∧ b
    <= m gives a <= m or b <= m), and has t(m) = v(m).  So the tables are the
    folds of the monotone maps M -> L, generated here by choosing v(m) for m
    in index order (a linear extension of M) from the elements above s(m) =
    ⋁{v(m') : m' in M, m' < m}; dually for J.

    Box order.  Any v folding to t has v(m) >= t(m), so index v(m) >= index
    t(m), and t|M folds to t: t|M is the least such v in every coordinate,
    hence lexicographically first.  The elements above s(m) are taken in
    ascending index, so the maps come out in lexicographic order, which is
    the order of their tables' first assignments.

    Diamond order.  A v folds to t exactly when v(j) ∨ s(j) = t(j) for each
    j in J, with s(j) = ⋁{t(j') : j' in J, j' < j}: fold(v)(j) is v(j) joined
    with the fold at the j' < j, which by induction along the indices is
    s(j), and two join-preserving tables agreeing on J agree everywhere.  The
    coordinates are then chosen independently, so the first assignment to t
    is v*(j) = the least-index x with x ∨ s(j) = t(j).  Distinct values t(j)
    >= s(j) give distinct v*(j), so the elements above s(j) are taken in
    ascending order of that x, and the maps come out in lexicographic order
    of v*.  Plain t|J order differs on some lattices of size 9.

    Each table is then built column by column, all maps at once: t(a) = t(b)
    ∧ t(c) for two upper covers b, c of an a that is neither the top nor in
    M (dually, joins of two lower covers).  Such an a has at least two, and
    any two give b ∧ c = a, as a <= b ∧ c < b."""
    n, lat = L.size, L.lattice.require()
    join, up = lat.join, lat.up
    candidates = [list(_bits(m)) for m in up]          # above s, ascending
    if dual:
        irr, op, unit, near, far = lat.join_irreducibles, join, lat.bottom, lat.down, up
        for s, above in enumerate(candidates):
            least = {}
            for x in range(n):
                least.setdefault(join[x][s], x)
            above.sort(key=least.__getitem__)
        order = range(n)
    else:
        irr, op, unit, near, far = lat.meet_irreducibles, lat.meet, lat.top, up, lat.down
        order = range(n - 1, -1, -1)
    below = [[k for k in range(p) if up[irr[k]] >> irr[p] & 1] for p in range(len(irr))]
    maps = [()]
    for ks in below:
        grown = []
        for v in maps:
            s = lat.bottom
            for k in ks:
                s = join[s][v[k]]
            grown += [v + (x,) for x in candidates[s]]
        maps = grown
    columns = [None] * n
    columns[unit] = (unit,) * len(maps)
    for a, column in zip(irr, zip(*maps)):
        columns[a] = column
    for a in order:
        if columns[a] is None:
            b, c, *_ = _covers(near, far, a)
            columns[a] = [op[x][y] for x, y in zip(columns[b], columns[c])]
    return list(zip(*columns))


def _operator_tables(kind: str, L: FiniteAlgebra):
    """Candidate box and diamond tables of the kind on L.  A pair makes L an
    algebra of the kind exactly when the mixed axioms hold: PS4 pairs come
    from pairs of 0,1-sublattices of fixed points, PMA/PK4 pairs from the
    meet- and join-preserving tables (K4: transitive ones)."""
    if kind == "PS4":
        subs = subuniverses(L)      # the 0,1-sublattices: L has identity operators
        return ([_interior_table(L.lattice.down, s) for s in subs],
                [_closure_table(L.lattice.up, s) for s in subs])
    boxes, dias = _preserving_tables(L, dual=False), _preserving_tables(L, dual=True)
    if kind == "PK4":
        leq = L.leq
        boxes = [t for t in boxes if all(leq[t[a]][t[t[a]]] for a in range(L.size))]
        dias = [t for t in dias if all(leq[t[t[a]]][t[a]] for a in range(L.size))]
    return boxes, dias


def _conjugate(s: tuple[int, ...], table: tuple[int, ...]) -> tuple[int, ...]:
    """The unary operation ``table`` moved along the bijection s: s table s⁻¹."""
    out = [0] * len(s)
    for x, y in enumerate(table):
        out[s[x]] = s[y]
    return tuple(out)


def _kept(task: EnumerationTask, found) -> list[FiniteAlgebra]:
    """The algebras of one size that pass the task's SI and FSI filters, in order."""
    return [A for A in found
            if (not task.si_only or is_si(A)) and (not task.fsi_only or is_fsi(A))]


def enum_algebras(task: EnumerationTask, cache_dir: str | os.PathLike | None = None,
                  resume: bool = False) -> list[FiniteAlgebra]:
    """Enumerate all algebras of the given kind up to isomorphism, size by
    size, each size sorted by canonical form, optionally caching each full
    (kind, size) slice as a JSON-lines file.  Each size is filtered as it is
    produced.  The sort exists for output only (see ``_enumerate_size``);
    a caller that only counts or checks the algebras walks
    ``_in_search_order(task)``, the same algebras without it."""
    out: list[FiniteAlgebra] = []
    for size in range(1, task.max_size + 1):
        out += _kept(task, _algebras_of_size(task.kind, size, task.satisfying, cache_dir, resume))
    return out


def _in_search_order(task: EnumerationTask):
    """The algebras of ``enum_algebras(task)``, size by size, each size in
    search order: neither sorted by canonical form nor cached."""
    for size in range(1, task.max_size + 1):
        yield from _kept(task, _classes(task.kind, size, task.satisfying))


def default_cache_dir() -> Path:
    """``$POMA_CACHE`` when set, else ``~/.cache/poma``."""
    env = os.environ.get("POMA_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "poma"


def _cache_path(cache_dir, kind: str, size: int) -> Path:
    return Path(cache_dir) / f"{kind.lower()}_size{size}.jsonl"


CACHE_FORMAT = 1


def _cache_header(kind: str, size: int, body: list[str]) -> str:
    """The first line of a cache slice: it names the slice and pins its body."""
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    return json.dumps({"format": CACHE_FORMAT, "kind": kind, "size": size,
                       "count": len(body), "sha256": digest}, sort_keys=True)


def _read_cache(path: Path, kind: str, size: int) -> list[FiniteAlgebra]:
    """The algebras of a cache slice.  PomaError when the header does not
    match the body or an algebra is not one of the kind and size; OSError,
    ValueError or TypeError when the file cannot be read or parsed."""
    header, *body = path.read_text().splitlines() or [""]
    if header != _cache_header(kind, size, body):
        raise PomaError("header does not match kind, size, count or digest")
    algebras = [FiniteAlgebra.from_json(line) for line in body]
    if not all(A.size == size and validate(A).flag(kind) for A in algebras):
        raise PomaError(f"an algebra is not a {kind} algebra of size {size}")
    return algebras


def _write_cache(path: Path, kind: str, size: int, algebras) -> None:
    """Write a slice atomically: a temporary file, then a rename over path."""
    body = [A.to_json() for A in algebras]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join([_cache_header(kind, size, body), *body]) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _satisfies(A: FiniteAlgebra, equations: tuple[Equation, ...]) -> bool:
    return all(holds_eq(A, eq) for eq in equations)


def _algebras_of_size(kind: str, size: int, satisfying: tuple[Equation, ...],
                      cache_dir, resume: bool) -> tuple[FiniteAlgebra, ...]:
    if cache_dir is None:
        return _enumerate_size(kind, size, satisfying)
    path = _cache_path(cache_dir, kind, size)
    algebras = None
    if resume and path.exists():
        try:
            algebras = _read_cache(path, kind, size)
        except (OSError, ValueError, TypeError, PomaError) as exc:
            print(f"poma: ignoring cache {path}: {exc}; recomputing", file=sys.stderr)
    if algebras is None:
        algebras = _enumerate_size(kind, size, ())
        _write_cache(path, kind, size, algebras)
    return tuple(A for A in algebras if _satisfies(A, satisfying))


class _Hoisted(NamedTuple):
    """An equation that mentions both operators, as a skeleton over fresh
    variables and the one-operator subterms those variables stand for."""
    skeleton: Equation
    box_terms: tuple[tuple[str, Term], ...]     # subterms without the diamond
    dia_terms: tuple[tuple[str, Term], ...]     # subterms without the box


def _hoist(e: Equation) -> _Hoisted:
    """Replace each maximal subterm of e that does not mention the diamond,
    and each maximal one that mentions the diamond but not the box, by a
    fresh variable; equal subterms share one.  Every leaf of the skeleton is
    a fresh variable, so its names never meet the names of e."""
    names: dict[Term, str] = {}

    def walk(t: Term) -> Term:
        kinds = term_kinds(t)
        if "dia" in kinds and "box" in kinds:
            return Term(t.kind, tuple(map(walk, t.args)))
        if t not in names:
            names[t] = f"{'d' if 'dia' in kinds else 'b'}{len(names)}"
        return Var(names[t])

    skeleton = Equation(walk(e.lhs), walk(e.rhs))
    return _Hoisted(skeleton, *(tuple((name, t) for t, name in names.items() if name[0] == side)
                                for side in "bd"))


def _equation_checks(size: int, satisfying: tuple[Equation, ...]):
    """Each equation with its assignments to ``size`` elements, in blocks of
    :data:`terms.BLOCK` as (environment, length) pairs, sorted into the
    equations that do not mention the diamond, those that mention only the
    diamond, and those that mention both operators, hoisted."""
    box_only, dia_only, mixed = [], [], []
    for e in satisfying:
        blocks = [(env, len(block)) for block, env in
                  assignment_blocks(sorted(equation_variables(e)), size)]
        kinds = term_kinds(e.lhs) | term_kinds(e.rhs)
        if "dia" not in kinds:
            box_only.append((e, blocks))
        elif "box" not in kinds:
            dia_only.append((e, blocks))
        else:
            mixed.append((_hoist(e), blocks))
    return box_only, dia_only, mixed


def _tables_satisfy(lattice, box, dia, checks) -> bool:
    """Do the checked equations hold on the lattice with these operator
    tables?  A table an equation does not mention may be None."""
    for e, blocks in checks:
        for env, length in blocks:
            carrier = Vectors(repeat(lattice), repeat(box), repeat(dia), length)
            if evaluate(e.lhs, env, carrier) != evaluate(e.rhs, env, carrier):
                return False
    return True


def _mixed_filter(lattice, boxes, dias, runs, mixed) -> list[tuple[int, list[int]]]:
    """The runs of (box index, diamond indices), in order, cut down to the
    pairs on whose tables every hoisted equation holds.  In each block the
    diamond-side subterms are evaluated once per diamond table, the box-side
    ones once per run, and the skeleton once per slice of at most
    ``max(1, BLOCK // length)`` pairs of a run, laid side by side, each
    coordinate reading its own pair's diamond table.  Those tables are one
    list per slice, built when the skeleton applies the diamond: a list, not
    a one-shot iterator, as it may apply the diamond more than once."""
    lattices = repeat(lattice)
    for (skeleton, box_terms, dia_terms), blocks in mixed:
        reads_dia = "dia" in term_kinds(skeleton.lhs) | term_kinds(skeleton.rhs)
        for env, length in blocks:
            dia_values: dict[int, list] = {}
            width = max(1, BLOCK // length)
            kept_runs = []
            for b, ds in runs:
                box_table = repeat(boxes[b])
                carrier = Vectors(lattices, box_table, None, length)
                box_values = [evaluate(t, env, carrier) for _, t in box_terms]
                kept = []
                for start in range(0, len(ds), width):
                    chunk = ds[start:start + width]
                    for d in chunk:
                        if d not in dia_values:
                            carrier = Vectors(lattices, None, repeat(dias[d]), length)
                            dia_values[d] = [evaluate(t, env, carrier) for _, t in dia_terms]
                    values = {name: v * len(chunk) for (name, _), v in zip(box_terms, box_values)}
                    values.update((name, tuple(chain.from_iterable(parts))) for (name, _), parts
                                  in zip(dia_terms, zip(*map(dia_values.__getitem__, chunk))))
                    tables = map(repeat, map(dias.__getitem__, chunk), repeat(length))
                    side_by_side = list(chain.from_iterable(tables)) if reads_dia else None
                    carrier = Vectors(lattices, box_table, side_by_side, length * len(chunk))
                    lhs, rhs = (evaluate(t, values, carrier) for t in (skeleton.lhs, skeleton.rhs))
                    kept += compress(chunk, map(eq, zip(*[iter(lhs)] * length),
                                                zip(*[iter(rhs)] * length)))
                kept_runs.append((b, kept))
            runs = kept_runs
    return runs


def _orbit_runs(boxes, dias, others) -> list[tuple[int, list[int]]]:
    """The first operator pair of each orbit under the automorphisms, as runs
    of (box index, diamond indices) in order; ``others`` are the automorphisms
    other than the identity (the stabiliser rule of the module docstring)."""
    box_index = {t: i for i, t in enumerate(boxes)}
    dia_index = {t: i for i, t in enumerate(dias)}
    moves = [([box_index[_conjugate(s, t)] for t in boxes],
              [dia_index[_conjugate(s, t)] for t in dias]) for s in others]
    runs = []
    for b in range(len(boxes)):
        if any(sb[b] < b for sb, _ in moves):
            continue
        keep = [True] * len(dias)
        for sb, sd in moves:
            if sb[b] == b:
                keep = list(map(and_, keep, map(ge, sd, count())))
        runs.append((b, list(compress(count(), keep))))
    return runs


def _classes(kind: str, size: int, satisfying: tuple[Equation, ...]) -> list[FiniteAlgebra]:
    """The algebras of the kind with exactly ``size`` elements that satisfy
    the equations, one per isomorphism class, in search order: the first
    operator pair of each Aut(L)-orbit (see the module docstring), lattice
    by lattice as the walk finds them.  The lattices are those of
    ``enum_bdl(size)`` with ``size`` elements, the same matrices.  Each
    algebra is validated before it is returned.  Not cached: a caller that
    only counts or checks the classes walks them here, and
    ``_enumerate_size`` sorts them for output."""
    found = []
    box_only, dia_only, mixed = _equation_checks(size, satisfying)
    for level in itertools.islice(_poset_levels(size), size):
        for poset in level.values():
            if len(poset.downsets) != size:
                continue
            L = _downset_lattice(poset.downsets)
            boxes, dias = _operator_tables(kind, L)
            boxes = [t for t in boxes if _tables_satisfy(L.lattice, t, None, box_only)]
            dias = [t for t in dias if _tables_satisfy(L.lattice, None, t, dia_only)]
            if not (boxes and dias):
                continue
            others = _lattice_automorphisms(poset)[1:]      # the identity sorts first
            runs = _orbit_runs(boxes, dias, others)
            for b, ds in _mixed_filter(L.lattice, boxes, dias, runs, mixed):
                for d in ds:
                    if _mixed_axioms_hold(L, boxes[b], dias[d]):
                        found.append(FiniteAlgebra(size, L.leq, boxes[b], dias[d]))
    for A in found:
        if not validate(A).flag(kind):
            raise PomaError(f"enumeration produced an invalid {kind} algebra")
    return found


@lru_cache(maxsize=64)
def _enumerate_size(kind: str, size: int,
                    satisfying: tuple[Equation, ...]) -> tuple[FiniteAlgebra, ...]:
    """``_classes(kind, size, satisfying)`` sorted by canonical form.  The
    sort exists for output only: it fixes the order that ``enum_algebras``
    returns, and so the bytes of ``poma enumerate`` and of the JSON-lines
    cache, whatever the order of the lattices, as algebras on
    non-isomorphic lattices are not isomorphic."""
    return tuple(sorted(_classes(kind, size, satisfying), key=canonical_form))
