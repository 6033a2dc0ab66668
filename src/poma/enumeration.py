"""Exhaustive generation, up to isomorphism, of finite posets, bounded
distributive lattices, and their PMA/PK4/PS4 operator expansions.

Lattices are generated through their posets of join-irreducibles (a finite
bounded distributive lattice is the downset lattice of that poset), built
level by level, one new maximal element at a time; one walk over the levels
serves every number of points.  PS4 operator pairs are generated from pairs
of 0,1-sublattices of fixed points; PMA/PK4 operator tables are generated
from value assignments on the meet- resp. join-irreducible elements, which
determine every meet- (join-) preserving table over a distributive lattice.

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
sorted by canonical form and validated.  The output is the full list
filtered, in order.  An equation holds or fails alike on a pair and on its
conjugates under Aut(L), so each table filter removes whole orbits; each
filter keeps the relative order of the tables, and the orbit
representatives are all chosen before any mixed test runs, so every
surviving orbit keeps the same first pair as its representative.  Sorting
a subset by an injective key keeps its order.  The SI and FSI tests then
run on each size as it is produced.  Slices live in a bounded in-memory
cache, one entry per kind, size and equations; a JSON-lines cache on disk
always holds the full, unfiltered slice.

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

from .algebras import BoolMatrix, FiniteAlgebra, downset_masks, subset_order, validate
from .congruences import is_fsi, is_si
from .errors import PomaError
from .morphisms import SEARCH_CAP, _least_leaves, automorphisms, canonical_form, subuniverses
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
        _require_count("max_size", self.max_size, 1)
        if not (isinstance(self.satisfying, tuple)
                and all(isinstance(e, Equation) for e in self.satisfying)):
            raise PomaError("satisfying must be a tuple of Equation objects")


def _require_count(name: str, value, least: int) -> None:
    if type(value) is not int or value < least:
        raise PomaError(f"{name} must be an int >= {least}, not {value!r}")


# -- posets up to isomorphism --------------------------------------------------

def canonical_poset(leq: BoolMatrix) -> tuple:
    n = len(leq)
    ident = tuple(range(n))
    return _least_leaves(n, leq, ident, ident, SEARCH_CAP)[0]


def _extend_with_max(leq: BoolMatrix, down: int) -> BoolMatrix:
    """Add one new maximal element whose strict lower set is the given downset."""
    n = len(leq)
    rows = [list(row) + [bool(down >> i & 1)] for i, row in enumerate(leq)]
    rows.append([False] * n + [True])
    return tuple(tuple(row) for row in rows)


def _poset_levels(max_downsets: int | None):
    """The posets with 0, 1, 2, ... elements, up to isomorphism: one dict
    per size from canonical form to order matrix, in the order found.
    Every poset is reached by repeatedly adding a new maximal element; when
    `max_downsets` is set, branches whose downset count already exceeds it are
    pruned (downset counts only grow), and the levels stop at the first empty
    one."""
    level: dict[tuple, BoolMatrix] = {canonical_poset(()): ()}
    while level:
        yield level
        nxt: dict[tuple, BoolMatrix] = {}
        for leq in level.values():
            for down in downset_masks(leq):
                bigger = _extend_with_max(leq, down)
                if max_downsets is not None and len(downset_masks(bigger)) > max_downsets:
                    continue
                nxt.setdefault(canonical_poset(bigger), bigger)
        level = nxt


def enum_posets(k: int) -> list[BoolMatrix]:
    """All posets with exactly k elements, up to isomorphism, as order
    matrices sorted by canonical form."""
    _require_count("k", k, 0)
    level = next(itertools.islice(_poset_levels(None), k, None))
    return [level[key] for key in sorted(level)]


@lru_cache(maxsize=None, typed=True)
def enum_bdl(max_size: int) -> tuple[FiniteAlgebra, ...]:
    """All bounded distributive lattices with at most max_size elements, up to
    isomorphism, as algebras with identity operators; sorted by size then
    canonical form.  A poset with k elements has at least k + 1 downsets, so
    the levels below max_size hold every poset needed."""
    _require_count("max_size", max_size, 0)
    out: dict[tuple, FiniteAlgebra] = {}
    for level in itertools.islice(_poset_levels(max_size), max_size):
        for key in sorted(level):
            ds = downset_masks(level[key])
            if len(ds) > max_size:
                continue
            ident = tuple(range(len(ds)))
            L = FiniteAlgebra(len(ds), subset_order(ds), ident, ident)
            out.setdefault(canonical_form(L), L)
    return tuple(sorted(out.values(), key=lambda L: (L.size, canonical_form(L))))


# -- operator tables -------------------------------------------------------------

def _fold(table, start: int, xs) -> int:
    """start op x1 op x2 ..., op given by its table."""
    for x in xs:
        start = table[start][x]
    return start


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
    ``dual`` binary joins and the bottom: over a distributive lattice, t(a) the
    meet of arbitrary values on the meet-irreducibles above a (dually, joins).
    Every such fold preserves both: no meet-irreducible is above the top, so
    t(top) is the empty meet, and each meet-irreducible m is meet-prime (a meet
    b <= m gives a <= m or b <= m), so t(a meet b) = t(a) meet t(b)."""
    n, leq, lat = L.size, L.leq, L.lattice.require()
    if dual:
        op, unit, irr = lat.join, lat.bottom, lat.join_irreducibles
        sources = [[k for k, j in enumerate(irr) if leq[j][a]] for a in range(n)]
    else:
        op, unit, irr = lat.meet, lat.top, lat.meet_irreducibles
        sources = [[k for k, m in enumerate(irr) if leq[a][m]] for a in range(n)]
    seen = {}
    for values in itertools.product(range(n), repeat=len(irr)):
        seen.setdefault(tuple(_fold(op, unit, (values[k] for k in ks)) for ks in sources))
    return list(seen)


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


def enum_algebras(task: EnumerationTask, cache_dir: str | os.PathLike | None = None,
                  resume: bool = False) -> list[FiniteAlgebra]:
    """Enumerate all algebras of the given kind up to isomorphism, size by
    size, optionally caching each full (kind, size) slice as a JSON-lines
    file.  Each size is filtered as it is produced."""
    out: list[FiniteAlgebra] = []
    for size in range(1, task.max_size + 1):
        found = _algebras_of_size(task.kind, size, task.satisfying, cache_dir, resume)
        if task.si_only:
            found = [A for A in found if is_si(A)]
        if task.fsi_only:
            found = [A for A in found if is_fsi(A)]
        out.extend(found)
    return out


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


@lru_cache(maxsize=64)
def _enumerate_size(kind: str, size: int,
                    satisfying: tuple[Equation, ...]) -> tuple[FiniteAlgebra, ...]:
    """The algebras of the kind with exactly ``size`` elements that satisfy
    the equations, one per isomorphism class: the first operator pair of
    each Aut(L)-orbit (see the module docstring), sorted by canonical form."""
    found = []
    box_only, dia_only, mixed = _equation_checks(size, satisfying)
    for L in enum_bdl(size):
        if L.size != size:
            continue
        boxes, dias = _operator_tables(kind, L)
        boxes = [t for t in boxes if _tables_satisfy(L.lattice, t, None, box_only)]
        dias = [t for t in dias if _tables_satisfy(L.lattice, None, t, dia_only)]
        if not (boxes and dias):
            continue
        runs = _orbit_runs(boxes, dias, automorphisms(L)[1:])   # the identity sorts first
        for b, ds in _mixed_filter(L.lattice, boxes, dias, runs, mixed):
            for d in ds:
                if _mixed_axioms_hold(L, boxes[b], dias[d]):
                    found.append(FiniteAlgebra(size, L.leq, boxes[b], dias[d]))
    result = tuple(sorted(found, key=canonical_form))
    for A in result:
        if not validate(A).flag(kind):
            raise PomaError(f"enumeration produced an invalid {kind} algebra")
    return result
