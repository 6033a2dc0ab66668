import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poma import corpus, is_iso, validate
from poma.algebras import downset_masks
from poma.enumeration import (EnumerationTask, _downset_lattice, _extend_downsets,
                              _extend_with_max, _lattice_automorphisms, _poset_levels,
                              canonical_poset, enum_algebras, enum_bdl, enum_posets)
from poma.errors import PomaError
from poma.morphisms import automorphisms, canonical_form
from poma.terms import Box, Diamond, Equation, Meet, Term, Var, parse_equation, term_kinds

from conftest import (oracle_algebras, oracle_burnside_count, oracle_enum_algebras, oracle_enum_bdl,
                      oracle_enum_posets, oracle_hoist, oracle_orbit_runs, run_capped)
from test_terms import _term_strategy


def _labeled_posets(k):
    """Brute-force oracle over all order matrices whose labeling is a linear
    extension (reflexive + upper-triangular + transitive)."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[i == j for j in range(k)] for i in range(k)]
        for (i, j), b in zip(pairs, bits):
            leq[i][j] = b
        if all(not (leq[i][j] and leq[j][l]) or leq[i][l]
               for i in range(k) for j in range(k) for l in range(k)):
            yield tuple(tuple(row) for row in leq)


def test_enum_posets_matches_matrix_oracle():
    for k in range(6):
        expected = {canonical_poset(p) for p in _labeled_posets(k)}
        got = enum_posets(k)
        assert {canonical_poset(p) for p in got} == expected
        assert len(got) == len(expected)


def test_enum_bdl_smallest_sizes():
    assert enum_bdl(0) == ()
    sizes = [L.size for L in enum_bdl(2)]
    assert sizes == [1, 2]
    four = [L for L in enum_bdl(4) if L.size == 4]
    assert len(four) == 2
    chain = [L for L in four if all(L.leq[i][j] for i in range(4)
                                    for j in range(i, 4))]
    assert len(chain) == 1                       # the 4-chain and the diamond


def test_enum_bdl_counts_against_downset_oracle():
    """A bounded distributive lattice of size n is the downset lattice of a
    poset with exactly n downsets; count those posets via the labeled matrix
    oracle."""
    def oracle_count(n):
        seen = set()
        for k in range(n):
            for leq in _labeled_posets(k):
                if len(downset_masks(leq)) == n:
                    seen.add(canonical_poset(leq))
        return len(seen)

    from collections import Counter
    by_size = Counter(L.size for L in enum_bdl(7))
    for n in range(1, 8):
        assert by_size[n] == oracle_count(n), n
    assert [by_size[n] for n in range(1, 8)] == [1, 1, 1, 2, 3, 5, 8]


def test_enum_bdl_members_are_bounded_distributive():
    for L in enum_bdl(6):
        rep = validate(L)
        assert rep.is_bounded_lattice and rep.is_distributive


def test_ps4_up_to_two_elements():
    algs = enum_algebras(EnumerationTask("PS4", 2))
    assert [a.size for a in algs] == [1, 2]
    assert is_iso(algs[1], corpus("C2"))


def test_ps4_three_chains():
    algs = [a for a in enum_algebras(EnumerationTask("PS4", 3)) if a.size == 3]
    assert len(algs) == 4
    keys = {canonical_form(a) for a in algs}
    for name in ("D3", "C3a", "C3b", "EX44III"):
        assert canonical_form(corpus(name)) in keys


def test_enumeration_matches_naive_table_oracle():
    for kind in ("PMA", "PK4", "PS4"):
        expected = oracle_algebras(kind, 5)
        got = enum_algebras(EnumerationTask(kind, 5))
        assert [canonical_form(a) for a in got] == \
            [canonical_form(a) for a in expected], kind


def test_ps4_route_agrees_with_pma_filter_route():
    """Two independent operator generators: fixed-point sublattice pairs vs
    irreducible-value tables filtered by the S4 laws."""
    ps4 = {canonical_form(a) for a in enum_algebras(EnumerationTask("PS4", 5))}
    via_pma = set()
    for A in enum_algebras(EnumerationTask("PMA", 5)):
        if validate(A).is_ps4:
            via_pma.add(canonical_form(A))
    assert ps4 == via_pma


def test_corpus_algebras_appear_in_enumeration():
    found = {}
    for A in enum_algebras(EnumerationTask("PS4", 6)):
        found[canonical_form(A)] = A
    for name in ("C2", "D3", "C3a", "C3b", "D4", "C4a", "C4b", "C5a", "C5b",
                 "C6a", "C6b", "A4", "D5a", "D5b", "B4", "EX44III", "EX44IV"):
        A = corpus(name)
        if A.size <= 6:
            assert canonical_form(A) in found, name
    pma_found = {canonical_form(A) for A in enum_algebras(EnumerationTask("PMA", 2))}
    assert canonical_form(corpus("B2")) in pma_found


def test_enumeration_soundness_and_determinism():
    first = enum_algebras(EnumerationTask("PK4", 4))
    second = enum_algebras(EnumerationTask("PK4", 4))
    assert [a.to_json() for a in first] == [a.to_json() for a in second]
    for a in first:
        assert validate(a).is_pk4


def test_si_filter():
    si = enum_algebras(EnumerationTask("PS4", 4, si_only=True))
    from poma import is_si
    assert si and all(is_si(a) for a in si)
    everything = enum_algebras(EnumerationTask("PS4", 4))
    assert {canonical_form(a) for a in si} == \
        {canonical_form(a) for a in everything if is_si(a)}


def test_satisfying_filter():
    from poma.varieties import EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT
    task = EnumerationTask("PS4", 4, si_only=True,
                           satisfying=(EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT))
    found = enum_algebras(task)
    names = {canonical_form(a) for a in found}
    assert names == {canonical_form(corpus("C2")), canonical_form(corpus("D4"))}


def test_equations_filter_before_si_keeps_list_and_order():
    from poma import holds_eq, is_si
    from poma.varieties import EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT
    eqs = (EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT)
    old_order = [A for A in enum_algebras(EnumerationTask("PS4", 6)) if is_si(A)]
    for eq in eqs:
        old_order = [A for A in old_order if holds_eq(A, eq)]
    found = enum_algebras(EnumerationTask("PS4", 6, si_only=True, satisfying=eqs))
    assert found and [A.to_json() for A in found] == [A.to_json() for A in old_order]


# Equations that mention both operators, each hoisted another way: more
# assignments than one block of ``terms.BLOCK`` (6^5 = 7,776 at size 6, where
# 110 PS4 algebras first fail it past the first block); one-operator
# subterms holding 0, 1, meet and join; a side with no operator; and
# variables named as the hoisting names its subterms.
MIXED = {
    "-mixed-blocks": "box dia (a /\\ b /\\ c /\\ d /\\ e) ~ box (a /\\ b /\\ c /\\ d /\\ e)",
    "-mixed-bounds": "dia (x /\\ box 1) \\/ box (0 \\/ y) <= box dia (x \\/ y)",
    "-mixed-bare": "dia box x ~ x",
    "-mixed-names": Equation(Meet(Box(Diamond(Var("b1"))), Var("d0")),
                             Meet(Box(Var("b1")), Var("d0"))),
}


def _equation(e):
    return parse_equation(e) if isinstance(e, str) else e


def _battery_tasks():
    """The battery runs, then one run for each way the enumerator sorts an
    equation: box-only, diamond-only, both operators, neither operator, and
    more assignments than one block of ``terms.BLOCK``: 6^5 = 7,776 at size
    6, where 75 algebras first fail it past the first block.  The mixed run
    past one block checks 555 algebras on 7,776 assignments in the oracle,
    so it runs without the SI and FSI filters only."""
    from poma.varieties import EQ_BOX_IDEMPOTENT, EQ_BOX_ONE, EQ_DIA_IDEMPOTENT, EQ_DIA_ZERO
    runs = (("", "PMA", 5, (EQ_BOX_ONE, EQ_DIA_ZERO)), ("", "PK4", 5, (EQ_BOX_IDEMPOTENT,)),
            ("", "PS4", 7, (EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT)), ("", "PS4", 7, ()),
            ("-box", "PMA", 5, ("box x <= x",)),
            ("-dia", "PMA", 5, ("x <= dia x",)),
            ("-both", "PMA", 5, ("box x /\\ dia y <= dia (x /\\ y)",)),
            ("-bottom", "PS4", 6, ("x ~ 0",)),
            ("-commute", "PS4", 6, ("x /\\ y ~ y /\\ x",)),
            ("-blocks", "PS4", 6, ("box a /\\ b /\\ c /\\ d /\\ e ~ a /\\ b /\\ c /\\ d /\\ e",)),
            *((tag, "PS4", 6, (e,)) for tag, e in MIXED.items()),
            ("-mixed-bounds", "PMA", 5, (MIXED["-mixed-bounds"], "dia box x ~ x")))
    for tag, kind, max_size, eqs in runs:
        eqs = tuple(map(_equation, eqs))
        filters = ((False, False),) if tag == "-mixed-blocks" else \
            ((False, False), (True, False), (False, True))
        for si_only, fsi_only in filters:
            yield pytest.param(EnumerationTask(kind, max_size, si_only, fsi_only, eqs),
                               id=f"{kind}{max_size}-eqs{len(eqs)}{tag}"
                                  f"-si{int(si_only)}-fsi{int(fsi_only)}")


@pytest.mark.parametrize("task", list(_battery_tasks()))
def test_filtered_enumeration_matches_filter_after_oracle(task):
    found = [A.to_json() for A in enum_algebras(task)]
    assert found == [A.to_json() for A in oracle_enum_algebras(task)]


def test_hoisting_leaves_a_skeleton_over_fresh_variables():
    from poma.enumeration import _hoist
    from poma.terms import equation_to_str, term_to_str
    from poma.varieties import EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT

    def shown(e):
        skeleton, box_terms, dia_terms = _hoist(e)
        return (equation_to_str(skeleton), [(n, term_to_str(t)) for n, t in box_terms],
                [(n, term_to_str(t)) for n, t in dia_terms])

    assert shown(EQ_BOX_IDEMPOTENT) == ("box d0 ~ b1", [("b1", "box x")], [("d0", "dia x")])
    assert shown(EQ_DIA_IDEMPOTENT) == ("dia b0 ~ d1", [("b0", "box x")], [("d1", "dia x")])
    assert shown(_equation(MIXED["-mixed-bare"])) == ("dia b0 ~ b1", [("b0", "box x"), ("b1", "x")], [])
    assert shown(MIXED["-mixed-names"]) == \
        ("box d0 /\\ b1 ~ b2", [("b1", "d0"), ("b2", "box b1 /\\ d0")], [("d0", "dia b1")])


def _mentions_both(pair):
    return {"box", "dia"} <= term_kinds(pair[0]) | term_kinds(pair[1])


def _put_back(t, terms):
    """t with each variable that ``terms`` names replaced by its term."""
    if t.kind == "var":
        return terms.get(t.var, t)
    return Term(t.kind, tuple(_put_back(a, terms) for a in t.args))


@settings(max_examples=300, deadline=None)
@given(st.tuples(_term_strategy, _term_strategy).filter(_mentions_both))
def test_hoisting_from_the_programs_matches_the_recursive_walk(pair):
    """One pass over each side's program hoists the subterms the walk from
    each root hoists (compared as sets: the two number them in different
    orders), each once, on the side of the operator it mentions, and the
    skeleton with each fresh variable put back is the equation itself."""
    from poma.enumeration import _hoist
    e = Equation(*pair)
    skeleton, box_terms, dia_terms = _hoist(e)
    _, oracle_box, oracle_dia = oracle_hoist(e)
    hoisted = {("b", t) for _, t in box_terms} | {("d", t) for _, t in dia_terms}
    assert hoisted == {("b", t) for _, t in oracle_box} | {("d", t) for _, t in oracle_dia}
    assert len(hoisted) == len(box_terms) + len(dia_terms)
    assert all("dia" not in term_kinds(t) for _, t in box_terms)
    assert all({"dia"} == term_kinds(t) & {"box", "dia"} for _, t in dia_terms)
    terms = dict(box_terms + dia_terms)
    assert _put_back(skeleton.lhs, terms) is e.lhs and _put_back(skeleton.rhs, terms) is e.rhs


_DEEP = """
import json, sys
from poma import EnumerationTask, enum_algebras
from poma.terms import Box, Diamond, Equation, Var
x = Var("x")
t = x
for _ in range(1500):
    t = {outer}({inner}(t))
sys.setrecursionlimit(200)
task = EnumerationTask("PS4", {max_size}, satisfying=(Equation(t, {rhs}),))
print(json.dumps([A.to_json() for A in enum_algebras(task)]))
"""


def test_an_equation_3000_deep_filters_the_enumeration_under_a_small_recursion_limit():
    """(dia box)^1500 x ~ dia box x holds in every PS4 algebra, as dia box is
    idempotent there, and (box dia)^1500 x ~ x keeps what the filter after
    the whole enumeration keeps; both hoisted and filtered under a recursion
    limit of 200.  Each died with RecursionError at the default limit."""
    proc = run_capped(_DEEP.format(outer="Diamond", inner="Box", max_size=4,
                                   rhs="Diamond(Box(x))"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(json.loads(proc.stdout)) == 25 == len(enum_algebras(EnumerationTask("PS4", 4)))
    proc = run_capped(_DEEP.format(outer="Box", inner="Diamond", max_size=5, rhs="x"))
    assert (proc.returncode, proc.stderr) == (0, "")
    t = Var("x")
    for _ in range(1500):
        t = Box(Diamond(t))
    expected = oracle_enum_algebras(EnumerationTask("PS4", 5, satisfying=(Equation(t, Var("x")),)))
    assert json.loads(proc.stdout) == [A.to_json() for A in expected]
    assert len(expected) == 8


@pytest.mark.parametrize("kind,max_size,equations,last", [
    ("PS4", 8, (), 10_761), ("PK4", 6, (), 1_495), ("PMA", 6, (), 7_120),
    ("PS4", 7, ("EQ_BOX_IDEMPOTENT", "EQ_DIA_IDEMPOTENT"), 35),
    ("PMA", 5, ("EQ_BOX_ONE", "EQ_DIA_ZERO"), 3)])
def test_class_counts_match_burnsides_lemma(kind, max_size, equations, last):
    """The classes the enumerator keeps, counted size by size, against
    Burnside's lemma over each lattice's automorphisms, with no orbit
    representative chosen and each equation evaluated whole.  Still shared
    with the enumerator, each checked elsewhere: the poset walk and Aut(L)
    read off it (against ``automorphisms``), ``_operator_tables`` (against
    ``oracle_operator_tables``) and ``_mixed_axioms_hold`` (every algebra
    kept is validated, and ``validate`` has ``oracle_validate``)."""
    import poma.varieties
    from poma.enumeration import _classes
    equations = tuple(getattr(poma.varieties, name) for name in equations)
    counts = [len(_classes(kind, size, equations)) for size in range(1, max_size + 1)]
    assert counts == [oracle_burnside_count(kind, size, equations)
                      for size in range(1, max_size + 1)]
    assert counts[-1] == last


def _every_pair_checked(kind, size, e):
    """Each lattice of the size with its operator tables, every pair as one
    run per box, and those runs cut down by one full evaluation of e per
    pair; with e hoisted, as the mixed filter takes it."""
    from poma.enumeration import _equation_checks, _operator_tables, _tables_satisfy
    from poma.terms import assignment_blocks, equation_variables
    [mixed] = _equation_checks(size, (e,))[2]
    checks = [(e, [(env, len(block)) for block, env in
                   assignment_blocks(sorted(equation_variables(e)), size)])]
    for L in enum_bdl(size):
        if L.size != size:
            continue
        boxes, dias = _operator_tables(kind, L)
        runs = [(b, list(range(len(dias)))) for b in range(len(boxes))]
        expected = [(b, [d for d in ds if _tables_satisfy(L.lattice, boxes[b], dias[d], checks)])
                    for b, ds in runs]
        yield L, boxes, dias, runs, mixed, expected


@pytest.mark.parametrize("kind,max_size", [("PS4", 6), ("PMA", 4)])
def test_hoisted_filter_keeps_the_pairs_the_per_pair_check_keeps(kind, max_size):
    """Every operator pair of every lattice up to the size, through the
    hoisted filter and through one full evaluation of the equation per pair."""
    from poma.enumeration import _mixed_filter
    from poma.varieties import EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT
    for e in (EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT, *map(_equation, MIXED.values())):
        kept = dropped = 0
        for size in range(1, max_size + 1):
            for L, boxes, dias, runs, mixed, expected in _every_pair_checked(kind, size, e):
                assert _mixed_filter(L.lattice, boxes, dias, runs, [mixed]) == expected, (e, L)
                found = sum(len(ds) for _, ds in expected)
                kept, dropped = kept + found, dropped + len(boxes) * len(dias) - found
        assert kept and dropped, e


@pytest.mark.parametrize("e", ["EQ_DIA_IDEMPOTENT", "-mixed-bounds"])
def test_mixed_filter_slices_keep_the_pairs_the_per_pair_check_keeps(monkeypatch, e):
    """Runs cut into slices of 2 and of 3 pairs, some ending in a partial
    slice, and into exactly one full slice: at the real block size a run of
    a one-variable equation fits in one slice below size 9."""
    import poma.enumeration
    from poma.enumeration import _mixed_filter
    from poma.varieties import EQ_DIA_IDEMPOTENT
    e = EQ_DIA_IDEMPOTENT if e == "EQ_DIA_IDEMPOTENT" else _equation(MIXED[e])
    partial = 0
    for size in range(1, 6):
        for L, boxes, dias, runs, mixed, expected in _every_pair_checked("PS4", size, e):
            [(_, length)] = mixed[1]
            for width in (2, 3, len(dias)):
                monkeypatch.setattr(poma.enumeration, "BLOCK", width * length)
                assert _mixed_filter(L.lattice, boxes, dias, runs, [mixed]) == expected, \
                    (L, width)
                partial += len(dias) % width != 0
    assert partial


@pytest.mark.parametrize("text", ["box x ~ dia box x", "box x ~ dia dia box x"])
def test_skeleton_applying_the_diamond_on_its_right_side_only(monkeypatch, text):
    """Skeletons b0 ~ dia b0 and b0 ~ dia dia b0: the side-by-side diamond
    tables are built when either side applies the diamond, and can be read
    twice; in slices of 2 pairs and in one slice per run."""
    import poma.enumeration
    from poma.enumeration import _hoist, _mixed_filter
    from poma.terms import term_kinds
    e = parse_equation(text)
    assert "dia" not in term_kinds(_hoist(e).skeleton.lhs)
    kept = dropped = 0
    for kind, max_size in (("PS4", 5), ("PMA", 4)):
        for size in range(1, max_size + 1):
            for L, boxes, dias, runs, mixed, expected in _every_pair_checked(kind, size, e):
                [(_, length)] = mixed[1]
                for width in (2, len(dias)):
                    monkeypatch.setattr(poma.enumeration, "BLOCK", width * length)
                    assert _mixed_filter(L.lattice, boxes, dias, runs, [mixed]) == expected, \
                        (L, width)
                found = sum(len(ds) for _, ds in expected)
                kept, dropped = kept + found, dropped + len(boxes) * len(dias) - found
    assert kept and dropped


def test_orbit_runs_keep_the_pairs_the_seen_loop_keeps():
    """The stabiliser rule against the walk that marks every conjugate as
    seen, on the full tables and on those cut by each battery's
    one-operator equations (theorem 6.10's equations both mention both
    operators, so its cut keeps every table)."""
    from poma.enumeration import _equation_checks, _operator_tables, _orbit_runs, _tables_satisfy
    from poma.morphisms import automorphisms
    from poma.varieties import EQ_BOX_IDEMPOTENT, EQ_BOX_ONE, EQ_DIA_IDEMPOTENT, EQ_DIA_ZERO
    merged = 0      # table lists on which some orbit holds more than one pair
    for kind, bound in (("PS4", 8), ("PMA", 6), ("PK4", 6)):
        for L in enum_bdl(bound):
            others = automorphisms(L)[1:]
            tables = _operator_tables(kind, L)
            for equations in ((EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT), (EQ_BOX_ONE, EQ_DIA_ZERO)):
                box_only, dia_only, _ = _equation_checks(L.size, equations)
                boxes = [t for t in tables[0] if _tables_satisfy(L.lattice, t, None, box_only)]
                dias = [t for t in tables[1] if _tables_satisfy(L.lattice, None, t, dia_only)]
                if not (boxes and dias):
                    continue
                expected = [(b, ds) for b, ds in oracle_orbit_runs(boxes, dias, others) if ds]
                assert _orbit_runs(boxes, dias, others) == expected, (kind, L, equations)
                merged += sum(len(ds) for _, ds in expected) < len(boxes) * len(dias)
    assert merged


def test_enum_bdl_matches_the_per_size_poset_route():
    for n in range(1, 9):
        assert [L.to_json() for L in enum_bdl(n)] == [L.to_json() for L in oracle_enum_bdl(n)], n
    for k in range(7):
        assert enum_posets(k) == oracle_enum_posets(k)
    for m in (4, 8):
        levels = list(itertools.islice(_poset_levels(m), 7))
        for k in range(7):
            level = levels[k] if k < len(levels) else {}
            assert [level[key].leq for key in sorted(level)] == oracle_enum_posets(k, m), (k, m)


def test_extended_downsets_match_the_listed_ones():
    for k in range(6):
        for leq in enum_posets(k):
            downsets = downset_masks(leq)
            for down in downsets:
                assert _extend_downsets(downsets, down) == \
                    downset_masks(_extend_with_max(leq, down)), (leq, down)


def test_walk_keeps_each_posets_downsets():
    for level in itertools.islice(_poset_levels(9), 9):
        for poset in level.values():
            assert poset.downsets == downset_masks(poset.leq)


def test_lattice_automorphisms_from_the_walk():
    """Aut(D(P)) induced from the poset search's least leaves, on every
    lattice of enum_bdl(9), against the search on the lattice itself."""
    lattices = []
    for level in itertools.islice(_poset_levels(9), 9):
        for poset in level.values():
            L = _downset_lattice(poset.downsets)
            assert _lattice_automorphisms(poset) == list(automorphisms(L)), L.to_json()
            lattices.append(L.to_json())
    assert sorted(lattices) == sorted(L.to_json() for L in enum_bdl(9))
    assert max(len(automorphisms(L)) for L in enum_bdl(9)) > 2


def test_enum_bdl_restricts():
    """The walk pruned at a smaller size finds the same matrices."""
    full = enum_bdl(9)
    for k in range(9):
        assert enum_bdl(k) == full[:len(enum_bdl(k))], k
        assert all(L.size <= k for L in enum_bdl(k)) and all(L.size > k for L in
                                                              full[len(enum_bdl(k)):])


def test_cache_with_equations_holds_the_full_slice(tmp_path):
    from poma.enumeration import _enumerate_size
    from poma.varieties import EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT
    task = EnumerationTask("PS4", 5, satisfying=(EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT))
    plain = [A.to_json() for A in enum_algebras(task)]
    assert plain and len(plain) < len(enum_algebras(EnumerationTask("PS4", 5)))
    assert [A.to_json() for A in enum_algebras(task, cache_dir=tmp_path)] == plain
    assert [A.to_json() for A in enum_algebras(task, cache_dir=tmp_path, resume=True)] == plain
    for size in range(1, 6):
        body = (tmp_path / f"ps4_size{size}.jsonl").read_text().splitlines()[1:]
        assert body == [A.to_json() for A in _enumerate_size("PS4", size, ())], size


def test_slice_cache_has_one_key_per_slice():
    """Every caller names the equations, so the slice that enum_algebras
    builds is the one a direct call with no equations reads."""
    from poma.enumeration import _enumerate_size
    enum_algebras(EnumerationTask("PS4", 5))
    before = _enumerate_size.cache_info()
    _enumerate_size("PS4", 5, ())
    after = _enumerate_size.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    with pytest.raises(TypeError):
        _enumerate_size("PS4", 5)


def test_cache_and_resume(tmp_path):
    task = EnumerationTask("PS4", 3)
    first = enum_algebras(task, cache_dir=tmp_path)
    assert (tmp_path / "ps4_size3.jsonl").exists()
    resumed = enum_algebras(task, cache_dir=tmp_path, resume=True)
    assert [a.to_json() for a in first] == [a.to_json() for a in resumed]


def _truncate(lines):
    return lines[:len(lines) // 2]


def _swap_in_non_ps4(lines):
    """Replace an algebra by a PMA algebra of the same size that is not PS4,
    under a header recomputed to match, so only the validation can notice."""
    from poma.enumeration import _cache_header, _enumerate_size
    stranger = next(A for A in _enumerate_size("PMA", 4, ()) if not validate(A).is_ps4)
    body = lines[1:]
    body[3] = stranger.to_json()
    return [_cache_header("PS4", 4, body)] + body


def _drop_header(lines):
    return lines[1:]


@pytest.mark.parametrize("corrupt", [_truncate, _swap_in_non_ps4, _drop_header])
def test_resume_recomputes_a_corrupt_cache(tmp_path, capsys, corrupt):
    task = EnumerationTask("PS4", 4)
    cold = [a.to_json() for a in enum_algebras(task, cache_dir=tmp_path)]
    path = tmp_path / "ps4_size4.jsonl"
    good = path.read_text()
    path.write_text("\n".join(corrupt(good.splitlines())) + "\n")
    capsys.readouterr()
    resumed = [a.to_json() for a in enum_algebras(task, cache_dir=tmp_path, resume=True)]
    warnings = capsys.readouterr().err.splitlines()
    assert resumed == cold
    assert len(warnings) == 1 and "ps4_size4.jsonl" in warnings[0]
    assert path.read_text() == good
    assert [a.to_json() for a in enum_algebras(task, cache_dir=tmp_path, resume=True)] == cold
    assert capsys.readouterr().err == ""


def test_cache_slice_starts_with_a_header(tmp_path):
    enum_algebras(EnumerationTask("PMA", 3), cache_dir=tmp_path)
    header, *body = (tmp_path / "pma_size3.jsonl").read_text().splitlines()
    meta = json.loads(header)
    assert (meta["format"], meta["kind"], meta["size"], meta["count"]) == (1, "PMA", 3, len(body))
    assert not list(tmp_path.glob("*.tmp"))


def test_task_validation():
    with pytest.raises(PomaError):
        EnumerationTask("NOPE", 3)
    with pytest.raises(PomaError):
        EnumerationTask("PS4", 0)


@pytest.mark.parametrize("max_size,satisfying", [
    (True, ()), (2.5, ()), ("3", ()), (3, ("box x ~ x",)),
    (3, [parse_equation("box x ~ x")]), (3, "box x ~ x")])
def test_task_rejects_bad_size_or_equations(max_size, satisfying):
    with pytest.raises(PomaError):
        EnumerationTask("PS4", max_size, satisfying=satisfying)


@pytest.mark.parametrize("count", [-1, 2.5, 2.0, True, "3", None])
def test_enum_bdl_and_enum_posets_reject_a_count_that_is_not_an_int(count):
    enum_bdl(1), enum_bdl(2)        # a cached int must not answer an equal float or bool
    with pytest.raises(PomaError, match=r"^max size .*: the bound must be "):
        enum_bdl(count)
    with pytest.raises(PomaError, match=r"^poset size .*: the size must be "):
        enum_posets(count)


def test_downsets_of_chain():
    leq = ((True, True), (False, True))
    assert len(downset_masks(leq)) == 3
