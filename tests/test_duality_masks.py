"""The bitmask duality routes against the frozenset oracles in conftest:
dual spaces, the compatibility check, upset algebras, the representation
map and the Boolean envelope give the same result, or the same exception
type and message."""
import random
from collections import Counter

import pytest

from poma import (FiniteAlgebra, boolean_envelope, corpus, dual_space, duality, kappa,
                  upset_algebra, validate)
from poma.algebras import chain_order
from poma.corpus import CORPUS_NAMES, PARAMETRIC_NAMES
from poma.duality import DualSpace, check_kplus, dual_of_hom
from poma.enumeration import EnumerationTask, enum_algebras
from poma.errors import PomaError
from poma.morphisms import Hom

from conftest import (oracle_boolean_envelope, oracle_check_kplus, oracle_dual_of_hom,
                      oracle_dual_space, oracle_kappa, oracle_upset_algebra, run_capped)

ROUTES = ((check_kplus, oracle_check_kplus), (upset_algebra, oracle_upset_algebra))


def _outcome(f, *args):
    """A call's result as comparable data, or its exception type and message."""
    try:
        r = f(*args)
    except PomaError as exc:
        return type(exc).__name__, str(exc)
    if r is None or isinstance(r, DualSpace):
        return "ok", r and r.to_json()
    if hasattr(r, "mapping"):
        return "ok", r.target.to_json(), r.mapping
    return "ok", r.to_json()


def _check_space(X):
    """Both routes on X; returns the shared outcome of upset_algebra."""
    for new, old in ROUTES:
        got = _outcome(new, X)
        assert got == _outcome(old, X), X
    return got


def _flipped(X):
    return DualSpace(X.points, X.leq, tuple(tuple(not v for v in row) for row in X.R))


def _envelope_parts(A):
    e = boolean_envelope(A)
    return e.algebra, e.modal.complement, e.kappa.mapping


def _envelope_outcome(route, A):
    """The envelope's algebra (with its name), complement table and embedding
    by one route, or its exception type and message."""
    try:
        M, complement, mapping = route(A)
    except PomaError as exc:
        return type(exc).__name__, str(exc)
    return "ok", M.to_json(), complement, mapping


def _check_algebra(A):
    assert _outcome(dual_space, A) == _outcome(oracle_dual_space, A), A
    assert _outcome(kappa, A) == _outcome(oracle_kappa, A), A
    envelope = _envelope_outcome(_envelope_parts, A)
    assert envelope == _envelope_outcome(oracle_boolean_envelope, A), A
    try:
        X = dual_space(A)
    except PomaError:
        return
    assert _check_space(X)[0] == "ok"
    _check_space(_flipped(X))


def test_every_pma_up_to_five():
    for A in enum_algebras(EnumerationTask("PMA", 5)):
        _check_algebra(A)


def test_every_corpus_spec():
    specs = [(name,) for name in CORPUS_NAMES if name not in PARAMETRIC_NAMES]
    specs += [(name, k) for name, lo in (("EX46", 3), ("AN_MINUS", 1), ("AN_SIMPLE", 2))
              for k in range(lo, 7)]
    for spec in specs:
        _check_algebra(corpus(*spec))


def _random_space(rng, n):
    """A random partial order on n points (transitively closed random edges
    along a shuffled linear order) with a random relation, made
    order-compatible as (R;<=) meet (R;>=) in about two cases of three."""
    rank = list(range(n))
    rng.shuffle(rank)
    leq = [[x == y or (rank[x] < rank[y] and rng.random() < 0.4) for y in range(n)]
           for x in range(n)]
    for z in range(n):
        for x in range(n):
            for y in range(n):
                leq[x][y] = leq[x][y] or (leq[x][z] and leq[z][y])
    rel = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.65:
        rel = [[any(rel[x][z] and leq[z][y] for z in range(n)) and
                any(rel[x][z] and leq[y][z] for z in range(n)) for y in range(n)]
               for x in range(n)]
    return DualSpace(tuple(frozenset({i}) for i in range(n)),
                     tuple(map(tuple, leq)), tuple(map(tuple, rel)))


@pytest.mark.parametrize("seed", range(3))
def test_random_spaces_reach_every_outcome(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(400):
        got = _check_space(_random_space(rng, rng.randint(0, 7)))
        outcomes.add(got[1] if got[0] == "PreconditionError" else got[0])
    assert outcomes == {"ok", "relation is not order-compatible",
                        "upsets are not closed under the modal operators"}


def test_seventeen_points_exceed_the_budget():
    # a 17-point antichain has 2^17 upsets, past the 2^16 budget; the oracle
    # lists every subset and keeps its own 16-point limit, so it is not compared
    n = 17
    ident = tuple(tuple(x == y for y in range(n)) for x in range(n))
    X = DualSpace(tuple(frozenset({i}) for i in range(n)), ident, ident)
    for route, _ in ROUTES:
        assert _outcome(route, X) == ("BudgetError", "frame exceeds the 65,536-upset budget")


def test_sixteen_points_fill_the_budget_exactly():
    # 2^16 upsets, the most a 16-point frame has: the budget refuses no frame
    # that the 16-point limit let through
    n = 16
    ident = tuple(tuple(x == y for y in range(n)) for x in range(n))
    assert check_kplus(DualSpace(tuple(frozenset({i}) for i in range(n)), ident, ident)) is None


def test_nine_points_exceed_the_envelope_cap():
    n = 10
    A = FiniteAlgebra(n, chain_order(n), tuple(range(n)), tuple(range(n)))
    assert len(dual_space(A).points) == 9
    assert _envelope_outcome(_envelope_parts, A) == (
        "BudgetError", "envelope over 9 points exceeds the 8-point cap")


_ID2 = ((True, False), (False, True))


@pytest.mark.parametrize("leq,R,message", [
    (_ID2, ((True, False, False), (False, True, False)),
     "leq and R must be 2 x 2 matrices over the points"),
    (_ID2, ((True,),), "leq and R must be 2 x 2 matrices over the points"),
    (((False, True), (False, True)), _ID2, "leq is not reflexive and transitive"),
    (((True, True, False), (False, True, True), (False, False, True)),
     tuple(tuple(x == y for y in range(3)) for x in range(3)),
     "leq is not reflexive and transitive"),
], ids=["R-wider-than-leq", "R-one-by-one", "leq-not-reflexive", "leq-not-transitive"])
def test_malformed_frames_are_refused(leq, R, message):
    # a wider R once raised IndexError, a 1 x 1 R gave a 4-element algebra on
    # 2 points, and a leq that is no preorder was closed without a word
    X = DualSpace(tuple(frozenset({i}) for i in range(len(leq))), leq, R)
    for route, _ in ROUTES:
        assert _outcome(route, X) == ("PreconditionError", message)


def test_two_algebras_on_one_lattice_list_its_upsets_once(monkeypatch):
    n = 16                      # a chain no other test builds: its lattice is new here
    ident = tuple(range(n))
    A = FiniteAlgebra(n, chain_order(n), ident, ident)
    B = FiniteAlgebra(n, chain_order(n), ident, (0,) + (n - 1,) * (n - 1))
    assert A.lattice is B.lattice and A.lattice.dual is None and validate(B).is_pma
    listed, lister = [], duality._upset_list
    monkeypatch.setattr(duality, "_upset_list", lambda up: listed.append(up) or lister(up))
    for C in (A, B):
        assert _outcome(kappa, C) == _outcome(oracle_kappa, C)
    assert len(listed) == 1


def test_the_frame_half_is_dropped_with_its_lattice():
    # the half is kept on the lattice, which is interned only while an
    # algebra holds it: once the value-keyed caches let go of the algebra,
    # neither its order nor that of kappa's target stays interned
    result = run_capped(
        "import gc\n"
        "from poma import FiniteAlgebra, boolean_envelope, kappa\n"
        "from poma.algebras import Lattice, validate\n"
        "from poma.duality import _frame, _nameless_envelope\n"
        "leq = ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1))\n"
        "A = FiniteAlgebra.make(leq, (0, 1, 2, 3), (0, 1, 2, 3))\n"
        "order, target = A.leq, kappa(A).target.leq\n"
        "boolean_envelope(A)\n"
        "assert A.lattice.dual is not None\n"
        "del A\n"
        "for cache in (validate, _frame, _nameless_envelope):\n"
        "    cache.cache_clear()\n"
        "gc.collect()\n"
        "print(order in Lattice._interned, target in Lattice._interned)\n")
    assert (result.returncode, result.stdout) == (0, "False False\n"), result.stderr


def test_kappa_derives_its_target_lattice_once():
    # the frame half holds the target's lattice, so a target dropped and
    # collected is not derived again by the next kappa
    result = run_capped(
        "import gc\n"
        "from poma import FiniteAlgebra, kappa\n"
        "from poma.algebras import Lattice\n"
        "derive, calls = Lattice._derive, []\n"
        "Lattice._derive = lambda self: calls.append(self.size) or derive(self)\n"
        "A = FiniteAlgebra.make(((1, 0, 0), (1, 1, 0), (1, 1, 1)), (0, 1, 2), (0, 1, 2))\n"
        "calls.clear()\n"
        "for _ in range(3):\n"
        "    assert kappa(A).target.leq != A.leq\n"
        "    gc.collect()\n"
        "print(calls)\n")
    assert (result.returncode, result.stdout) == (0, "[3]\n"), result.stderr


def test_algebras_sharing_a_lattice_match_the_oracles():
    # the half of the frame kept per lattice holds no operator: one that kept
    # the first algebra's box or diamond would give the next a wrong dual
    algebras = [*enum_algebras(EnumerationTask("PMA", 5)),
                *enum_algebras(EnumerationTask("PS4", 6))]
    shared = Counter(A.leq for A in algebras)
    for A in (A for A in algebras if shared[A.leq] > 1):
        assert _outcome(dual_space, A) == _outcome(oracle_dual_space, A), A
        assert _outcome(kappa, A) == _outcome(oracle_kappa, A), A
        envelope = _envelope_outcome(_envelope_parts, A)
        assert envelope == _envelope_outcome(oracle_boolean_envelope, A), A
        for h in (Hom(A, A, tuple(range(A.size))), kappa(A), boolean_envelope(A).kappa):
            assert dual_of_hom(h) == oracle_dual_of_hom(h), A
