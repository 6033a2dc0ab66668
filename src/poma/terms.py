"""Syntax for the positive modal language: terms, equations, quasi-equations,
positive existential sentences, sequents, plus parsing, printing, evaluation
and the sequent/equation translations.  Terms are one interned DAG, compared
and hashed by identity; each node has one post-order program that evaluation
loops over, and printing pops an explicit stack, so only the parser recurses.

Concrete grammar (ASCII): ``/\\`` meet, ``\\/`` join, ``box``/``dia`` unary
prefixes, ``0``/``1`` bounds, ``~`` equality, ``<=`` order sugar, ``&``
premise conjunction, ``=>`` quasi-equation arrow, ``{a, b} |> c`` sequents,
``E x y . eq | eq & eq`` positive existential sentences (``|`` separates the
equations of one clause).  Unary binds tighter than ``/\\`` which binds
tighter than ``\\/``; binary operators associate to the left.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from operator import and_, attrgetter, eq, getitem, gt, or_

from .algebras import FiniteAlgebra
from .errors import ParseError, PomaError, PreconditionError, _check_count, _check_elements

_ARITY = {"var": 0, "zero": 0, "one": 0, "box": 1, "dia": 1, "meet": 2, "join": 2}
_NODES = weakref.WeakValueDictionary()      # (kind, args, var) -> the one live node


class Term:
    """A term node, interned: one object per (kind, args, var), checked when
    first built and never changed; ``program`` is set once, on first use."""
    __slots__ = ("kind", "args", "var", "program", "__weakref__")

    def __new__(cls, kind: str, args: tuple = (), var: str = ""):
        key = (kind, args, var)
        try:
            node = _NODES.get(key)
        except TypeError:           # unhashable, so malformed
            node = None
        if node is None:
            _check_node(kind, args, var)
            node = _NODES[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, (kind, args, var, None)):
                object.__setattr__(node, name, value)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"a term cannot be changed: {name!r} is read-only")

    def __reduce__(self):
        return Term, (self.kind, self.args, self.var)     # rebuilt through the table

    def __repr__(self):
        return f"parse_term({term_to_str(self)!r})"


def _check_node(kind, args, var) -> None:
    """PreconditionError unless (kind, args, var) is a well-formed node."""
    if type(kind) is not str or type(args) is not tuple or len(args) != _ARITY.get(kind):
        raise PreconditionError(f"{kind!r} of {args!r} is not a term node: var, zero and one "
                                "take no arguments, box and dia one, meet and join two")
    for a in args:
        if type(a) is not Term:
            raise PreconditionError(f"{a!r} is not a term")
    if kind == "var":
        try:
            named = [tok[:2] for tok in _tokenize(var)] == [("ident", var), ("end", "")]
        except (ParseError, TypeError):
            named = False
        if not named:
            raise PreconditionError(f"{var!r} is not a variable name")
    elif var != "":
        raise PreconditionError(f"a {kind} node takes no variable name, not {var!r}")


ZERO = Term("zero")
ONE = Term("one")


def Var(name: str) -> Term:
    return Term("var", (), name)


def Meet(s: Term, t: Term) -> Term:
    return Term("meet", (s, t))


def Join(s: Term, t: Term) -> Term:
    return Term("join", (s, t))


def Box(t: Term) -> Term:
    return Term("box", (t,))


def Diamond(t: Term) -> Term:
    return Term("dia", (t,))


def box_power(t: Term, n: int) -> Term:
    _check_count(n, "power", "exponent")
    for _ in range(n):
        t = Box(t)
    return t


def diamond_power(t: Term, n: int) -> Term:
    _check_count(n, "power", "exponent")
    for _ in range(n):
        t = Diamond(t)
    return t


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


def Leq(s: Term, t: Term) -> Equation:
    """The order statement ``s <= t`` desugared to ``s /\\ t ~ s``."""
    return Equation(Meet(s, t), s)


@dataclass(frozen=True)
class QuasiEquation:
    premises: tuple[Equation, ...]
    conclusion: Equation


@dataclass(frozen=True)
class PosExistSentence:
    variables: tuple[str, ...]
    matrix: tuple[tuple[Equation, ...], ...]   # conjunction of disjunctions

    def __post_init__(self):
        bound = set(self.variables)
        for clause in self.matrix:
            for eq in clause:
                for v in term_variables(eq.lhs) | term_variables(eq.rhs):
                    if v not in bound:
                        raise PomaError(f"unbound variable {v!r} in sentence")


@dataclass(frozen=True)
class Sequent:
    antecedent: frozenset[Term]
    succedent: Term


def make_sequent(antecedent, succedent: Term) -> Sequent:
    return Sequent(frozenset(antecedent), succedent)


def _program(t: Term) -> tuple:
    """t's post-order program, kept on t: its distinct subterms as (kind,
    var, argument positions), each after its arguments, first one first."""
    at, steps, stack = {}, [], [t]
    while stack:
        node = stack.pop()
        todo = [a for a in node.args if a not in at]
        if todo:
            stack += [node, *reversed(todo)]
        elif node not in at:
            at[node] = len(steps)
            steps.append((node.kind, node.var, tuple(map(at.__getitem__, node.args))))
    object.__setattr__(t, "program", tuple(steps))
    return t.program


def term_variables(t: Term) -> set[str]:
    return {var for _, var, _ in t.program or _program(t) if var}


def equation_variables(e: Equation) -> set[str]:
    return term_variables(e.lhs) | term_variables(e.rhs)


def term_kinds(t: Term) -> set[str]:
    """The kinds of the nodes of t: ``"box" in term_kinds(t)`` when t
    mentions the box."""
    return {kind for kind, _, _ in t.program or _program(t)}


# -- printing -----------------------------------------------------------------

_LEVEL = {"var": 0, "zero": 0, "one": 0, "box": 1, "dia": 1, "meet": 2, "join": 3}
_TEXT = {"zero": "0", "one": "1", "box": "box ", "dia": "dia ", "meet": " /\\ ", "join": " \\/ "}


def term_to_str(t: Term) -> str:
    """t in the concrete grammar, parenthesised only where needed, from a stack
    of pending strings and (term, loosest level it may print bare) pairs."""
    out, stack = [], [(t, 3)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        t, ceiling = piece
        args, level, text = t.args, _LEVEL[t.kind], t.var or _TEXT[t.kind]
        parts = [(args[0], level), text, (args[1], level - 1)] if len(args) == 2 \
            else [text, *((a, level) for a in args)]
        stack += reversed(["(", *parts, ")"] if level > ceiling else parts)
    return "".join(out)


def equation_to_str(e: Equation) -> str:
    return f"{term_to_str(e.lhs)} ~ {term_to_str(e.rhs)}"


def quasi_to_str(q: QuasiEquation) -> str:
    head = " & ".join(equation_to_str(p) for p in q.premises)
    tail = equation_to_str(q.conclusion)
    return f"{head} => {tail}" if head else tail


def sequent_to_str(s: Sequent) -> str:
    inner = ", ".join(sorted(term_to_str(t) for t in s.antecedent))
    return "{" + inner + "} |> " + term_to_str(s.succedent)


def pos_exist_to_str(s: PosExistSentence) -> str:
    clauses = " & ".join(" | ".join(equation_to_str(e) for e in clause)
                         for clause in s.matrix)
    return "E " + " ".join(s.variables) + " . " + clauses


# -- parsing ------------------------------------------------------------------

_SYMBOLS = ("/\\", "\\/", "<=", "=>", "|>", "~", "&", "(", ")", "{", "}", ",",
            "|", ".", "0", "1")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        two = text[i:i + 2]
        if two in _SYMBOLS:
            tokens.append(("sym", two, i))
            i += 2
            continue
        if c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in ("box", "dia"):
                tokens.append(("op", word, i))
            else:
                tokens.append(("ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", at)

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    def atom(self) -> Term:
        kind, val, at = self.next()
        if kind == "sym" and val == "0":
            return ZERO
        if kind == "sym" and val == "1":
            return ONE
        if kind == "op":
            return Box(self.atom()) if val == "box" else Diamond(self.atom())
        if kind == "ident":
            return Var(val)
        if kind == "sym" and val == "(":
            t = self.term()
            self.expect(")")
            return t
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", at)

    def meet_chain(self) -> Term:
        t = self.atom()
        while self.peek()[1] == "/\\":
            self.next()
            t = Meet(t, self.atom())
        return t

    def term(self) -> Term:
        t = self.meet_chain()
        while self.peek()[1] == "\\/":
            self.next()
            t = Join(t, self.meet_chain())
        return t

    def equation(self) -> Equation:
        lhs = self.term()
        kind, val, at = self.next()
        if val == "~":
            return Equation(lhs, self.term())
        if val == "<=":
            return Leq(lhs, self.term())
        raise ParseError(f"expected '~' or '<=', found {val or 'end of input'!r}", at)

    def quasi(self) -> QuasiEquation:
        eqs = [self.equation()]
        while self.peek()[1] == "&":
            self.next()
            eqs.append(self.equation())
        if self.peek()[1] == "=>":
            self.next()
            return QuasiEquation(tuple(eqs), self.equation())
        if len(eqs) == 1:
            return QuasiEquation((), eqs[0])
        self.fail("premise list must end with '=>'")

    def sequent(self) -> Sequent:
        self.expect("{")
        ante: list[Term] = []
        if self.peek()[1] != "}":
            ante.append(self.term())
            while self.peek()[1] == ",":
                self.next()
                ante.append(self.term())
        self.expect("}")
        self.expect("|>")
        return make_sequent(ante, self.term())

    def pos_exist(self) -> PosExistSentence:
        kind, val, at = self.next()
        if not (kind == "ident" and val == "E"):
            raise ParseError("positive existential sentences start with 'E'", at)
        names = []
        while self.peek()[0] == "ident":
            names.append(self.next()[1])
        if not names:
            self.fail("expected at least one bound variable")
        self.expect(".")
        matrix = [self.clause()]
        while self.peek()[1] == "&":
            self.next()
            matrix.append(self.clause())
        return PosExistSentence(tuple(names), tuple(matrix))

    def clause(self) -> tuple[Equation, ...]:
        eqs = [self.equation()]
        while self.peek()[1] == "|":
            self.next()
            eqs.append(self.equation())
        return tuple(eqs)

    def done(self):
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", at)


def _parse(text: str, production: str):
    p = _Parser(text)
    try:
        node = getattr(p, production)()
    except RecursionError:
        raise ParseError("input nested too deeply", p.tokens[p.pos - 1][2]) from None
    p.done()
    return node


def parse_term(text: str) -> Term:
    return _parse(text, "term")


def parse_equation(text: str) -> Equation:
    return _parse(text, "equation")


def parse_quasi(text: str) -> QuasiEquation:
    return _parse(text, "quasi")


def parse_sequent(text: str) -> Sequent:
    return _parse(text, "sequent")


def parse_pos_exist(text: str) -> PosExistSentence:
    return _parse(text, "pos_exist")


# -- evaluation ---------------------------------------------------------------

BLOCK = 4096        # assignments evaluated together, as one value vector


def evaluate(t: Term, env: dict, carrier):
    """The value of t on a carrier: an object whose methods ``zero``,
    ``one``, ``meet``, ``join``, ``box`` and ``dia`` interpret the term kinds
    of those names, where ``env`` gives each variable's value."""
    values = []
    for kind, var, at in t.program or _program(t):
        if var:
            try:
                values.append(env[var])
            except KeyError:
                raise PomaError(f"unassigned variable {var!r}") from None
        elif len(at) == 1:
            values.append(getattr(carrier, kind)(values[at[0]]))
        elif at:
            values.append(getattr(carrier, kind)(values[at[0]], values[at[1]]))
        else:
            values.append(getattr(carrier, kind)())
    return values[-1]


class Vectors:
    """The carrier of value vectors: tuples of ``length`` elements, the values
    of a term under that many assignments.  Coordinate c reads entry c of
    ``lattices``, ``boxes`` and ``dias``, each a list or an endless
    ``itertools.repeat`` of one table; ``map`` stops at the end of the
    vector, and a repeat has no state, so one carrier serves every call.
    :meth:`of` repeats the tables of one algebra, :meth:`over` reads one
    algebra per coordinate.  Zero, one, meet and join require the lattices
    on first use only, so a term without them gets values on any order."""

    __slots__ = ("lattices", "boxes", "dias", "length", "tables")

    def __init__(self, lattices, boxes, dias, length: int):
        self.lattices, self.boxes, self.dias = lattices, boxes, dias
        self.length, self.tables = length, {}

    @classmethod
    def of(cls, A: FiniteAlgebra, length: int) -> "Vectors":
        repeat = itertools.repeat
        return cls(repeat(A.lattice), repeat(A.box), repeat(A.diamond), length)

    @classmethod
    def over(cls, algebras) -> "Vectors":
        return cls([B.lattice for B in algebras], [B.box for B in algebras],
                   [B.diamond for B in algebras], len(algebras))

    def _lattice(self, name: str) -> list:
        """The ``name`` entry (bottom, top, meet or join) of each coordinate's
        lattice, listed on first use, when the lattices are required:
        StructuralError unless each is a bounded lattice."""
        table = self.tables.get(name)
        if table is None:
            lattices = list(itertools.islice(self.lattices, self.length))
            for lattice in set(lattices):
                lattice.require()
            table = self.tables[name] = list(map(attrgetter(name), lattices))
        return table

    def zero(self):
        return tuple(self._lattice("bottom"))

    def one(self):
        return tuple(self._lattice("top"))

    def meet(self, u, v):
        return tuple(map(getitem, map(getitem, self._lattice("meet"), u), v))

    def join(self, u, v):
        return tuple(map(getitem, map(getitem, self._lattice("join"), u), v))

    def box(self, u):
        return tuple(map(getitem, self.boxes, u))

    def dia(self, u):
        return tuple(map(getitem, self.dias, u))


def eval_term(A: FiniteAlgebra, t: Term, asg: dict[str, int]) -> int:
    """The value of t in A under one assignment."""
    _check_elements(asg.values(), A.size)
    return evaluate(t, {v: (a,) for v, a in asg.items()}, Vectors.of(A, 1))[0]


def assignment_blocks(names, size: int):
    """The assignments of elements 0..size-1 to the names, lexicographic, in
    blocks of :data:`BLOCK`: each block as its list of value tuples and as an
    environment of one value vector per name."""
    combos = itertools.product(range(size), repeat=len(names))
    while block := list(itertools.islice(combos, BLOCK)):
        yield block, dict(zip(names, zip(*block)))


def first_assignment(A: FiniteAlgebra, variables, clauses,
                     conclusion: Equation | None = None) -> dict[str, int] | None:
    """The first assignment to the variables, lexicographic by variable name
    then element index, under which every clause (a tuple of equations) has a
    true equation and ``conclusion``, when given, is false; None when there is
    none.  Terms are evaluated on :data:`BLOCK` assignments at a time, and an
    equation only while some assignment of the block still depends on it."""
    names = sorted(variables)
    for block, env in assignment_blocks(names, A.size):
        carrier = Vectors.of(A, len(block))

        def holds(e):
            return map(eq, evaluate(e.lhs, env, carrier), evaluate(e.rhs, env, carrier))

        live = [True] * len(block)
        for clause in clauses:
            sat = [False] * len(block)
            for e in clause:
                if True not in map(gt, live, sat):
                    break
                sat = list(map(or_, sat, holds(e)))
            live = list(map(and_, live, sat))
            if True not in live:
                break
        else:       # some assignment of the block satisfies every clause
            if conclusion is not None:
                live = map(gt, live, holds(conclusion))
            i = next(itertools.compress(itertools.count(), live), None)
            if i is not None:
                return dict(zip(names, block[i]))
    return None


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    witness: dict | None = None

    def __bool__(self):
        return self.holds


def holds_eq(A: FiniteAlgebra, e: Equation) -> CheckResult:
    """:func:`holds_quasi` for e with no premises."""
    witness = first_assignment(A, equation_variables(e), (), e)
    return CheckResult(witness is None, witness)


def holds_quasi(A: FiniteAlgebra, q: QuasiEquation) -> CheckResult:
    """Does q hold in A?  If not, the witness is the first refuting assignment
    in the order of :func:`first_assignment`."""
    variables = set().union(*map(equation_variables, (*q.premises, q.conclusion)))
    witness = first_assignment(A, variables, [(p,) for p in q.premises], q.conclusion)
    return CheckResult(witness is None, witness)


def holds_pos_exist(A: FiniteAlgebra, s: PosExistSentence) -> bool:
    return first_assignment(A, s.variables, s.matrix) is not None


# -- sequent translations -------------------------------------------------------

def tau(s: Sequent) -> Equation:
    """Collapse a sequent into the order statement "meet of premises <= head";
    an empty antecedent reads as the unit."""
    terms = sorted(s.antecedent, key=term_to_str)
    if not terms:
        lhs = ONE
    else:
        lhs = terms[0]
        for t in terms[1:]:
            lhs = Meet(lhs, t)
    return Leq(lhs, s.succedent)


def rho(e: Equation) -> tuple[Sequent, Sequent]:
    return (make_sequent([e.lhs], e.rhs), make_sequent([e.rhs], e.lhs))
