"""Desk-scale deciders for structural completeness and its active, passive,
and hereditary variants over finitely generated varieties of positive K4- and
S4-algebras, plus bounded admissibility classification of quasi-equations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from . import algebras
from .congruences import is_simple
from .corpus import corpus
from .enumeration import EnumerationTask, enum_algebras
from .errors import ConsistencyError, PreconditionError, _check_count
from .free import free_over, free_zero
from .morphisms import embeddings, is_iso, is_retract
from .terms import (QuasiEquation, box_power, diamond_power, equation_variables,
                    first_assignment, holds_eq, holds_quasi, Leq, Meet, Join,
                    Var)
from .varieties import (EQ_BOX_BOT, EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT,
                        EQ_DIA_TOP, EQ_SPLIT_D3, VarietyHandle, equals,
                        member_si, variety_of)

_X = Var("x")


@dataclass(frozen=True)
class Verdict:
    status: str                       # "Yes" | "No" | "UnknownUpToBound"
    bound: Optional[int] = None
    witness: object = None
    detail: str = ""

    def __bool__(self):
        return self.status == "Yes"


def _require_kind(V: VarietyHandle, kind: str):
    for g in V.generators:
        algebras._require_kind(g, kind, V.label)


def _require_nontrivial(V: VarietyHandle):
    if V.is_trivial:
        raise PreconditionError(f"{V.label} is the trivial variety")


# -- quasi-equation classification ------------------------------------------------

@dataclass(frozen=True)
class QuasiClassification:
    valid: bool
    active: bool
    active_rank: Optional[int]            # least free rank with premise-solving assignment
    active_witness: Optional[dict]
    refuted_at: Optional[int]             # least free rank where the quasi-equation fails
    refutation_witness: Optional[dict]
    bound: int

    @property
    def admissible_up_to_bound(self) -> bool:
        return self.refuted_at is None

    @property
    def activity_status(self) -> str:
        if self.active:
            return f"ActiveWitness({self.active_rank})"
        return f"PassiveUpTo({self.bound})"

    @property
    def admissibility_status(self) -> str:
        if self.valid:
            return "Valid"
        if self.refuted_at is not None:
            return f"RefutedAdmissibilityAt({self.refuted_at})"
        return f"AdmissibleUpTo({self.bound})"

    @property
    def status(self) -> str:
        if self.valid or self.refuted_at is not None:
            return self.admissibility_status
        return self.activity_status


def classify_quasi(V: VarietyHandle, q: QuasiEquation,
                   max_free_rank: int = 2) -> QuasiClassification:
    """Classify a quasi-equation over a finitely generated variety.

    Validity is checked on the generators (equivalently, on the generated
    quasi-variety).  Admissibility is approximated through the free algebras
    of rank <= max_free_rank: a failure there is a sound refutation, passing
    is bounded evidence only.  Activity searches those same free algebras for
    an assignment making every premise hold."""
    _check_count(max_free_rank, "free rank", "bound")
    if V.generators and not V.is_trivial:
        valid = all(holds_quasi(g, q) for g in V.generators)
    else:
        valid = True
    free_algebras = [free_over(V.generators, m) for m in range(max_free_rank + 1)]
    active_rank = None
    active_witness = None
    variables = set().union(*map(equation_variables, q.premises))
    for m, fr in enumerate(free_algebras):
        active_witness = first_assignment(fr.algebra, variables,
                                          [(p,) for p in q.premises])
        if active_witness is not None:
            active_rank = m
            break
    refuted_at = None
    refutation_witness = None
    for m, fr in enumerate(free_algebras):
        res = holds_quasi(fr.algebra, q)
        if not res:
            refuted_at, refutation_witness = m, res.witness
            break
    return QuasiClassification(valid, active_rank is not None, active_rank,
                               active_witness, refuted_at, refutation_witness,
                               max_free_rank)


# -- passive structural completeness ------------------------------------------------

def is_psc(V: VarietyHandle) -> Verdict:
    """Decide passive structural completeness by two independent routes that
    must agree: (structure) the variety is the one generated by the collapsed
    two-element algebra, or its zero-generated free algebra is the two-element
    chain and D3 is excluded; (equations) the same first disjunct, or the
    bound-fixing equations plus the D3 splitting inequality hold."""
    _require_kind(V, "PK4")
    if V.is_trivial:
        return Verdict("Yes", detail="trivial variety: every quasi-equation is valid")
    b2 = equals(V, variety_of([corpus("B2")]))
    c2 = corpus("C2")
    structural = b2 or (is_iso(free_zero(V.generators), c2)
                        and not member_si(V, corpus("D3")))
    equational = b2 or all(
        holds_eq(g, eq) for g in V.generators
        for eq in (EQ_DIA_TOP, EQ_BOX_BOT, EQ_SPLIT_D3))
    if structural != equational:
        raise ConsistencyError(
            f"{V.label}: structural route says {structural}, equational route says {equational}")
    if structural:
        detail = "generated by the collapsed two-element algebra" if b2 else \
            "zero-generated free algebra is C2 and D3 is excluded"
        return Verdict("Yes", detail=detail)
    if member_si(V, corpus("D3")):
        return Verdict("No", witness="D3", detail="D3 lies in the variety")
    return Verdict("No", detail="zero-generated free algebra differs from C2")


# -- (hereditary) structural completeness --------------------------------------------

def is_sc_pk4(V: VarietyHandle) -> Verdict:
    _require_kind(V, "PK4")
    _require_nontrivial(V)
    for name in ("B2", "C2", "D4"):
        if equals(V, variety_of([corpus(name)])):
            return Verdict("Yes", witness=name, detail=_sc_evidence(V, name))
    return Verdict("No", detail="not one of the three structurally complete varieties")


def _sc_evidence(V: VarietyHandle, name: str) -> str:
    """Constructive back-up for a Yes verdict: D4 must be a retract of the
    one-generated free algebra; for the two-element generators every
    subdirectly irreducible member must embed into it."""
    fr = free_over(V.generators, 1)
    if name == "D4":
        if not is_retract(corpus("D4"), fr.algebra):
            raise ConsistencyError("D4 is not a retract of its one-generated free algebra")
        return "D4 is a retract of the one-generated free algebra"
    for member in V.si_closure:
        if not embeddings(member, fr.algebra):
            raise ConsistencyError(
                f"{V.label}: an si member fails to embed into the one-generated free algebra")
    return "every si member embeds into the one-generated free algebra"


# SC and HSC coincide on PK4: every nontrivial subvariety of V(B2), V(C2) or
# V(D4) is one of those three.
is_hsc_pk4 = is_sc_pk4


def asc_necessary(V: VarietyHandle) -> Verdict:
    """Active structural completeness over positive S4-algebras: refuted when
    C3a, C3b or D3 lies in the variety; otherwise settled by the
    operator-idempotence equations."""
    _require_kind(V, "PS4")
    if V.is_trivial:
        return Verdict("Yes", detail="trivial variety")
    for name in ("C3a", "C3b", "D3"):
        if member_si(V, corpus(name)):
            return Verdict("No", witness=name,
                           detail=f"{name} lies in the variety")
    idem = all(holds_eq(g, eq) for g in V.generators
               for eq in (EQ_BOX_IDEMPOTENT, EQ_DIA_IDEMPOTENT))
    if not idem:
        raise ConsistencyError(
            f"{V.label} excludes the three splitting algebras yet fails the idempotence equations")
    return Verdict("Yes", detail="operator-idempotence equations hold")


def theorem93_battery(V: VarietyHandle, bound: int = 4) -> Verdict:
    """Search the least n and m with box x /\\ ... /\\ box^n x <= x and
    x <= dia x \\/ ... \\/ dia^m x holding across the generators; the
    collapsed two-element variety forms its own branch."""
    _check_count(bound, "bound", "bound")
    if equals(V, variety_of([corpus("B2")])):
        return Verdict("Yes", witness="B2", detail="collapsed-operator branch")

    def least(law):
        """The least k <= bound whose equation law(k) holds in every generator."""
        return next((k for k in range(1, bound + 1)
                     if all(holds_eq(g, law(k)) for g in V.generators)), None)

    n = least(lambda k: Leq(reduce(Meet, (box_power(_X, i) for i in range(1, k + 1))), _X))
    m = least(lambda k: Leq(_X, reduce(Join, (diamond_power(_X, i) for i in range(1, k + 1)))))
    if n is not None and m is not None:
        return Verdict("Yes", bound=bound, witness=(n, m),
                       detail=f"least exponents n={n}, m={m}")
    return Verdict("UnknownUpToBound", bound=bound,
                   detail="no exponents found within the bound")


def lemma22_check(V: VarietyHandle) -> bool:
    """When the variety is passively structurally complete, its zero-generated
    free algebra must be simple or trivial."""
    if is_psc(V).status != "Yes":
        return True
    fz = free_zero(V.generators) if V.generators else corpus("trivial")
    return fz.size == 1 or is_simple(fz)


@dataclass(frozen=True)
class OpenProblemRow:
    label: str
    generator_size: int
    inside_ps4: bool
    sc_status: str
    asc_status: str
    candidate: bool


def open_problem_scan(max_size: int = 5) -> tuple[OpenProblemRow, ...]:
    """Experiment: scan single-generated handles over enumerated subdirectly
    irreducible positive K4-algebras, looking for handles where active
    structural completeness cannot be refuted even though structural
    completeness fails.  Inside PS4 the classification is decisive; outside it
    (and away from the collapsed two-element variety) every verdict is
    bounded, so candidates are reported, never concluded."""
    rows = []
    for A in enum_algebras(EnumerationTask("PK4", max_size, si_only=True)):
        V = variety_of([A], f"V(<{A.size}-element>)")
        inside_ps4 = all(algebras.validate(g).is_ps4 for g in V.generators)
        sc = is_sc_pk4(V)
        if inside_ps4:
            asc = asc_necessary(V)
            asc_status = asc.status
        elif sc.status == "Yes":            # only V(B2) lands here
            asc_status = "Yes"
        else:
            asc_status = "UnknownUpToBound"
        rows.append(OpenProblemRow(V.label, A.size, inside_ps4, sc.status,
                                   asc_status, candidate=(
                                       sc.status == "No" and asc_status.startswith("Unknown"))))
    return tuple(rows)
