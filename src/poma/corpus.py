"""Named catalog of finite positive modal algebras used throughout the package.

Chains are written bottom-up (element 0 is the bottom).  Operator tables for
the chain-shaped entries follow the fixed-point convention: box sends each
element to the greatest box-fixed point below it, diamond to the least
diamond-fixed point above it.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .algebras import FiniteAlgebra, _order_of, chain_order, powerset
from .errors import PomaError


def _chain(box, diamond, name):
    n = len(box)
    return FiniteAlgebra(n, chain_order(n), tuple(box), tuple(diamond), name)


def _from_covers(n, covers, box, diamond, name):
    return FiniteAlgebra(n, _order_of(n, covers), tuple(box), tuple(diamond), name)


def _boolean(n_atoms, box_of_mask, name):
    """Powerset algebra over n_atoms atoms; diamond is the De Morgan dual."""
    masks, index, order, complement = powerset(n_atoms)
    box = tuple(index[box_of_mask(m)] for m in masks)
    diamond = tuple(complement[box[c]] for c in complement)
    return FiniteAlgebra(len(masks), order, box, diamond, name)


def _an_minus_box(n):
    full = (1 << n) - 1

    def box_of(m):
        if m == full:
            return m
        if not m & 1:           # first atom missing
            return 0
        return 1                # just the first atom
    return box_of


def _simple_ops_box(n):
    full = (1 << n) - 1

    def box_of(m):
        return full if m == full else 0
    return box_of


@lru_cache(maxsize=None)
def _builders():
    trivial = FiniteAlgebra(1, ((True,),), (0,), (0,), "trivial")
    fixed = {
        "TRIVIAL": trivial,
        "C2": _chain((0, 1), (0, 1), "C2"),
        "B2": _chain((1, 1), (0, 0), "B2"),
        "D3": _chain((0, 0, 2), (0, 2, 2), "D3"),
        "C3A": _chain((0, 0, 2), (0, 1, 2), "C3a"),
        "C3B": _chain((0, 1, 2), (0, 2, 2), "C3b"),
        "EX44III": _chain((0, 1, 2), (0, 1, 2), "EX44III"),
        "D4": _chain((0, 1, 1, 3), (0, 2, 2, 3), "D4"),
        "C4A": _chain((0, 0, 0, 3), (0, 2, 2, 3), "C4a"),
        "C4B": _chain((0, 1, 1, 3), (0, 3, 3, 3), "C4b"),
        "B4": _chain((0, 0, 0, 3), (0, 3, 3, 3), "B4"),
        "C5A": _chain((0, 0, 2, 2, 4), (0, 3, 3, 3, 4), "C5a"),
        "C5B": _chain((0, 1, 1, 1, 4), (0, 2, 2, 4, 4), "C5b"),
        "EX44IV": _chain((0, 0, 0, 0, 4), (0, 4, 4, 4, 4), "EX44IV"),
        # diamond lattice 0 < {1, 2} < 3
        "A4": _from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                           (0, 0, 0, 3), (0, 3, 3, 3), "A4"),
        # 0 < 1 < {2, 3} < 4
        "D5A": _from_covers(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
                            (0, 0, 0, 0, 4), (0, 4, 4, 4, 4), "D5a"),
        # 0 < {1, 2} < 3 < 4
        "D5B": _from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
                            (0, 0, 0, 0, 4), (0, 4, 4, 4, 4), "D5b"),
        # 0 < 1 < {2, 3} < 4 < 5; box fixes 3, diamond fixes 4
        "C6A": _from_covers(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
                            (0, 0, 0, 3, 3, 5), (0, 4, 4, 4, 4, 5), "C6a"),
        # dual shape: box fixes 1, diamond fixes 3
        "C6B": _from_covers(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
                            (0, 1, 1, 1, 1, 5), (0, 3, 5, 3, 5, 5), "C6b"),
    }
    return fixed


FIG2_NAMES = ("C2", "D3", "C3a", "C3b", "D4", "C4a", "C4b",
              "C5a", "C5b", "C6a", "C6b")
FIG3_NAMES = ("A4", "D5a", "D5b", "B4")
PARAMETRIC_NAMES = ("EX46", "AN_MINUS", "AN_SIMPLE")
CORPUS_NAMES = FIG2_NAMES + FIG3_NAMES + (
    "B2", "EX44III", "EX44IV", "F1_PS4", "trivial") + PARAMETRIC_NAMES


@lru_cache(maxsize=None)
def corpus(name: str, parameter: int | None = None) -> FiniteAlgebra:
    """Look up a catalog algebra by (case-insensitive) name.

    ``EX46``, ``AN_MINUS`` and ``AN_SIMPLE`` take an integer parameter; the
    rest reject one.
    """
    key = name.strip().upper()
    fixed = _builders()
    if key in fixed:
        if parameter is not None:
            raise PomaError(f"{name} does not take a parameter")
        return fixed[key]
    if key == "F1_PS4":
        if parameter is not None:
            raise PomaError(f"{name} does not take a parameter")
        from .free import figure1_algebra
        return figure1_algebra().algebra
    if key in ("EX46", "AN_SIMPLE", "AN_MINUS"):
        if parameter is None:
            raise PomaError(f"{name} needs an integer parameter")
        lo = {"EX46": 3, "AN_SIMPLE": 2, "AN_MINUS": 1}[key]
        if not lo <= parameter <= 6:
            raise PomaError(f"{name} parameter must be in {lo}..6")
        label = f"{key}({parameter})"
        if key == "AN_MINUS":
            return _boolean(parameter, _an_minus_box(parameter), label)
        return _boolean(parameter, _simple_ops_box(parameter), label)
    raise PomaError(f"unknown corpus name: {name!r}")


_PARAM_RE = re.compile(r"^([A-Za-z0-9_]+):(\d+)$")


def corpus_by_spec(spec: str) -> FiniteAlgebra:
    """Parse ``NAME`` or ``NAME:n`` (used by the CLI and variety labels)."""
    m = _PARAM_RE.match(spec.strip())
    if m:
        return corpus(m.group(1), int(m.group(2)))
    return corpus(spec)
