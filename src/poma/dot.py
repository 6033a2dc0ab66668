"""DOT (graphviz) exports for Hasse diagrams, dual spaces, and variety posets.

Node identifiers are derived from canonical-form hashes where isomorphism
stability matters, so regenerated graphs diff cleanly.
"""
from __future__ import annotations

import hashlib

from .algebras import FiniteAlgebra, _covers, _mask
from .duality import DualSpace
from .morphisms import canonical_form


def _stable_id(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:10]


def algebra_dot(A: FiniteAlgebra) -> str:
    """Hasse diagram with box/diamond tables in the node labels."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in range(A.size):
        marks = []
        if A.box[x] == x and x not in (A.bottom(), A.top()):
            marks.append("box")
        if A.diamond[x] == x and x not in (A.bottom(), A.top()):
            marks.append("dia")
        label = str(x) + (f" [{','.join(marks)}]" if marks else "")
        lines.append(f'  n{x} [label="{label}"];')
    for lo, hi in sorted(A.covers()):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dual_space_dot(X: DualSpace) -> str:
    """Two edge families: solid for the order covers, dashed for the relation."""
    n = len(X.points)
    up, down = list(map(_mask, X.leq)), list(map(_mask, zip(*X.leq)))
    lines = ["digraph dual {", "  rankdir=BT;"]
    for i, p in enumerate(X.points):
        label = "{" + ",".join(map(str, sorted(p))) + "}"
        lines.append(f'  p{i} [label="{label}"];')
    for i in range(n):
        for j in _covers(up, down, i):
            lines.append(f"  p{i} -> p{j};")
    for i in range(n):
        for j in range(n):
            if X.R[i][j]:
                lines.append(f"  p{i} -> p{j} [style=dashed,constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def variety_poset_dot(handles, edges) -> str:
    """Hasse diagram of variety handles; node ids hash the si-closure."""
    lines = ["digraph varieties {", "  rankdir=BT;"]
    ids = []
    for h in handles:
        key = _stable_id(repr(sorted(canonical_form(a) for a in h.si_closure)))
        ids.append(key)
        lines.append(f'  v{key} [label="{h.label}"];')
    for lo, hi in edges:
        lines.append(f"  v{ids[lo]} -> v{ids[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
