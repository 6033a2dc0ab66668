"""Command-line surface.  Exit codes: 0 pass/true, 1 fail/false, 2 usage
error, 3 budget exhaustion.  With --json the output is stable machine-readable
JSON; identical invocations produce identical bytes."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import completeness as comp
from . import dot as dotmod
from . import duality, free, varieties
from .algebras import FiniteAlgebra, validate
from .congruences import (MAX_CONGRUENCES, cg, con_lattice, is_fsi, is_si,
                          is_simple, is_well_connected, monolith)
from .corpus import CORPUS_NAMES, corpus_by_spec
from .enumeration import EnumerationTask, _in_search_order, default_cache_dir, enum_algebras
from .errors import BudgetError, PomaError
from .morphisms import hs_si
from .terms import (eval_term, holds_pos_exist, holds_quasi, parse_equation,
                    parse_pos_exist, parse_quasi, parse_sequent, parse_term,
                    equation_to_str, sequent_to_str, rho, tau)

PASS, FAIL, USAGE, BUDGET = 0, 1, 2, 3


def _emit(args, obj: dict, human: str) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")
    else:
        sys.stdout.write(human.rstrip("\n") + "\n")


def _load_algebra(args) -> FiniteAlgebra:
    if getattr(args, "name", None):
        return corpus_by_spec(args.name)
    if getattr(args, "file", None):
        try:
            return FiniteAlgebra.from_json(Path(args.file).read_text())
        except json.JSONDecodeError as exc:
            raise PomaError(f"{args.file} is not valid JSON: {exc}") from None
        except UnicodeDecodeError:
            raise PomaError(f"{args.file} is not UTF-8 text") from None
    raise PomaError("need --name or --file")


def _specs(text, option: str, sep: str = ",") -> list[str]:
    """The pieces of the generator list given to ``option``, each stripped,
    the empty ones dropped; PomaError when none is left."""
    if not text:
        raise PomaError(f"need {option} with a {sep!r}-separated generator list")
    specs = [s.strip() for s in text.split(sep) if s.strip()]
    if not specs:
        raise PomaError("empty generator list")
    return specs


def _generators(text, option: str = "--gens") -> tuple[list[FiniteAlgebra], str]:
    """The algebras of a generator list, and the label of their variety."""
    specs = _specs(text, option)
    return [corpus_by_spec(s) for s in specs], "V(" + ",".join(specs) + ")"


def _elements(texts, usage: str, piece: str) -> tuple[int, ...]:
    """The ints written in ``texts``; the library checks their range."""
    try:
        return tuple(int(t) for t in texts)
    except ValueError:
        raise PomaError(f"{usage}, got {piece!r}") from None


def _assignment(text: str) -> dict[str, int]:
    out = {}
    for piece in text.split(",") if text else ():
        key, _, value = piece.partition("=")
        out[key.strip()] = _elements((value,), "--assign wants 'x=0,y=1'", piece)[0]
    return out


def _pairs(text: str, option: str) -> list[tuple[int, ...]]:
    return [_elements(piece.partition(",")[::2], f"{option} wants 'a,b;c,d'", piece)
            for piece in text.split(";")]


# -- command handlers ---------------------------------------------------------

def cmd_validate(args) -> int:
    A = _load_algebra(args)
    rep = validate(A)
    obj = {"name": A.name, "size": A.size,
           "is_bounded_lattice": rep.is_bounded_lattice,
           "is_distributive": rep.is_distributive,
           "is_pma": rep.is_pma, "is_pk4": rep.is_pk4, "is_ps4": rep.is_ps4,
           "violations": [[code, list(w)] for code, w in rep.violations]}
    lines = [f"{A.name or 'algebra'} (size {A.size}):",
             f"  bounded lattice: {rep.is_bounded_lattice}",
             f"  distributive:    {rep.is_distributive}",
             f"  PMA: {rep.is_pma}   PK4: {rep.is_pk4}   PS4: {rep.is_ps4}"]
    for code, w in rep.violations:
        lines.append(f"  violation {code} at {tuple(w)}")
    _emit(args, obj, "\n".join(lines))
    return PASS if rep.is_pma else FAIL


def cmd_show(args) -> int:
    A = _load_algebra(args)
    if args.dot:
        sys.stdout.write(dotmod.algebra_dot(A))
        return PASS
    obj = A.to_dict()
    lines = [f"{A.name or 'algebra'}: size {A.size}",
             "  covers: " + ", ".join(f"{a}<{b}" for a, b in sorted(A.covers())),
             f"  box:     {list(A.box)}",
             f"  diamond: {list(A.diamond)}"]
    _emit(args, obj, "\n".join(lines))
    return PASS


def cmd_cg(args) -> int:
    A = _load_algebra(args)
    part = cg(A, _pairs(args.pairs, "--pairs"))
    _emit(args, {"partition": part.to_json_obj()}, f"{part.to_json_obj()}")
    return PASS


def cmd_conlat(args) -> int:
    A = _load_algebra(args)
    cons = con_lattice(A, args.budget)
    obj = {"count": len(cons), "congruences": [p.to_json_obj() for p in cons]}
    human = f"{len(cons)} congruences\n" + "\n".join(str(p.to_json_obj()) for p in cons)
    _emit(args, obj, human)
    return PASS


def cmd_si(args) -> int:
    A = _load_algebra(args)
    verdict = is_si(A)
    obj = {"is_si": verdict}
    if verdict:
        obj["monolith"] = monolith(A).to_json_obj()
    _emit(args, obj, f"subdirectly irreducible: {verdict}")
    return PASS if verdict else FAIL


def cmd_simple(args) -> int:
    A = _load_algebra(args)
    verdict = is_simple(A)
    _emit(args, {"is_simple": verdict}, f"simple: {verdict}")
    return PASS if verdict else FAIL


def cmd_wc(args) -> int:
    A = _load_algebra(args)
    verdict = is_well_connected(A)
    _emit(args, {"is_well_connected": verdict}, f"well-connected: {verdict}")
    return PASS if verdict else FAIL


def cmd_hs(args) -> int:
    A = _load_algebra(args)
    members = hs_si(A)
    labels = [varieties._label_for(m) for m in members]
    obj = {"count": len(members), "members": [m.to_dict() for m in members],
           "labels": labels}
    _emit(args, obj, f"si part of HS: {', '.join(labels)}")
    return PASS


def cmd_dual(args) -> int:
    A = _load_algebra(args)
    X = duality.dual_space(A)
    if args.dot:
        sys.stdout.write(dotmod.dual_space_dot(X))
        return PASS
    _emit(args, X.to_dict(),
          f"{len(X.points)} points: " + "; ".join(str(sorted(p)) for p in X.points))
    return PASS


def cmd_envelope(args) -> int:
    A = _load_algebra(args)
    env = duality.boolean_envelope(A)
    M = env.algebra
    obj = {"size": M.size, "algebra": M.to_dict(),
           "complement": list(env.modal.complement),
           "kappa": list(env.kappa.mapping)}
    _emit(args, obj, f"envelope size {M.size}; embedding {list(env.kappa.mapping)}")
    return PASS


def cmd_complex(args) -> int:
    # lazy, so that complex_algebra refuses a bad count before any pair is made
    if args.preorder == "geq":
        rel = ((i, j) for i in range(args.worlds) for j in range(args.worlds) if i >= j)
    elif args.preorder == "total":
        rel = ((i, j) for i in range(args.worlds) for j in range(args.worlds))
    elif args.preorder == "id":
        rel = ((i, i) for i in range(args.worlds))
    else:
        rel = _pairs(args.preorder, "--preorder")
    A = duality.complex_algebra(args.worlds, rel)
    rep = validate(A)
    obj = A.to_dict()
    obj["is_ps4"] = rep.is_ps4
    _emit(args, obj, f"complex algebra: size {A.size}, ps4={rep.is_ps4}")
    return PASS


def cmd_free(args) -> int:
    result = free.free_over(_generators(args.gens)[0], args.rank)
    obj = result.to_dict()
    _emit(args, obj,
          f"free algebra of rank {args.rank}: size {result.algebra.size}, "
          f"generators {list(result.generators)}")
    return PASS


def cmd_freezero(args) -> int:
    A = free.free_zero(_generators(args.gens)[0])
    _emit(args, A.to_dict(), f"zero-generated free algebra: size {A.size} "
          f"({varieties._label_for(A)})")
    return PASS


def cmd_figure1_verify(args) -> int:
    report = free.verify_figure1(enum_bound=args.max_size)
    obj = {"passed": report.passed, "enum_bound": report.enum_bound,
           "stages": [[name, ok, detail] for name, ok, detail in report.stages]}
    _emit(args, obj, "\n".join(report.lines()))
    return PASS if report.passed else FAIL


def cmd_enumerate(args) -> int:
    task = EnumerationTask(args.kind, args.max_size, si_only=args.si_only)
    cache = None
    if args.cache or args.resume:
        cache = Path(args.cache) if args.cache else default_cache_dir()
    algebras = enum_algebras(task, cache_dir=cache, resume=args.resume)
    for A in algebras:
        sys.stdout.write(A.to_json() + "\n")
    return PASS


def cmd_variety(args) -> int:
    if args.mode == "include":
        gens, other = _generators(args.gens), _generators(args.other, "--other")
        V, W = varieties.variety_of(*gens), varieties.variety_of(*other)
        verdict = varieties.includes(V, W)
        _emit(args, {"includes": verdict}, f"{V.label} includes {W.label}: {verdict}")
        return PASS if verdict else FAIL
    if args.mode == "covers":
        handles = [varieties.variety_of([corpus_by_spec(s)], f"V({s})")
                   for s in _specs(args.gens, "--gens", ";")]
    else:
        handles = list(varieties.figure4_handles())
    edges = varieties.covers_poset(handles)         # sorted: listed in (i, j) order
    if args.dot:
        sys.stdout.write(dotmod.variety_poset_dot(handles, edges))
        return PASS
    obj = {"nodes": [h.label for h in handles], "edges": [list(e) for e in edges]}
    if args.mode == "figure4":
        obj["batteries"] = {}
    _emit(args, obj, "\n".join(f"{handles[i].label} < {handles[j].label}"
                               for i, j in edges))
    return PASS


def cmd_split(args) -> int:
    A = _load_algebra(args)
    fn = {"c3a": varieties.splitting_c3a, "c3b": varieties.splitting_c3b,
          "d3": varieties.splitting_d3}[args.which]
    verdict = fn(A)
    obj = {"satisfies_equation": verdict.satisfies_equation,
           "excludes_splitter": verdict.excludes_splitter,
           "consistent": verdict.consistent}
    _emit(args, obj,
          f"equation holds: {verdict.satisfies_equation}; splitter excluded: "
          f"{verdict.excludes_splitter}; consistent: {verdict.consistent}")
    return PASS if verdict.consistent else FAIL


def cmd_battery(args) -> int:
    si_batteries = {"thm610": varieties.theorem610_battery, "lemma92": varieties.lemma92_battery}
    if args.which in si_batteries:
        rep = si_batteries[args.which](args.max_size)
        obj = {"passed": rep.passed, "bound": rep.bound, "witnesses": list(rep.witnesses)}
        _emit(args, obj, f"bound {rep.bound}: {'pass' if rep.passed else 'FAIL'}: "
              "{" + ", ".join(rep.witnesses) + "}")
        return PASS if rep.passed else FAIL
    # these two batteries report counts and verdicts only, so they walk the
    # enumeration in search order, without the sort by canonical form
    if args.which == "thm42":
        failures = []
        count = 0
        for A in _in_search_order(EnumerationTask("PS4", args.max_size, fsi_only=True)):
            count += 1
            if not is_fsi(duality.boolean_envelope(A).algebra):
                failures.append(A.to_json())
        ok = not failures
        _emit(args, {"passed": ok, "bound": args.max_size, "checked": count},
              f"bound {args.max_size}: checked {count} fsi algebras: "
              f"{'pass' if ok else 'FAIL'}")
        return PASS if ok else FAIL
    failures = 0
    count = 0
    for A in _in_search_order(EnumerationTask("PS4", args.max_size)):
        verdicts = free._fact52_verdicts(A)
        count += len(verdicts)
        failures += verdicts.count(False)
    ok = failures == 0
    _emit(args, {"passed": ok, "bound": args.max_size, "checked": count},
          f"bound {args.max_size}: checked {count} element landmarks: "
          f"{'pass' if ok else 'FAIL'}")
    return PASS if ok else FAIL


def cmd_complete(args) -> int:
    if args.which == "openproblem":
        rows = comp.open_problem_scan(args.depth)
        candidates = [r for r in rows if r.candidate]
        obj = {"bound": args.depth,
               "rows": [[r.label, r.generator_size, r.inside_ps4, r.sc_status,
                         r.asc_status, r.candidate] for r in rows],
               "candidates": len(candidates)}
        lines = [f"{r.label:16s} size={r.generator_size} ps4={r.inside_ps4} "
                 f"sc={r.sc_status} asc={r.asc_status}"
                 + ("  <- candidate" if r.candidate else "") for r in rows]
        lines.append(f"{len(candidates)} bounded candidates at size bound {args.depth}")
        _emit(args, obj, "\n".join(lines))
        return PASS
    handle = varieties.variety_of(*_generators(args.gens))
    if args.which == "sc":
        verdict = comp.is_sc_pk4(handle)
    elif args.which == "hsc":
        verdict = comp.is_hsc_pk4(handle)
    elif args.which == "psc":
        verdict = comp.is_psc(handle)
    elif args.which == "asc":
        verdict = comp.asc_necessary(handle)
    else:
        verdict = comp.theorem93_battery(handle, args.depth)
    obj = {"status": verdict.status, "bound": verdict.bound,
           "witness": repr(verdict.witness) if verdict.witness is not None else None,
           "detail": verdict.detail}
    _emit(args, obj, f"{handle.label} {args.which}: {verdict.status}"
          + (f" ({verdict.detail})" if verdict.detail else ""))
    if verdict.status == "Yes":
        return PASS
    return FAIL


def cmd_quasi(args) -> int:
    q = parse_quasi(args.quasi)
    handle = varieties.variety_of(*_generators(args.gens))
    cls = comp.classify_quasi(handle, q, max_free_rank=args.free_rank)
    obj = {"status": cls.status, "valid": cls.valid, "active": cls.active,
           "admissible_up_to_bound": cls.admissible_up_to_bound,
           "bound": cls.bound, "refuted_at": cls.refuted_at}
    human = (f"{cls.status}  valid={cls.valid} active={cls.active} "
             f"admissible_up_to_{cls.bound}={cls.admissible_up_to_bound}")
    _emit(args, obj, human)
    if args.mode == "admissible":
        return PASS if cls.admissible_up_to_bound else FAIL
    return PASS if cls.valid else FAIL


def cmd_eval(args) -> int:
    A = _load_algebra(args)
    if args.equation:
        res = holds_quasi(A, parse_quasi(args.equation))
        obj = {"holds": res.holds,
               "witness": res.witness if res.witness is not None else None}
        _emit(args, obj, f"holds: {res.holds}"
              + (f" (witness {res.witness})" if res.witness else ""))
        return PASS if res.holds else FAIL
    if args.sentence:
        verdict = holds_pos_exist(A, parse_pos_exist(args.sentence))
        _emit(args, {"holds": verdict}, f"holds: {verdict}")
        return PASS if verdict else FAIL
    if not args.term:
        raise PomaError("eval needs one of --term, --equation or --sentence")
    value = eval_term(A, parse_term(args.term), _assignment(args.assign))
    _emit(args, {"value": value}, f"value: {value}")
    return PASS


def cmd_translate(args) -> int:
    if args.which == "tau":
        eq = tau(parse_sequent(args.input))
        _emit(args, {"equation": equation_to_str(eq)}, equation_to_str(eq))
    else:
        left, right = rho(parse_equation(args.input))
        obj = {"sequents": [sequent_to_str(left), sequent_to_str(right)]}
        _emit(args, obj, sequent_to_str(left) + "\n" + sequent_to_str(right))
    return PASS


# -- parser ---------------------------------------------------------------------

def _add_algebra_args(p):
    p.add_argument("--name", help="corpus name (NAME or NAME:n)")
    p.add_argument("--file", help="JSON algebra file")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="poma",
        description="workbench for finite positive modal algebras "
                    f"(corpus: {', '.join(CORPUS_NAMES)})")
    sub = top.add_subparsers(dest="command", required=True)

    for cmd, fn in (("validate", cmd_validate), ("si", cmd_si),
                    ("simple", cmd_simple), ("wc", cmd_wc), ("hs", cmd_hs),
                    ("envelope", cmd_envelope)):
        p = sub.add_parser(cmd)
        _add_algebra_args(p)
        p.set_defaults(handler=fn)

    p = sub.add_parser("show")
    _add_algebra_args(p)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=cmd_show)

    p = sub.add_parser("cg")
    _add_algebra_args(p)
    p.add_argument("--pairs", required=True, help="e.g. '1,2;0,3'")
    p.set_defaults(handler=cmd_cg)

    p = sub.add_parser("conlat")
    _add_algebra_args(p)
    p.add_argument("--budget", type=int, default=MAX_CONGRUENCES)
    p.set_defaults(handler=cmd_conlat)

    p = sub.add_parser("dual")
    _add_algebra_args(p)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser("complex")
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--preorder", default="geq",
                   help="'geq', 'total', 'id', or pair list 'a,b;c,d'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_complex)

    p = sub.add_parser("free")
    p.add_argument("--gens", required=True, help="comma-separated corpus names")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_free)

    p = sub.add_parser("freezero")
    p.add_argument("--gens", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_freezero)

    p = sub.add_parser("figure1-verify")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_figure1_verify)

    p = sub.add_parser("enumerate")
    p.add_argument("--kind", choices=("PMA", "PK4", "PS4"), required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--si-only", action="store_true")
    p.add_argument("--cache", help="cache directory for JSONL slices")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("variety")
    p.add_argument("mode", choices=("include", "covers", "figure4"))
    p.add_argument("--gens", help="left-hand generators")
    p.add_argument("--other", help="right-hand generators for include")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_variety)

    p = sub.add_parser("split")
    p.add_argument("which", choices=("c3a", "c3b", "d3"))
    _add_algebra_args(p)
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("battery")
    p.add_argument("which", choices=("thm610", "lemma92", "thm42", "fact52"))
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_battery)

    p = sub.add_parser("complete")
    p.add_argument("which", choices=("sc", "hsc", "psc", "asc", "thm93",
                                     "openproblem"))
    p.add_argument("--gens", help="comma-separated corpus names")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_complete)

    p = sub.add_parser("quasi")
    p.add_argument("mode", choices=("classify", "admissible"))
    p.add_argument("--gens", required=True)
    p.add_argument("--quasi", required=True)
    p.add_argument("--free-rank", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_quasi)

    p = sub.add_parser("eval")
    _add_algebra_args(p)
    p.add_argument("--term")
    p.add_argument("--assign", default="", help="e.g. 'x=1,y=2'")
    p.add_argument("--equation", help="equation or quasi-equation to check")
    p.add_argument("--sentence", help="positive existential sentence")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("translate")
    p.add_argument("which", choices=("tau", "rho"))
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_translate)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except BudgetError as exc:
        partial = "" if exc.partial is None else f" (partial: {exc.partial})"
        sys.stderr.write(f"budget exhausted: {exc}{partial}\n")
        return BUDGET
    except PomaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE
    except RecursionError:
        # the parser refuses deep nesting and no walk over a term recurses;
        # what still lands here is a JSON file nested past the json limit
        sys.stderr.write("error: input nested too deeply\n")
        return USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
