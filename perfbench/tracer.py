"""Outside-in per-layer tracer for poma.

The program has no instrumentation of its own, so the traced run measures
each layer from outside: every listed public function is replaced, in every
``poma.*`` module that binds it, by a wrapper that counts calls and measures
self time (its own duration minus the time spent in traced callees).

Rules the wrapper keeps:

* ``from .x import f`` copies the binding into the importing module, so every
  module attribute that *is* the original object gets rebound, under any name.
* Algebra construction is traced by hooking ``FiniteAlgebra.__post_init__``
  on the class (layer name ``algebras.build``).
* Arguments pass through unchanged, so ``lru_cache`` keys stay the same;
  cache statistics are read from the unwrapped ``lru_cache`` objects.
* Inner-loop primitives (``meet``/``join``, the recursion in ``eval_term``,
  ``Partition`` methods) are never wrapped: the per-call cost would swamp
  the work they do.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# layer module -> traced public functions
FUNCTIONS = {
    "algebras": ("validate",),
    "congruences": ("cg", "principal_congruences", "con_lattice",
                    "cmi_congruences", "is_si", "is_fsi"),
    "morphisms": ("canonical_form", "extend_hom", "hs_si", "si_quotients",
                  "subuniverses"),
    "terms": ("holds_eq",),
    "duality": ("dual_space", "kappa", "upset_algebra", "boolean_envelope",
                "prime_filters"),
    "free": ("free_over", "verify_figure1"),
    "enumeration": ("enum_algebras", "enum_bdl"),
    "varieties": ("variety_of", "theorem610_battery"),
}
BUILD = "algebras.build"
# the module-level lru_caches whose hits, misses and entries are reported
CACHES = (
    ("algebras", "validate"),
    ("congruences", "principal_congruences"),
    ("congruences", "_con_ids"),
    ("congruences", "con_lattice"),
    ("congruences", "cmi_congruences"),
    ("morphisms", "canonical_form"),
    ("morphisms", "hs_si"),
    ("duality", "prime_filters"),
    ("duality", "boolean_envelope"),
    ("enumeration", "enum_bdl"),
    ("enumeration", "_enumerate_size"),
)


def traced_names() -> list[str]:
    """Layer names in report order: ``algebras.build`` then every function."""
    return [BUILD] + [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]


class Tracer:
    """Install once per process, before the first timed operation."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, non-None results]
        self._stack = [0.0]                # child time accumulated per open call
        self._originals: dict[int, tuple[object, object]] = {}  # id -> (orig, wrapper)
        self._caches: dict[str, object] = {}
        self._build_original = None

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child
            if out is not None:
                stat[2] += 1
            return out
        return traced

    def install(self) -> None:
        for mod, fns in FUNCTIONS.items():
            module = importlib.import_module(f"poma.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                self._originals[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for mod, fn in CACHES:
            self._caches[f"{mod}.{fn}"] = getattr(importlib.import_module(f"poma.{mod}"), fn)
        for module in _poma_modules():
            for attr, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        cls = importlib.import_module("poma.algebras").FiniteAlgebra
        self._build_original = cls.__dict__["__post_init__"]
        cls.__post_init__ = self._wrap(BUILD, self._build_original)
        self.self_test()

    def self_test(self) -> None:
        """Raise if any poma module still binds an unwrapped traced function."""
        for module in _poma_modules():
            for attr, value in vars(module).items():
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{module.__name__}.{attr} is still unwrapped")
        cls = importlib.import_module("poma.algebras").FiniteAlgebra
        if cls.__dict__["__post_init__"] is self._build_original:
            raise RuntimeError("FiniteAlgebra.__post_init__ is still unwrapped")

    def report(self) -> dict:
        """Counters and self times, plus ``cache_info`` of every listed cache."""
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses, info.currsize]
        return {"functions": {name: self.stats[name] for name in traced_names()},
                "caches": caches}


def _poma_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "poma" or name.startswith("poma."))]
