"""Workload process: one fresh interpreter per batch, so caches start cold.

Usage: ``python3 perfbench/worker.py <workload> <input-file> <run|trace|setup>``

The process imports ``poma`` from ``src/`` of the checkout, reads its input
file (a JSON header line, then canonical JSON lines) and prints ``ready``.
That ends set-up.  In ``setup`` mode it exits there.  Otherwise it runs the
batch and prints one JSON line: the batch's ``wall_s`` and ``ref_wall_s``,
one latency and one answer per operation, and in ``trace`` mode the tracer's
report.  Answers are checked by the parent, not here.

Speed correction (``run`` mode).  The shared machine this benchmark is run on
changes its CPU speed by up to 1.6x for seconds to minutes at a time, and CPU
time slows with it, so a whole run can land in a slow phase.  A timer
interrupts the batch every ``PROBE_EVERY_S`` seconds and times a fixed
interpreter loop (``SpeedProbe``), on the same CPU, between the batch's own
bytecodes.  The time spent probing is taken out of every measured interval,
and ``ref_wall_s`` and the latencies are scaled by ``PROBE_REF_S`` / probe
time: seconds at the speed at which the probe takes ``PROBE_REF_S``.  A
change to poma changes the batch and not the probe, so it moves these
figures in full; a change of the machine's speed moves both and cancels.
"""
from __future__ import annotations

import collections
import hashlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# queries-mix calls; algebras larger than LIGHT_ONLY_ABOVE elements get only
# the calls in LIGHT_CALLS (F1_PS4 has 37 elements: its congruence lattice
# alone takes seconds and its envelope exceeds the 8-point cap)
CALLS = ("validate", "con_lattice", "is_si", "hs_si", "boolean_envelope",
         "dual_space", "free_over", "holds_eq", "includes")
LIGHT_CALLS = ("validate", "dual_space", "holds_eq")
LIGHT_ONLY_ABOVE = 8

# speed probe of run mode (see above)
PROBE_EVERY_S = 0.025       # wall time between speed probes
PROBE_LOOPS = 4000          # one probe: about 0.6 ms at the fast speed
PROBE_REF_S = 0.0006        # probe time that defines the reference speed
LOCAL_PROBES = 5            # probes behind the local speed of one operation


def _probe_loop() -> dict:
    d = {}
    for i in range(PROBE_LOOPS):
        d[i & 255] = (i, i * i % 7)
    return d


class SpeedProbe:
    """Times ``_probe_loop`` on a wall-clock timer while a batch runs.

    ``clock()`` is ``perf_counter`` less the time spent probing, so intervals
    read from it hold only the batch's own work.
    """

    def __init__(self):
        self.ratios: list[float] = []       # PROBE_REF_S / probe time
        self.recent = collections.deque(maxlen=LOCAL_PROBES)
        self.spent = 0.0

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _probe_loop()
        dt = time.perf_counter() - t0
        self.ratios.append(PROBE_REF_S / dt)
        self.recent.append(PROBE_REF_S / dt)
        self.spent += time.perf_counter() - t0

    def sample(self) -> float:
        """Probe LOCAL_PROBES times at once; return the local scale."""
        for _ in range(LOCAL_PROBES):
            self._probe()
        return self.local()

    def start(self) -> None:
        self.sample()                       # a local speed before the first timer
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def local(self) -> float:
        """Scale of an operation that just ended: the recent probes' median."""
        return statistics.median(self.recent)

    def scale(self) -> float:
        """Scale of the whole batch.  Probes fall evenly in wall time, and work
        done is the integral of speed over time, so this is a plain mean."""
        return statistics.fmean(self.ratios)


class PlainClock:
    """``perf_counter`` without speed correction, for traced batches."""

    clock = staticmethod(time.perf_counter)

    def local(self) -> float:
        return 1.0

    def scale(self) -> float:
        return 1.0


def digest(text: str) -> str:
    """16-bit answer digest; a wrong answer passes with probability 2**-16."""
    return hashlib.sha256(text.encode()).hexdigest()[:4]


def query_call(poma, equations, refs, call: str, arg: int):
    """The public call of one query, as a function of the parsed algebra."""
    if call == "holds_eq":
        eq = equations[arg]
        return lambda A: poma.holds_eq(A, eq)
    if call == "includes":
        ref = refs[arg]

        def includes(A):
            V = poma.variety_of([A])
            return poma.includes(V, poma.variety_of([ref])), V
        return includes
    if call == "free_over":
        return lambda A: poma.free_over([A], 1)
    return getattr(poma, call)


def _algebra(A) -> dict:
    """Canonical JSON object of an algebra without its display name: equal
    algebras (``FiniteAlgebra`` equality ignores names) share cache entries,
    so a cached result may carry the name of an earlier, equal argument."""
    obj = A.to_dict()
    obj.pop("name", None)
    return obj


def query_answer(call: str, r) -> str:
    """Canonical text of a query's result, built from public fields only."""
    if call == "validate":
        out = [r.is_bounded_lattice, r.is_distributive, r.is_pma, r.is_pk4,
               r.is_ps4, [[code, list(w)] for code, w in r.violations]]
    elif call == "con_lattice":
        out = [[list(b) for b in p.blocks] for p in r]
    elif call == "is_si":
        out = bool(r)
    elif call == "hs_si":
        out = [_algebra(A) for A in r]
    elif call == "boolean_envelope":
        out = [_algebra(r.algebra), list(r.modal.complement), list(r.kappa.mapping)]
    elif call == "dual_space":
        out = r.to_json()
    elif call == "free_over":
        out = [_algebra(r.algebra), list(r.generators)]
    elif call == "holds_eq":
        out = [r.holds, r.witness]
    elif call == "includes":
        included, V = r
        out = [included, [_algebra(A) for A in V.si_closure]]
    else:
        raise ValueError(f"unknown call {call!r}")
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def run_thm610(poma, header, lines, probe):
    t0 = probe.clock()
    r = poma.theorem610_battery(header["max_size"])
    answer = json.dumps([r.passed, list(r.witnesses)])
    return probe.clock() - t0, None, [answer]


def run_figure1(poma, header, lines, probe):
    t0 = probe.clock()
    r = poma.verify_figure1(header["enum_bound"])
    answer = json.dumps([[name, ok, detail] for name, ok, detail in r.stages])
    return probe.clock() - t0, None, [answer]


def run_duality(poma, header, lines, probe):
    # One latency for the whole batch, as for the batteries: a single item
    # takes a few milliseconds, so the tail of per-item latencies measures
    # the machine's scheduling jitter rather than the program.
    answers = []
    t0 = probe.clock()
    for line in lines:
        A = poma.FiniteAlgebra.from_json(line)
        k = poma.kappa(A)
        e = poma.boolean_envelope(A).kappa
        ok = k.is_valid() and k.is_bijective and e.is_valid() and e.is_injective
        answers.append("1" if ok else "0")
    return probe.clock() - t0, None, answers


def run_queries(poma, header, lines, probe):
    pool = lines[:header["pool"]]
    queries = [json.loads(q) for q in lines[header["pool"]:]]
    equations = [poma.parse_equation(e) for e in header["equations"]]
    refs = [poma.corpus_by_spec(s) for s in header["refs"]]
    clock = probe.clock
    lat, answers = [], []
    t0 = clock()
    for idx, call, arg in queries:
        fn = query_call(poma, equations, refs, call, arg)
        t = clock()
        r = fn(poma.FiniteAlgebra.from_json(pool[idx]))
        lat.append((clock() - t) * 1e3 * probe.local())
        answers.append(digest(query_answer(call, r)))
    return clock() - t0, lat, answers


RUNNERS = {
    "thm610-ps4-8": run_thm610,
    "figure1-6": run_figure1,
    "duality-pma6": run_duality,
    "queries-mix": run_queries,
}


def main(argv: list[str]) -> int:
    workload, path, mode = argv
    runner = RUNNERS[workload]
    sys.path.insert(0, str(ROOT / "src"))
    import poma
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    header = json.loads(header)
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if mode == "setup":
        return 0
    probe = SpeedProbe() if mode == "run" else PlainClock()
    if mode == "run":
        probe.start()
    try:
        wall, lat, answers = runner(poma, header, lines, probe)
    finally:
        if mode == "run":
            probe.stop()
    ref_wall = wall * probe.scale()
    # the batteries and duality-pma6 have one latency: the whole batch
    out = {"wall_s": wall, "ref_wall_s": ref_wall,
           "lat_ms": [ref_wall * 1e3] if lat is None else lat, "answers": answers}
    if tracer is not None:
        out["trace"] = tracer.report()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
