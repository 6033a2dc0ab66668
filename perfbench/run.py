"""poma benchmark: four workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed n] [--seconds s] [--trace 0|1]
    python3 perfbench/run.py --smoke

Each batch runs alone in a fresh interpreter (``worker.py``), single-threaded,
so in-memory caches start cold as a CLI user gets them.  Batches repeat while
the next one is expected to end within ``--seconds`` (at least one batch, so a
battery that takes longer runs once); each metric is the median over the
run's batches, and ``setup_s`` the median of the run's set-ups (see
``SETUP_PROBES``).  With ``--trace 1`` the run alternates untraced and traced
batches and reports the per-layer metrics instead.

The times of ``--trace 0`` are speed-corrected: seconds at a fixed reference
speed of the machine, measured by a probe loop interleaved with the work (see
``worker.py``).  The wall time before correction is printed on the first line
of each workload's report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every correctness gate passes, 1 when one fails, and 2, with no result
printed, when the program cannot be run at all.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from tracer import CACHES, traced_names
from worker import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = tuple(inputs.SIZES)
# Set-up-only spawns before the first batch and after each batch; setup_s is
# the median of them and of the batches' own set-ups, each scaled by the speed
# probe (worker.SpeedProbe) run just before its spawn.
SETUP_PROBES = 8
BATCH_TIMEOUT_S = 150       # a batch still running then is killed and fails
OVERRUN = 0.1               # share of --seconds a run may overrun by its last batch


class Unrunnable(Exception):
    """The program cannot be started at all: exit 2 without a result."""


# -- one batch ---------------------------------------------------------------------

def spawn(workload: str, path: Path, mode: str) -> dict:
    """Run one worker; return its set-up time, peak RSS and parsed output
    (``None`` when it crashed or printed no result)."""
    # one fixed hash seed: string hashing changes set and dict layouts, and
    # with them the speed of the program, from one interpreter to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    scale = SpeedProbe().sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), workload, str(path), mode],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(BATCH_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = (time.perf_counter() - t0) * scale
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    output = None
    if ready.strip() == "ready" and proc.returncode == 0 and rest.strip():
        output = json.loads(rest.strip().splitlines()[-1])
    return {"ready": ready.strip() == "ready" and proc.returncode == 0,
            "setup_s": setup_s, "rss_mb": usage.ru_maxrss / 1024.0,
            "output": output}


# -- correctness gates ------------------------------------------------------------

def answer_checker(workload: str, inp: inputs.WorkloadInput, expected: dict):
    """A function from one batch's answers to its number of failed operations."""
    if workload == "thm610-ps4-8":
        want = json.dumps(expected["thm610"][str(inp.header["max_size"])])
        return lambda answers: sum(a != want for a in answers)
    if workload == "figure1-6":
        spec = expected["figure1"][str(inp.header["enum_bound"])]
        return lambda answers: sum(not check_figure1(a, spec) for a in answers)
    if workload == "duality-pma6":          # the worker's per-item self-checks
        return lambda answers: sum(a != "1" for a in answers)
    table = inputs.load_answers()
    want = [inputs.expected_query_answer(table, inp.rows[idx], call, arg)
            for idx, call, arg in inp.queries]
    return lambda answers: sum(a != w for a, w in zip(answers, want))


def check_figure1(answer: str, want: dict) -> bool:
    stages = json.loads(answer)
    return (len(stages) == 5 and all(ok for _, ok, _ in stages)
            and stages[2][2].startswith(f"{want['quotients']} quotients:")
            and stages[3][2] == f"{want['pairs']} (algebra, target) pairs checked")


# -- one run ---------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    if not (ROOT / "src" / "poma" / "__init__.py").exists():
        raise Unrunnable(f"no poma package under {ROOT / 'src'}")
    expected = inputs.load_expected()
    try:
        inp = inputs.build(workload, seed, smoke, expected)
    except inputs.InputError as exc:
        raise Unrunnable(str(exc)) from exc
    count_failures = answer_checker(workload, inp, expected)
    problems = inp.problems

    inputs.WORK.mkdir(exist_ok=True)
    path = inputs.WORK / f"{workload}.{os.getpid()}.in"
    path.write_text("\n".join([json.dumps(inp.header)] + inp.lines) + "\n")
    try:
        setups = []

        def probe_setup():
            for _ in range(1 if smoke else SETUP_PROBES):
                probe = spawn(workload, path, "setup")
                if not probe["ready"]:
                    raise Unrunnable("the workload process failed during set-up")
                setups.append(probe["setup_s"])

        probe_setup()
        # Another batch starts only while it is expected to end within the
        # run time (plus OVERRUN): at least one batch, two when traced.
        batches, durations = [], []
        start = time.perf_counter()
        while True:
            mode = "trace" if trace and len(batches) % 2 == 1 else "run"
            t0 = time.perf_counter()
            batches.append((mode, spawn(workload, path, mode)))
            durations.append(time.perf_counter() - t0)
            probe_setup()
            if len(batches) < (2 if trace else 1):
                continue
            expected_end = time.perf_counter() - start + statistics.median(durations)
            if smoke or expected_end > seconds * (1 + OVERRUN):
                break
    finally:
        path.unlink()

    attempted = failed = 0
    answers_by_mode: dict[str, list] = {}
    for mode, b in batches:
        attempted += inp.ops
        out = b["output"]
        if out is None or len(out["answers"]) != inp.ops:
            failed += inp.ops
            problems.append(f"a {mode} batch crashed or returned a wrong number of answers")
            continue
        failed += count_failures(out["answers"])
        answers_by_mode.setdefault(mode, out["answers"])
    if len({json.dumps(a) for a in answers_by_mode.values()}) > 1:
        problems.append("traced and untraced batches gave different answers")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    good = {mode: [b for m, b in batches if m == mode and b["output"] is not None]
            for mode in ("run", "trace")}
    if trace:
        metrics = layer_metrics(good["run"], good["trace"])
    else:
        setups += [b["setup_s"] for b in good["run"]]
        metrics = end_to_end_metrics(good["run"], setups)
    raw_wall = _median([b["output"]["wall_s"] for b in good["run"]])
    return {"workload": workload, "seed": seed, "batches": len(batches), "raw_wall_s": raw_wall,
            "correct": not problems, "problems": problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(batches, setups) -> dict:
    lat = [b["output"]["lat_ms"] for b in batches]
    values = {
        "setup_s": (_median(setups), "s"),
        "wall_s": (_median([b["output"]["ref_wall_s"] for b in batches]), "s"),
        "peak_rss_mb": (_median([b["rss_mb"] for b in batches]), "MB"),
        "query_p50_ms": (_median([percentile(x, 0.50) for x in lat]), "ms"),
        "query_p99_ms": (_median([percentile(x, 0.99) for x in lat]), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(untraced, traced) -> dict:
    reports = [b["output"]["trace"] for b in traced]
    out = {}
    for name in traced_names():
        rows = [r["functions"][name] for r in reports]
        out[f"{name}.calls"] = (_median([r[0] for r in rows]), "count")
        out[f"{name}.self_s"] = (_median([r[1] for r in rows]), "s")
    for mod, fn in CACHES:
        rows = [r["caches"][f"{mod}.{fn}"] for r in reports]
        for i, field in enumerate(("hits", "misses", "entries")):
            out[f"{mod}.{fn}.{field}"] = (_median([r[i] for r in rows]), "count")
    ext = [r["functions"]["morphisms.extend_hom"] for r in reports]
    out["morphisms.extend_hom.success_ratio"] = (
        _median([r[2] / r[0] if r[0] else 0.0 for r in ext]), "ratio")
    base = _median([b["output"]["wall_s"] for b in untraced])
    slow = _median([b["output"]["wall_s"] for b in traced])
    out["trace.overhead_frac"] = (slow / base - 1.0 if base else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# -- reporting ---------------------------------------------------------------------

def describe(result: dict) -> list[str]:
    lines = [f"# {result['workload']} seed {result['seed']}: {result['batches']} batches, "
             f"fail_frac {result['failed'] / max(result['attempted'], 1):.6g} "
             f"({result['failed']} of {result['attempted']}), "
             f"wall time before speed correction {result['raw_wall_s']:.6g} s"]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines += [f"  FAIL: {p}" for p in result["problems"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.workload or args.all or args.smoke):
        ap.error("give --workload, --all or --smoke")

    if args.smoke:
        jobs = [(w, t) for w in WORKLOADS for t in (False, True)]
    elif args.all:
        jobs = [(w, bool(args.trace)) for w in WORKLOADS]
    else:
        jobs = [(args.workload, bool(args.trace))]
    results = []
    try:
        for workload, trace in jobs:
            result = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
            print("\n".join(describe(result)), flush=True)
            results.append(result)
    except Unrunnable as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}{'.traced' if t else ''}.{name}": m
                   for r, (_, t) in zip(results, jobs) for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
