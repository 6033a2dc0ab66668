"""Measure a baseline the way the acceptance rule reads it.

    python3 perfbench/baseline.py [--out FILE]

Runs ``run.py`` once per seed 1-10 and workload of ``BENCHMARK.json``,
untraced, each in a fresh process, then once traced per workload (seed 1).  For every end-to-end
metric it reports the median and quartiles over the seeds and the spread
(q3 - q1) / median next to the metric's bound from ``BENCHMARK.json``; from
the traced run, the layers ranked by self time.  The result is stored under
``"measured"`` in FILE (default ``perfbench/baseline.json``); the other keys
of FILE are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    measured = {"environment": {"python": platform.python_version(),
                                "nproc": os.cpu_count(), "cpu": cpu_model(),
                                "run_seconds": spec["run_seconds"], "seeds": SEEDS},
                "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bounds[name]}
            print(f"{workload} {name}: median {med:.6g} {units[name]}, spread "
                  f"{rows[name]['spread']:.4f} (bound {bounds[name]})", flush=True)
        traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)["metrics"]
        self_s = {k[:-len(".self_s")]: m["value"] for k, m in traced.items()
                  if k.endswith(".self_s")}
        total = sum(self_s.values()) or 1.0
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
        measured["workloads"][workload] = {
            "runs": len(SEEDS), "attempted": attempted, "failed": failed,
            "end_to_end": rows,
            "trace_overhead_frac": traced["trace.overhead_frac"]["value"],
            "top_self_time": [{"layer": k, "self_s": v, "share": v / total} for k, v in top],
        }
        print(f"{workload} top self time: "
              + ", ".join(f"{k} {v / total:.0%}" for k, v in top), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["measured"] = measured
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
