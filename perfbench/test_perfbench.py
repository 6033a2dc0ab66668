"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import worker  # noqa: E402


def bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_smoke_runs_every_workload_and_prints_only_declared_metrics():
    proc = bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    end_to_end, per_layer = benchmark_metrics()
    seen = {}
    for key, metric in result["metrics"].items():
        workload, name = key.split(".", 1)
        traced = name.startswith("traced.")
        name = name.removeprefix("traced.")
        declared = per_layer if traced else end_to_end
        assert declared.get(name) == metric["unit"], key
        seen.setdefault((workload, traced), set()).add(name)
    for workload in inputs.SIZES:
        assert seen[workload, False] == set(end_to_end)
        assert seen[workload, True] == set(per_layer)


def test_tracer_rebinds_every_copy_and_keeps_answers():
    code = """
import sys
sys.path.insert(0, 'src'); sys.path.insert(0, 'perfbench')
import poma, poma.varieties, poma.morphisms
from tracer import Tracer
before = poma.is_si(poma.corpus('D4')), poma.hs_si(poma.corpus('C4a'))
t = Tracer(); t.install()
assert poma.varieties.hs_si is poma.morphisms.hs_si is poma.hs_si
assert poma.hs_si.__wrapped__.cache_info().hits >= 0
after = poma.is_si(poma.corpus('D4')), poma.hs_si(poma.corpus('C4a'))
assert before == after
rep = t.report()
assert rep['functions']['congruences.is_si'][0] == 1
assert rep['functions']['morphisms.hs_si'][0] == 1
assert rep['caches']['morphisms.hs_si'][0] == 1
poma.FiniteAlgebra.make([[1]], [0], [0])
assert t.report()['functions']['algebras.build'][0] >= 1
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_speed_probe_takes_its_own_time_out_of_the_clock():
    probe = worker.SpeedProbe()
    probe.start()
    try:
        w0, c0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - w0 < 0.3:
            pass
        wall, work = time.perf_counter() - w0, probe.clock() - c0
    finally:
        probe.stop()
    assert len(probe.ratios) > worker.LOCAL_PROBES      # the timer fired
    assert 0 < work < wall
    assert probe.scale() > 0 and probe.local() > 0


def test_inputs_depend_only_on_the_seed():
    expected = inputs.load_expected()
    a, b, c = (inputs.build("queries-mix", seed, True, expected) for seed in (3, 3, 4))
    assert a == b
    assert a.lines != c.lines
    assert not a.problems
    assert a.ops == len(a.queries) == inputs.SIZES["queries-mix"][1]["queries"]


def test_zipf_counts_sum_and_skew():
    counts = inputs.zipf_counts(3000, 223)
    assert sum(counts) == 3000
    assert counts == sorted(counts, reverse=True) and counts[0] > 10 * counts[-1]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for workload in inputs.SIZES:
        proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=180)
        assert proc.returncode != 0
        assert not proc.stdout.strip().endswith("}"), proc.stdout
