"""Seeded inputs for the workloads, built before any timed region.

Algebra pools come from poma's own enumerator, sorted as canonical JSON
lines, and are checked against the counts and digests recorded in
``expected.json``: a wrong enumerator fails the correctness gate instead of
silently changing the workload.  Pools are cached under ``.perfbench_work/``
of the checkout, keyed by a digest of poma's source, so the enumerator runs
again whenever the program changes; they are checked again on every read.

Every workload input is a file of JSON lines: a header object, then canonical
JSON lines, which is all the workload process receives.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from worker import CALLS, LIGHT_CALLS, LIGHT_ONLY_ABOVE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
ANSWERS = HERE / "expected_answers.txt"

# The named corpus, in popularity order for queries-mix (most popular first).
# F1_PS4 is last: parsing its 37 elements alone costs about 20 ms.
CORPUS_SPECS = ("C2", "D4", "D3", "C3a", "C3b", "B2", "A4", "trivial",
                "EX44III", "C4a", "C4b", "B4", "AN_SIMPLE:2", "C5a", "C5b",
                "EX44IV", "D5a", "D5b", "C6a", "C6b", "AN_MINUS:3", "EX46:3",
                "F1_PS4")
EQUATIONS = ("box dia x ~ box x", "dia box x ~ dia x", "dia box dia x ~ dia x",
             "box x <= x", "box x /\\ dia y <= dia (x /\\ y)",
             "box (x \\/ y) ~ box x \\/ box y")
REFS = ("C2", "D3", "C3a")
# answer-table columns: one per (call, argument)
VARIANTS = tuple((c, 0) for c in CALLS if c not in ("holds_eq", "includes")) \
    + tuple(("holds_eq", i) for i in range(len(EQUATIONS))) \
    + tuple(("includes", i) for i in range(len(REFS)))
MISSING = "----"
GROUP = 10              # queries-mix: sampled algebras per shape group

# workload sizes: (full run, smoke run)
SIZES = {
    "thm610-ps4-8": ({"max_size": 8}, {"max_size": 5}),
    "figure1-6": ({"enum_bound": 6}, {"enum_bound": 3}),
    "duality-pma6": ({"kind": "PMA", "max_size": 6, "sample": 2000},
                     {"kind": "PMA", "max_size": 4, "sample": 50}),
    "queries-mix": ({"kind": "PS4", "max_size": 7, "sample": 200, "queries": 3000},
                    {"kind": "PS4", "max_size": 7, "sample": 20, "queries": 200}),
}


class InputError(Exception):
    """The program could not produce the inputs at all (no result is printed)."""


@dataclass
class WorkloadInput:
    """What the workload process reads, and what the parent checks it with."""

    header: dict
    lines: list[str]              # canonical JSON lines after the header
    ops: int                      # operations per batch
    problems: list[str]           # failed input checks
    # queries-mix only: the answer-table row of each pool index, and the queries
    rows: list[int] = field(default_factory=list)
    queries: list[list] = field(default_factory=list)


def import_poma():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import poma
    except ImportError as exc:
        raise InputError(f"cannot import poma from {ROOT / 'src'}: {exc}") from exc
    return poma


def lines_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def source_digest() -> str:
    """Digest of poma's source files, which decide every pool."""
    h = hashlib.sha256()
    src = ROOT / "src" / "poma"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def pool(kind: str, max_size: int) -> list[str]:
    """All algebras of a kind up to a size, as sorted canonical JSON lines."""
    path = WORK / f"pool-{kind}-{max_size}-{source_digest()}.jsonl"
    if path.exists():
        return path.read_text().splitlines()
    poma = import_poma()
    task = poma.EnumerationTask(kind, max_size)
    lines = sorted(A.to_json() for A in poma.enum_algebras(task))
    WORK.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)
    return lines


def corpus_lines() -> list[str]:
    poma = import_poma()
    try:
        return [poma.corpus_by_spec(s).to_json() for s in CORPUS_SPECS]
    except Exception as exc:
        raise InputError(f"cannot build the corpus: {exc!r}") from exc


def check_pool(key: str, lines, expected: dict) -> list[str]:
    """Problems found comparing a pool with its recorded count and digest."""
    want = expected["pools"].get(key)
    if want is None:
        return [f"pool {key}: nothing recorded"]
    got = [len(lines), lines_digest(lines)]
    return [] if got == want else [f"pool {key}: got {got}, recorded {want}"]


def stratified_sample(rng: random.Random, n: int, k: int) -> list[int]:
    """Sorted indices into n sorted items: one from each of k equal slices.

    Sorted canonical JSON groups algebras by size and lattice, so each sample
    holds the same mix of shapes: this keeps per-seed cost differences small.
    """
    return [rng.randrange(i * n // k, (i + 1) * n // k) for i in range(k)]


def shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def zipf_counts(total: int, n: int) -> list[int]:
    """Query counts proportional to 1/rank, rounded by largest remainder."""
    weights = [1.0 / r for r in range(1, n + 1)]
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(x) for x in raw]
    order = sorted(range(n), key=lambda i: counts[i] - raw[i])
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def build(workload: str, seed: int, smoke: bool, expected: dict) -> WorkloadInput:
    """The input of one workload for one seed, checked against ``expected``."""
    params = dict(SIZES[workload][1 if smoke else 0])
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("thm610-ps4-8", "figure1-6"):
        return WorkloadInput(params, [], 1, [])
    kind, max_size = params.pop("kind"), params.pop("max_size")
    key = f"{kind}-{max_size}"
    sorted_pool = pool(kind, max_size)
    problems = check_pool(key, sorted_pool, expected)
    sample = stratified_sample(rng, len(sorted_pool), params["sample"])
    if workload == "duality-pma6":
        return WorkloadInput({}, [sorted_pool[i] for i in shuffled(rng, sample)],
                             len(sample), problems)

    corpus = corpus_lines()
    if lines_digest(corpus) != expected["corpus_digest"]:
        problems.append("corpus: canonical JSON differs from the recorded corpus")
    # Popularity ranks: the corpus first, then the sample.  The sample is cut
    # into groups of GROUP neighbours in shape order, and every block of
    # consecutive ranks takes one algebra from each group, so every shape
    # gets about the same share of queries whatever the seed.
    groups = [shuffled(rng, sample[i:i + GROUP]) for i in range(0, len(sample), GROUP)]
    tail = [(g, groups[g][b]) for b in range(GROUP)
            for g in shuffled(rng, range(len(groups)))]
    lines = corpus + [sorted_pool[i] for _, i in tail]
    rows = list(range(len(corpus))) + [len(corpus) + i for _, i in tail]
    # Calls: each group cycles through one seeded order of the calls, so
    # every shape sees every call equally often; each algebra takes a run
    # of that cycle, so its first len(CALLS) queries are distinct calls.
    group_calls = [shuffled(rng, CALLS) for _ in groups]
    cursor = [0] * len(groups)
    queries = []
    for idx, count in enumerate(zipf_counts(params["queries"], len(lines))):
        size = json.loads(lines[idx])["size"]
        if idx < len(corpus):
            cycle, start = shuffled(rng, LIGHT_CALLS if size > LIGHT_ONLY_ABOVE else CALLS), 0
        else:
            g = tail[idx - len(corpus)][0]
            cycle, start = group_calls[g], cursor[g]
            cursor[g] += count
        args = {"holds_eq": shuffled(rng, range(len(EQUATIONS))),
                "includes": shuffled(rng, range(len(REFS)))}
        used = {"holds_eq": 0, "includes": 0}
        for k in range(count):
            call = cycle[(start + k) % len(cycle)]
            arg = 0
            if call in args:
                arg = args[call][used[call] % len(args[call])]
                used[call] += 1
            queries.append([idx, call, arg])
    rng.shuffle(queries)
    header = {"pool": len(lines), "equations": list(EQUATIONS), "refs": list(REFS)}
    return WorkloadInput(header, lines + [json.dumps(q) for q in queries], len(queries),
                         problems, rows, queries)


def load_answers() -> list[str]:
    """Answer-table rows: the corpus first, then the sorted PS4 pool."""
    return ANSWERS.read_text().split()


def expected_query_answer(table: list[str], row: int, call: str, arg: int) -> str:
    col = VARIANTS.index((call, arg))
    return table[row][4 * col:4 * col + 4]
