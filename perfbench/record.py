"""Record the expected results the correctness gates compare against.

    python3 perfbench/record.py

Writes ``expected.json`` (pool counts and digests, battery verdicts) and
``expected_answers.txt`` (a 16-bit digest of every possible queries-mix
answer: one row per algebra, the corpus first, then the sorted PS4 pool; one
column per entry of ``inputs.VARIANTS``).  Run it only at a commit whose
answers are known to be right: every later run is checked against it.
"""
from __future__ import annotations

import json
import sys

import inputs
from worker import LIGHT_CALLS, LIGHT_ONLY_ABOVE, digest, query_answer, query_call


def answer_row(poma, equations, refs, line: str) -> str:
    A = poma.FiniteAlgebra.from_json(line)
    cells = []
    for call, arg in inputs.VARIANTS:
        if A.size > LIGHT_ONLY_ABOVE and call not in LIGHT_CALLS:
            cells.append(inputs.MISSING)
            continue
        result = query_call(poma, equations, refs, call, arg)(A)
        cells.append(digest(query_answer(call, result)))
    return "".join(cells)


def main() -> int:
    poma = inputs.import_poma()
    expected = {"pools": {}}
    pools = {}
    for kind, max_size in {(p["kind"], p["max_size"])
                           for w in ("duality-pma6", "queries-mix")
                           for p in inputs.SIZES[w]}:
        lines = inputs.pool(kind, max_size)
        pools[kind, max_size] = lines
        expected["pools"][f"{kind}-{max_size}"] = [len(lines), inputs.lines_digest(lines)]
    corpus = inputs.corpus_lines()
    expected["corpus_digest"] = inputs.lines_digest(corpus)

    expected["thm610"] = {}
    for params in inputs.SIZES["thm610-ps4-8"]:
        r = poma.theorem610_battery(params["max_size"])
        expected["thm610"][str(params["max_size"])] = [r.passed, list(r.witnesses)]
    expected["figure1"] = {}
    for params in inputs.SIZES["figure1-6"]:
        r = poma.verify_figure1(params["enum_bound"])
        if not r.passed:
            raise SystemExit(f"verify_figure1({params['enum_bound']}) failed: {r.lines()}")
        expected["figure1"][str(params["enum_bound"])] = {
            "quotients": int(r.stages[2][2].split()[0]),
            "pairs": int(r.stages[3][2].split()[0])}

    equations = [poma.parse_equation(e) for e in inputs.EQUATIONS]
    refs = [poma.corpus_by_spec(s) for s in inputs.REFS]
    ps4 = pools["PS4", inputs.SIZES["queries-mix"][0]["max_size"]]
    rows = [answer_row(poma, equations, refs, line) for line in corpus + ps4]
    inputs.ANSWERS.write_text("\n".join(rows) + "\n")
    expected["answers_rows"] = len(rows)
    with open(inputs.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expected, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
