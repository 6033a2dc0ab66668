import hashlib
import json
import re

import pytest

from conftest import run_capped
from poma import cli, corpus, morphisms, varieties
from poma.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "validate", "--name", "D4")
    assert code == 0
    assert "PS4: True" in out


def test_validate_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "validate", "--name", "C5a", "--json")
    code2, out2, _ = run(capsys, "validate", "--name", "C5a", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["is_ps4"] is True


def test_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--name", "NOPE")
    assert code == 2
    assert "unknown corpus name" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_si_exit_codes(capsys):
    assert run(capsys, "si", "--name", "D4")[0] == 0
    assert run(capsys, "si", "--name", "EX44IV")[0] == 1


def test_simple_and_wc(capsys):
    assert run(capsys, "simple", "--name", "EX46:3")[0] == 0
    assert run(capsys, "wc", "--name", "EX44III")[0] == 0
    code, out, _ = run(capsys, "hs", "--name", "D4")
    assert code == 0 and "C2" in out and "D4" in out


def test_cg_and_conlat(capsys):
    code, out, _ = run(capsys, "cg", "--name", "EX44IV", "--pairs", "1,2", "--json")
    assert code == 0
    assert json.loads(out)["partition"] == [[0], [1, 2], [3], [4]]
    code, out, _ = run(capsys, "conlat", "--name", "C2", "--json")
    assert json.loads(out)["count"] == 2


@pytest.mark.parametrize("argv,digest", [
    (("conlat", "--name", "F1_PS4"),
     "14aaa1c5ed133f02bfff9fa210339a615c13b88cb0c48a1a246ca4a12b8a5b57"),
    (("hs", "--name", "F1_PS4"),
     "2759596a8126935fab1b3c5a45bcebc7a6d940cf9b251df8121079fe303966e1"),
    (("si", "--name", "F1_PS4"),
     "726e91742bd9a2bfa5d6b33a3b0456afb02a0222c83e6bf2185e064272e8061b"),
    (("cg", "--name", "F1_PS4", "--pairs", "1,19;3,4"),
     "de1ce40845ecc80eb3e6ee6132fa088360f828292acd2a67ad6f5f14c3f40540"),
], ids=["conlat", "hs", "si", "cg"])
def test_congruence_commands_json_bytes(capsys, argv, digest):
    """The --json stdout of the congruence commands on the free algebra,
    pinned by its sha256 as printed by the element-pair union-find closure."""
    _, out, _ = run(capsys, *argv, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("battery", "thm610", "--max-size", "8", "--json"),
     "2d7f75579778854115241b4e11ba2e47db93235a8d92ba704f4457fbb0cfccba"),
    (("battery", "lemma92", "--max-size", "6", "--json"),
     "72d34551c975c8feb3c7df5f7ee39b56845378d0371338a3f16fdf517f782c56"),
    (("battery", "fact52", "--max-size", "6", "--json"),
     "1748896ec85c6e53312a084a2e1ac81d643f8b76da3056c0639ebe8c7c76abc4"),
    (("battery", "thm42", "--max-size", "6", "--json"),
     "476024a62800fbae781ef3518b4bc316fd89ccf308c01ee5d9302b887cc93351"),
    (("enumerate", "--kind", "PS4", "--max-size", "6"),
     "9a86c07e805f597c6793a189c2d053f6cb1e2d78259a126890bf3c460ce614ca"),
    (("enumerate", "--kind", "PS4", "--max-size", "6", "--si-only"),
     "0c70f520b3e1f3188d703a7420f1c30f03916bdc04b36767c28d52a98ab77c4e"),
    (("enumerate", "--kind", "PS4", "--max-size", "7"),
     "8eaf6c7a67a091108f8cbbab5d3fb0148d7c2d48d7d44eaff54e6fa716d5b20d"),
    (("enumerate", "--kind", "PMA", "--max-size", "6"),
     "b7c931103fa2c767f8251da2df39c7d81623e040f266d3c02ea09ab547b40214"),
    (("enumerate", "--kind", "PK4", "--max-size", "6"),
     "bf3ed3f66673c5b7f65b10d66ca65b8023bbb2d2b7ce35fa6af0c5137060ff4a"),
], ids=["thm610", "lemma92", "fact52", "thm42", "enumerate", "enumerate-si", "enumerate-7",
        "enumerate-pma", "enumerate-pk4"])
def test_enumeration_commands_stdout_bytes(capsys, argv, digest):
    """The stdout of the batteries and of enumerate, pinned by its sha256 as
    printed when every algebra was built, sorted and validated before any
    filter ran."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("variety", "figure4"),
     "f219877cbb8a11aeb5d874f41ead7bc4d5682519cc8ef0c1efbe0c770bf88afc"),
    (("variety", "covers", "--gens", "C2;D3;C3a;C3b;D4"),
     "641d959eae888a3250f638491fe34d1e3d9085b115cc07daa7d25ef4d7701ca4"),
    (("complete", "hsc", "--gens", "D4"),
     "3ed7f67249b022683fe357d4409940426476cd2d11b53ea130ded2c98aa60662"),
], ids=["figure4", "covers", "hsc"])
def test_hs_si_commands_json_bytes(capsys, argv, digest):
    """The --json stdout of commands decided by hs_si, pinned by its sha256
    as printed when hs_si built one subalgebra per subuniverse and one
    quotient algebra per completely meet-irreducible congruence."""
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (("variety", "include", "--gens", "D3"), "--other"),
    (("variety", "covers"), "--gens"),
    (("eval", "--name", "D4"), "--term"),
], ids=["include", "covers", "eval"])
def test_missing_required_option_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_cg_negative_element_is_usage_error(capsys):
    code, out, err = run(capsys, "cg", "--name", "D4", "--pairs=-1,2")
    assert code == 2 and out == ""
    assert err == "error: element -1 out of range 0..3\n"


def test_cg_element_past_the_carrier_is_usage_error(capsys):
    code, out, err = run(capsys, "cg", "--name", "D4", "--pairs", "1,9")
    assert code == 2 and out == ""
    assert err == "error: element 9 out of range 0..3\n"


def test_cg_pair_missing_its_second_element_is_usage_error(capsys):
    code, out, err = run(capsys, "cg", "--name", "D4", "--pairs", "1")
    assert code == 2 and out == ""
    assert err == "error: --pairs wants 'a,b;c,d', got '1'\n"


def test_show_and_dot(capsys):
    code, out, _ = run(capsys, "show", "--name", "A4", "--dot")
    assert code == 0
    assert "digraph" in out and "->" in out
    code, out, _ = run(capsys, "dual", "--name", "EX44III", "--json")
    obj = json.loads(out)
    assert obj["R"] == [[1, 0], [0, 1]]


def test_algebra_file_round_trip(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(corpus("D4").to_json())
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0 and "PS4: True" in out


def test_envelope_and_complex(capsys):
    code, out, _ = run(capsys, "envelope", "--name", "EX44IV", "--json")
    assert code == 0 and json.loads(out)["size"] == 16
    code, out, _ = run(capsys, "complex", "--worlds", "3", "--preorder", "geq",
                       "--json")
    assert code == 0 and json.loads(out)["is_ps4"] is True


def test_complex_rejects_worlds_outside_the_frame(capsys):
    # a negative count or a lone world crashed (exit 1); a successor past the
    # last world gave an algebra in which that world could never be boxed (exit 0)
    for worlds, preorder in (("-1", "id"), ("2", "0,5"), ("2", "2,0"), ("2", "0,-1"),
                             ("2", "1"), ("2", "x,y"), ("2", "0,1;")):
        code, out, err = run(capsys, "complex", "--worlds", worlds, "--preorder", preorder)
        assert (code, out) == (2, "") and err.startswith("error: "), (worlds, preorder)


def test_free_commands(capsys):
    code, out, _ = run(capsys, "free", "--gens", "D4", "--rank", "1", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["size"] == 5 and obj["generators"] == [2]
    code, out, _ = run(capsys, "freezero", "--gens", "D3")
    assert code == 0 and "C2" in out


@pytest.mark.parametrize("argv,digest", [
    (("free", "--gens", "D4", "--rank", "1"),
     "6fb99a25060254710936867f7198e5266659247cb27260ebe258fad78d266a30"),
    (("free", "--gens", "C2", "--rank", "3"),
     "e24b17d83e671f49a59f2e6b68906f0154fe8a6e2cf5752d705751dfaeb4673e"),
    (("free", "--gens", "C2", "--rank", "4"),
     "69a752fbe6c20f5fcf967a8b794c02d1f85378c2a34e4b51d7138cad6ba8efc3"),
    (("free", "--gens", "C3a,D3", "--rank", "1"),
     "63dd326d5f2723c79fd0323eb080f9b5693b98585dcb3b6a0cf22fd8f7ee4b06"),
    (("freezero", "--gens", "B2"),
     "9cbc033d319d12b4eb2fb2cf234f5b92fb32a5768d75f9c258b825b63b6af306"),
    (("freezero", "--gens", "D3,C3a"),
     "ae9985e4ab7b6c20ff39a1b58ce22a7cbad5e901d788c6e0e1d6e5bcaa21fb6a"),
], ids=["D4-1", "C2-3", "C2-4", "C3a-D3-1", "zero-B2", "zero-D3-C3a"])
def test_free_commands_json_bytes(capsys, argv, digest):
    """The --json stdout of free and freezero, pinned by its sha256 as
    printed when the closure met and joined value vectors coordinate by
    coordinate."""
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_free_and_freezero_read_only_their_generators(capsys, monkeypatch):
    """Both built the variety of their generators, an hs_si per generator,
    only to read its generators back; quasi parses --quasi before it builds
    the variety, so a malformed one costs nothing."""
    monkeypatch.setattr(varieties, "variety_of", None)
    assert run(capsys, "free", "--gens", "D4", "--rank", "1")[0] == 0
    assert run(capsys, "freezero", "--gens", "D3")[0] == 0
    code, out, err = run(capsys, "quasi", "classify", "--gens", "D4", "--quasi", "x ~")
    assert (code, out) == (2, "") and err.startswith("error: expected a term"), err


def test_complex_past_the_world_cap_exits_3_at_once():
    """The geq relation over 10^8 worlds was built as a set before the cap
    was compared; under this 1 GiB address-space limit that died with
    MemoryError, exit 1."""
    proc = run_capped("import sys\nfrom poma.cli import main\n"
                      "sys.exit(main(['complex', '--worlds', '100000000']))", cpu_seconds=20)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == "budget exhausted: 100000000 worlds exceeds the 8-world cap\n"


def _cli_in_child(*argv):
    """``poma`` with these arguments in a child interpreter, whose stack
    starts near empty whatever the depth of the test runner's."""
    return run_capped(f"import sys\nfrom poma.cli import main\nsys.exit(main({list(argv)!r}))")


def _eval_in_child(equation):
    return _cli_in_child("eval", "--name", "D4", "--equation", equation)


@pytest.mark.parametrize("equation", ["(" * 400 + "x" + ")" * 400 + " ~ x",
                                      "box " * 3000 + "x ~ x"],
                         ids=["400-parentheses", "3000-boxes"])
def test_deeply_nested_input_is_usage_error(equation):
    # each died with RecursionError, exit 1, which reads as false
    proc = _eval_in_child(equation)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"error: input nested too deeply \(at position \d+\)\n", proc.stderr), \
        proc.stderr


def test_deep_input_that_parses_gets_its_verdict():
    proc = _eval_in_child("box " * 980 + "x ~ x")
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "holds: False (witness {'x': 2})\n", "")


@pytest.mark.parametrize("boxes", [497, 980])
def test_translate_rho_gets_the_sequents_of_deep_input(boxes):
    """497 boxes died with RecursionError, exit 1: building a sequent hashed
    the term one Python call per level."""
    deep = "box " * boxes + "x"
    proc = _cli_in_child("translate", "rho", f"{deep} ~ x")
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, f"{{{deep}}} |> x\n{{x}} |> {deep}\n", "")


@pytest.mark.parametrize("equation", [
    "box " * 497 + "x ~ x", "x ~ " + "dia " * 980 + "x", "(" * 400 + "x" + ")" * 400 + " ~ x",
    "box " * 3000 + "x ~ x", " /\\ ".join(["x"] * 3000) + " ~ x",
    " \\/ ".join(["x"] * 3000) + " ~ x",
], ids=["497-boxes", "980-diamonds", "400-parentheses", "3000-boxes", "3000-meets", "3000-joins"])
def test_translate_rho_answers_or_refuses_what_eval_reads(equation):
    """Input eval reads gets its sequents; any other input exits 2 with one
    line.  A chain of 3000 meets parses flat into a term 3000 deep, which
    eval and translate both died on with RecursionError, exit 1."""
    read = _eval_in_child(equation)
    translated = _cli_in_child("translate", "rho", equation)
    for proc in (read, translated):
        assert proc.returncode in (0, 1, 2), proc.stderr
        if proc.returncode == 2:
            assert proc.stdout == "" and re.fullmatch(r"error: [^\n]*\n", proc.stderr), proc.stderr
    assert translated.returncode == (0 if read.returncode < 2 else 2)


def test_a_chain_of_3000_meets_gets_its_verdict():
    """The chain parses flat into a term 3,000 deep; evaluating it died with
    RecursionError, which cli.main reported as input nested too deeply."""
    proc = _eval_in_child(" /\\ ".join(["x"] * 3000) + " ~ x")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "holds: True\n", "")


def test_translate_tau_of_two_equal_deep_premises():
    """The two premises are one node, so the antecedent never compares them
    level by level: comparing two equal 250-box terms raised RecursionError."""
    deep = "box " * 250 + "x"
    proc = _cli_in_child("translate", "tau", f"{{{deep}, {deep}}} |> x")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{deep} /\\ x ~ {deep}\n", "")


def test_json_file_nested_past_the_json_limit_is_usage_error(tmp_path):
    """The json module raises RecursionError on deep nesting; cli.main's net
    turns it into a usage error."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = _cli_in_child("show", "--file", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: input nested too deeply\n")


def test_free_rank_past_the_budget_exits_3_at_once():
    """C2 at rank 24 has at least M(8) elements, far past the default
    budget.  Its 2^24 coordinates were built first, and under this 1 GiB
    address-space limit that died with MemoryError, exit 1."""
    proc = run_capped("import sys\nfrom poma.cli import main\n"
                      "sys.exit(main(['free', '--gens', 'C2', '--rank', '24']))")
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == ("budget exhausted: free algebra exceeds 20000 elements: rank 24"
                           " gives at least M(8) = 56130437228687557907788\n")


def test_negative_free_rank_is_usage_error(capsys):
    # exit 0 with "bound":-3 and "admissible_up_to_bound":true, no free algebra checked
    code, out, err = run(capsys, "quasi", "classify", "--gens", "B2", "--quasi",
                         "x ~ dia x => x ~ 0", "--free-rank", "-3", "--json")
    assert (code, out) == (2, "")
    assert err == "error: free rank -3: the bound must be >= 0\n"


@pytest.mark.parametrize("argv,message", [
    (("complete", "thm93", "--gens", "D4", "--depth", "-1", "--json"),
     "bound -1: the bound must be >= 0"),
    (("conlat", "--name", "D4", "--budget", "-5"), "budget -5: the budget must be >= 0"),
], ids=["thm93", "conlat"])
def test_negative_bound_is_usage_error(capsys, argv, message):
    # thm93 exited 1 printing "bound":-1 with an UnknownUpToBound verdict, and
    # conlat exited 3 reporting a lattice that "exceeds -5 members"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,digest", [
    (("envelope", "--name", "AN_MINUS:6"),
     "c97b63a74f9fa429b99d04c82f6957fd12c82ede413894772ceed4859725584d"),
    (("complex", "--worlds", "8", "--preorder", "geq"),
     "15f411ead764b50ca42e1b3b10713cf26368df92cba159f39ae2e7f47ae8e4cc"),
], ids=["envelope-AN_MINUS-6", "complex-8-geq"])
def test_powerset_carrier_commands_json_bytes(capsys, argv, digest):
    """The --json stdout of the two largest powerset carriers, pinned by its
    sha256 as printed when diamond was tabled over every point mask."""
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("dual", "--name", "F1_PS4"),
     "51c8551f753b2dce7e41fcfa492e9b3ad87478829b318563a1520b4adc32095b"),
    (("dual", "--name", "AN_MINUS:6"),
     "abe49fd8426aa40010a1181789a094093a65103414bafa600aa2d9d4244ff782"),
], ids=["dual-F1_PS4", "dual-AN_MINUS-6"])
def test_dual_command_json_bytes(capsys, argv, digest):
    """The --json stdout of dual, pinned by its sha256 as printed when each
    algebra derived its prime filters and their order on its own."""
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("dual", "--name", "F1_PS4"),
     "9bcb15af0a43ed8a8e8ac1afebf629d42bad89e606b1be6b3b3b348e5ab87111"),
    (("dual", "--name", "AN_MINUS:6"),
     "74b5204af2fde07ac003bbb4c9b4cdfd29351f5729ddbb0ee82c4fad1ea73a8b"),
    (("show", "--name", "F1_PS4"),
     "b22b32c96554562b08ce2c0a584002f6dd33104f08c72e0a098336350490cc6d"),
    (("variety", "figure4"),
     "5473fcb139fa19ad51329bf29b8420560ce229374fe3b13eccff90f94be638a5"),
], ids=["dual-F1_PS4", "dual-AN_MINUS-6", "show-F1_PS4", "variety-figure4"])
def test_dot_output_bytes(capsys, argv, digest):
    """The --dot stdout of each diagram, pinned by its sha256 as printed when
    the dual space and the variety poset scanned every triple for covers."""
    code, out, _ = run(capsys, *argv, "--dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "PS4", "--max-size", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 6                 # 1 + 1 + 4 algebras
    assert all(json.loads(l)["size"] <= 3 for l in lines)


def test_enumerate_resume_cache(tmp_path, capsys):
    code, out1, _ = run(capsys, "enumerate", "--kind", "PS4", "--max-size", "3",
                        "--cache", str(tmp_path))
    assert code == 0 and (tmp_path / "ps4_size3.jsonl").exists()
    code, out2, _ = run(capsys, "enumerate", "--kind", "PS4", "--max-size", "3",
                        "--cache", str(tmp_path), "--resume")
    assert out1 == out2


def test_variety_commands(capsys):
    assert run(capsys, "variety", "include", "--gens", "D3", "--other", "C2")[0] == 0
    assert run(capsys, "variety", "include", "--gens", "C2", "--other", "D3")[0] == 1
    code, out, _ = run(capsys, "variety", "figure4", "--json")
    obj = json.loads(out)
    assert code == 0 and len(obj["nodes"]) == 16 and len(obj["edges"]) == 21
    code, out, _ = run(capsys, "variety", "figure4", "--dot")
    assert "V(D3,D4)" in out and out.count("->") == 21


@pytest.mark.parametrize("argv,err", [
    (("variety", "include", "--gens", "F1_PS4"),
     "error: need --other with a ','-separated generator list\n"),
    (("variety", "include", "--gens", "F1_PS4", "--other", "NOPE"),
     "error: unknown corpus name: 'NOPE'\n"),
], ids=["no-other", "unknown-other"])
def test_variety_include_checks_both_lists_before_computing(capsys, monkeypatch, argv, err):
    """A bad --other exits 2 before the --gens variety, HS(F1_PS4) here, is built."""
    def refuse(*args):
        raise AssertionError("variety_of was called")
    monkeypatch.setattr(varieties, "variety_of", refuse)
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize("argv,want", [
    (("variety", "include", "--gens", "D4", "--other", "C2,"),
     (0, "V(D4) includes V(C2): True\n")),
    (("variety", "include", "--gens", "D4", "--other", " C2"),
     (0, "V(D4) includes V(C2): True\n")),
    (("variety", "covers", "--gens", "C2; D4", "--json"),
     (0, '{"edges":[[0,1]],"nodes":["V(C2)","V(D4)"]}\n')),
    (("variety", "include", "--gens", "D4", "--other", " , "), (2, "")),
    (("variety", "covers", "--gens", " ; ", "--json"), (2, "")),
], ids=["other-empty-piece", "other-space", "covers-space", "other-empty", "covers-empty"])
def test_generator_lists_are_parsed_alike(capsys, argv, want):
    """--gens and --other strip each piece of a generator list and drop the
    empty ones; a list with no piece left is a usage error."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == want
    assert err == ("" if code == 0 else "error: empty generator list\n")


def test_split_command(capsys):
    assert run(capsys, "split", "c3a", "--name", "C4a")[0] == 0
    assert run(capsys, "split", "d3", "--name", "D4")[0] == 0


def test_battery_commands(capsys):
    code, out, _ = run(capsys, "battery", "thm610", "--max-size", "4", "--json")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "battery", "lemma92", "--max-size", "3", "--json")
    assert code == 0
    code, out, _ = run(capsys, "battery", "thm42", "--max-size", "4", "--json")
    assert code == 0
    code, out, _ = run(capsys, "battery", "fact52", "--max-size", "4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert "bound" in obj                  # every battery reports its bound


def test_complete_commands(capsys):
    assert run(capsys, "complete", "sc", "--gens", "D4")[0] == 0
    assert run(capsys, "complete", "sc", "--gens", "D3")[0] == 1
    assert run(capsys, "complete", "psc", "--gens", "AN_MINUS:2")[0] == 0
    assert run(capsys, "complete", "asc", "--gens", "C3a")[0] == 1
    code, out, _ = run(capsys, "complete", "thm93", "--gens", "D4", "--json")
    assert code == 0 and json.loads(out)["witness"] == "(1, 1)"


def test_quasi_commands(capsys):
    code, out, _ = run(capsys, "quasi", "classify", "--gens", "B2",
                       "--quasi", "x ~ dia x => x ~ 0", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "Valid" and obj["active"] is True
    code, _, _ = run(capsys, "quasi", "admissible", "--gens", "C2",
                     "--quasi", "x ~ box x => x ~ 1")
    assert code == 1                       # refuted in the free algebra


def test_eval_and_translate(capsys):
    code, out, _ = run(capsys, "eval", "--name", "D3", "--term", "dia x",
                       "--assign", "x=1", "--json")
    assert code == 0 and json.loads(out)["value"] == 2
    code, out, _ = run(capsys, "eval", "--name", "D4", "--equation",
                       "box dia x ~ box x")
    assert code == 0
    code, out, _ = run(capsys, "eval", "--name", "C2", "--sentence",
                       "E x . box x ~ 0 & dia x ~ 1")
    assert code == 1
    code, out, _ = run(capsys, "translate", "tau", "{x, y} |> z")
    assert code == 0 and "~" in out
    code, out, _ = run(capsys, "translate", "rho", "x ~ y")
    assert code == 0 and out.count("|>") == 2


def test_eval_and_quasi_json_bytes(capsys):
    """Output pinned byte for byte: witnesses of the vector scan, and the
    classification from the free algebras of rank 0 to 2."""
    code, out, _ = run(capsys, "eval", "--name", "F1_PS4", "--equation",
                       "dia x /\\ box y <= box (dia x /\\ y)", "--json")
    assert (code, out) == (1, '{"holds":false,"witness":{"x":1,"y":19}}\n')
    code, out, _ = run(capsys, "quasi", "classify", "--gens", "D4", "--quasi",
                       "dia x ~ x & box y ~ y => x /\\ y ~ box (x /\\ y)", "--json")
    assert (code, out) == (1, '{"active":true,"admissible_up_to_bound":false,'
                              '"bound":2,"refuted_at":1,'
                              '"status":"RefutedAdmissibilityAt(1)","valid":false}\n')


def test_eval_assignment_past_the_carrier_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--name", "D3", "--term", "x",
                         "--assign", "x=99")
    assert code == 2 and out == ""
    assert err == "error: element 99 out of range 0..2\n"


def test_eval_negative_assignment_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--name", "D3", "--term", "x",
                         "--assign=x=-1")
    assert code == 2 and out == ""
    assert err == "error: element -1 out of range 0..2\n"


def test_eval_assignment_not_a_number_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--name", "D3", "--term", "x",
                         "--assign", "x=abc")
    assert code == 2 and out == ""
    assert err == "error: --assign wants 'x=0,y=1', got 'x=abc'\n"


def test_malformed_json_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: {path} is not valid JSON: "
                   "Expecting value: line 1 column 1 (char 0)\n")


ALGEBRA = {"size": 2, "leq": [[1, 1], [0, 1]], "box": [0, 1], "diamond": [0, 1]}


@pytest.mark.parametrize("argv", [
    ["show", "--file", "{dir}"],
    ["show", "--file", "{binary}"],
    ["validate", "--file", "{leq_scalar}"],
    ["validate", "--file", "{leq_null}"],
    ["validate", "--file", "{name_int}"],
    ["free", "--gens", "D4", "--rank", "-1"],
    ["enumerate", "--kind", "PS4", "--max-size", "2", "--cache", "{regular}"],
], ids=["file-is-dir", "file-not-text", "leq-scalar", "leq-null", "name-int",
        "negative-rank", "cache-is-file"])
def test_bad_input_is_usage_error_not_false(tmp_path, capsys, argv):
    # each of these raised an uncaught exception, exit 1, which reads as false
    files = {"dir": tmp_path / "d", "binary": tmp_path / "b.json",
             "leq_scalar": tmp_path / "s.json", "leq_null": tmp_path / "n.json",
             "name_int": tmp_path / "i.json", "regular": tmp_path / "r"}
    files["dir"].mkdir()
    files["binary"].write_bytes(b"\xff\xfe\x00\x81")
    files["leq_scalar"].write_text(json.dumps({**ALGEBRA, "leq": 5}))
    files["leq_null"].write_text(json.dumps({**ALGEBRA, "leq": None}))
    files["name_int"].write_text(json.dumps({**ALGEBRA, "name": 5}))
    files["regular"].write_text("")
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out) == (2, "") and err.startswith("error: "), err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "conlat", "--name", "EX44IV", "--budget", "2")
    assert code == 3
    assert "budget" in err.lower()


def test_budget_reports_partial_progress(capsys):
    """EX44IV has more than 2 congruences; the third found trips the budget."""
    code, out, err = run(capsys, "conlat", "--name", "EX44IV", "--budget", "2", "--json")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: congruence lattice exceeds 2 members (partial: 3)\n"


def test_subuniverse_cap_reports_partial_progress(capsys, monkeypatch):
    monkeypatch.setattr(morphisms, "MAX_SUBUNIVERSES", 5)
    monkeypatch.setattr(cli, "hs_si", morphisms.hs_si.__wrapped__)     # past its cache
    code, out, err = run(capsys, "hs", "--name", "F1_PS4", "--json")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: more than 5 subuniverses (partial: 6)\n"


def test_canonical_form_cap_reports_partial_progress(capsys, monkeypatch):
    """A search of more than one leaf trips a cap of one at its second leaf;
    ``hs`` on A4 meets such a search among its quotients."""
    monkeypatch.setattr(morphisms, "SEARCH_CAP", 1)
    monkeypatch.setattr(cli, "hs_si", morphisms.hs_si.__wrapped__)
    monkeypatch.setattr(morphisms, "canonical_form", morphisms.canonical_form.__wrapped__)
    code, out, err = run(capsys, "hs", "--name", "A4", "--json")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: canonical-form search exceeded its cap (partial: 2)\n"


def test_figure1_verify_cli(capsys):
    code, out, _ = run(capsys, "figure1-verify", "--max-size", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True and obj["enum_bound"] == 3


def test_figure1_verify_json_bytes(capsys):
    """The --json stdout at the default bound 6, pinned by its sha256 as
    printed when every homomorphism was checked on all index pairs."""
    code, out, _ = run(capsys, "figure1-verify", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d69882bfec0739580afee494e6f02f8689ae836ff1dca4ed1cd45fba351ffb2b"


def test_open_problem_scan_cli(capsys):
    code, out, _ = run(capsys, "complete", "openproblem", "--depth", "3",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == 3
    # inside PS4 the classification is decisive; candidates only live outside
    for label, size, inside_ps4, sc, asc, candidate in obj["rows"]:
        if inside_ps4:
            assert asc in ("Yes", "No") and not candidate
        if candidate:
            assert sc == "No" and asc == "UnknownUpToBound"


def test_poma_cache_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POMA_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "enumerate", "--kind", "PS4", "--max-size", "2",
                     "--resume")
    assert code == 0
    assert (tmp_path / "ps4_size2.jsonl").exists()
