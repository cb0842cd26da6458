"""Command line pipeline: reduce stages, solvers, verify suites, info, exit
codes, provenance sidecars, and byte-for-byte determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapforge
from gapforge import from_json, parse_clustering, parse_coverage
from gapforge.cli import _PROBLEMS, _STAGES, _SUITES, main
from gapforge.setsys import SetSystem
from gapforge.textformat import write

TINY = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"
COV = "cov 6 4 2\n0 1\n2 3\n4 5\n0 2 4\n"
PAIR_COV = "cov 2 2 2\n0\n1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.out


@pytest.fixture()
def cnf_file(tmp_path):
    path = tmp_path / "tiny.cnf"
    path.write_text(TINY)
    return path


def test_reduce_labelcover_deterministic(tmp_path, cnf_file, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["--seed", "7", "--k", "3", "--t", "2", "--p", "0.8"]
    code, doc, stdout1 = run(capsys, "reduce", "labelcover",
                             "-i", str(cnf_file), "-o", str(out1), *args)
    assert code == 0
    assert doc["summary"]["num_left"] == 3
    assert doc["summary"]["num_right"] == 3  # C(3, 2)

    code, _, stdout2 = run(capsys, "reduce", "labelcover",
                           "-i", str(cnf_file), "-o", str(out2), *args)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1.replace(str(out1), "") == stdout2.replace(str(out2), "")

    instance = from_json(out1.read_text())
    assert instance.bi_regular and instance.right_degree == 2

    prov = json.loads((tmp_path / "a.json.prov.json").read_text())
    assert prov["seed"] == 7
    assert prov["params"]["k"] == 3
    assert prov["params"]["p"] == "4/5"
    assert len(prov["params"]["subsets"]) == 3
    assert prov["command"][0] == "reduce"
    import hashlib
    assert prov["input_sha256"] == hashlib.sha256(TINY.encode()).hexdigest()


def test_reduce_chain_and_solvers(tmp_path, cnf_file, capsys):
    game = tmp_path / "game.json"
    code, _, _ = run(capsys, "reduce", "labelcover", "-i", str(cnf_file),
                     "-o", str(game), "--seed", "7", "--k", "3", "--p", "0.8")
    assert code == 0

    small_alpha = tmp_path / "small.json"
    code, doc, _ = run(capsys, "reduce", "alphabet", "-i", str(game),
                       "-o", str(small_alpha), "--seed", "1", "--delta", "0.5")
    assert code == 0
    assert doc["summary"]["right_alphabet"] == 11  # smallest prime >= t^2/delta
    from_json(small_alpha.read_text())

    code, doc, _ = run(capsys, "solve", "labelcover", "-i", str(game),
                       "--seed", "0")
    assert code == 0
    assert doc["val"] == "1" and doc["wval"] == "1"

    cov = tmp_path / "cov.txt"
    code, doc, _ = run(capsys, "reduce", "coverage", "-i", str(game),
                       "-o", str(cov), "--seed", "2")
    assert code == 0
    parsed = parse_coverage(cov.read_text())
    assert parsed.k == 3 and doc["summary"]["k"] == 3

    clustering = tmp_path / "metric.txt"
    code, _, _ = run(capsys, "reduce", "clustering", "-i", str(cov),
                     "-o", str(clustering), "--seed", "3")
    assert code == 0
    parse_clustering(clustering.read_text())  # metric audit runs on parse


def test_solve_coverage_modes(tmp_path, capsys):
    cov = tmp_path / "toy.txt"
    cov.write_text(COV)
    code, exact, _ = run(capsys, "solve", "max-coverage", "-i", str(cov),
                         "--seed", "0")
    code2, greedy, _ = run(capsys, "solve", "max-coverage", "-i", str(cov),
                           "--seed", "0", "--mode", "greedy")
    assert code == 0 and code2 == 0
    assert exact["mode"] == "exact" and greedy["mode"] == "greedy"
    assert exact["value"] >= greedy["value"]
    assert exact["value"] == 4

    code, doc, _ = run(capsys, "solve", "min-set-cover", "-i", str(cov),
                       "--seed", "0")
    assert code == 0 and doc["value"] == 3

    code, doc, _ = run(capsys, "solve", "unique-cover", "-i", str(cov),
                       "--seed", "0", "--choose", "0,1,2")
    assert code == 0 and doc["unique"] is True
    code, doc, _ = run(capsys, "solve", "unique-cover", "-i", str(cov),
                       "--seed", "0", "--choose", "0,3")
    assert doc["unique"] is False


def test_solve_clustering_and_lattice_problems(tmp_path, capsys):
    cov = tmp_path / "toy.txt"
    cov.write_text(COV)
    metric = tmp_path / "metric.txt"
    run(capsys, "reduce", "clustering", "-i", str(cov), "-o", str(metric),
        "--seed", "0")
    code, doc, _ = run(capsys, "solve", "kmedian", "-i", str(metric),
                       "--seed", "0")
    assert code == 0 and doc["value"] == 10  # 6 * (1 + 2/3)
    code, doc, _ = run(capsys, "solve", "kmean", "-i", str(metric),
                       "--seed", "0")
    assert code == 0 and doc["value"] == 22

    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_COV)
    ncp = tmp_path / "code.txt"
    code, doc, _ = run(capsys, "reduce", "ncp", "-i", str(pair),
                       "-o", str(ncp), "--seed", "0", "--tbar", "2")
    assert code == 0 and doc["summary"]["rows"] == 8
    code, doc, _ = run(capsys, "solve", "ncp", "-i", str(ncp), "--seed", "0")
    assert code == 0 and doc["value"] == 2 and doc["witness"] == [1, 1]

    cvp = tmp_path / "lattice.txt"
    code, _, _ = run(capsys, "reduce", "cvp", "-i", str(pair), "-o", str(cvp),
                     "--seed", "0", "--tbar", "2", "--p-norm", "1")
    assert code == 0
    code, doc, _ = run(capsys, "solve", "cvp", "-i", str(cvp), "--seed", "0",
                       "--box", "2")
    assert code == 0 and doc["value"] == 2
    assert doc["note"] == "coordinates enumerated in [-2, 2]"


@pytest.mark.parametrize("suite,scale", [
    ("partition-identity", 1),
    ("monotone-dnf", 6),
    ("majority-bound", 2),
    ("rb-transitivity", 2),
    ("pipeline-completeness", 2),
])
def test_verify_suites_pass(capsys, suite, scale):
    code, doc, _ = run(capsys, "verify", suite, "--seed", "5",
                       "--scale", str(scale))
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["violations"] == 0
    assert doc["cases"] > 0
    assert doc["first_violation"] is None


def test_verify_counts_forced_violations(capsys, monkeypatch):
    """Forced failures exit 1: every case is counted, every failing one is a
    violation, and the first of them is reported."""
    monkeypatch.setattr(gapforge.cli, "dnf_bound_holds", lambda value, *rest: False)
    monkeypatch.setattr(gapforge.cli, "check_rb_transitive", lambda graph, h: (False, (0, 1, h)))
    monkeypatch.setattr(gapforge.cli, "verify_unique_cover", lambda instance, chosen: False)
    expected = {
        "monotone-dnf": (9, 9, {"k": 4, "ell": 1, "eps": "1/4", "p": "1/10",
                                "terms": [[2]], "false_prob": "9/10"}),
        "rb-transitivity": (3, 3, {"system_seed": 2675342405, "function_seed": 3185950873,
                                   "h": 40, "witness": [0, 1, 40]}),
        # only the Feige half of each pipeline case fails
        "pipeline-completeness": (6, 3, {"formula_seed": 2675342405, "kind": "feige",
                                         "unique": False, "min_cover": 3}),
    }
    for suite, (cases, violations, first) in expected.items():
        code, doc, _ = run(capsys, "verify", suite, "--seed", "5", "--scale", "3")
        assert code == 1
        assert (doc["status"], doc["cases"], doc["violations"]) == ("fail", cases, violations)
        assert doc["first_violation"] == first


def test_verify_determinism(capsys):
    code1, _, out1 = run(capsys, "verify", "majority-bound", "--seed", "9",
                         "--scale", "1")
    code2, _, out2 = run(capsys, "verify", "majority-bound", "--seed", "9",
                         "--scale", "1")
    assert code1 == code2 == 0 and out1 == out2


def test_budget_exhaustion_is_inconclusive(capsys):
    code, doc, _ = run(capsys, "verify", "monotone-dnf", "--seed", "1",
                       "--scale", "1", "--budget", "10")
    assert code == 3
    assert doc["status"] == "inconclusive"
    assert doc["required"] > doc["budget"] == 10


def test_rb_transitivity_budget_charges_the_counted_work(capsys):
    argv = ["verify", "rb-transitivity", "--seed", "3", "--scale", "1"]
    code, doc, stdout = run(capsys, *argv, "--budget", "10")
    assert code == 3 and stdout.count("\n") == 1
    assert doc["status"] == "inconclusive" and doc["budget"] == 10
    # the C(50, 2) pair lookups are charged first, then the consistency count
    assert (doc["what"], doc["required"]) == ("two-level pair enumeration", 1225)
    code, doc, _ = run(capsys, *argv, "--budget", str(doc["required"]))
    assert code == 3 and doc["what"] == "two-level consistency count"
    code, _, enough = run(capsys, *argv, "--budget", str(doc["required"]))
    code_default, _, default = run(capsys, *argv)
    assert code == code_default == 0 and enough == default


def test_min_set_cover_budget_charges_each_size_level(tmp_path, capsys):
    # the cover {0,1}, {2,3}, {4,5} has size 3, so the levels through size 3
    # are charged: 1 + 4 + 6 + 4 = 15 of the 2^4 subsets
    cov = tmp_path / "toy.txt"
    cov.write_text(COV)
    code, doc, _ = run(capsys, "solve", "min-set-cover", "-i", str(cov),
                       "--seed", "0", "--budget", "15")
    assert code == 0
    assert doc["value"] == 3 and doc["witness"] == [0, 1, 2] and doc["enumerated"] == 15
    code, doc, stdout = run(capsys, "solve", "min-set-cover", "-i", str(cov),
                            "--seed", "0", "--budget", "14")
    assert code == 3 and stdout.count("\n") == 1
    assert doc["status"] == "inconclusive" and doc["what"] == "subset enumeration through size 3"
    assert doc["budget"] == 14 and doc["required"] == 15


def test_env_budget_override(tmp_path, capsys, monkeypatch):
    cov = tmp_path / "toy.txt"
    cov.write_text(COV)
    monkeypatch.setenv("GAPFORGE_BUDGET", "2")
    code, doc, _ = run(capsys, "solve", "max-coverage", "-i", str(cov),
                       "--seed", "0")
    assert code == 3 and doc["status"] == "inconclusive"
    # explicit flag beats the environment
    code, doc, _ = run(capsys, "solve", "max-coverage", "-i", str(cov),
                       "--seed", "0", "--budget", "1000")
    assert code == 0 and doc["value"] == 4


BUDGETED = ([("reduce", stage, "-o", "out") for stage in _STAGES]
            + [("solve", problem) for problem in _PROBLEMS]
            + [("verify", suite) for suite in sorted(_SUITES)])


@pytest.mark.parametrize("command", BUDGETED, ids=[" ".join(c[:2]) for c in BUDGETED])
def test_malformed_env_budget_is_an_error(tmp_path, cnf_file, capsys, monkeypatch, command):
    """Every command that takes a budget reads GAPFORGE_BUDGET once, before
    its work, whether or not its work is budgeted."""
    monkeypatch.chdir(tmp_path)
    inputs = () if command[0] == "verify" else ("-i", str(cnf_file))
    for value, expected in (("lots", "'lots' is not an integer"),
                            ("-5", "GAPFORGE_BUDGET -5 is below 0")):
        monkeypatch.setenv("GAPFORGE_BUDGET", value)
        assert error_message(capsys, *command, *inputs, "--seed", "0") == expected
        assert not (tmp_path / "out").exists()


def test_integer_options_are_ascii_digits(tmp_path, capsys, monkeypatch):
    """Integer flags, GAPFORGE_BUDGET and --choose indices take what the file
    readers take: ASCII digits after an optional '-', no '+', no underscore,
    no other script's digits."""
    cov = tmp_path / "cov.txt"
    cov.write_text(COV)
    solve = ("solve", "max-coverage", "-i", str(cov))
    reduce = ("reduce", "clustering", "-i", str(cov), "-o", str(tmp_path / "out"), "--seed", "0")
    for argv in ((*solve, "--seed", "0", "--budget", "\u0661_\u0660"), (*solve, "--seed", "\u0660"),
                 (*solve, "--seed", "+1"), (*solve, "--seed", "0", "--box", "1_0"),
                 (*reduce, "--k", "+3"), (*reduce, "--exponent", "\u0662")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"invalid integer value: {argv[-1]!r}" in capsys.readouterr().err
    monkeypatch.setenv("GAPFORGE_BUDGET", "+1_0")
    assert error_message(capsys, *solve, "--seed", "0") == "'+1_0' is not an integer"
    monkeypatch.delenv("GAPFORGE_BUDGET")
    assert error_message(capsys, "solve", "unique-cover", "-i", str(cov), "--seed", "0",
                         "--choose", "0,\u0661,2_0") == "'\u0661' is not an integer"


def test_info_ignores_env_budget(cnf_file, capsys, monkeypatch):
    monkeypatch.setenv("GAPFORGE_BUDGET", "lots")
    code, doc, _ = run(capsys, "info", "-i", str(cnf_file))
    assert code == 0 and doc["format"] == "dimacs"


def test_verify_scale_below_one_is_a_usage_error(capsys):
    for scale in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "monotone-dnf", "--seed", "1", "--scale", scale])
        assert exc.value.code == 2
    assert "is below 1" in capsys.readouterr().err
    # a negative budget is a usage error too; a budget of 0 is valid
    with pytest.raises(SystemExit) as exc:
        main(["verify", "monotone-dnf", "--seed", "1", "--scale", "1", "--budget", "-5"])
    assert exc.value.code == 2
    assert "-5 is below 0" in capsys.readouterr().err
    code, doc, _ = run(capsys, "verify", "monotone-dnf", "--seed", "1", "--scale", "1",
                       "--budget", "0")
    assert code == 3 and doc["budget"] == 0


def test_runtime_errors_exit_one(tmp_path, cnf_file, capsys):
    code, doc, _ = run(capsys, "solve", "max-coverage", "-i", str(cnf_file),
                       "--seed", "0")
    assert code == 1 and doc["status"] == "error"

    code, doc, _ = run(capsys, "reduce", "labelcover",
                       "-i", str(tmp_path / "missing.cnf"),
                       "-o", str(tmp_path / "out.json"), "--seed", "0")
    assert code == 1 and doc["status"] == "error"

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("zzz 1 2 3\n")
    code, doc, _ = run(capsys, "info", "-i", str(garbage))
    assert code == 1 and "unrecognized" in doc["message"]


def error_message(capsys, *argv):
    """Run a command that must fail on its input: exit 1 and exactly one JSON
    document on stdout, the error document. Returns its message."""
    code, doc, out = run(capsys, *argv)
    assert code == 1 and out.count("\n") == 1
    assert doc["status"] == "error"
    return doc["message"]


def test_truncating_header_is_an_error(tmp_path, capsys):
    # the header promises one set line and two follow
    cov = tmp_path / "truncating.txt"
    cov.write_text("cov 3 1 1\n0 1\n2\n")
    assert "non-blank line" in error_message(capsys, "info", "-i", str(cov))
    error_message(capsys, "solve", "max-coverage", "-i", str(cov), "--seed", "0")


def test_labelcover_schema_errors(tmp_path, capsys):
    partial = tmp_path / "partial.json"
    partial.write_text('{"format":"labelcover"}')
    assert "'projection'" in error_message(capsys, "info", "-i", str(partial))
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    assert "labelcover" in error_message(capsys, "reduce", "alphabet", "-i", str(listed),
                                         "-o", str(tmp_path / "out.json"), "--seed", "0")


def test_solve_labelcover_rejects_valueless_games(tmp_path, capsys):
    vacuous = gapforge.build_main_reduction(
        gapforge.parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n"),
        SetSystem(3, ((0, 1), (2,))), 2, allow_vacuous=True)
    no_edges = gapforge.LabelCoverInstance(
        edges=(), left_alphabets=((0, 1),),
        right_alphabets=((0,),), projections=())
    no_right = gapforge.LabelCoverInstance(
        edges=(), left_alphabets=((0, 1),),
        right_alphabets=(), projections=())
    for name, game, message in (("vacuous", vacuous, "empty alphabet"),
                                ("no-edges", no_edges, "no edges"),
                                ("no-right", no_right, "no edges")):
        path = tmp_path / f"{name}.json"
        path.write_text(gapforge.to_json(game))
        assert message in error_message(capsys, "solve", "labelcover", "-i", str(path),
                                        "--seed", "1")


def test_reduce_alphabet_checks_its_output_size(tmp_path, cnf_file, capsys):
    game = tmp_path / "game.json"
    code, _, _ = run(capsys, "reduce", "labelcover", "-i", str(cnf_file),
                     "-o", str(game), "--seed", "7", "--k", "3", "--p", "0.8")
    assert code == 0
    out = tmp_path / "small.json"
    # q = 400009 would give 3 q right vertices of q labels each, and 6 q
    # edges whose tables have 2 entries
    q = 400009
    code, doc, stdout = run(capsys, "reduce", "alphabet", "-i", str(game), "-o", str(out),
                            "--seed", "7", "--delta", "1/100000")
    assert code == 3 and stdout.count("\n") == 1
    assert doc["status"] == "inconclusive"
    assert doc["required"] == q * (3 * q + 6 * 2) and doc["budget"] == 10_000_000
    assert not out.exists()
    # --budget reaches the stage: at delta 1/2 (q = 11) the output has 363
    # right labels and 132 table entries
    code, doc, _ = run(capsys, "reduce", "alphabet", "-i", str(game), "-o", str(out),
                       "--seed", "7", "--delta", "0.5", "--budget", "494")
    assert code == 3 and doc["required"] == 495 and doc["budget"] == 494
    code, doc, _ = run(capsys, "reduce", "alphabet", "-i", str(game), "-o", str(out),
                       "--seed", "7", "--delta", "0.5", "--budget", "495")
    assert code == 0 and doc["summary"]["num_right"] == 33


def test_reduce_alphabet_charges_the_prime_search(tmp_path, cnf_file, capsys):
    game = tmp_path / "game.json"
    run(capsys, "reduce", "labelcover", "-i", str(cnf_file), "-o", str(game), "--seed", "7")
    out = tmp_path / "small.json"
    argv = ["reduce", "alphabet", "-i", str(game), "-o", str(out), "--seed", "7",
            "--delta", "1/10000000"]
    # the search starts at t^2/delta = 4 * 10^7
    for budget in ([], ["--budget", "1000"]):
        code, doc, _ = run(capsys, *argv, *budget)
        assert code == 3 and doc["what"] == "prime search"
        assert doc["required"] == 40_000_000
        assert doc["budget"] == (int(budget[1]) if budget else 10_000_000)
    code, doc, _ = run(capsys, *argv, "--budget", "40000000")
    assert code == 3 and doc["what"].startswith("reduced game size")
    assert doc["required"] > doc["budget"] == 40_000_000
    assert not out.exists()


def test_reduce_coverage_charges_every_set_entry(tmp_path, capsys):
    """A game whose gadget has a 743,424-element universe and 18,337,792 set
    entries: charging only the universe let `--budget 1000000` build it."""
    formula, _ = gapforge.random_planted_formula(6, 8, seed=1, max_occurrence=5)
    system = gapforge.sample_random_subsets(8, 3, Fraction(1, 2), seed=2)
    game = gapforge.reduce_alphabet(gapforge.build_main_reduction(formula, system, 2),
                                    Fraction(1, 2))
    path = tmp_path / "game.json"
    path.write_text(gapforge.to_json(game))
    out = tmp_path / "cov.txt"
    code, doc, stdout = run(capsys, "reduce", "coverage", "-i", str(path), "-o", str(out),
                            "--seed", "0", "--budget", "1000000")
    assert code == 3 and stdout.count("\n") == 1
    assert doc["required"] == 743_424 + 18_337_792 and doc["budget"] == 1_000_000
    assert doc["what"] == "coverage universe and set entries"
    assert not out.exists()


def test_reduce_clustering_checks_its_output_size(tmp_path, capsys):
    # one set holding all 300 elements: a 301 x 301 distance matrix
    cov = tmp_path / "big.txt"
    cov.write_text("cov 300 1 1\n" + " ".join(map(str, range(300))) + "\n")
    out = tmp_path / "out.txt"
    code, doc, stdout = run(capsys, "reduce", "clustering", "-i", str(cov), "-o", str(out),
                            "--seed", "0", "--budget", "10")
    assert code == 3 and stdout.count("\n") == 1
    assert doc["status"] == "inconclusive"
    assert doc["required"] == 301 * 301 and doc["budget"] == 10
    assert not out.exists()
    code, doc, _ = run(capsys, "reduce", "clustering", "-i", str(cov), "-o", str(out),
                       "--seed", "0", "--budget", str(301 * 301))
    assert code == 0 and doc["summary"]["clients"] == 300


HUGE_COV = "cov 100000000000 1 1\n0 1\n"
WIDE_CNF = gapforge.to_dimacs(gapforge.random_planted_formula(18, 6, seed=1)[0])


@pytest.mark.parametrize("name,text,argv,expected", [
    ("deep.json", '{"a":' + "[" * 200_000 + "]" * 200_000 + "}", ["info"], 1),
    ("vars.cnf", "p cnf 1000000000 1\n1 0\n", ["info"], 1),
    # a second header used to replace the first: info reported 1 clause
    ("two-headers.cnf", "p cnf 3 5\n1 2 3 0\np cnf 3 1\n", ["info"], 1),
    ("huge.txt", HUGE_COV, ["solve", "unique-cover", "--seed", "0", "--choose", "0"], 0),
    ("huge.txt", HUGE_COV, ["solve", "min-set-cover", "--seed", "0"], 1),
    ("huge.txt", HUGE_COV, ["reduce", "clustering", "-o", "out.txt", "--seed", "0"], 3),
    # a budget that admits the build leaves it to run out of memory
    ("huge.txt", HUGE_COV, ["reduce", "clustering", "-o", "out.txt", "--seed", "0",
                            "--budget", "100000000000000000000000"], 1),
    # no sets, yet the rows of 10^11 elements are charged
    ("no-sets.txt", "cov 100000000000 0 1\n", ["reduce", "ncp", "-o", "out.txt", "--seed", "0"], 3),
    # a box of 2*10^9 + 1 coordinates per column is refused before any is built
    ("one.txt", "cvp 1 1 1 1\n1\n0\n", ["solve", "cvp", "--seed", "0", "--box", "1000000000"], 3),
    ("big-k.txt", "cvp 1 1 1000000000 1\n1\n0\n", ["solve", "cvp", "--seed", "0"], 3),
    # five points, each scored as a 10^7-th power: refused at parse
    ("big-p.txt", "cvp 1 1 1 10000000\n1\n2\n", ["solve", "cvp", "--seed", "0"], 1),
    # three subsets over 18 variables: 786,432 left labels, charged to the budget
    ("wide.cnf", WIDE_CNF, ["reduce", "labelcover", "-o", "out.json", "--seed", "0",
                            "--k", "3", "--p", "1", "--budget", "18"], 3),
    # 2,000,000 subsets of 3 clauses: the coin flips are charged before any is drawn
    ("tiny.cnf", TINY, ["reduce", "labelcover", "-o", "out.json", "--seed", "0",
                        "--k", "2000000", "--budget", "10"], 3),
    # the per-subset width cap is compared, not raised to a power of two
    ("tiny.cnf", TINY, ["reduce", "labelcover", "-o", "out.json", "--seed", "0",
                        "--var-budget", "100000000000"], 0),
], ids=["deep-json", "huge-var-count", "two-dimacs-headers", "huge-unique-cover",
        "huge-min-set-cover", "huge-clustering", "huge-clustering-out-of-memory",
        "huge-ncp-no-sets", "huge-cvp-box", "huge-cvp-default-box", "huge-cvp-norm",
        "wide-labelcover-budget", "huge-k-labelcover", "huge-var-budget"])
def test_huge_or_deep_inputs_give_one_document(tmp_path, name, text, argv, expected):
    """Inputs whose size is claimed rather than present: none may build what
    it claims. The child runs under a 1.5 GB address-space cap, so building
    it fails fast with MemoryError instead of exhausting the machine; a
    refusal (exit 3) comes before any work, so it gets 5 s."""
    resource = pytest.importorskip("resource")
    (tmp_path / name).write_text(text)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = dict(os.environ,
               PYTHONPATH=str(Path(gapforge.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gapforge.cli", *argv[:2], "-i", name, *argv[2:]],
        cwd=tmp_path, env=env, preexec_fn=cap_memory, capture_output=True,
        text=True, timeout=5 if expected == 3 else 60)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert proc.returncode == expected
    assert proc.stdout.count("\n") == 1
    doc = json.loads(proc.stdout)
    if "-o" in argv:
        assert (tmp_path / argv[argv.index("-o") + 1]).exists() == (expected == 0)
    if expected != 0:
        assert doc["status"] == ("inconclusive" if expected == 3 else "error")
    elif argv[1] == "unique-cover":
        assert doc["unique"] is False
    else:
        assert "status" not in doc


def test_unique_cover_rejects_out_of_range_sets(tmp_path, capsys):
    cov = tmp_path / "cov.txt"
    cov.write_text("cov 3 2 1\n0 1\n2\n")
    assert "5" in error_message(capsys, "solve", "unique-cover", "-i", str(cov),
                                "--seed", "0", "--choose", "5")
    # -1 must not read as the last set
    assert "-1" in error_message(capsys, "solve", "unique-cover", "-i", str(cov),
                                 "--seed", "0", "--choose=-1,0")
    code, doc, _ = run(capsys, "solve", "unique-cover", "-i", str(cov),
                       "--seed", "0", "--choose", "1,0")
    assert code == 0 and doc["unique"] is True


def test_zero_denominators_are_errors(tmp_path, cnf_file, capsys):
    metric = tmp_path / "metric.txt"
    metric.write_text("clustering 1 1 1 1\n0 1/0\n1/0 0\n")
    assert "'1/0'" in error_message(capsys, "info", "-i", str(metric))
    assert "'1/0'" in error_message(capsys, "solve", "kmedian", "-i", str(metric),
                                    "--seed", "0")
    game = tmp_path / "game.json"
    assert "'1/0'" in error_message(capsys, "reduce", "labelcover", "-i", str(cnf_file),
                                    "-o", str(game), "--seed", "7", "--p", "1/0")
    assert not game.exists()
    run(capsys, "reduce", "labelcover", "-i", str(cnf_file), "-o", str(game), "--seed", "7")
    out = tmp_path / "small.json"
    assert "'1/0'" in error_message(capsys, "reduce", "alphabet", "-i", str(game),
                                    "-o", str(out), "--seed", "7", "--delta", "1/0")
    assert not out.exists()


def test_p_and_delta_are_strict_numbers(tmp_path, cnf_file, capsys):
    """--p and --delta take what the clustering reader takes: an optional '-',
    ASCII digits, then at most one '/' or '.' and digits."""
    game = tmp_path / "game.json"
    run(capsys, "reduce", "labelcover", "-i", str(cnf_file), "-o", str(game), "--seed", "7")
    out = tmp_path / "out.json"
    for form in ("+\u0661/\u0662", "1_0/2_0", "0.5e0", " 1/2", "1/2 "):
        assert error_message(capsys, "reduce", "labelcover", "-i", str(cnf_file), "-o", str(out),
                             "--seed", "7", "--p", form) == f"{form!r} is not a number"
        assert error_message(capsys, "reduce", "alphabet", "-i", str(game), "-o", str(out),
                             "--seed", "7", "--delta", form) == f"{form!r} is not a number"
        assert not out.exists()


@pytest.mark.parametrize("stage", ["ncp", "cvp"])
@pytest.mark.parametrize("tbar", ["-1", "-3"])
def test_negative_tbar_is_an_error(tmp_path, capsys, stage, tbar):
    cov = tmp_path / "cov.txt"
    cov.write_text(COV)
    out = tmp_path / "out.txt"
    assert "soundness_threshold" in error_message(capsys, "reduce", stage, "-i", str(cov),
                                                  "-o", str(out), "--seed", "0",
                                                  "--tbar", tbar)
    assert not out.exists()


def _fuzz_seeds():
    """One valid file per instance format."""
    pair = parse_coverage(PAIR_COV)
    game = gapforge.build_main_reduction(gapforge.parse_dimacs(TINY),
                                         SetSystem(3, ((0, 1), (1, 2), (0, 2))), 2)
    return {
        "dimacs": TINY,
        "labelcover": gapforge.to_json(game),
        "cov": COV,
        "setsys": write("setsys", (4, 2), ((0, 1), (2,))),
        "dnf": write("dnf", (3, 2), ((0,), (1, 2))),
        "clustering": gapforge.clustering_to_text(gapforge.guha_khuller_reduction(pair)),
        "ncp": gapforge.code_to_text(gapforge.abss_ncp_reduction(pair, 1)),
        "cvp": gapforge.lattice_to_text(gapforge.abss_cvp_reduction(pair, 1)),
    }


FUZZ_SEEDS = {fmt: text.encode() for fmt, text in _fuzz_seeds().items()}
FUZZ_TOKENS = (b"1/0", b"0", b"9", b"-", b" ", b"\n", b"/", b".", b"x", b"\xff",
               b"{", b"]", b'"')
edits = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete", "token")),
                           st.integers(0, 10**6), st.sampled_from(FUZZ_TOKENS)),
                 max_size=4)


def _mutate(data, changes):
    """Apply byte edits in order; a "token" edit swaps a whole
    whitespace-separated token for the payload."""
    for kind, position, payload in changes:
        if kind == "token":
            spans = [m.span() for m in re.finditer(rb"\S+", data)] or [(0, 0)]
            start, end = spans[position % len(spans)]
        else:
            start = position % (len(data) + 1)
            end = start if kind == "insert" else start + 1
        data = data[:start] + (b"" if kind == "delete" else payload) + data[end:]
    return data


EVERY_MASK = list(range(8))


@pytest.mark.parametrize("key,value,message", [
    ("right_alphabets", [[0, 12, 3, 4, 5, 6, 7], EVERY_MASK, EVERY_MASK], "every mask"),
    ("right_alphabets", [EVERY_MASK[::-1], EVERY_MASK, EVERY_MASK], "every mask"),
    ("right_alphabets", [[0, 0, 2, 3, 4, 5, 6, 7], EVERY_MASK, EVERY_MASK], "every mask"),
    ("left_alphabets", [[2, 5, 6, 99], [0, 2, 4, 5], [1, 2, 3, 5]], "distinct masks below 2^3"),
    ("left_domains", [[1, 2, 3, 3], [1, 2, 3], [1, 2, 3]], "repeats a variable"),
    ("right_degree", 3, "'right_degree' records 3"),
    ("bi_regular", False, "'bi_regular' records false"),
], ids=["deleted-comma", "reversed-right", "duplicated-right", "left-label-99",
        "repeated-domain-variable", "wrong-right-degree", "wrong-bi-regular"])
def test_misread_games_are_refused(tmp_path, capsys, key, value, message):
    """Edits of the fuzz seed game that a restriction game's tables would
    misread, or that record what the game is not. Each used to give exit 0
    and a wrong witness from `solve labelcover`, or (deleted-comma, found by
    the fuzz test below) a traceback from `reduce alphabet`."""
    doc = json.loads(FUZZ_SEEDS["labelcover"])
    assert doc["right_alphabets"][0] == EVERY_MASK and doc["left_domains"][0] == [1, 2, 3]
    text = json.dumps(dict(doc, **{key: value}))
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(text)
    path = tmp_path / "game.json"
    path.write_text(text)
    assert message in error_message(capsys, "solve", "labelcover", "-i", str(path),
                                    "--seed", "1")


@pytest.mark.parametrize("key,value,message", [
    ("left_domains", [[5, 5, 5]], "one domain per vertex required"),
    ("left_domains", [[5], [6, 6]], "repeats a variable"),
    ("right_domains", [[]], "tables projections take no right domains"),
], ids=["one-left-domain", "repeated-left-variable", "right-domains"])
def test_tables_game_domains_are_refused(tmp_path, capsys, key, value, message):
    """A tables game keeps at most one distinct-variable domain per left
    vertex and no right domains, which its document could not record."""
    doc = {"format": "labelcover", "projection": "tables", "edges": [[0, 0], [1, 0]],
           "left_alphabets": [[0, 1], [0, 1]], "right_alphabets": [[0, 1]],
           "tables": [[0, 1], [1, 0]], "num_left": 2, "num_right": 1,
           "bi_regular": True, "right_degree": 2, "vacuous": False}
    assert from_json(json.dumps(doc)).left_domains is None
    text = json.dumps(dict(doc, **{key: value}))
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(text)
    path = tmp_path / "game.json"
    path.write_text(text)
    assert message in error_message(capsys, "solve", "labelcover", "-i", str(path),
                                    "--seed", "1")


@pytest.mark.parametrize("fmt", sorted(FUZZ_SEEDS))
@given(changes=edits)
@settings(max_examples=40, deadline=None)
def test_mutated_inputs_give_one_document(fmt, changes):
    """Any input through info, every solve problem and every reduce stage
    exits 0-3, and every run but a usage error prints one JSON document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(_mutate(FUZZ_SEEDS[fmt], changes))
        budget = ("--seed", "0", "--budget", "10000")
        runs = [("info", "-i", path)]
        runs += [("solve", problem, "-i", path, *budget) for problem in _PROBLEMS]
        runs += [("reduce", stage, "-i", path, "-o", os.path.join(tmp, "out"), *budget)
                 for stage in _STAGES]
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2, 3), argv
            if code != 2:
                lines = out.getvalue().splitlines()
                assert len(lines) == 1, argv
                json.loads(lines[0])


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "bogus-stage", "-i", "x", "-o", "y", "--seed", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "labelcover", "-i", "x", "-o", "y"])  # no seed
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "labelcover", "-i", "x", "-o", "y", "--seed", "0", "--var-budget", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_info_reports_every_format(tmp_path, cnf_file, capsys):
    code, doc, _ = run(capsys, "info", "-i", str(cnf_file))
    assert code == 0
    assert doc["format"] == "dimacs" and doc["num_clauses"] == 3

    game = tmp_path / "game.json"
    run(capsys, "reduce", "labelcover", "-i", str(cnf_file), "-o", str(game),
        "--seed", "7")
    code, doc, _ = run(capsys, "info", "-i", str(game))
    assert code == 0
    assert doc["format"] == "labelcover" and doc["projection"] == "restriction"

    files = {
        "cov": COV,
        "setsys": write("setsys", (4, 2), ((0, 1), (2,))),
        "dnf": write("dnf", (3, 2), ((0,), (1, 2))),
        "ncp": "ncp 1 1 1\n1\n1\n",
        "cvp": "cvp 1 1 1 2\n1\n1\n",
    }
    for fmt, text in files.items():
        path = tmp_path / f"sample.{fmt}"
        path.write_text(text)
        code, doc, _ = run(capsys, "info", "-i", str(path))
        assert code == 0 and doc["format"] == fmt

    metric = tmp_path / "metric.txt"
    cov_path = tmp_path / "c.txt"
    cov_path.write_text(COV)
    run(capsys, "reduce", "clustering", "-i", str(cov_path), "-o", str(metric),
        "--seed", "0")
    code, doc, _ = run(capsys, "info", "-i", str(metric))
    assert code == 0 and doc["format"] == "clustering"


def test_console_script_and_module_entry(tmp_path):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text(TINY)
    out = tmp_path / "game.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gapforge.cli", "reduce", "labelcover",
         "-i", str(cnf), "-o", str(out), "--seed", "7", "--p", "0.8"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "reduce" and out.exists()
    assert proc.stderr.startswith("reduce labelcover")

    # The console script is checked from this repo's own declaration, not
    # from whatever ``gapforge`` the PATH holds: read [project.scripts],
    # write the launcher an installer would generate, and run it against
    # this checkout.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "gapforge" in scripts, scripts
    entry = EntryPoint(name="gapforge", value=scripts["gapforge"],
                       group="console_scripts")
    assert entry.load() is main

    script = tmp_path / "bin" / "gapforge"
    script.parent.mkdir()
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n")
    script.chmod(0o755)
    env = dict(os.environ,
               PYTHONPATH=str(Path(gapforge.__file__).resolve().parents[1]))

    proc = subprocess.run([str(script), "info", "-i", str(cnf)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["format"] == "dimacs"

    proc = subprocess.run([str(script), "info", "-i", str(tmp_path / "absent")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["status"] == "error"
