"""Command line pipeline: reduce stages, solvers, verify suites, info, exit
codes, provenance sidecars, and byte-for-byte determinism."""

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import gapforge
from gapforge import from_json, parse_clustering, parse_coverage
from gapforge.cli import main
from gapforge.setsys import (MonotoneDnf, SetSystem, dnf_to_text,
                             setsys_to_text)

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
        "setsys": setsys_to_text(SetSystem(4, ((0, 1), (2,)))),
        "dnf": dnf_to_text(MonotoneDnf(3, ((0,), (1, 2)))),
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
