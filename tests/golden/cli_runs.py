"""The golden command-line contract: a fixed chain of gapforge runs over the
files in tests/golden/inputs/, and for each run its exit code, its stdout and
the SHA-256 of every file it wrote. tests/test_golden.py replays the chain
against tests/golden/cli.txt.

Regenerate the record (a contract change; say which entries moved and why):

    PYTHONPATH=src python tests/golden/cli_runs.py
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
RECORD = HERE / "cli.txt"
ENV_VAR = "GAPFORGE_BUDGET"

_SUITE_SCALES = {"partition-identity": 1, "monotone-dnf": 3, "majority-bound": 2,
                 "rb-transitivity": 1, "pipeline-completeness": 1}

# (command line, GAPFORGE_BUDGET or None), run in order in one directory
RUNS = [(line, None) for line in [
    "info -i phi.cnf",
    "info -i parts.txt",
    "info -i six.txt",
    "info -i pair.setsys",
    "info -i small.dnf",
    "reduce labelcover -i phi.cnf -o game.json --seed 7 --k 3 --p 0.8",
    "info -i game.json",
    "solve labelcover -i game.json --seed 1",
    "reduce labelcover -i phi.cnf -o game3.json --seed 5 --k 4 --t 3 --p 1/2",
    "info -i game3.json",
    "reduce labelcover -i phi.cnf -o game6.json --seed 7 --k 6",
    "reduce alphabet -i game.json -o small.json --seed 7 --delta 0.5",
    "info -i small.json",
    "solve labelcover -i small.json --seed 1",
    "reduce coverage -i game.json -o cov.txt --seed 7",
    "reduce unique-cover -i game.json -o ucov.txt --seed 7",
    "info -i cov.txt",
    "info -i ucov.txt",
    "solve max-coverage -i cov.txt --seed 1 --mode greedy",
    "solve max-coverage -i cov.txt --seed 1 --mode exact",
    "solve min-set-cover -i cov.txt --seed 1",
    "solve unique-cover -i cov.txt --seed 1 --choose 0,2,4",
    "solve unique-cover -i cov.txt --seed 1 --choose 0,1",
    "reduce clustering -i parts.txt -o clu.txt --seed 7",
    "reduce clustering -i six.txt -o clu2.txt --seed 7 --exponent 2",
    "info -i clu.txt",
    "info -i clu2.txt",
    "solve kmedian -i clu.txt --seed 1",
    "solve kmean -i clu.txt --seed 1",
    "solve kmedian -i clu2.txt --seed 1",
    "solve kmean -i clu2.txt --seed 1",
    "reduce ncp -i parts.txt -o code.txt --seed 7 --tbar 3 --multiplicity 4",
    "reduce ncp -i six.txt -o code2.txt --seed 7",
    "info -i code.txt",
    "solve ncp -i code.txt --seed 1",
    "solve ncp -i code2.txt --seed 1",
    "reduce cvp -i parts.txt -o lat.txt --seed 7 --tbar 3 --multiplicity 4",
    "reduce cvp -i parts.txt -o lat2.txt --seed 7 --p-norm 2",
    "info -i lat.txt",
    "solve cvp -i lat.txt --seed 1",
    "solve cvp -i lat2.txt --seed 1 --box 2",
    *(f"verify {suite} --seed {seed} --scale {scale}"
      for suite, scale in _SUITE_SCALES.items() for seed in (0, 3, 5, 9)),
    # one refusal per budgeted stage, problem and suite
    "reduce labelcover -i phi.cnf -o r.json --seed 7 --k 6 --budget 10",
    "reduce alphabet -i game.json -o r.json --seed 7 --budget 10",
    "reduce alphabet -i game.json -o r.json --seed 7 --delta 1/10000000",
    "reduce coverage -i game.json -o r.txt --seed 7 --budget 10",
    "reduce unique-cover -i game.json -o r.txt --seed 7 --budget 10",
    "reduce clustering -i parts.txt -o r.txt --seed 7 --budget 10",
    "reduce ncp -i parts.txt -o r.txt --seed 7 --budget 10",
    "reduce cvp -i parts.txt -o r.txt --seed 7 --budget 10",
    "solve labelcover -i game6.json --seed 1 --budget 10",
    "solve max-coverage -i cov.txt --seed 1 --budget 10",
    "solve min-set-cover -i cov.txt --seed 1 --budget 10",
    "solve kmedian -i clu2.txt --seed 1 --budget 10",
    "solve kmean -i clu2.txt --seed 1 --budget 10",
    "solve ncp -i code2.txt --seed 1 --budget 10",
    "solve cvp -i lat.txt --seed 1 --budget 10",
    "verify rb-transitivity --seed 3 --scale 1 --budget 10",
    "verify pipeline-completeness --seed 3 --scale 1 --budget 10",
]] + [
    # the budget step of demos/cli_tour.sh
    ("verify monotone-dnf --seed 1 --scale 3 --budget 10", None),
    ("verify monotone-dnf --seed 1 --scale 3", "2"),
    ("verify monotone-dnf --seed 1 --scale 3 --budget 100000", "2"),
    # three full subsets over 18 variables: the left alphabets exceed the budget
    ("reduce labelcover -i wide.cnf -o r.json --seed 7 --k 3 --p 1 --budget 3", None),
]


def header(line, env):
    return f"### {ENV_VAR}={env} {line}" if env is not None else f"### {line}"


def _hashes(workdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir())}


def _run(line, env):
    from gapforge.cli import main

    out = io.StringIO()
    with (mock.patch.dict(os.environ), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(io.StringIO())):
        os.environ.pop(ENV_VAR, None)
        if env is not None:
            os.environ[ENV_VAR] = env
        code = main(line.split())
    return code, out.getvalue()


def replay(workdir):
    """Run the chain in `workdir` (its current directory for the duration);
    returns one (header, body) per run."""
    workdir = Path(workdir)
    for src in sorted(INPUTS.iterdir()):
        shutil.copyfile(src, workdir / src.name)
    blocks = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for line, env in RUNS:
            before = _hashes(workdir)
            code, stdout = _run(line, env)
            after = _hashes(workdir)
            written = [f"wrote {name} {digest}\n" for name, digest in after.items()
                       if before.get(name) != digest]
            blocks.append((header(line, env), f"exit {code}\n{stdout}{''.join(written)}"))
    finally:
        os.chdir(cwd)
    return blocks


def parse(text):
    """The (header, body) blocks of a record."""
    blocks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("### "):
            blocks.append([line.rstrip("\n"), ""])
        else:
            blocks[-1][1] += line
    return [tuple(block) for block in blocks]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        blocks = replay(tmp)
    RECORD.write_text("".join(f"{head}\n{body}" for head, body in blocks))
    print(f"wrote {len(blocks)} runs to {RECORD}")


if __name__ == "__main__":
    sys.exit(main())
