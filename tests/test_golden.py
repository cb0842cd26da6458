"""The command line keeps its recorded contract: every run of the golden
chain (tests/golden/cli_runs.py) gives the exit code, stdout and written
file hashes recorded in tests/golden/cli.txt, and every recorded refusal
names the budget that admits its stage."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("cli_runs", GOLDEN / "cli_runs.py")
cli_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_runs)

RECORDED = cli_runs.parse(cli_runs.RECORD.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def replayed(workdir):
    return dict(cli_runs.replay(workdir))


def test_record_lists_every_run_once():
    heads = [head for head, _ in RECORDED]
    assert heads == [cli_runs.header(*run) for run in cli_runs.RUNS]
    assert len(set(heads)) == len(heads)


@pytest.mark.parametrize("head,body", RECORDED,
                         ids=[f"{i:02d}-" + "-".join([w for w in head.split()[1:] if w[0] != "-"][:3])
                              for i, (head, _) in enumerate(RECORDED)])
def test_run_matches_record(replayed, head, body):
    assert replayed[head] == body


def _refusals():
    """{(command line without its budget, what): required} over the recorded
    exit-3 runs; the first run of each pair gives `required`."""
    refusals = {}
    for head, body in RECORDED:
        if body.startswith("exit 3\n"):
            doc = json.loads(body.splitlines()[1])
            words = head.split()[1:]
            if words[0].startswith(cli_runs.ENV_VAR + "="):
                words = words[1:]
            if "--budget" in words:
                i = words.index("--budget")
                del words[i:i + 2]
            refusals.setdefault((" ".join(words), doc["what"]), doc["required"])
    return refusals


def _what_at(command, budget):
    """The `what` of a refusal at this budget, or None for a clean exit."""
    code, stdout = cli_runs._run(f"{command} --budget {budget}", None)
    assert code in (0, 3), (command, budget, stdout)
    return json.loads(stdout)["what"] if code == 3 else None


def test_every_refusal_is_a_threshold(replayed, workdir, monkeypatch):
    """At `required` - 1 the run is refused for the same reason; at
    `required` it passes that stage: it exits 0 or is refused later."""
    refusals = _refusals()
    assert len(refusals) == 21
    monkeypatch.chdir(workdir)
    wrong = []
    for (command, what), required in refusals.items():
        below, at = _what_at(command, required - 1), _what_at(command, required)
        if not (below == what and at != what):
            wrong.append((command, what, required, below, at))
    assert not wrong
