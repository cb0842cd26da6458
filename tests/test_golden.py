"""The command line keeps its recorded contract: every run of the golden
chain (tests/golden/cli_runs.py) gives the exit code, stdout and written
file hashes recorded in tests/golden/cli.txt."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("cli_runs", GOLDEN / "cli_runs.py")
cli_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_runs)

RECORDED = cli_runs.parse(cli_runs.RECORD.read_text())


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return dict(cli_runs.replay(tmp_path_factory.mktemp("golden")))


def test_record_lists_every_run_once():
    heads = [head for head, _ in RECORDED]
    assert heads == [cli_runs.header(*run) for run in cli_runs.RUNS]
    assert len(set(heads)) == len(heads)


@pytest.mark.parametrize("head,body", RECORDED,
                         ids=[f"{i:02d}-" + "-".join([w for w in head.split()[1:] if w[0] != "-"][:3])
                              for i, (head, _) in enumerate(RECORDED)])
def test_run_matches_record(replayed, head, body):
    assert replayed[head] == body
