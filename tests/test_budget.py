"""Every refusal names the budget that admits its stage: at `required` - 1
the call is refused for the same reason, at `required` it passes that stage.
The command-line refusals are checked against the golden chain in
tests/test_golden.py; this table holds the sites no command reaches. Every
exact solver reports as `enumerated` the least budget that admits it, and
no library call catches a refusal to answer some other way."""

import ast
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gapforge
from gapforge import (BudgetError, CoverageInstance, FunctionCollection,
                      RedBlueGraph, abss_cvp_reduction, abss_ncp_reduction,
                      brute_force_max_val, build_main_reduction,
                      build_two_level_graph, exact_cvp, exact_kmean,
                      exact_kmedian, exact_max_coverage, exact_min_set_cover,
                      exact_ncp, find_non_red_subgraph, guha_khuller_reduction,
                      is_strong_intersection_disperser, pair_consistency,
                      random_planted_formula, sample_random_subsets, t_wagr,
                      vars_of)
from gapforge import labelcover
from gapforge.budget import block_search
from gapforge.cli import main

FORMULA, _ = random_planted_formula(5, 8, seed=2)
SYSTEM = sample_random_subsets(8, 12, Fraction(1, 4), seed=3)
COLLECTION = FunctionCollection.from_global(
    sample_random_subsets(10, 7, Fraction(1, 2), seed=4), (0, 1) * 5)


def _two_level(budget):
    return build_two_level_graph(COLLECTION, Fraction(1, 2), Fraction(1), 3, budget=budget)


SITES = {
    "t-subset enumeration": lambda budget: t_wagr(COLLECTION, 3, budget=budget),
    "subcollection count": lambda budget: pair_consistency(COLLECTION, 0, 1, 2, budget=budget),
    "subcollection r-tuple enumeration": lambda budget: is_strong_intersection_disperser(
        SYSTEM, 2, 2, Fraction(1, 2), budget=budget),
    "assignment enumeration": lambda budget: brute_force_max_val(FORMULA, budget=budget),
    "right vertex enumeration": lambda budget: build_main_reduction(
        FORMULA, SYSTEM, 3, budget=budget),
    "d-subset enumeration": lambda budget: find_non_red_subgraph(
        RedBlueGraph(8, frozenset(), frozenset({(0, 1), (1, 2), (2, 5), (3, 7)})), 3,
        budget=budget),
    # one call, charged its pair lookups before its consistency count
    "two-level pair enumeration": _two_level,
    "two-level consistency count": _two_level,
}


def _refusal(call, budget):
    try:
        call(budget)
    except BudgetError as e:
        return e
    return None


@pytest.mark.parametrize("what", sorted(SITES))
def test_library_refusal_is_a_threshold(what):
    call = SITES[what]
    # rerun at each earlier stage's `required` until this stage refuses
    budget, refusal = 0, _refusal(call, 0)
    while refusal is not None and refusal.what != what:
        earlier = refusal.what
        budget, refusal = refusal.required, _refusal(call, refusal.required)
        assert refusal is None or refusal.what != earlier
    assert refusal is not None and refusal.budget == budget
    required = refusal.required
    below, at = _refusal(call, required - 1), _refusal(call, required)
    assert below is not None and (below.what, below.required) == (what, required)
    assert at is None or at.what != what


def test_var_budget_refusal_is_a_width_threshold():
    """`var_budget` caps the width of var(T): the refusal reports 2^width and
    2^var_budget, and var_budget = width admits the subset."""
    width = max(len(vars_of(FORMULA, s)) for s in SYSTEM.sets)
    with pytest.raises(BudgetError, match="alphabet enumeration for subset") as exc:
        build_main_reduction(FORMULA, SYSTEM, 3, var_budget=width - 1)
    assert (exc.value.required, exc.value.budget) == (1 << width, 1 << (width - 1))
    assert build_main_reduction(FORMULA, SYSTEM, 3, var_budget=width).num_left == 12


def test_two_level_graph_charges_its_pairs_before_it_builds_them():
    # 3000 sets over 8 points have at most 256 distinct disagreement masks,
    # but the C(3000, 2) pair lookups are refused before any is made
    wide = FunctionCollection.from_global(
        sample_random_subsets(8, 3000, Fraction(1, 2), seed=5), (0, 1) * 4)
    with pytest.raises(BudgetError) as exc:
        build_two_level_graph(wide, Fraction(1, 2), Fraction(1), 3, budget=10)
    assert (exc.value.what, exc.value.required) == ("two-level pair enumeration", 4_498_500)


def test_no_disagreement_block_is_built_before_its_charge(monkeypatch):
    def refuse(self, rows):
        raise AssertionError("disagreement block built before the charge")

    monkeypatch.setattr(FunctionCollection, "_disagreements", refuse)
    wide = FunctionCollection.from_global(
        sample_random_subsets(8, 3000, Fraction(1, 2), seed=5), (0, 1) * 4)
    with pytest.raises(BudgetError) as exc:
        build_two_level_graph(wide, Fraction(1, 2), Fraction(1), 3, budget=10)
    assert (exc.value.what, exc.value.required) == ("two-level pair enumeration", 4_498_500)
    pairs = COLLECTION.k * (COLLECTION.k - 1) // 2
    with pytest.raises(BudgetError) as exc:
        t_wagr(COLLECTION, 2, budget=pairs - 1)
    assert (exc.value.what, exc.value.required) == ("t-subset enumeration", pairs)


def test_no_library_module_catches_a_refusal():
    """A refusal reaches the caller: only the command line turns it into an
    exit code."""
    catchers = [path.name for path in sorted(Path(gapforge.__file__).parent.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "BudgetError" in ast.unparse(node.type)]
    assert catchers == ["cli.py"]


def test_solve_labelcover_scores_what_it_is_charged(tmp_path, capsys, monkeypatch):
    """Both label-cover values come from one charged enumeration: at the
    charge, every left labeling is scored once and the val witness once
    more; one below it, the run is refused with the charge as `required`."""
    game = tmp_path / "game6.json"
    phi = Path(__file__).resolve().parent / "golden" / "inputs" / "phi.cnf"
    assert main(["reduce", "labelcover", "-i", str(phi), "-o", str(game),
                 "--seed", "7", "--k", "6"]) == 0
    labelings = math.prod(map(len, labelcover.from_json(game.read_text()).left_alphabets))
    assert labelings == 1536
    calls = []
    extension = labelcover._extension

    def counted(instance, left):
        calls.append(left)
        return extension(instance, left)

    monkeypatch.setattr(labelcover, "_extension", counted)
    solve = ["solve", "labelcover", "-i", str(game), "--seed", "1", "--budget"]
    capsys.readouterr()
    assert main(solve + [str(labelings)]) == 0
    assert len(calls) == labelings + 1
    capsys.readouterr()
    assert main(solve + [str(labelings - 1)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert (doc["required"], doc["budget"]) == (labelings, labelings - 1)
    assert len(calls) == labelings + 1


def _covering(seed):
    """A seeded coverage instance with 2 to 5 sets and k at most 2, in which
    every element lies in some set."""
    rng = random.Random(seed)
    u, n = rng.randint(1, 5), rng.randint(2, 5)
    sets = [set(rng.sample(range(u), rng.randint(0, u))) for _ in range(n)]
    for e in range(u):
        sets[rng.randrange(n)].add(e)
    return CoverageInstance(u, tuple(tuple(sorted(s)) for s in sets), rng.randint(1, 2))


SOLVERS = {
    "exact_max_coverage": exact_max_coverage,
    "exact_min_set_cover": exact_min_set_cover,
    "exact_kmedian": lambda cov, budget: exact_kmedian(guha_khuller_reduction(cov), budget),
    "exact_kmean": lambda cov, budget: exact_kmean(guha_khuller_reduction(cov, 2), budget),
    "exact_ncp": lambda cov, budget: exact_ncp(abss_ncp_reduction(cov, 1), budget),
    "exact_cvp": lambda cov, budget: exact_cvp(abss_cvp_reduction(cov, 1, p=2), budget=budget),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_enumerated_is_the_least_budget_that_admits_a_rerun(name):
    solve = SOLVERS[name]
    for seed in range(6):
        cov = _covering(seed)
        result = solve(cov, None)
        assert solve(cov, result.enumerated) == result
        with pytest.raises(BudgetError) as exc:
            solve(cov, result.enumerated - 1)
        assert exc.value.required == result.enumerated


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(gapforge.__file__).parent.glob("*.py"))}


def test_the_search_layer_lives_in_budget_alone():
    """The block cap is assigned once and the two search functions, `check`
    and `block_search`, are defined once, all in budget.py, which imports no
    gapforge module; no `search` is defined anywhere."""
    trees = _package_trees()
    caps = [name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets if "BLOCK_CELLS" in ast.unparse(target)]
    assert caps == ["budget.py"]
    defined = sorted((node.name, name) for name, tree in trees.items() for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and node.name in ("check", "search", "block_search"))
    assert defined == [("block_search", "budget.py"), ("check", "budget.py")]
    imported = [alias.name if isinstance(node, ast.Import)
                else "." * node.level + (node.module or "")
                for node in ast.walk(trees["budget.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert imported and not [m for m in imported if m.startswith((".", "gapforge"))]


def _blocks(*costs, dtype=np.int64):
    """A `blocks` callable over the given cost lists, labelled 0, 1, ..., that
    records each call."""
    calls = []

    def blocks():
        calls.append(None)
        return ((label, np.array(block, dtype)) for label, block in enumerate(costs))
    return blocks, calls


@pytest.mark.parametrize("pick,best", [(min, 1), (max, 7)])
def test_block_search_takes_the_first_optimum(pick, best):
    # the optimum ties inside block 1 and again in block 2 and block 3
    blocks, calls = _blocks([4, 5], [6, best, best], [best, 3], [best])
    label, i, cost = block_search(pick, blocks, 8, None, "test")
    assert (label, i, cost, type(cost), calls) == (1, 1, best, int, [None])


def test_block_search_with_exact_fractions():
    third = Fraction(1, 3)
    blocks, _ = _blocks([Fraction(1, 2), third], [third, 1], dtype=object)
    label, i, cost = block_search(min, blocks, 4, None, "test")
    assert (label, i, cost, type(cost)) == (0, 1, third, Fraction)
    assert block_search(max, blocks, 4, None, "test") == (1, 1, 1)


def test_block_search_charges_before_it_builds():
    blocks, calls = _blocks([1, 2], [0])
    with pytest.raises(BudgetError) as exc:
        block_search(max, blocks, 3, 2, "block test")
    assert (exc.value.what, exc.value.required, exc.value.budget, calls) == (
        "block test", 3, 2, [])
    assert block_search(max, blocks, 3, 3, "block test") == (0, 1, 2)
    assert calls == [None]
