"""Acceptance gate: twelve criteria, each printing one pass/fail line.

Run with `python3 -m pytest -s tests/test_acceptance.py` to see the lines
stream; every check is exact (rational arithmetic) unless the criterion
says otherwise.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

from gapforge import (CoverageInstance, FunctionCollection, MonotoneDnf,
                      SetSystem, abss_cvp_reduction, abss_ncp_reduction,
                      build_two_level_graph, check_rb_transitive,
                      coverage_fraction, dnf_bound_holds,
                      dnf_false_count_by_weight, exact_cvp, exact_kmean,
                      exact_kmedian, exact_max_coverage,
                      exact_ncp, feige_coverage_reduction,
                      greedy_max_coverage, guha_khuller_reduction,
                      is_strong_intersection_disperser, optimal_extension,
                      random_planted_formula, restriction_labeling,
                      sample_random_subsets,
                      weak_agreement_value, wval_to_val_bound)
from gapforge.cli import main
from gapforge.labelcover import build_main_reduction
import reference


def _report(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_main_reduction_completeness():
    start = time.perf_counter()
    failures = 0
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randrange(8, 17)
        m = rng.randrange(n, 4 * n // 3 + 1)
        formula, planted = random_planted_formula(
            n, m, rng.randrange(2**32), max_occurrence=4)
        k = rng.randrange(3, 7)
        p = Fraction(rng.randrange(1, 3), 10)
        system = sample_random_subsets(m, k, p, rng.randrange(2**32))
        instance = build_main_reduction(formula, system, 2)
        sigma = restriction_labeling(instance, planted)
        _, val = optimal_extension(instance, sigma)
        if val != 1:
            failures += 1
    _report(1, "restricted satisfying labelings score exactly 1",
            failures == 0,
            f"50 formulas, {failures} failures, "
            f"{time.perf_counter() - start:.1f}s")


def test_criterion_02_weak_agreement_bridge():
    start = time.perf_counter()
    cases = 0
    failures = 0
    for i in range(30):
        rng = random.Random(1000 + i)
        t = 2 if i % 2 == 0 else 3
        k = t + rng.randrange(0, 2)
        m = rng.randrange(max(3, k), 5)
        formula, _ = random_planted_formula(3, m, rng.randrange(2**32))
        singles = SetSystem(m, tuple((j,) for j in range(k)))
        instance = build_main_reduction(formula, singles, t)
        ranges = [range(len(a)) for a in instance.left_alphabets]
        for sigma in itertools.product(*ranges):
            w = weak_agreement_value(instance, sigma)
            _, val = optimal_extension(instance, sigma)
            cases += 1
            if val > wval_to_val_bound(w, t):
                failures += 1
    _report(2, "full value is at most wval + (1 - wval)/t on every labeling",
            failures == 0,
            f"{cases} labelings over 30 games, {failures} failures, "
            f"{time.perf_counter() - start:.1f}s")


def test_criterion_03_monotone_dnf_bound():
    start = time.perf_counter()
    rng = random.Random(3)
    cases = 0
    skipped = []
    failures = 0
    for k in (8, 12, 16):
        for ell in (1, 2, 3):
            pool = []
            for w in range(1, ell + 1):
                pool.extend(itertools.combinations(range(k), w))
            for eps in (Fraction(1, 4), Fraction(1, 2)):
                size = math.ceil(eps * k**ell)
                if size > len(pool):
                    skipped.append((k, ell, str(eps)))
                    continue
                for _ in range(200):
                    terms = tuple(sorted(rng.sample(pool, size)))
                    f = MonotoneDnf(k, terms)
                    counts = dnf_false_count_by_weight(f)
                    for p in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
                        false_prob = sum(
                            c * p**w * (1 - p) ** (k - w)
                            for w, c in enumerate(counts) if c
                        )
                        cases += 1
                        if not dnf_bound_holds(false_prob, ell, p, eps, k):
                            failures += 1
    _report(3, "exact DNF false-probability meets ell*(1-p)^(eps*k/ell)",
            failures == 0,
            f"{cases} checks, {len(skipped)} unrealizable combos skipped, "
            f"{failures} failures, {time.perf_counter() - start:.1f}s")


def test_criterion_04_majority_decode_bound(capsys):
    start = time.perf_counter()
    code, doc = _run_cli(capsys, "verify", "majority-bound",
                         "--seed", "2026", "--scale", "100")
    _report(4, "majority-decode mean disagreement meets n*sqrt(rho*kappa+zeta)",
            code == 0 and doc["violations"] == 0 and doc["cases"] == 1000,
            f"{doc['cases']} checks, {time.perf_counter() - start:.1f}s")


def test_criterion_05_red_blue_transitivity(capsys):
    start = time.perf_counter()
    code, doc = _run_cli(capsys, "verify", "rb-transitivity",
                         "--seed", "41", "--scale", "50")
    two_ok = code == 0 and doc["violations"] == 0 and doc["cases"] == 50

    # one denser three-wise case where both colors actually appear
    t, k, n = 3, 66, 40
    alpha, beta = Fraction(46, 100), Fraction(1)
    assert k >= math.ceil(10 * t / alpha)
    h = math.ceil(2 * alpha / beta**2 * k)
    rng = random.Random(11)
    system = sample_random_subsets(n, k, Fraction(4, 5), rng.randrange(2**32))
    frng = random.Random(rng.randrange(2**32))
    base = [frng.randrange(2) for _ in range(n)]
    values = tuple(
        tuple(base[e] ^ (1 if frng.random() < 0.1 else 0) for e in s)
        for s in system.sets
    )
    graph = build_two_level_graph(
        FunctionCollection(system, values), alpha, beta, t,
        budget=100_000_000)
    ok3, witness = check_rb_transitive(graph, h)
    three_ok = ok3 and not graph.estimated and graph.blue and graph.red
    _report(5, "red endpoints never share h common blue neighbors",
            two_ok and bool(three_ok),
            f"50 graphs at t=2 h=40, one mixed t=3 graph "
            f"({len(graph.blue)} blue/{len(graph.red)} red) at h={h}, "
            f"{time.perf_counter() - start:.1f}s")


def test_criterion_06_disperser_oracle_equivalence():
    start = time.perf_counter()
    failures = 0
    for seed in range(100):
        rng = random.Random(seed)
        u = rng.randrange(6, 13)
        k = rng.randrange(2, 7)
        sets = tuple(
            tuple(sorted(rng.sample(range(u), rng.randrange(0, u + 1))))
            for _ in range(k)
        )
        system = SetSystem(u, sets)
        r = rng.randrange(1, 4)
        ell = rng.randrange(1, 3)
        eta = Fraction(rng.randrange(0, 5), 4)
        verdict = is_strong_intersection_disperser(system, r, ell, eta)
        if (verdict.status, verdict.witness, verdict.uncovered,
                verdict.combinations_checked) != reference.disperser(system, r, ell, eta):
            failures += 1
    _report(6, "exact disperser checker matches a from-scratch materializer",
            failures == 0,
            f"100 systems, {failures} mismatches, "
            f"{time.perf_counter() - start:.1f}s")


def test_criterion_07_partition_identities(capsys):
    start = time.perf_counter()
    code, doc = _run_cli(capsys, "verify", "partition-identity",
                         "--seed", "0", "--scale", "1")
    _report(7, "partition coverage identities hold exactly for t<=3, s<=4",
            code == 0 and doc["violations"] == 0,
            f"{doc['cases']} identities, {time.perf_counter() - start:.1f}s")


def test_criterion_08_pipeline_unique_cover(capsys):
    start = time.perf_counter()
    code, doc = _run_cli(capsys, "verify", "pipeline-completeness",
                         "--seed", "8", "--scale", "20")
    _report(8, "satisfiable games give unique covers of minimum size k",
            code == 0 and doc["violations"] == 0 and doc["cases"] == 40,
            f"{doc['cases']} checks over 20 instances, "
            f"{time.perf_counter() - start:.1f}s")


def _random_coverage(rng, force_cover):
    universe = rng.randrange(6, 13)
    nsets = rng.randrange(4, 9)
    sets = [
        sorted(rng.sample(range(universe), rng.randrange(1, universe)))
        for _ in range(nsets)
    ]
    if force_cover:
        covered = set().union(*map(set, sets))
        sets[0] = sorted(set(sets[0]) | (set(range(universe)) - covered))
    return CoverageInstance(universe, tuple(tuple(s) for s in sets),
                            k=rng.randrange(1, 4))


def test_criterion_09_clustering_exact_relation():
    start = time.perf_counter()
    failures = 0
    for seed in range(20):
        cov = _random_coverage(random.Random(200 + seed), force_cover=True)
        tau = 1 - coverage_fraction(cov, exact_max_coverage(cov).value)
        inst = guha_khuller_reduction(cov)
        n = cov.universe_size
        if exact_kmedian(inst).value != n * (1 + 2 * tau):
            failures += 1
        if exact_kmean(inst).value != n * (1 + 8 * tau):
            failures += 1
    _report(9, "exhaustive clustering costs equal |V|(1+2 tau) and |V|(1+8 tau)",
            failures == 0,
            f"20 instances, {failures} failures; coefficients 1+3tau/1+9tau "
            f"do not hold for this metric and are not asserted, "
            f"{time.perf_counter() - start:.1f}s")


def _random_partition_cover(rng):
    u = rng.randrange(4, 9)
    k = rng.randrange(2, min(u, 5))
    elements = list(range(u))
    rng.shuffle(elements)
    cuts = sorted(rng.sample(range(1, u), k - 1))
    parts = []
    prev = 0
    for cut in cuts + [u]:
        parts.append(tuple(sorted(elements[prev:cut])))
        prev = cut
    return CoverageInstance(u, tuple(parts), k=k)


def test_criterion_10_code_and_lattice_oracles():
    start = time.perf_counter()
    failures = 0
    for seed in range(20):
        cov = _random_partition_cover(random.Random(300 + seed))
        k = cov.k
        code = abss_ncp_reduction(cov, soundness_threshold=k, multiplicity=k + 1)
        # |r|^2 >= |r| on integer residuals, and a unique cover leaves only
        # residuals 0 and 1, so p = 2 has the same optimum as p = 1
        lats = [abss_cvp_reduction(cov, soundness_threshold=k, multiplicity=k + 1, p=p)
                for p in (1, 2)]
        if exact_ncp(code).value != k or any(exact_cvp(lat).value != k for lat in lats):
            failures += 1
    for seed in range(10):
        rng = random.Random(400 + seed)
        u = rng.randrange(3, 6)
        cov = CoverageInstance(u, tuple((e,) for e in range(u)), k=u)
        tbar = u - 1
        code = abss_ncp_reduction(cov, soundness_threshold=tbar)
        lats = [abss_cvp_reduction(cov, soundness_threshold=tbar, p=p) for p in (1, 2)]
        if exact_ncp(code).value <= tbar or any(exact_cvp(lat).value <= tbar for lat in lats):
            failures += 1
    _report(10, "code/lattice optima equal k on unique covers, exceed tbar otherwise",
            failures == 0,
            f"20 unique-cover + 10 no-cover instances at p = 1 and 2, {failures} failures, "
            f"{time.perf_counter() - start:.1f}s")


def test_criterion_11_greedy_guarantee():
    start = time.perf_counter()
    corpus = [_random_coverage(random.Random(500 + s), force_cover=s % 2 == 0)
              for s in range(30)]
    for seed in range(5):
        rng = random.Random(600 + seed)
        formula, _ = random_planted_formula(3, 4, rng.randrange(2**32))
        singles = SetSystem(4, ((0,), (1,), (2,)))
        corpus.append(feige_coverage_reduction(
            build_main_reduction(formula, singles, 2)))
    failures = 0
    for inst in corpus:
        greedy = greedy_max_coverage(inst)
        exact = exact_max_coverage(inst)
        guarantee = 1 - (1 - Fraction(1, inst.k)) ** inst.k
        if greedy.value < guarantee * exact.value:
            failures += 1
    _report(11, "greedy coverage is at least (1-(1-1/k)^k) of the optimum",
            failures == 0,
            f"{len(corpus)} instances, {failures} failures, "
            f"{time.perf_counter() - start:.1f}s")


def test_criterion_12_seeded_determinism(tmp_path, capsys):
    start = time.perf_counter()
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
    out_path = tmp_path / "reduced.json"
    ok = True
    outs = []
    for _ in range(2):
        code = main(["reduce", "labelcover", "-i", str(cnf),
                     "-o", str(out_path), "--seed", "7", "--p", "0.8"])
        stdout = capsys.readouterr().out
        ok &= code == 0
        outs.append((out_path.read_bytes(),
                     (tmp_path / "reduced.json.prov.json").read_bytes(),
                     stdout))
    ok &= outs[0] == outs[1]

    reruns = []
    for _ in range(2):
        code, doc = _run_cli(capsys, "verify", "majority-bound",
                             "--seed", "1", "--scale", "2")
        reruns.append((code, json.dumps(doc, sort_keys=True)))
    ok &= reruns[0] == reruns[1]

    solve_runs = []
    for _ in range(2):
        code, doc = _run_cli(capsys, "solve", "labelcover",
                             "-i", str(out_path), "--seed", "9")
        solve_runs.append((code, json.dumps(doc, sort_keys=True)))
    ok &= solve_runs[0] == solve_runs[1]
    _report(12, "seeded commands rerun byte-identically",
            ok, f"reduce/verify/solve reruns, {time.perf_counter() - start:.1f}s")
