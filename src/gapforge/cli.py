"""gapforge command line: staged reductions, solvers, verify suites, info.

Machine-readable JSON goes to stdout; human summaries and timings go to
stderr so reruns of a seeded command are byte-identical on stdout and in
every file written.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import labelcover as lc
from . import textformat
from .agreement import (FunctionCollection, build_two_level_graph,
                        check_rb_transitive, majority_decode)
from .budget import DEFAULT_BUDGET, BudgetError, check
from .downstream import (PartitionSystem, abss_cvp_reduction,
                         abss_ncp_reduction, clustering_to_text,
                         coverage_to_text, code_to_text,
                         feige_coverage_reduction, guha_khuller_reduction,
                         lattice_to_text, parse_clustering, parse_code,
                         parse_coverage, parse_lattice)
from .formula import (max_occurrence, parse_dimacs, random_planted_formula)
from .setsys import (SetSystem, dnf_bound_holds, dnf_false_prob,
                     MonotoneDnf, pairwise_intersection_max, parse_dnf,
                     parse_setsys, sample_random_subsets)
from .solvers import (exact_cvp, exact_kmean, exact_kmedian,
                      exact_max_coverage, exact_min_set_cover, exact_ncp,
                      greedy_max_coverage, verify_unique_cover)
from .textformat import LAYOUTS, number


def _fraction_text(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(doc):
    """One compact JSON line, keys sorted, a Fraction written as its string."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_fraction_text) + "\n"


def _emit(doc):
    sys.stdout.write(_dumps(doc))


def _note(msg):
    sys.stderr.write(msg + "\n")


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_provenance(output, argv, seed, params, input_text):
    doc = {
        "command": list(argv),
        "input_sha256": _digest(input_text),
        "params": params,
        "seed": seed,
    }
    _write(output + ".prov.json", _dumps(doc))


# Shapes of instances, shared by `reduce` summaries and `info` documents.
def _game_shape(g):
    return {"num_left": g.num_left, "num_right": g.num_right, "num_edges": g.num_edges}


def _cov_shape(c):
    return {"universe": c.universe_size, "sets": len(c.sets), "k": c.k}


def _clustering_shape(c):
    return {"clients": c.num_clients, "facilities": c.num_facilities, "k": c.k}


def _matrix_shape(m):
    return {"rows": len(m.matrix), "cols": m.num_cols, "k": m.k}


def _reduce_labelcover(text, args):
    formula = parse_dimacs(text)
    p = number(args.p)
    check(args.k * formula.num_clauses, args.budget, what="subset sampling")
    subsets = sample_random_subsets(formula.num_clauses, args.k, p, args.seed)
    instance = lc.build_main_reduction(formula, subsets, args.t,
                                       var_budget=args.var_budget,
                                       budget=args.budget,
                                       allow_vacuous=args.allow_vacuous)
    params = {"k": args.k, "t": args.t, "p": str(p),
              "var_budget": args.var_budget,
              "subsets": [list(s) for s in subsets.sets]}
    return lc.to_json(instance), params, _game_shape(instance)


def _reduce_alphabet(text, args):
    game = lc.from_json(text)
    delta = number(args.delta)
    g = lc.reduce_alphabet(game, delta, budget=args.budget)
    right_alphabet = len(g.right_alphabets[0]) if g.num_right else 0
    return (lc.to_json(g), {"delta": str(delta)},
            {**_game_shape(g), "right_alphabet": right_alphabet})


def _reduce_coverage(text, args):
    cov = feige_coverage_reduction(lc.from_json(text), budget=args.budget)
    return coverage_to_text(cov), {}, _cov_shape(cov)


def _reduce_clustering(text, args):
    inst = guha_khuller_reduction(parse_coverage(text), exponent=args.exponent,
                                  budget=args.budget)
    return clustering_to_text(inst), {"exponent": args.exponent}, _clustering_shape(inst)


def _reduce_ncp(text, args):
    inst = abss_ncp_reduction(parse_coverage(text), args.tbar, args.multiplicity,
                              budget=args.budget)
    params = {"tbar": args.tbar, "multiplicity": args.multiplicity}
    return code_to_text(inst), params, _matrix_shape(inst)


def _reduce_cvp(text, args):
    inst = abss_cvp_reduction(parse_coverage(text), args.tbar, args.multiplicity,
                              p=args.p_norm, budget=args.budget)
    params = {"tbar": args.tbar, "multiplicity": args.multiplicity, "p": args.p_norm}
    return lattice_to_text(inst), params, {**_matrix_shape(inst), "p": inst.p}


# stage -> (input text, args) -> (output text, params, summary)
_STAGES = {
    "labelcover": _reduce_labelcover,
    "alphabet": _reduce_alphabet,
    "coverage": _reduce_coverage,
    "unique-cover": _reduce_coverage,
    "clustering": _reduce_clustering,
    "ncp": _reduce_ncp,
    "cvp": _reduce_cvp,
}


def _cmd_reduce(args, argv):
    start = time.perf_counter()
    text = _read(args.input)
    out_text, params, summary = _STAGES[args.stage](text, args)
    _write(args.output, out_text)
    _write_provenance(args.output, argv, args.seed, params, text)
    _emit({"command": "reduce", "stage": args.stage, "input": args.input,
           "output": args.output, "seed": args.seed, "params": params,
           "summary": summary})
    _note(f"reduce {args.stage}: wrote {args.output} "
          f"in {time.perf_counter() - start:.3f}s")
    return 0


def _result(result, **extra):
    doc = {"value": result.value, "witness": list(result.witness),
           "enumerated": result.enumerated, **extra}
    if result.note:
        doc["note"] = result.note
    return doc


def _solve_labelcover(text, args):
    instance = lc.from_json(text)
    labeling, val = lc.brute_force_val(instance, budget=args.budget)
    left, wval = lc.brute_force_wval(instance, budget=args.budget)
    return {"val": val, "val_witness": [list(labeling[0]), list(labeling[1])],
            "wval": wval, "wval_witness": list(left)}


def _solve_max_coverage(text, args):
    inst = parse_coverage(text)
    if args.mode == "greedy":
        return _result(greedy_max_coverage(inst), mode=args.mode)
    return _result(exact_max_coverage(inst, budget=args.budget), mode=args.mode)


def _solve_unique_cover(text, args):
    inst = parse_coverage(text)
    chosen = tuple(map(textformat.integer, args.choose.split(","))) if args.choose else ()
    return {"chosen": list(chosen), "unique": verify_unique_cover(inst, chosen)}


# problem -> (input text, args) -> the problem's fields of the solve document
_PROBLEMS = {
    "labelcover": _solve_labelcover,
    "max-coverage": _solve_max_coverage,
    "min-set-cover": lambda text, a: _result(
        exact_min_set_cover(parse_coverage(text), budget=a.budget)),
    "unique-cover": _solve_unique_cover,
    "kmedian": lambda text, a: _result(exact_kmedian(parse_clustering(text), budget=a.budget)),
    "kmean": lambda text, a: _result(exact_kmean(parse_clustering(text), budget=a.budget)),
    "ncp": lambda text, a: _result(exact_ncp(parse_code(text), budget=a.budget)),
    "cvp": lambda text, a: _result(
        exact_cvp(parse_lattice(text), box=a.box, budget=a.budget)),
}


def _cmd_solve(args, argv):
    start = time.perf_counter()
    doc = _PROBLEMS[args.problem](_read(args.input), args)
    doc.update(command="solve", problem=args.problem, input=args.input)
    _emit(doc)
    _note(f"solve {args.problem}: done in {time.perf_counter() - start:.3f}s")
    return 0


def _suite_monotone_dnf(seed, scale, budget):
    rng = random.Random(seed)
    combos = []
    for k in (4, 6, 8, 10, 12):
        for ell in (1, 2, 3):
            pool = sum(math.comb(k, i) for i in range(1, min(ell, k) + 1))
            for eps in (Fraction(1, 4), Fraction(1, 2)):
                if math.ceil(eps * k**ell) <= pool:
                    combos.append((k, ell, eps))
    for i in range(scale):
        k, ell, eps = combos[i % len(combos)]
        pool = []
        for w in range(1, ell + 1):
            pool.extend(itertools.combinations(range(k), w))
        size = math.ceil(eps * k**ell)
        terms = tuple(sorted(rng.sample(pool, size)))
        f = MonotoneDnf(k, terms)
        for p in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            value = dnf_false_prob(f, p, budget=budget)
            yield None if dnf_bound_holds(value, ell, p, eps, k) else {
                "k": k, "ell": ell, "eps": str(eps), "p": str(p),
                "terms": [list(t) for t in terms], "false_prob": str(value)}


def _suite_rb_transitivity(seed, scale, budget):
    rng = random.Random(seed)
    t, k, n = 2, 50, 40
    alpha, beta = Fraction(2, 5), Fraction(1)
    h = math.ceil(2 * alpha / (beta * beta) * k)
    for _ in range(scale):
        s_sys = rng.randrange(2**32)
        s_fun = rng.randrange(2**32)
        system = sample_random_subsets(n, k, Fraction(3, 10), s_sys)
        bits = tuple(random.Random(s_fun).randrange(2) for _ in range(n))
        collection = FunctionCollection.from_global(system, bits)
        graph = build_two_level_graph(collection, alpha, beta, t, budget=budget)
        ok, witness = check_rb_transitive(graph, h)
        yield None if ok else {"system_seed": s_sys, "function_seed": s_fun,
                               "h": h, "witness": list(witness)}


def _suite_majority_bound(seed, scale, budget):
    rng = random.Random(seed)
    for _ in range(scale):
        s_sys = rng.randrange(2**32)
        s_fun = rng.randrange(2**32)
        n = rng.randrange(60, 201)
        k = rng.randrange(4, 13)
        system = sample_random_subsets(n, k, Fraction(2, 5), s_sys)
        frng = random.Random(s_fun)
        base = [frng.randrange(2) for _ in range(n)]
        values = tuple(
            tuple(base[e] ^ (1 if frng.random() < 0.1 else 0) for e in s)
            for s in system.sets
        )
        collection = FunctionCollection(system, values)
        rho = Fraction(pairwise_intersection_max(system), n)
        for j in range(10):
            zeta = Fraction(j, 10)
            _, stats = majority_decode(collection, range(k), zeta=zeta, rho=rho)
            yield None if stats.bound_holds and stats.power_mean_holds else {
                "system_seed": s_sys, "function_seed": s_fun, "n": n, "k": k,
                "zeta": str(zeta), "mean": str(stats.mean_disagr)}


def _suite_partition_identity(seed, scale, budget):
    """Every identity for t in {2, 3} and s <= 4; the seed and scale are unused."""
    for t in (2, 3):
        for s in range(1, 5):
            ps = PartitionSystem(s, t)
            size = ps.ground_size
            for a in range(s):
                counts = [0] * size
                sizes_ok = True
                for j in range(t):
                    part = ps.part(a, j)
                    if len(part) != t ** (s - 1):
                        sizes_ok = False
                    for g in part:
                        counts[g] += 1
                yield None if sizes_ok and all(c == 1 for c in counts) else {
                    "t": t, "s": s, "label": a, "kind": "single-partition"}
            for r in range(1, s + 1):
                for labels in itertools.combinations(range(s), r):
                    for values in itertools.product(range(t), repeat=r):
                        covered = set()
                        for a, j in zip(labels, values):
                            covered.update(ps.part(a, j))
                        expect = t**s - (t - 1) ** r * t ** (s - r)
                        yield None if len(covered) == expect else {
                            "t": t, "s": s, "labels": list(labels),
                            "values": list(values), "kind": "distinct-partitions"}


def _suite_pipeline_completeness(seed, scale, budget):
    rng = random.Random(seed)
    for _ in range(scale):
        s_f = rng.randrange(2**32)
        s_t = rng.randrange(2**32)
        n = rng.randrange(4, 7)
        m = rng.randrange(3, 6)
        formula, planted = random_planted_formula(n, m, s_f, max_occurrence=4)
        subsets = sample_random_subsets(m, 4, Fraction(2, 5), s_t)
        instance = lc.build_main_reduction(formula, subsets, 2, budget=budget)
        sigma = lc.restriction_labeling(instance, planted)
        _, val = lc.optimal_extension(instance, sigma)
        wval = lc.weak_agreement_value(instance, sigma)
        if val != 1 or wval != 1:
            yield {"formula_seed": s_f, "subset_seed": s_t,
                   "val": str(val), "wval": str(wval), "kind": "labeling-value"}
            continue
        yield None
        singles = SetSystem(m, tuple((j,) for j in range(3)))
        small = lc.build_main_reduction(formula, singles, 2, budget=budget)
        sigma2 = lc.restriction_labeling(small, planted)
        cov = feige_coverage_reduction(small, budget=budget)
        index = {origin: i for i, origin in enumerate(cov.origins)}
        chosen = tuple(index[(u, sigma2[u])] for u in range(small.num_left))
        unique = verify_unique_cover(cov, chosen)
        msc = exact_min_set_cover(cov, budget=budget)
        yield None if unique and msc.value == small.num_left else {
            "formula_seed": s_f, "kind": "feige", "unique": unique, "min_cover": msc.value}


# Each suite yields one verdict per case: None when the case holds, else the
# document naming its violation.
_SUITES = {
    "monotone-dnf": _suite_monotone_dnf,
    "rb-transitivity": _suite_rb_transitivity,
    "majority-bound": _suite_majority_bound,
    "partition-identity": _suite_partition_identity,
    "pipeline-completeness": _suite_pipeline_completeness,
}


def _cmd_verify(args, argv):
    start = time.perf_counter()
    verdicts = list(_SUITES[args.suite](args.seed, args.scale, args.budget))
    cases, violations = len(verdicts), [v for v in verdicts if v is not None]
    status = "pass" if not violations else "fail"
    _emit({"command": "verify", "suite": args.suite, "seed": args.seed,
           "scale": args.scale, "cases": cases,
           "violations": len(violations),
           "first_violation": violations[0] if violations else None,
           "status": status})
    _note(f"verify {args.suite}: {cases} cases, {len(violations)} violations "
          f"in {time.perf_counter() - start:.3f}s")
    return 0 if status == "pass" else 1


# format -> (parse, describe); `info` reports describe(parse(text)). Entries
# look each name up when they run, not at import, so a wrapper installed on
# gapforge.cli (as the benchmark's tracer does) sees every call.
_FORMATS = {
    "labelcover": (lambda text: lc.from_json(text), lambda g: {
        **_game_shape(g), "bi_regular": g.bi_regular, "right_degree": g.right_degree,
        "projection": "restriction" if g.projections == lc.RESTRICTION else "tables",
        "vacuous": g.vacuous}),
    "dimacs": (lambda text: parse_dimacs(text), lambda f: {
        "num_vars": f.num_vars, "num_clauses": f.num_clauses,
        "max_occurrence": max_occurrence(f)}),
    "setsys": (lambda text: parse_setsys(text), lambda s: {"universe": s.universe_size, "k": s.k}),
    "dnf": (lambda text: parse_dnf(text),
            lambda f: {"num_vars": f.num_vars, "size": f.size, "width": f.width}),
    "cov": (lambda text: parse_coverage(text), _cov_shape),
    "clustering": (lambda text: parse_clustering(text),
                   lambda c: {**_clustering_shape(c), "exponent": c.exponent}),
    "ncp": (lambda text: parse_code(text), _matrix_shape),
    "cvp": (lambda text: parse_lattice(text), lambda c: {**_matrix_shape(c), "p": c.p}),
}


def _format_of(text):
    """JSON is label cover, a text-format tag names itself, and a comment or
    `p cnf` line starts DIMACS."""
    stripped = text.lstrip()
    head = stripped.split(None, 1)[0] if stripped else ""
    if stripped.startswith("{"):
        return "labelcover"
    if head in LAYOUTS:
        return head
    if stripped.startswith(("c", "p cnf", "%")):
        return "dimacs"
    raise ValueError("unrecognized instance format")


def _cmd_info(args, argv):
    text = _read(args.input)
    fmt = _format_of(text)
    parse, describe = _FORMATS[fmt]
    doc = describe(parse(text))
    doc.update(format=fmt, command="info", input=args.input)
    _emit(doc)
    return 0


def _at_least(low):
    """An argparse type: an integer, refused (exit 2) below `low`."""
    def integer(text):
        value = textformat.integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


@functools.cache  # parse_args still builds a fresh namespace per call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gapforge",
        description="reduction pipeline: 3-CNF to projection games to "
                    "coverage, clustering, and coding/lattice instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="run one reduction stage")
    reduce_p.add_argument("stage", choices=list(_STAGES))
    reduce_p.add_argument("--input", "-i", required=True)
    reduce_p.add_argument("--output", "-o", required=True)
    reduce_p.add_argument("--seed", type=textformat.integer, required=True,
                          help="mandatory; no ambient randomness")
    reduce_p.add_argument("--budget", type=_at_least(0), default=None)
    reduce_p.add_argument("--k", type=textformat.integer, default=3)
    reduce_p.add_argument("--t", type=textformat.integer, default=2)
    reduce_p.add_argument("--p", default="0.5", help="sampling probability (rational ok)")
    reduce_p.add_argument("--var-budget", type=_at_least(0), default=24)
    reduce_p.add_argument("--allow-vacuous", action="store_true")
    reduce_p.add_argument("--delta", default="0.5", help="alphabet stage error budget")
    reduce_p.add_argument("--exponent", type=textformat.integer, choices=[1, 2], default=1)
    reduce_p.add_argument("--tbar", type=textformat.integer, default=2)
    reduce_p.add_argument("--multiplicity", type=textformat.integer, default=None)
    reduce_p.add_argument("--p-norm", type=textformat.integer, default=1)
    reduce_p.set_defaults(func=_cmd_reduce)

    solve_p = sub.add_parser("solve", help="run a solver on an instance file")
    solve_p.add_argument("problem", choices=list(_PROBLEMS))
    solve_p.add_argument("--input", "-i", required=True)
    solve_p.add_argument("--seed", type=textformat.integer, required=True,
                         help="mandatory; ignored, since every solver is deterministic")
    solve_p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    solve_p.add_argument("--budget", type=_at_least(0), default=None)
    solve_p.add_argument("--box", type=textformat.integer, default=None)
    solve_p.add_argument("--choose", default="",
                         help="comma-separated set indices for unique-cover")
    solve_p.set_defaults(func=_cmd_solve)

    verify_p = sub.add_parser("verify", help="run a named property suite")
    verify_p.add_argument("suite", choices=sorted(_SUITES),
                          help="partition-identity checks every identity for "
                               "t in {2, 3} and s <= 4, and reads neither "
                               "--seed nor --scale")
    verify_p.add_argument("--seed", type=textformat.integer, required=True)
    verify_p.add_argument("--scale", type=_at_least(1), default=10)
    verify_p.add_argument("--budget", type=_at_least(0), default=None)
    verify_p.set_defaults(func=_cmd_verify)

    info_p = sub.add_parser("info", help="describe an instance file")
    info_p.add_argument("--input", "-i", required=True)
    info_p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # reduce, solve and verify: --budget, then GAPFORGE_BUDGET, then the default
        if args.command != "info" and args.budget is None:
            env = os.environ.get("GAPFORGE_BUDGET", str(DEFAULT_BUDGET))
            args.budget = textformat.integer(env)
            if args.budget < 0:
                raise ValueError(f"GAPFORGE_BUDGET {args.budget} is below 0")
        return args.func(args, argv)
    except BudgetError as e:
        _emit({"status": "inconclusive", "what": e.what,
               "required": e.required, "budget": e.budget})
        _note(f"inconclusive: {e}")
        return 3
    except (ValueError, OSError, MemoryError) as e:
        message = str(e) or type(e).__name__  # a bare MemoryError has no message
        _emit({"status": "error", "message": message})
        _note(f"error: {message}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
