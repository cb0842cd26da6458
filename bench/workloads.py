"""The benchmark's three workloads.

Each workload owns a fixed pool of seeded cases. `record.py` builds the pool
and stores every case's expected output in `refs/<workload>.json`, at the
commit whose outputs are the reference. A run's `--seed` picks which pool
cases make up its round, and the timed loop repeats that round. Every seed
therefore draws only recorded cases, and every op's output is checked.

Ops reach gapforge through `gf`, which `load_gapforge` refills on every
import, so tracing can wrap the module attributes that both the ops and
`gapforge.cli` call through.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFS = Path(__file__).resolve().parent / "refs"

# gapforge's documented default work budget; a refusal is "affordable" when
# the recorded search visited no more candidates than this.
DEFAULT_BUDGET = 10_000_000

MODULES = ("budget", "formula", "setsys", "labelcover", "agreement",
           "downstream", "solvers", "cli")


class Modules:
    """The gapforge modules of the latest import."""


gf = Modules()


def load_gapforge():
    """Import gapforge afresh, dropping any earlier import, into `gf`."""
    for name in [m for m in sys.modules if m == "gapforge" or m.startswith("gapforge.")]:
        del sys.modules[name]
    for name in MODULES:
        setattr(gf, name, importlib.import_module("gapforge." + name))


def canon(obj):
    """A JSON-able form of a result: exact rationals as strings, sets sorted."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return repr(obj)
    if is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(canon(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if hasattr(obj, "__index__"):
        return int(obj)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def canon_text(obj):
    return json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))


def expect_form(result):
    """What the reference stores for a result: its canonical text, or the
    SHA-256 of that text when it is long."""
    text = canon_text(result)
    if len(text) <= 240:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One operation of the timed loop.

    `run` returns (seconds spent in gapforge, result, meta). The result is
    compared with the reference; meta carries counts that are not compared.
    """

    key: str
    kind: str
    run: Callable[[], tuple]


def plan(groups, pool, seed):
    """The round for a seed: per group, `per_round` distinct pool cases,
    shuffled into one fixed order."""
    rng = random.Random(f"round:{seed}")
    picks = []
    for group in sorted(groups):
        for j in sorted(rng.sample(range(len(pool[group])), groups[group])):
            picks.append((group, j))
    rng.shuffle(picks)
    return picks


# ---------------------------------------------------------------- lc-oracle

# (k, left labelings) -> cases per round. A round has 100 ops; the counts put
# the median inside the k=3, 640-labeling rung and the 90th percentile inside
# the k=4, 2560-labeling rung, so neither sits on a boundary between rungs.
LC_RUNGS = {
    (3, 320): 20, (3, 640): 16, (3, 1280): 8, (3, 2560): 4, (3, 5120): 3, (3, 10240): 1,
    (4, 320): 20, (4, 640): 10, (4, 1280): 8, (4, 2560): 6, (4, 5120): 3, (4, 10240): 1,
}


class LcOracle:
    """Label-cover enumeration: parse, build the clause-subset game, then
    brute_force_val and brute_force_wval. Rungs fix k and the number of
    left labelings to within 5%."""

    name = "lc-oracle"
    groups = {f"k{k}-L{target}": count for (k, target), count in LC_RUNGS.items()}
    pool_size = 8

    def candidates(self, group):
        k, target = (int(x[1:]) for x in group.split("-"))
        rng = random.Random(f"{self.name}:{group}")
        while True:
            n = rng.randrange(5, 9)
            m = rng.randrange(math.ceil(n / 3), 2 * n + 1)
            spec = {"n": n, "m": m, "k": k, "p": str(Fraction(rng.randrange(2, 7), 10)),
                    "fseed": rng.randrange(2**32), "sseed": rng.randrange(2**32)}
            try:
                text, system = self._inputs(spec)
                game = gf.labelcover.build_main_reduction(
                    gf.formula.parse_dimacs(text), system, 2)
            except ValueError:
                continue
            labelings = math.prod(len(a) for a in game.left_alphabets)
            if abs(labelings - target) * 20 <= target:
                yield spec

    def _inputs(self, spec):
        formula, _ = gf.formula.random_planted_formula(spec["n"], spec["m"], spec["fseed"])
        system = gf.setsys.sample_random_subsets(spec["m"], spec["k"], Fraction(spec["p"]),
                                                 spec["sseed"])
        return gf.formula.to_dimacs(formula), system

    def ops(self, key, spec, workdir):
        text, system = self._inputs(spec)

        def run():
            start = time.perf_counter()
            formula = gf.formula.parse_dimacs(text)
            game = gf.labelcover.build_main_reduction(formula, system, 2)
            (left, right), val = gf.labelcover.brute_force_val(game)
            wleft, wval = gf.labelcover.brute_force_wval(game)
            elapsed = time.perf_counter() - start
            return elapsed, {"val": val, "val_witness": [left, right],
                             "wval": wval, "wval_witness": wleft}, {}

        return [Op(key, "val+wval", run)]


# ------------------------------------------------------------ exact-oracles

def _partition_text(rng, u, k):
    elements = list(range(u))
    rng.shuffle(elements)
    cuts = sorted(rng.sample(range(1, u), k - 1))
    parts = [sorted(elements[a:b]) for a, b in zip([0] + cuts, cuts + [u])]
    return f"cov {u} {k} {k}\n" + "".join(" ".join(map(str, p)) + "\n" for p in parts)


def _singles_text(rng, u):
    order = list(range(u))
    rng.shuffle(order)
    return f"cov {u} {u} {u}\n" + "".join(f"{e}\n" for e in order)


def _feige_inputs(spec):
    formula, _ = gf.formula.random_planted_formula(spec["n"], spec["m"], spec["fseed"])
    singles = gf.setsys.SetSystem(spec["m"], tuple((j,) for j in range(spec["s"])))
    return gf.formula.to_dimacs(formula), singles


def _feige_gadget(text, singles):
    game = gf.labelcover.build_main_reduction(gf.formula.parse_dimacs(text), singles, 2)
    return gf.downstream.feige_coverage_reduction(game)


def _solver_result(r):
    # `enumerated` is a per-layer count, never compared: a pruning solver
    # visits fewer candidates and is still right
    return {"value": r.value, "witness": r.witness, "note": r.note}


class ExactOracles:
    """Downstream gadgets, exact solvers and agreement testing, with no
    label-cover enumeration. The min-set-cover-s4 gadgets have 28 sets: the
    budget charges 2^28 up front and refuses them, though the search visits
    a few thousand candidates."""

    name = "exact-oracles"
    groups = {
        # ~100 ops per round in cost blocks: the median falls inside the 30
        # ncp-partition ops and the 90th percentile inside the 10 t=3, k=20
        # two-level graphs
        "ncp-nocover": 8, "min-set-cover-s3": 8, "max-coverage-s3": 8,
        "ncp-partition": 30,
        "min-set-cover-s4": 4, "cvp-nocover-u3": 6, "cvp-partition-k3": 8,
        "max-coverage-s4": 4, "two-level-t2-k40": 6, "kmedian": 2, "kmean": 2,
        "two-level-t3-k20": 10,
        "two-level-t3-k26": 2, "cvp-nocover-u4": 1, "cvp-partition-k4": 1,
        "decode": 1,
    }
    pool_size = 8

    def candidates(self, group):
        rng = random.Random(f"{self.name}:{group}")
        while True:
            # sizes are fixed per group, so the cases of a group cost the same
            if group == "ncp-partition":
                yield {"u": 16, "k": 11, "seed": rng.randrange(2**32)}
            elif group == "ncp-nocover":
                yield {"u": 8, "seed": rng.randrange(2**32)}
            elif group.startswith("cvp-partition-k"):
                yield {"u": 6, "k": int(group[-1]), "seed": rng.randrange(2**32)}
            elif group.startswith("cvp-nocover-u"):
                yield {"u": int(group[-1]), "seed": rng.randrange(2**32)}
            elif group.startswith(("max-coverage-s", "min-set-cover-s")):
                s = int(group[-1])
                yield {"n": 4, "m": rng.randrange(s, 8), "s": s, "fseed": rng.randrange(2**32)}
            elif group in ("kmedian", "kmean"):
                spec = {"n": rng.randrange(6, 10), "m": rng.randrange(4, 8), "s": 3,
                        "fseed": rng.randrange(2**32)}
                cov = _feige_gadget(*_feige_inputs(spec))
                # 21 sets over 20-22 elements: one clause pair shares two variables
                if 41 <= cov.universe_size + len(cov.sets) <= 43:
                    yield spec
            elif group.startswith("two-level-t"):
                t, k = (int(x[1:]) for x in group.split("-")[2:])
                yield {"t": t, "k": k, "n": 40, "sseed": rng.randrange(2**32),
                       "fseed": rng.randrange(2**32)}
            elif group == "decode":
                # one shape for every case: the game's size sets the peak RSS
                yield {"n": 8, "m": 10, "fseed": rng.randrange(2**32),
                       "sseed": rng.randrange(2**32)}
            else:
                raise ValueError(f"unknown group {group!r}")

    def ops(self, key, spec, workdir):
        kind = key.rsplit("/", 1)[0]
        if kind.startswith(("ncp-", "cvp-")):
            return [Op(key, kind, self._abss(kind, spec))]
        if kind.startswith(("max-coverage", "min-set-cover", "kmedian", "kmean")):
            return [Op(key, kind, self._feige(kind, spec))]
        if kind.startswith("two-level"):
            return [Op(key, kind, self._two_level(spec))]
        return [Op(key, kind, self._decode(spec))]

    def _abss(self, kind, spec):
        if "partition" in kind:
            k = spec["k"]
            text = _partition_text(random.Random(spec["seed"]), spec["u"], k)
            tbar, mult = k, k + 1
        else:
            text = _singles_text(random.Random(spec["seed"]), spec["u"])
            tbar, mult = spec["u"] - 1, None
        ds, solvers = gf.downstream, gf.solvers

        def run():
            start = time.perf_counter()
            cov = ds.parse_coverage(text)
            if kind.startswith("ncp"):
                result = solvers.exact_ncp(ds.abss_ncp_reduction(cov, tbar, mult))
            else:
                result = solvers.exact_cvp(ds.abss_cvp_reduction(cov, tbar, mult, p=1))
            return time.perf_counter() - start, _solver_result(result), {}

        return run

    def _feige(self, kind, spec):
        text, singles = _feige_inputs(spec)
        solvers, ds = gf.solvers, gf.downstream

        def run():
            start = time.perf_counter()
            cov = _feige_gadget(text, singles)
            meta = {}
            if kind.startswith("max-coverage"):
                result = solvers.exact_max_coverage(cov)
            elif kind.startswith("min-set-cover"):
                try:
                    result = solvers.exact_min_set_cover(cov)
                except gf.budget.BudgetError:
                    # what a user does after an inconclusive run: rerun with
                    # the full subset space as the budget
                    meta["refused"] = True
                    result = solvers.exact_min_set_cover(cov, budget=2 ** len(cov.sets))
                meta["enumerated"] = result.enumerated
            else:
                exponent = 1 if kind == "kmedian" else 2
                inst = ds.guha_khuller_reduction(cov, exponent=exponent)
                solve = solvers.exact_kmedian if exponent == 1 else solvers.exact_kmean
                result = solve(inst)
            return time.perf_counter() - start, _solver_result(result), meta

        return run

    def _two_level(self, spec):
        t, k, n = spec["t"], spec["k"], spec["n"]
        system = gf.setsys.sample_random_subsets(n, k, Fraction(4, 5), spec["sseed"])
        frng = random.Random(spec["fseed"])
        base = [frng.randrange(2) for _ in range(n)]
        values = tuple(tuple(base[e] ^ (frng.random() < 0.1) for e in s) for s in system.sets)
        # at t = 2 every pair is blue, so alpha = 0 keeps every pair off red
        alpha = Fraction(46, 100) if t >= 3 else Fraction(0)
        h = math.ceil(2 * alpha * k)
        rho = Fraction(gf.setsys.pairwise_intersection_max(system), n)
        ag = gf.agreement

        def run():
            start = time.perf_counter()
            collection = ag.FunctionCollection(system, values)
            graph = ag.build_two_level_graph(collection, alpha, Fraction(1), t)
            rb = ag.check_rb_transitive(graph, h)
            g, stats = ag.majority_decode(collection, range(k), zeta=Fraction(1, 10), rho=rho)
            elapsed = time.perf_counter() - start
            return elapsed, {"blue": graph.blue, "red": graph.red, "estimated": graph.estimated,
                             "rb": rb, "g": g, "stats": stats}, {}

        return run

    def _decode(self, spec):
        n = spec["n"]
        formula, planted = gf.formula.random_planted_formula(n, spec["m"], spec["fseed"])
        text = gf.formula.to_dimacs(formula)
        system = gf.setsys.sample_random_subsets(spec["m"], 320, Fraction(1, 4), spec["sseed"])
        game = gf.labelcover.build_main_reduction(formula, system, 2)
        sigma = gf.labelcover.restriction_labeling(game, planted)
        var_sets = tuple(tuple(sorted(v - 1 for v in gf.formula.vars_of(formula, s)))
                         for s in system.sets)
        rho = Fraction(gf.setsys.pairwise_intersection_max(gf.setsys.SetSystem(n, var_sets)), n)
        # k = 320 is the smallest k the decoder's preconditions allow at t = 2
        params = gf.labelcover.soundness_params(
            Fraction(1, 2), 1, Fraction(1, 2), 2, 320, p_override=Fraction(1, 10),
            alpha_override=Fraction(1, 16), rho_override=rho, eta_override=Fraction(1, 100))
        ag = gf.agreement

        def run():
            start = time.perf_counter()
            psi, report = ag.decode_assignment(gf.formula.parse_dimacs(text), system, sigma,
                                               params, budget=20_000_000)
            return time.perf_counter() - start, {"psi": sorted(psi.items()), "report": report}, {}

        return run


# ---------------------------------------------------------------- cli-chain

# The demos/cli_tour.sh chain: every reduce stage, every solve problem
# (labelcover on the restriction form and on the tables form), info on every
# instance file, short verify suites and the budget exits.
CHAIN = (
    ("info -i phi.cnf", 0, None),
    ("reduce labelcover -i phi.cnf -o game.json --seed {seed} --k 3 --p 0.8", 0, None),
    ("info -i game.json", 0, None),
    ("solve labelcover -i game.json --seed 1", 0, None),
    ("reduce alphabet -i game.json -o small.json --seed {seed} --delta 0.5", 0, None),
    ("info -i small.json", 0, None),
    ("solve labelcover -i small.json --seed 1", 0, None),
    ("reduce coverage -i game.json -o cov.txt --seed {seed}", 0, None),
    ("reduce unique-cover -i game.json -o ucov.txt --seed {seed}", 0, None),
    ("info -i cov.txt", 0, None),
    ("info -i ucov.txt", 0, None),
    ("solve max-coverage -i cov.txt --seed 1 --mode greedy", 0, None),
    ("solve max-coverage -i cov.txt --seed 1 --mode exact", 0, None),
    ("solve min-set-cover -i cov.txt --seed 1", 0, None),
    ("solve unique-cover -i cov.txt --seed 1 --choose {choose}", 0, None),
    ("info -i parts.txt", 0, None),
    ("reduce clustering -i parts.txt -o clu.txt --seed {seed}", 0, None),
    ("info -i clu.txt", 0, None),
    ("solve kmedian -i clu.txt --seed 1", 0, None),
    ("solve kmean -i clu.txt --seed 1", 0, None),
    ("reduce ncp -i parts.txt -o code.txt --seed {seed} --tbar 3 --multiplicity 4", 0, None),
    ("info -i code.txt", 0, None),
    ("solve ncp -i code.txt --seed 1", 0, None),
    ("reduce cvp -i parts.txt -o lat.txt --seed {seed} --tbar 3 --multiplicity 4", 0, None),
    ("info -i lat.txt", 0, None),
    ("solve cvp -i lat.txt --seed 1", 0, None),
    # the suites take the tour's fixed seeds, so each costs the same in every
    # chain and the 90th percentile falls inside the block of `solve cvp` ops
    ("verify partition-identity --seed 0 --scale 1", 0, None),
    ("verify monotone-dnf --seed 1 --scale 3", 0, None),
    ("verify majority-bound --seed 2 --scale 5", 0, None),
    ("verify rb-transitivity --seed 3 --scale 1", 0, None),
    ("verify pipeline-completeness --seed 4 --scale 1", 0, None),
    ("verify monotone-dnf --seed 1 --scale 3 --budget 10", 3, None),
    ("verify monotone-dnf --seed 1 --scale 3", 3, {"GAPFORGE_BUDGET": "2"}),
    ("verify monotone-dnf --seed 1 --scale 3 --budget 100000", 0, {"GAPFORGE_BUDGET": "2"}),
    ("reduce labelcover -i phi.cnf -o again.json --seed {seed} --k 3 --p 0.8", 0, None),
)


def _chain_formula(rng, m):
    """A satisfiable DIMACS formula over 3 variables with m clauses of width 2-3."""
    planted = [rng.randrange(2) for _ in range(3)]
    while True:
        clauses = []
        for _ in range(m):
            lits = [v if rng.randrange(2) else -v for v in rng.sample((1, 2, 3), rng.choice((2, 3)))]
            if not any((lit > 0) == bool(planted[abs(lit) - 1]) for lit in lits):
                lits[0] = -lits[0]
            clauses.append(lits)
        if {abs(lit) for c in clauses for lit in c} == {1, 2, 3}:
            return f"p cnf 3 {m}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)


@contextlib.contextmanager
def _environment(env):
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _cli_result(code, stdout, files):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        doc = "unparseable:" + hashlib.sha256(stdout.encode()).hexdigest()
    if isinstance(doc, dict):
        if code == 3:
            # only the verdict: how an inconclusive run reports its counts may change
            doc = {"status": doc.get("status")}
        doc.pop("enumerated", None)
    return {"exit": code, "stdout": doc, "files": files}


class CliChain:
    """The demos/cli_tour.sh chain through gapforge.cli.main, in-process,
    over seeded 3-variable formulas; each chain runs in its own directory."""

    name = "cli-chain"
    groups = {"chain": 12}
    pool_size = 48

    def candidates(self, group):
        rng = random.Random(f"{self.name}:{group}")
        while True:
            yield {"formula": _chain_formula(rng, rng.randrange(3, 5)),
                   "parts": _partition_text(rng, 6, 3), "seed": rng.randrange(1000)}

    def ops(self, key, spec, workdir):
        chain_dir = Path(workdir) / key.replace("/", "-")
        chain_dir.mkdir(parents=True, exist_ok=True)
        (chain_dir / "phi.cnf").write_text(spec["formula"])
        (chain_dir / "parts.txt").write_text(spec["parts"])
        state = {"choose": ""}
        ops = []
        for step, (template, exit_code, env) in enumerate(CHAIN):
            words = template.split()
            kind = "cli " + (words[0] if words[0] == "info" else " ".join(words[:2]))
            ops.append(Op(f"{key}/{step}", kind,
                          self._step(chain_dir, words, exit_code, env or {}, spec["seed"], state)))
        return ops

    def _step(self, chain_dir, words, exit_code, env, seed, state):
        output = words[words.index("-o") + 1] if "-o" in words else None

        def run():
            argv = [w.format(seed=seed, choose=state["choose"]) for w in words]
            os.chdir(chain_dir)
            out, err = io.StringIO(), io.StringIO()
            with _environment(env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = gf.cli.main(argv)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
                elapsed = time.perf_counter() - start
            files = {}
            written = 0
            if output is not None and code == 0:
                for name in (output, output + ".prov.json"):
                    data = (chain_dir / name).read_bytes()
                    written += len(data)
                    files[name] = hashlib.sha256(data).hexdigest()
            stdout = out.getvalue()
            if words[:2] == ["solve", "min-set-cover"] and code == 0:
                state["choose"] = ",".join(map(str, json.loads(stdout)["witness"]))
            meta = {"bytes": written, "exit": code, "expected_exit": exit_code}
            return elapsed, _cli_result(code, stdout, files), meta

        return run


WORKLOADS = {w.name: w for w in (LcOracle(), ExactOracles(), CliChain())}


def refs_path(name):
    return REFS / f"{name}.json"


def load_refs(name):
    with open(refs_path(name), encoding="utf-8") as fh:
        return json.load(fh)
