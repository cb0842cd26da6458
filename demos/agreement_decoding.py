"""Noisy local functions, the consistency graph, and the full decoder.

First a hand-sized collection: plant a global word, corrupt 10% of the local
values, then watch the two-level graph, the non-red subgraph, and majority
decoding recover the word. Then the real thing: a 320-set collection induced
by a satisfiable formula, pushed through decode_assignment (a few seconds).

Run: python3 demos/agreement_decoding.py
"""

import random
from fractions import Fraction

from gapforge import (CnfFormula, FunctionCollection, SetSystem,
                      build_two_level_graph, check_rb_transitive,
                      clause_value, decode_assignment, disagr,
                      find_non_red_subgraph, majority_decode,
                      pair_consistency, pairwise_intersection_max,
                      random_planted_formula, restriction_labeling,
                      sample_random_subsets, soundness_params, t_wagr,
                      vars_of)
from gapforge.labelcover import build_main_reduction

print("== a noisy collection over 12 points ==")
rng = random.Random(5)
system = sample_random_subsets(12, 8, Fraction(1, 2), rng.randrange(2**32))
frng = random.Random(rng.randrange(2**32))
base = [frng.randrange(2) for _ in range(12)]
values = tuple(
    tuple(base[e] ^ (1 if frng.random() < 0.1 else 0) for e in s)
    for s in system.sets
)
fc = FunctionCollection(system, values)
print("set sizes:", [len(s) for s in system.sets])
print("disagr(f0, f1) =", disagr(fc.function(0), fc.function(1)),
      "| pair consistency at overlap 1:", pair_consistency(fc, 0, 1, 1))
print("weak agreement: t=2 ->", t_wagr(fc, 2), " t=3 ->", t_wagr(fc, 3))

print("\n== two-level graph at t=3 ==")
alpha, beta = Fraction(1, 2), Fraction(4, 5)
graph = build_two_level_graph(fc, alpha, beta, 3)
print(f"alpha={alpha} beta={beta}: {len(graph.blue)} blue edges, "
      f"{len(graph.red)} red edges")
ok, witness = check_rb_transitive(graph, 5)
print("no red pair shares 5 common blue neighbors:", ok)
subset, density = find_non_red_subgraph(graph, 3)
print(f"non-red subgraph on {subset} with blue density {density}")

dec, stats = majority_decode(fc, subset, zeta=Fraction(1, 10),
                             rho=Fraction(1, 2))
errors = sum(1 for i in range(12) if dec[i] != base[i])
print(f"majority decode recovers the planted word with {errors} errors")
print("mean disagreement:", stats.mean_disagr,
      "| kappa:", stats.kappa, "| bound holds:", stats.bound_holds)

print("\n== full decode_assignment ==")
# a formula whose all-zeros assignment satisfies every clause
f0, planted = random_planted_formula(10, 12, seed=13)
formula = CnfFormula(10, tuple(
    tuple(-lit if planted[abs(lit)] else lit for lit in cl)
    for cl in f0.clauses))
zeros = {v: 0 for v in range(1, 11)}
assert clause_value(formula, zeros) == 1

# alpha <= delta/(4 t^2) and k >= 10 t / alpha force k = 320 at t = 2
big = sample_random_subsets(12, 320, Fraction(1, 4), seed=13)
instance = build_main_reduction(formula, big, 2)
sigma = restriction_labeling(instance, zeros)

var_sets = tuple(
    tuple(sorted(v - 1 for v in vars_of(formula, s))) for s in big.sets)
rho = Fraction(pairwise_intersection_max(SetSystem(10, var_sets)), 10)
params = soundness_params(Fraction(1, 2), 1, Fraction(1, 2), 2, 320,
                          p_override=Fraction(1, 10),
                          alpha_override=Fraction(1, 16),
                          rho_override=rho,
                          eta_override=Fraction(1, 100))
print(f"k=320 clause subsets, measured rho = {rho}, "
      f"overrides: {', '.join(params.overrides)}")

psi, report = decode_assignment(formula, big, sigma, params)
agr = report.agreement
print(f"agreement subset: {len(agr.subset)} sets, wagr {agr.wagr}, "
      f"non-red density {agr.non_red_density}")
print(f"decoded assignment matches the satisfying one: {psi == zeros}")
print(f"unsatisfied clause weight nu = {report.nu}, satisfied fraction "
      f"{report.clause_fraction}, certified bound {report.bound} "
      f"(holds: {report.holds})")
