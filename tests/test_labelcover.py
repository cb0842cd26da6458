"""Projection games: values, the clause-subset reduction, alphabet shrinking."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (BudgetError, LabelCoverInstance, SetSystem,
                      UnsatisfiableSubsetError, brute_force_val,
                      brute_force_wval, build_main_reduction, from_json,
                      hadamard_codeword, labeling_value, optimal_extension,
                      parse_dimacs, random_planted_formula,
                      reduce_alphabet, restriction_labeling,
                      sample_random_subsets, smallest_prime_at_least,
                      soundness_params, to_json, weak_agreement_value,
                      wval_to_val_bound)
from gapforge.budget import check
from gapforge.cli import main
from gapforge.formula import CnfFormula, satisfied_counts, vars_of
from gapforge.labelcover import RESTRICTION, is_prime, left_vertices

TINY = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"


def identity_toy():
    return LabelCoverInstance(
        edges=((0, 0), (1, 0)),
        left_alphabets=((0, 1), (0, 1)),
        right_alphabets=((0, 1),),
        projections=((0, 1), (0, 1)),
    )


def singleton_reduction(t=2, num_clauses=3, seed=0, n=5, m=None):
    m = num_clauses if m is None else m
    formula, planted = random_planted_formula(n, m, seed)
    system = SetSystem(m, tuple((j,) for j in range(num_clauses)))
    return build_main_reduction(formula, system, t), planted


def test_labeling_value_examples():
    toy = identity_toy()
    assert labeling_value(toy, ((0, 0), (0,))) == 1
    assert labeling_value(toy, ((1, 1), (1,))) == 1
    assert labeling_value(toy, ((0, 1), (0,))) == Fraction(1, 2)

    constant = LabelCoverInstance(
        edges=((0, 0),),
        left_alphabets=((0, 1),), right_alphabets=((0, 1),),
        projections=((1, 1),),
    )
    assert labeling_value(constant, ((0,), (0,))) == 0
    assert labeling_value(constant, ((0,), (1,))) == 1


def test_labeling_value_rejects_partial_or_out_of_range():
    toy = identity_toy()
    with pytest.raises(ValueError, match="every left vertex"):
        labeling_value(toy, ((0,), (0,)))
    with pytest.raises(ValueError, match="out of range"):
        labeling_value(toy, ((0, 2), (0,)))


def _random_table_instance(rng, num_left=2, num_right=1, la=2, ra=2, degree=2):
    edges = []
    for v in range(num_right):
        for u in sorted(rng.sample(range(num_left), degree)):
            edges.append((u, v))
    tables = tuple(tuple(rng.randrange(ra) for _ in range(la)) for _ in edges)
    return LabelCoverInstance(
        edges=tuple(edges),
        left_alphabets=(tuple(range(la)),) * num_left,
        right_alphabets=(tuple(range(ra)),) * num_right,
        projections=tables,
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_labeling_value_matches_hand_enumeration(seed):
    rng = random.Random(seed)
    toy = _random_table_instance(rng)
    for left in itertools.product(range(2), repeat=2):
        for right in itertools.product(range(2), repeat=1):
            sat = sum(
                1 for e, (u, v) in enumerate(toy.edges)
                if toy.projections[e][left[u]] == right[v]
            )
            assert labeling_value(toy, (left, right)) == Fraction(sat, toy.num_edges)


def test_weak_agreement_examples():
    constant = LabelCoverInstance(
        edges=((0, 0), (1, 0)),
        left_alphabets=((0, 1), (0, 1)), right_alphabets=((0, 1),),
        projections=((1, 1), (1, 1)),
    )
    for left in itertools.product(range(2), repeat=2):
        assert weak_agreement_value(constant, left) == 1

    degree_one = LabelCoverInstance(
        edges=((0, 0),),
        left_alphabets=((0, 1),), right_alphabets=((0, 1),),
        projections=((0, 1),),
    )
    assert weak_agreement_value(degree_one, (0,)) == 0
    assert brute_force_wval(degree_one) == ((0,), 0)  # a zero optimum keeps a witness


def _wval_recount(instance, left):
    inc = {}
    for e, (u, v) in enumerate(instance.edges):
        inc.setdefault(v, []).append((e, u))
    agreed = 0
    for v in range(instance.num_right):
        vals = [instance.tables[e][left[u]] for e, u in inc.get(v, [])]
        if any(vals[i] == vals[j] for i in range(len(vals)) for j in range(i + 1, len(vals))):
            agreed += 1
    return Fraction(agreed, instance.num_right)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_brute_force_wval_matches_recount(seed):
    rng = random.Random(seed)
    toy = _random_table_instance(rng, num_left=3, num_right=2, la=2, ra=2)
    witness, value = brute_force_wval(toy)
    assert value == _wval_recount(toy, witness)
    assert value == max(
        _wval_recount(toy, left) for left in itertools.product(range(2), repeat=3)
    )


def test_brute_force_val_examples():
    labeling, val = brute_force_val(identity_toy())
    assert val == 1
    assert labeling == ((0, 0), (0,))  # min-lex left, min-index extension

    singleton = LabelCoverInstance(
        edges=((0, 0), (1, 0)),
        left_alphabets=((0,), (0,)), right_alphabets=((0, 1),),
        projections=((1,), (1,)),
    )
    labeling, val = brute_force_val(singleton)
    assert labeling == ((0, 0), (1,)) and val == 1


def test_brute_force_budget():
    toy = identity_toy()
    with pytest.raises(BudgetError) as exc:
        brute_force_val(toy, budget=3)
    assert exc.value.required == 4


def test_optimal_extension_tie_breaks_to_smallest_label():
    toy = LabelCoverInstance(
        edges=((0, 0), (1, 0)),
        left_alphabets=((0, 1), (0, 1)), right_alphabets=((0, 1),),
        projections=((0, 1), (1, 0)),
    )
    right, val = optimal_extension(toy, (0, 0))  # projections 0 and 1 tie
    assert right == (0,) and val == Fraction(1, 2)


def test_main_reduction_tiny_pair():
    formula = parse_dimacs(TINY)
    system = SetSystem(3, ((0,), (1,)))
    instance = build_main_reduction(formula, system, 2)
    assert instance.num_left == 2 and instance.num_right == 1
    assert instance.bi_regular and instance.right_degree == 2
    assert instance.left_domains == ((1, 2), (1, 3))
    assert instance.right_domains == ((1,),)
    # x1 OR x2: masks with bit0 = x1, bit1 = x2
    assert instance.left_alphabets[0] == (1, 2, 3)
    # NOT x1 OR x3: bit0 = x1, bit1 = x3
    assert instance.left_alphabets[1] == (0, 2, 3)
    assert instance.right_alphabets == ((0, 1),)
    assert instance.tables[0] == (1, 0, 1)
    assert instance.tables[1] == (0, 0, 1)


def test_main_reduction_empty_intersection():
    formula = parse_dimacs("p cnf 6 2\n1 2 3 0\n4 5 6 0\n")
    system = SetSystem(2, ((0,), (1,)))
    instance = build_main_reduction(formula, system, 2)
    assert instance.right_domains == ((),)
    assert instance.right_alphabets == ((0,),)
    _, val = brute_force_val(instance)
    assert val == 1


def test_main_reduction_unsatisfiable_subset():
    formula = parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n")
    system = SetSystem(3, ((0, 1), (2,)))
    with pytest.raises(UnsatisfiableSubsetError) as exc:
        build_main_reduction(formula, system, 2)
    assert exc.value.index == 0
    instance = build_main_reduction(formula, system, 2, allow_vacuous=True)
    assert instance.vacuous
    assert instance.left_alphabets[0] == ()


def test_main_reduction_rejects_bad_arguments():
    formula = parse_dimacs(TINY)
    system = SetSystem(3, ((0,), (1,)))
    with pytest.raises(ValueError, match="at least 2"):
        build_main_reduction(formula, system, 1)
    with pytest.raises(ValueError, match="at least t"):
        build_main_reduction(formula, system, 3)
    with pytest.raises(ValueError, match="clause set"):
        build_main_reduction(formula, SetSystem(2, ((0,), (1,))), 2)


def test_main_reduction_var_budget():
    formula, _ = random_planted_formula(9, 3, seed=1)
    system = SetSystem(3, ((0, 1, 2),))
    with pytest.raises(BudgetError):
        build_main_reduction(formula, SetSystem(3, ((0, 1, 2), (0,))), 2, var_budget=4)


def test_main_reduction_right_budget():
    formula, _ = random_planted_formula(5, 8, seed=2)
    system = sample_random_subsets(8, 6, Fraction(1, 2), seed=3)
    with pytest.raises(BudgetError) as exc:
        build_main_reduction(formula, system, 3, budget=10)
    assert exc.value.required == math.comb(6, 3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_main_reduction_completeness(seed):
    """A satisfying assignment restricted per subset is a value-1 labeling."""
    rng = random.Random(seed)
    formula, planted = random_planted_formula(rng.randrange(4, 8), rng.randrange(4, 9), seed)
    system = sample_random_subsets(formula.num_clauses, 4, Fraction(2, 5), seed)
    instance = build_main_reduction(formula, system, 2)
    left = restriction_labeling(instance, planted)
    _, val = optimal_extension(instance, left)
    assert val == 1
    assert weak_agreement_value(instance, left) == 1
    for alphabet, dom in zip(instance.left_alphabets, instance.left_domains):
        assert len(alphabet) <= 1 << len(dom)


def _reencoded_left_side(formula, system, var_budget):
    """The left side as the builder made it before `left_vertices`: labels
    enumerated most significant bit first over the sorted domain, then
    re-encoded bit by bit so bit j means dom[j]; an empty domain got (0,)."""
    domains, alphabets = [], []
    for i, subset in enumerate(system.sets):
        dom = sorted(vars_of(formula, subset))
        if len(dom) > var_budget:
            check(1 << len(dom), 1 << var_budget, what=f"alphabet enumeration for subset {i}")
        if dom:
            counts = satisfied_counts(formula, dom, subset)
            sat = np.nonzero(counts == len(subset))[0]
            nv = len(dom)
            labels = tuple(sorted(
                sum(((int(m) >> (nv - 1 - j)) & 1) << j for j in range(nv)) for m in sat))
        else:
            labels = (0,)
        domains.append(tuple(dom))
        alphabets.append(labels)
    return tuple(domains), tuple(alphabets)


def _random_narrow_formula(rng):
    """Unit and two-literal clauses over few variables, so small clause
    subsets are often unsatisfiable."""
    n = rng.randint(1, 4)
    clauses = [(v if rng.random() < 0.5 else -v,) for v in range(1, n + 1)]
    for _ in range(rng.randint(0, 8)):
        width = rng.randint(1, min(2, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1), width)))
    rng.shuffle(clauses)
    return CnfFormula(n, tuple(clauses))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_left_vertices_match_the_reencoded_labels(seed):
    """Same domains, same ascending masks and the same refusals as the
    re-encoding; an empty subset's one label is the empty assignment 0 and
    an unsatisfiable subset's alphabet is empty."""
    rng = random.Random(seed)
    if seed % 2:
        formula, _ = random_planted_formula(rng.randint(3, 9), rng.randint(3, 12), seed)
    else:
        formula = _random_narrow_formula(rng)
    m = formula.num_clauses
    system = SetSystem(m, tuple(tuple(sorted(rng.sample(range(m), rng.randint(0, min(m, 5)))))
                                for _ in range(rng.randint(1, 6))))
    var_budget = rng.choice([2, 4, 8, 24])
    try:
        expected = _reencoded_left_side(formula, system, var_budget)
    except BudgetError as exc:
        with pytest.raises(BudgetError, match=re.escape(str(exc))):
            left_vertices(formula, system, var_budget)
        return
    assert left_vertices(formula, system, var_budget) == expected
    for subset, alphabet in zip(system.sets, expected[1]):
        if not subset:
            assert alphabet == (0,)


def test_left_vertices_edge_cases():
    formula = parse_dimacs("p cnf 2 3\n1 0\n-1 0\n1 2 0\n")
    domains, alphabets = left_vertices(formula, SetSystem(3, ((), (0, 1), (2,))))
    assert domains == ((), (1,), (1, 2))
    assert alphabets == ((0,), (), (1, 2, 3))
    with pytest.raises(BudgetError, match="subset 2"):
        left_vertices(formula, SetSystem(3, ((0,), (1,), (2,))), var_budget=1)
    with pytest.raises(ValueError, match="clause set"):
        left_vertices(formula, SetSystem(2, ((0,),)))


def test_restriction_labeling_rejects_violations():
    formula = parse_dimacs(TINY)
    system = SetSystem(3, ((0,), (1,), (2,)))
    instance = build_main_reduction(formula, system, 2)
    with pytest.raises(ValueError, match="does not satisfy"):
        restriction_labeling(instance, {1: 0, 2: 0, 3: 0})
    left = restriction_labeling(instance, {1: 0, 2: 1, 3: 0})
    _, val = optimal_extension(instance, left)
    assert val == 1


def test_prime_helpers():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(14) == 17
    assert smallest_prime_at_least(10**7) == 10**7 + 19


def test_hadamard_examples():
    assert hadamard_codeword((0,), 2, 1) == (0, 0)
    assert hadamard_codeword((1,), 2, 1) == (0, 1)
    assert hadamard_codeword((2,), 3, 1) == (0, 2, 1)


def test_hadamard_distance():
    """Distinct messages disagree on exactly (1 - 1/q) q^ell positions."""
    for q, ell in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
        words = [hadamard_codeword(m, q, ell)
                 for m in itertools.product(range(q), repeat=ell)]
        expect = (q - 1) * q ** (ell - 1)
        for a, b in itertools.combinations(words, 2):
            assert sum(x != y for x, y in zip(a, b)) == expect


def test_reduce_alphabet_structure_and_completeness():
    formula = parse_dimacs(TINY)
    system = SetSystem(3, ((0,), (1,)))
    instance = build_main_reduction(formula, system, 2)
    reduced = reduce_alphabet(instance, Fraction(1, 2))
    # q = least prime >= t^2/delta = 8, one new vertex per codeword position
    assert reduced.num_right == instance.num_right * 11
    assert all(a == tuple(range(11)) for a in reduced.right_alphabets)
    assert reduced.left_alphabets == instance.left_alphabets
    assert reduced.bi_regular and reduced.right_degree == 2
    _, val = brute_force_val(reduced)
    assert val == 1


def test_reduce_alphabet_big_delta_uses_small_field():
    instance, _ = singleton_reduction(num_clauses=2, seed=4)
    reduced = reduce_alphabet(instance, 2)
    assert all(len(a) == 2 for a in reduced.right_alphabets)


@given(st.integers(0, 2**32 - 1), st.sampled_from([Fraction(1, 2), Fraction(1, 4)]))
@settings(max_examples=10, deadline=None)
def test_reduce_alphabet_wval_grows_at_most_delta(seed, delta):
    instance, _ = singleton_reduction(num_clauses=3, seed=seed)
    _, before = brute_force_wval(instance)
    reduced = reduce_alphabet(instance, delta)
    _, after = brute_force_wval(reduced)
    assert after <= before + delta


def test_reduce_alphabet_rejects_unflagged_instances():
    # right vertex 0 has degree 2, right vertex 1 degree 1
    irregular = LabelCoverInstance(((0, 0), (1, 0), (0, 1)), ((0, 1), (0, 1)),
                                   ((0, 1), (0, 1)), ((0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="bi-regular"):
        reduce_alphabet(irregular, Fraction(1, 2))
    formula = parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n")
    vac = build_main_reduction(formula, SetSystem(3, ((0, 1), (2,))), 2, allow_vacuous=True)
    with pytest.raises(ValueError, match="vacuous"):
        reduce_alphabet(vac, Fraction(1, 2))
    inst, _ = singleton_reduction(num_clauses=2, seed=0)
    with pytest.raises(ValueError, match="positive"):
        reduce_alphabet(inst, 0)


def test_reduce_alphabet_budget_counts_the_output():
    # the charge is exactly the reduced game's right labels plus its
    # projection-table entries, so that budget passes and one less refuses
    for game in _seeded_games():
        if game.vacuous:
            continue
        reduced = reduce_alphabet(game, Fraction(1, 2), budget=10**9)
        size = sum(map(len, reduced.right_alphabets)) + sum(map(len, reduced.tables))
        with pytest.raises(BudgetError) as exc:
            reduce_alphabet(game, Fraction(1, 2), budget=size - 1)
        assert exc.value.required == size


def valueless_games():
    """A vacuous game, a game with no edges and one with no right vertices."""
    vacuous = build_main_reduction(parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n"),
                                   SetSystem(3, ((0, 1), (2,))), 2, allow_vacuous=True)
    no_edges = LabelCoverInstance(edges=(),
                                  left_alphabets=((0, 1),), right_alphabets=((0,),),
                                  projections=())
    no_right = LabelCoverInstance(edges=(),
                                  left_alphabets=((0, 1),), right_alphabets=(),
                                  projections=())
    return vacuous, no_edges, no_right


def test_valueless_games_are_rejected():
    vacuous, no_edges, no_right = valueless_games()
    for oracle in (brute_force_val, brute_force_wval):
        with pytest.raises(ValueError, match="left vertex 0 has an empty alphabet"):
            oracle(vacuous)
    for game in (no_edges, no_right):
        with pytest.raises(ValueError, match="no edges"):
            labeling_value(game, ((0,), (0,) * game.num_right))
        with pytest.raises(ValueError, match="no edges"):
            optimal_extension(game, (0,))
        with pytest.raises(ValueError, match="no edges"):
            brute_force_val(game)
    with pytest.raises(ValueError, match="no right vertices"):
        weak_agreement_value(no_right, (0,))
    with pytest.raises(ValueError, match="no right vertices"):
        brute_force_wval(no_right)
    # right vertices without edges are never weakly agreed on
    assert brute_force_wval(no_edges) == ((0,), 0)


def test_wval_to_val_bound_examples():
    assert wval_to_val_bound(0, 2) == Fraction(1, 2)
    assert wval_to_val_bound(1, 5) == 1
    assert wval_to_val_bound(Fraction(1, 2), 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        wval_to_val_bound(2, 2)
    with pytest.raises(ValueError):
        wval_to_val_bound(Fraction(1, 2), 0)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=20, deadline=None)
def test_full_value_bridge_per_labeling(seed, t):
    """On a right-degree-t instance, a left labeling of weak agreement w
    extends to full value at most w + (1-w)/t."""
    instance, _ = singleton_reduction(t=t, num_clauses=3, seed=seed)
    sizes = [range(len(a)) for a in instance.left_alphabets]
    for left in itertools.product(*sizes):
        w = weak_agreement_value(instance, left)
        _, val = optimal_extension(instance, left)
        assert val <= wval_to_val_bound(w, t)


def test_soundness_params_examples():
    params = soundness_params(Fraction(1, 2), 1, Fraction(1, 2), 2, 10)
    assert params.C_base == Fraction(800) ** 200
    assert params.C_log_arg == 8
    assert math.isclose(float(params.C / params.C_base), math.log(8), rel_tol=1e-12)
    assert params.kappa == Fraction(800) ** -100
    assert params.mu == Fraction(1, 4)
    assert params.beta == Fraction(1, 32)
    assert params.alpha == Fraction(20) ** 4 * params.kappa * Fraction(8, 10)
    assert params.d == Fraction(10, 64)
    assert params.p == params.C / 10 and params.gamma == params.p / 2
    assert params.theory_only
    assert params.overrides == ()


def test_soundness_params_overrides():
    params = soundness_params(Fraction(1, 2), 2, Fraction(1, 2), 2, 10,
                              p_override=Fraction(1, 10))
    assert params.p == Fraction(1, 10)
    assert params.rho == Fraction(18, 25)  # 18 p^2 Delta^2
    assert params.gamma == Fraction(1, 20)
    assert not params.theory_only
    assert params.overrides == ("p",)
    more = soundness_params(Fraction(1, 2), 2, Fraction(1, 2), 2, 10,
                            p_override=Fraction(1, 10),
                            alpha_override=Fraction(1, 16),
                            rho_override=Fraction(1, 3),
                            eta_override=Fraction(1, 100))
    assert more.alpha == Fraction(1, 16) and more.rho == Fraction(1, 3)
    assert more.eta == Fraction(1, 100)
    assert more.overrides == ("p", "alpha", "rho", "eta")


def test_soundness_params_domain_errors():
    with pytest.raises(ValueError):
        soundness_params(0, 1, Fraction(1, 2), 2, 10)
    with pytest.raises(ValueError):
        soundness_params(Fraction(1, 2), 1, 1, 2, 10)
    with pytest.raises(ValueError):
        soundness_params(Fraction(1, 2), 1, Fraction(1, 2), 1, 10)


def test_json_round_trip_restriction_and_tables():
    instance, _ = singleton_reduction(num_clauses=3, seed=6)
    assert from_json(to_json(instance)) == instance
    reduced = reduce_alphabet(instance, 1)
    assert from_json(to_json(reduced)) == reduced
    doc = json.loads(to_json(instance))
    assert doc["format"] == "labelcover" and doc["projection"] == RESTRICTION
    with pytest.raises(ValueError, match="labelcover"):
        from_json("{}")


def test_from_json_names_the_first_bad_key():
    instance, _ = singleton_reduction(num_clauses=3, seed=6)
    doc = json.loads(to_json(instance))
    for key, value in (("projection", "bogus"), ("num_left", True), ("edges", [1]),
                       ("right_degree", "2"), ("left_domains", [[0.5]])):
        with pytest.raises(ValueError, match=f"'{key}'"):
            from_json(json.dumps(dict(doc, **{key: value})))
    del doc["right_domains"]
    with pytest.raises(ValueError, match="'right_domains'"):
        from_json(json.dumps(doc))
    with pytest.raises(ValueError, match="labelcover"):
        from_json("[1]")


def test_instance_validation():
    with pytest.raises(ValueError, match="out of range"):
        LabelCoverInstance(((0, 1),), ((0,),), ((0,),), ((0,),))
    with pytest.raises(ValueError, match="not total"):
        LabelCoverInstance(((0, 0),), ((0, 1),), ((0,),), ((0,),))
    with pytest.raises(ValueError, match="outside the right"):
        LabelCoverInstance(((0, 0),), ((0,),), ((0,),), ((1,),))


def test_counts_regularity_and_vacuity_are_read_off_the_game():
    assert [f.name for f in dataclasses.fields(LabelCoverInstance)] == [
        "edges", "left_alphabets", "right_alphabets", "projections",
        "left_domains", "right_domains"]
    toy = identity_toy()
    assert (toy.num_left, toy.num_right, toy.right_degree) == (2, 1, 2)
    assert toy.bi_regular and not toy.vacuous
    # right degrees 2 and 1; left degrees 2 and 1; a left vertex of degree 0;
    # no edges at all
    for edges, num_left, num_right in ((((0, 0), (1, 0), (2, 1)), 3, 2),
                                       (((0, 0), (0, 1), (1, 2)), 2, 3),
                                       (((0, 0), (1, 0)), 3, 1), ((), 1, 1)):
        game = LabelCoverInstance(edges, ((0,),) * num_left, ((0,),) * num_right,
                                  ((0,),) * len(edges))
        assert game.right_degree is None and not game.bi_regular
    empty_right = LabelCoverInstance((), ((0,),), ((),), ())
    assert empty_right.vacuous and (empty_right.num_left, empty_right.num_right) == (1, 1)


def test_from_json_refuses_recorded_values_the_game_lacks():
    instance, _ = singleton_reduction(num_clauses=3, seed=6)
    doc = json.loads(to_json(instance))
    for key, value in (("num_left", 4), ("num_right", 0), ("bi_regular", False),
                       ("right_degree", 3), ("right_degree", None), ("vacuous", True)):
        with pytest.raises(ValueError, match=f"'{key}' records {json.dumps(value)}"):
            from_json(json.dumps(dict(doc, **{key: value})))


@pytest.mark.parametrize("domains, message", [
    ({}, "restriction projections need vertex domains"),
    ({"left_domains": ((1,), (2,)), "right_domains": ((1,),)}, "one domain per vertex required"),
    ({"left_domains": ((1,),), "right_domains": ((2,),)}, "right domain not inside left domain"),
    ({"left_domains": ((1, 1),), "right_domains": ((1,),)}, "repeats a variable"),
    ({"left_domains": ((1,),), "right_domains": ((1, 1),)}, "repeats a variable"),
    ({"left_domains": ((),), "right_domains": ((),)}, "distinct masks below 2"),
    ({"left_domains": ((1, 2),), "right_domains": ((1, 2),)}, "every mask 0..2"),
])
def test_restriction_validation(domains, message):
    with pytest.raises(ValueError, match=message):
        LabelCoverInstance(((0, 0),), ((0, 1),), ((0, 1),), RESTRICTION, **domains)


def _restrict(instance, edge_index, left_label_index):
    """Reference: a restriction edge's projection of one left label, bit by bit."""
    u, v = instance.edges[edge_index]
    lpos = {var: i for i, var in enumerate(instance.left_domains[u])}
    label = instance.left_alphabets[u][left_label_index]
    out = 0
    for rpos, var in enumerate(instance.right_domains[v]):
        out |= ((label >> lpos[var]) & 1) << rpos
    return out


def _seeded_games():
    for seed in range(12):
        formula, _ = random_planted_formula(4 + seed % 4, 4 + seed % 5, seed)
        system = sample_random_subsets(formula.num_clauses, 3 + seed % 3, Fraction(2, 5), seed)
        yield build_main_reduction(formula, system, 2 + seed % 2, allow_vacuous=True)
    yield build_main_reduction(parse_dimacs("p cnf 6 2\n1 2 3 0\n4 5 6 0\n"),
                               SetSystem(2, ((0,), (1,))), 2)
    yield build_main_reduction(parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n"),
                               SetSystem(3, ((0, 1), (2,))), 2, allow_vacuous=True)


def _golden_games():
    """The seeded games, a vacuous t = 3 game, and the alphabet reductions
    of the first six."""
    games = list(_seeded_games())
    games.append(build_main_reduction(parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n"),
                                      SetSystem(3, ((0, 1), (2,), (1, 2))), 3,
                                      allow_vacuous=True))
    return games + [reduce_alphabet(game, Fraction(1, 2)) for game in games[:6]]


# SHA-256 of to_json and of `gapforge info` stdout, per game of _golden_games;
# a change here is a change of the interchange format
GOLDEN = (
    ("d315d5a453491d9b5caa3bc5794d192e4f5222031f30d942fd807c252f82c59a",
     "821fd6dde82eae181457f70ee3e561859f949f4a17b8639537fd1e3923ad951e"),
    ("bd12200aab89b7c58ba53fdbbe301a402b8f0c4af83c9564eb9c3d0d831474e2",
     "264fe428c5304882a1d48aa04fb6f9739142ef9051a2742580e943144abbb90d"),
    ("19f34d27c74acae0b91f8d355754e4603b5c2fb23e7e77341d030272c0c94475",
     "65e1334ce4df88a5e6ed44e965c20e1ce8dbdf9e2b265ce6693295aaaa4ee5ab"),
    ("e7b10f62060c1e1ffc591550c1f924328ebf31d738212de2062f39cdd150151b",
     "cfea26f91b90158d24ad2a71c0a82764502516a7e1bc88337a9e94b08c02bb71"),
    ("2fd2a2e318b9d6268c10837d14a2baa131abdfe9ab08db574b203e055f8af202",
     "b7049727c4d70e8e1f6d49287f27b93cc909bd0012e412ad74f202de15d91093"),
    ("66536398a744e0d06bfb6adf2d81763b40bfb015397bc03b8de0f6930323a728",
     "4a560def807a33ae5c95bfbd518f5c97df9b9dc95d76fef7128a23946bbd863e"),
    ("7fb348a442e517110a6b376a7b8b759cdfc65b34b001e956163004c2d4b43c54",
     "821fd6dde82eae181457f70ee3e561859f949f4a17b8639537fd1e3923ad951e"),
    ("bee666da23eceb1bcd58de79ad353c1f5311a87f617b4cdc03585a7115debacf",
     "264fe428c5304882a1d48aa04fb6f9739142ef9051a2742580e943144abbb90d"),
    ("ee71f9287b1627f2a9ed0f8b417e157c0b4c259f076afe7886fd22aed91e613a",
     "65e1334ce4df88a5e6ed44e965c20e1ce8dbdf9e2b265ce6693295aaaa4ee5ab"),
    ("3e708de032536dd56c65c8985cba3becd7ef34ccd2453322d67ee7868cd7af90",
     "cfea26f91b90158d24ad2a71c0a82764502516a7e1bc88337a9e94b08c02bb71"),
    ("2a49bf15174d4a6b950485a17838e44db1007ba747169c578c39be80543fcb0d",
     "b7049727c4d70e8e1f6d49287f27b93cc909bd0012e412ad74f202de15d91093"),
    ("534c20e2f6e54361a32c0ebef3227782d1039847352f15a00e1364beda23df09",
     "4a560def807a33ae5c95bfbd518f5c97df9b9dc95d76fef7128a23946bbd863e"),
    ("2cbad5075810e4e133851a32a56d160348ebb71f17fb147b707f9827cd6ca032",
     "fb2b4091fb57b5cbe1669328baec3f5c7a7d0f66d5a4c5a7bfae49736b188c7e"),
    ("b31e5178e1645c175974e375fe9ae57c3d41547d33568dcc334fc064652ccc80",
     "40ac9957ef35f854b751e2df8a36db8f2aa091c75f6ac63127796402c3a82926"),
    ("990bab61d1494487ca34247962061095923aa220de34e11dc3d886f4ddff48d4",
     "bd4a10fc2344232dd2bbd97993ccdd4e04384271d6fb247ca047f25ff331a46e"),
    ("b31babfd3a0ce7bf1da3a0807187a55838b1d3cd2e82fb9e179801e66eb4e5cb",
     "65c4d58c38393f1a43a2247f22ac69b7100d3b90315cd232043cd192a9e6eb41"),
    ("338787a47fc16e1ce386fe092b8b7d9008d72d0a296cd8e4aae26a8c07c351eb",
     "88aff7204d2a9e4b9c0c66bf0eadd997516cc9bcd9af27ab719a1c2d0b5581fa"),
    ("1bb13dc1dc42e0fb49cbb0d57c81738ace1e8de2db9dcef39103685ed1b98e01",
     "2b51769e06e883352c831144aca414f227b4c94a786c7a60733105ad55996db8"),
    ("61c0466a23b2bccf69b55b4de488ccc61a8efc69f8491388168080ba4e57d411",
     "10a69e90eade4ce9e69139a8a9cc90fd14c123272a23bc3f9758f399a9f656f5"),
    ("3e8db76ec1757d7a2b9d22301bc32dd23777bc38f83671326eb14e66587985b0",
     "e89f6ce7173e42c8d1de6df54e62bfdc0da67c8c9a6f1062887e46547db1f1b2"),
    ("59f137b88d73a1053db3ab2d93caf82a619fbf5014dd3ba7bd01ef77d05accdd",
     "1a1790dc1692234d9e085f98a2aadfe904b5635e682de6627593f40f891e90fe"),
)


def test_built_games_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    seen = []
    for game in _golden_games():
        text = to_json(game)
        (tmp_path / "game.json").write_text(text)
        assert main(["info", "-i", "game.json"]) == 0
        seen.append((_sha256(text), _sha256(capsys.readouterr().out)))
    assert tuple(seen) == GOLDEN


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_tables_match_the_bit_restriction():
    for game in _seeded_games():
        assert len(game.tables) == game.num_edges
        for e, (u, _) in enumerate(game.edges):
            assert game.tables[e] == tuple(
                _restrict(game, e, li) for li in range(len(game.left_alphabets[u])))
        for v, pairs in enumerate(game.incidence):
            assert pairs == tuple((e, u) for e, (u, w) in enumerate(game.edges) if w == v)
        if not game.vacuous:
            reduced = reduce_alphabet(game, Fraction(1, 2))
            assert reduced.tables is reduced.projections
            assert from_json(to_json(reduced)).tables == reduced.tables


def test_derived_tables_are_not_fields():
    game, _ = singleton_reduction(num_clauses=3, seed=6)
    fresh, _ = singleton_reduction(num_clauses=3, seed=6)
    names = [f.name for f in dataclasses.fields(game)]
    text = to_json(game)
    assert game.tables and game.incidence
    assert [f.name for f in dataclasses.fields(game)] == names
    assert "tables" not in names and "incidence" not in names
    assert game == fresh and hash(game) == hash(fresh)
    assert to_json(game) == text == to_json(fresh)
