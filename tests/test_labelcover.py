"""Projection games: values, the clause-subset reduction, alphabet shrinking."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (BudgetError, LabelCoverInstance, SetSystem,
                      UnsatisfiableSubsetError, brute_force_val,
                      brute_force_wval, build_main_reduction, from_json,
                      hadamard_codeword, labeling_value, optimal_extension,
                      parse_dimacs, project_index, random_planted_formula,
                      reduce_alphabet, restriction_labeling,
                      sample_random_subsets, smallest_prime_at_least,
                      soundness_params, to_json, weak_agreement_value,
                      wval_to_val_bound)
from gapforge.labelcover import RESTRICTION, edge_projection_table, is_prime

TINY = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"


def identity_toy():
    return LabelCoverInstance(
        num_left=2, num_right=1,
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
        num_left=1, num_right=1, edges=((0, 0),),
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
        num_left=num_left, num_right=num_right, edges=tuple(edges),
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
        num_left=2, num_right=1, edges=((0, 0), (1, 0)),
        left_alphabets=((0, 1), (0, 1)), right_alphabets=((0, 1),),
        projections=((1, 1), (1, 1)),
    )
    for left in itertools.product(range(2), repeat=2):
        assert weak_agreement_value(constant, left) == 1

    degree_one = LabelCoverInstance(
        num_left=1, num_right=1, edges=((0, 0),),
        left_alphabets=((0, 1),), right_alphabets=((0, 1),),
        projections=((0, 1),),
    )
    assert weak_agreement_value(degree_one, (0,)) == 0


def _wval_recount(instance, left):
    inc = {}
    for e, (u, v) in enumerate(instance.edges):
        inc.setdefault(v, []).append((e, u))
    agreed = 0
    for v in range(instance.num_right):
        vals = [project_index(instance, e, left[u]) for e, u in inc.get(v, [])]
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
        num_left=2, num_right=1, edges=((0, 0), (1, 0)),
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
        num_left=2, num_right=1, edges=((0, 0), (1, 0)),
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
    assert edge_projection_table(instance, 0) == (1, 0, 1)
    assert edge_projection_table(instance, 1) == (0, 0, 1)


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
    with pytest.raises(BudgetError):
        smallest_prime_at_least(10**7, prime_budget=10**6)


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
    with pytest.raises(ValueError, match="bi-regular"):
        reduce_alphabet(identity_toy(), Fraction(1, 2))
    formula = parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n")
    vac = build_main_reduction(formula, SetSystem(3, ((0, 1), (2,))), 2, allow_vacuous=True)
    with pytest.raises(ValueError, match="vacuous"):
        reduce_alphabet(vac, Fraction(1, 2))
    inst, _ = singleton_reduction(num_clauses=2, seed=0)
    with pytest.raises(ValueError, match="positive"):
        reduce_alphabet(inst, 0)


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
    with pytest.raises(ValueError, match="alphabet per left"):
        LabelCoverInstance(2, 1, ((0, 0),), ((0,),), ((0,),), ((0,),))
    with pytest.raises(ValueError, match="empty alphabet"):
        LabelCoverInstance(1, 1, ((0, 0),), ((),), ((0,),), ((0,),))
    with pytest.raises(ValueError, match="out of range"):
        LabelCoverInstance(1, 1, ((0, 1),), ((0,),), ((0,),), ((0,),))
    with pytest.raises(ValueError, match="not total"):
        LabelCoverInstance(1, 1, ((0, 0),), ((0, 1),), ((0,),), ((0,),))
    with pytest.raises(ValueError, match="outside the right"):
        LabelCoverInstance(1, 1, ((0, 0),), ((0,),), ((0,),), ((1,),))
    with pytest.raises(ValueError, match="degrees vary"):
        LabelCoverInstance(
            2, 2, ((0, 0), (0, 1), (1, 1)),
            ((0,), (0,)), ((0,), (0,)),
            ((0,), (0,), (0,)), bi_regular=True,
        )
    with pytest.raises(ValueError, match="right degree"):
        LabelCoverInstance(
            2, 1, ((0, 0), (1, 0)),
            ((0,), (0,)), ((0,),),
            ((0,), (0,)), bi_regular=True, right_degree=3,
        )
