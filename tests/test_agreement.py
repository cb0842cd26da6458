"""Agreement testing: disagr, consistency graphs, majority decoding, the
assignment decoder."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (BudgetError, CnfFormula, ConsistencyOverlapError,
                      FunctionCollection, RedBlueGraph, SetSystem,
                      agreement_decode, build_two_level_graph,
                      check_rb_transitive, clause_value, decode_assignment,
                      disagr, find_non_red_subgraph,
                      majority_decode, max_occurrence, pair_consistency,
                      pairwise_intersection_max, random_planted_formula,
                      sample_random_subsets, soundness_params, t_wagr,
                      vars_of)
import gapforge.agreement
from gapforge.agreement import _SubcollectionHits
from gapforge.labelcover import (LabelCoverInstance, UnsatisfiableSubsetError,
                                 build_main_reduction, left_vertices,
                                 restriction_labeling, weak_agreement_value)

local_functions = st.dictionaries(st.integers(0, 11), st.integers(0, 1), max_size=8)


def collection_from_seed(seed, n=12, k=6, p=Fraction(1, 2), noise=0.3):
    rng = random.Random(seed)
    system = sample_random_subsets(n, k, p, rng.randrange(2**32))
    base = [rng.randrange(2) for _ in range(n)]
    values = tuple(
        tuple(base[e] ^ (1 if rng.random() < noise else 0) for e in s)
        for s in system.sets
    )
    return FunctionCollection(system, values)


def test_disagr_examples():
    system = SetSystem(6, ((0, 2, 5), (0, 2, 5), (1, 3), (1, 2, 3), (2, 3, 4)))
    fc = FunctionCollection(system, ((1, 0, 1), (1, 0, 1), (0, 0), (0, 1, 0), (1, 1, 0)))
    assert disagr(fc, 0, 0) == 0 and disagr(fc, 0, 1) == 0
    assert disagr(fc, 0, 2) == 0  # disjoint sets
    assert disagr(fc, 3, 4) == 1 and disagr(fc, 4, 3) == 1
    assert fc.disagreement(3, 4) == 1 << 3


@given(local_functions, local_functions, local_functions)
@settings(max_examples=80, deadline=None)
def test_disagr_triangle_on_triple_intersection(f1, f2, f3):
    # three functions restricted to the triple intersection, one set each
    triple = tuple(sorted(set(f1) & set(f2) & set(f3)))
    fc = FunctionCollection(SetSystem(12, (triple,) * 3),
                            tuple(tuple(f[e] for e in triple) for f in (f1, f2, f3)))
    assert disagr(fc, 0, 2) <= disagr(fc, 0, 1) + disagr(fc, 1, 2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_disagr_matches_recount(seed):
    fc = collection_from_seed(seed, k=5)
    on = [dict(zip(s, vals)) for s, vals in zip(fc.system.sets, fc.values)]
    for i, j in itertools.product(range(fc.k), repeat=2):
        assert disagr(fc, i, j) == sum(on[i][e] != on[j][e] for e in on[i] if e in on[j])


def test_function_collection_validation():
    system = SetSystem(4, ((0, 1), (2,)))
    with pytest.raises(ValueError, match="one function per set"):
        FunctionCollection(system, ((0, 1),))
    with pytest.raises(ValueError, match="length"):
        FunctionCollection(system, ((0,), (1,)))
    with pytest.raises(ValueError, match="cover the universe"):
        FunctionCollection.from_global(system, (0, 1))
    fc = FunctionCollection.from_global(system, (1, 0, 1, 0))
    assert fc.values == ((1, 0), (1,))


def test_t_wagr_restrictions_give_one():
    system = sample_random_subsets(10, 5, Fraction(1, 2), seed=3)
    fc = FunctionCollection.from_global(system, tuple(e % 2 for e in range(10)))
    for t in (2, 3, 5):
        assert t_wagr(fc, t) == 1


def test_t_wagr_two_function_disagreement():
    system = SetSystem(3, ((0, 1), (1, 2)))
    fc = FunctionCollection(system, ((0, 1), (0, 0)))  # differ at element 1
    assert t_wagr(fc, 2) == 0


def _wagr_recount(fc, t):
    on = [dict(zip(s, vals)) for s, vals in zip(fc.system.sets, fc.values)]
    hits = 0
    combos = list(itertools.combinations(range(fc.k), t))
    for combo in combos:
        inter = set(fc.system.sets[combo[0]])
        for i in combo[1:]:
            inter &= set(fc.system.sets[i])
        if any(all(on[i][e] == on[j][e] for e in inter)
               for i, j in itertools.combinations(combo, 2)):
            hits += 1
    return Fraction(hits, len(combos))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_t_wagr_matches_recount(seed):
    fc = collection_from_seed(seed, k=4)
    assert t_wagr(fc, 2) == _wagr_recount(fc, 2)


def test_t_wagr_errors():
    system = sample_random_subsets(8, 4, Fraction(1, 2), seed=1)
    fc = FunctionCollection.from_global(system, (0,) * 8)
    with pytest.raises(ValueError, match="2 <= t <= k"):
        t_wagr(fc, 5)


def test_t_wagr_non_decreasing_on_shared_core_collections():
    """With all pairwise intersections equal to the common core, adding sets
    to the sample only adds chances for an agreeing pair."""
    # sets share exactly element 0; values at the core differ
    system = SetSystem(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    fc = FunctionCollection(system, ((1, 0), (1, 1), (0, 0), (0, 1)))
    values = [t_wagr(fc, t) for t in (2, 3, 4)]
    assert values == sorted(values)
    assert values[0] == Fraction(2, 6)


def test_pair_consistency_conventions():
    fc = collection_from_seed(0, k=5)
    assert pair_consistency(fc, 0, 1, 0) == 1
    system = SetSystem(4, ((0, 1), (0, 1), (2, 3), (3,), (1, 2)))
    agreeing = FunctionCollection(
        system, ((1, 0), (1, 0), (0, 0), (1,), (0, 0)))
    for ell in (1, 2, 3):
        assert pair_consistency(agreeing, 0, 1, ell) == 1
    with pytest.raises(ValueError, match="distinct"):
        pair_consistency(fc, 2, 2, 1)
    with pytest.raises(ValueError, match="k - 2"):
        pair_consistency(fc, 0, 1, 4)


def test_pair_consistency_recount_k5():
    system = SetSystem(4, ((0, 1), (0, 1, 2), (0,), (1,), (2, 3)))
    fc = FunctionCollection(system, ((1, 0), (1, 1, 0), (1,), (1,), (0, 1)))
    # f0, f1 share {0,1}: agree at 0, differ at 1; singletons S' = {2}, {3}, {4}
    # S'={2}: domain cut {0} -> agree; S'={3}: cut {1} -> differ; S'={4}: cut {} -> agree
    assert pair_consistency(fc, 0, 1, 1) == Fraction(2, 3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pair_consistency_non_decreasing_in_ell(seed):
    fc = collection_from_seed(seed, k=6)
    for i, j in ((0, 1), (2, 5)):
        values = [pair_consistency(fc, i, j, ell) for ell in (1, 2, 3)]
        assert values == sorted(values)


def test_two_level_graph_all_equal():
    system = sample_random_subsets(10, 6, Fraction(1, 2), seed=9)
    fc = FunctionCollection.from_global(system, tuple(e % 2 for e in range(10)))
    graph = build_two_level_graph(fc, Fraction(1, 10), Fraction(1, 2), 3)
    assert len(graph.blue) == 15 and len(graph.red) == 0


def test_two_level_graph_all_disagreeing():
    # full-domain functions, pairwise distinct: every subcollection keeps a
    # disagreement point, so no pair is blue and every pair is red
    n, k = 3, 5
    system = SetSystem(n, (tuple(range(n)),) * k)
    values = tuple((i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(k))
    fc = FunctionCollection(system, values)
    graph = build_two_level_graph(fc, Fraction(1, 10), Fraction(1, 2), 3)
    assert len(graph.red) == 10 and len(graph.blue) == 0


def test_two_level_graph_overlap_at_t2():
    system = SetSystem(2, ((0, 1), (0, 1), (0, 1)))
    fc = FunctionCollection(system, ((0, 0), (1, 1), (0, 1)))
    with pytest.raises(ConsistencyOverlapError) as exc:
        build_two_level_graph(fc, Fraction(1, 2), Fraction(1, 2), 2)
    assert exc.value.pair == (0, 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_two_level_graph_matches_reconstruction(seed):
    fc = collection_from_seed(seed, k=6)
    alpha, beta = Fraction(1, 4), Fraction(1, 2)
    graph = build_two_level_graph(fc, alpha, beta, 3)
    blue = set()
    red = set()
    for i, j in itertools.combinations(range(6), 2):
        if pair_consistency(fc, i, j, 1) >= beta:
            blue.add((i, j))
        if pair_consistency(fc, i, j, 3) < alpha:
            red.add((i, j))
    assert graph.blue == blue and graph.red == red
    assert not graph.estimated


def _enumerated_pair_consistency(collection, i, j, ell):
    """The enumerating exact pair consistency that the shared counter
    replaced: every ell-subset of the other sets, one at a time."""
    if ell == 0:
        return Fraction(1)
    others = [x for x in range(collection.k) if x != i and x != j]
    base = collection.domain_masks[i] & collection.domain_masks[j]
    diff = (collection.ones_masks[i] ^ collection.ones_masks[j]) & base
    hits = 0
    for combo in itertools.combinations(others, ell):
        m = diff
        for x in combo:
            m &= collection.domain_masks[x]
        if m == 0:
            hits += 1
    return Fraction(hits, math.comb(len(others), ell))


def _enumerated_two_level_graph(collection, alpha, beta, t):
    """The exact two-level graph built from per-pair Fractions, as before the
    shared counter: (blue, red) or the first overlapping pair and its values."""
    blue, red = set(), set()
    for i, j in itertools.combinations(range(collection.k), 2):
        bval = _enumerated_pair_consistency(collection, i, j, t - 2)
        rval = _enumerated_pair_consistency(collection, i, j, 2 * t - 3)
        if bval >= beta and rval < alpha:
            return "overlap", (i, j), bval, rval
        if bval >= beta:
            blue.add((i, j))
        if rval < alpha:
            red.add((i, j))
    return RedBlueGraph(collection.k, frozenset(blue), frozenset(red))


def _counts_by_enumeration(collection, diff, ell):
    """True where the shared counter enumerates instead of counting."""
    d = bin(diff).count("1")
    return ell >= 2 and d * 2**d > math.comb(collection.k - 2, ell)


@st.composite
def small_collections(draw):
    """Random collections where some pairs agree (empty diff) and others
    differ on many points (large diff)."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(3, 8))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=k, max_size=k))
    base = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    values = []
    for s in sets:
        if draw(st.booleans()):
            values.append(tuple(base[e] for e in sorted(s)))
        else:
            values.append(tuple(draw(st.lists(st.integers(0, 1),
                                              min_size=len(s), max_size=len(s)))))
    return FunctionCollection(SetSystem(n, tuple(tuple(sorted(s)) for s in sets)),
                              tuple(values))


fractions_01 = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)).filter(lambda f: f <= 1)


@given(small_collections(), fractions_01, fractions_01)
@settings(max_examples=300, deadline=None)
def test_counted_consistency_matches_enumeration(fc, a, b):
    for i, j in itertools.combinations(range(fc.k), 2):
        for ell in range(fc.k - 1):
            assert pair_consistency(fc, i, j, ell) == _enumerated_pair_consistency(fc, i, j, ell)
    alpha, beta = min(a, b), max(a, b)
    for t in (2, 3, 4):
        if fc.k < 2 * t - 1:
            continue
        expected = _enumerated_two_level_graph(fc, alpha, beta, t)
        if isinstance(expected, RedBlueGraph):
            assert build_two_level_graph(fc, alpha, beta, t) == expected
        else:
            with pytest.raises(ConsistencyOverlapError) as exc:
                build_two_level_graph(fc, alpha, beta, t)
            assert ("overlap", exc.value.pair, exc.value.blue_consistency,
                    exc.value.red_consistency) == expected


def _seeded_small_collection(seed):
    """A collection shaped like small_collections(), from a seed."""
    rng = random.Random(seed)
    n, k = rng.randint(1, 9), rng.randint(3, 8)
    sets = tuple(tuple(e for e in range(n) if rng.random() < 0.6) for _ in range(k))
    base = [rng.randrange(2) for _ in range(n)]
    agree = [rng.random() < 0.5 for _ in range(k)]
    values = tuple(tuple(base[e] if agree[x] else rng.randrange(2) for e in s)
                   for x, s in enumerate(sets))
    return FunctionCollection(SetSystem(n, sets), values)


def test_counted_consistency_corpus_takes_every_path():
    # empty diffs, the ell = 1 closed form, inclusion-exclusion counts and
    # the enumeration fallback all occur on a seeded corpus
    paths = set()
    for seed in range(60):
        fc = _seeded_small_collection(seed)
        for i, j in itertools.combinations(range(fc.k), 2):
            diff = ((fc.ones_masks[i] ^ fc.ones_masks[j])
                    & fc.domain_masks[i] & fc.domain_masks[j])
            for ell in range(1, fc.k - 1):
                assert pair_consistency(fc, i, j, ell) == _enumerated_pair_consistency(fc, i, j, ell)
                paths.add("empty" if diff == 0 else
                          "enumerated" if _counts_by_enumeration(fc, diff, ell) else
                          "closed" if ell == 1 else "counted")
    assert paths == {"empty", "closed", "counted", "enumerated"}


def test_shared_counter_reuses_a_diff_across_pairs():
    # pairs (0, 1) and (2, 3) differ exactly at point 0; their "other" sets
    # differ, yet each pair's count is the same cached number
    system = SetSystem(4, ((0, 1, 2), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2),
                           (1, 2), (0, 3), (0, 1), (2,)))
    values = ((0, 0, 0), (1, 0, 0), (1, 1, 1, 0), (0, 1, 1),
              (0, 0), (0, 0), (0, 0), (0,))
    fc = FunctionCollection(system, values)
    counter = _SubcollectionHits(fc)
    for ell in range(1, 7):
        first = counter.hits(0b1, ell)
        cached = len(counter._cache)
        for i, j in ((0, 1), (2, 3)):
            assert Fraction(counter.hits(0b1, ell), math.comb(6, ell)) \
                == _enumerated_pair_consistency(fc, i, j, ell)
        assert counter.hits(0b1, ell) == first and len(counter._cache) == cached


def test_two_level_graph_argument_errors():
    fc = collection_from_seed(1, k=6)
    with pytest.raises(ValueError, match="alpha <= beta"):
        build_two_level_graph(fc, Fraction(1, 2), Fraction(1, 4), 3)
    with pytest.raises(ValueError, match="k >= 2t - 1"):
        build_two_level_graph(fc, Fraction(1, 4), Fraction(1, 2), 4)


def test_red_blue_graph_validation():
    with pytest.raises(ValueError, match="sorted in-range"):
        RedBlueGraph(3, frozenset({(1, 0)}), frozenset())
    with pytest.raises(ValueError, match="disjoint"):
        RedBlueGraph(3, frozenset({(0, 1)}), frozenset({(0, 1)}))


def test_check_rb_transitive():
    empty_red = RedBlueGraph(4, frozenset({(0, 1), (1, 2)}), frozenset())
    assert check_rb_transitive(empty_red, 0) == (True, None)

    blue = frozenset({(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)})
    graph = RedBlueGraph(5, blue, frozenset({(0, 1)}))
    ok, witness = check_rb_transitive(graph, 3)
    assert not ok and witness == (0, 1, 3)
    assert check_rb_transitive(graph, 4) == (True, None)


def test_find_non_red_subgraph():
    red_free = RedBlueGraph(5, frozenset({(0, 1)}), frozenset())
    subset, density = find_non_red_subgraph(red_free, 3)
    assert subset == (0, 1, 2) and density == 1

    complete_red = RedBlueGraph(3, frozenset(),
                                frozenset({(0, 1), (0, 2), (1, 2)}))
    _, density = find_non_red_subgraph(complete_red, 2)
    assert density == Fraction(1, 2)  # diagonal pairs are never red

    greedy_subset, greedy_density = find_non_red_subgraph(complete_red, 2, budget=2)
    assert greedy_density == Fraction(1, 2) and greedy_subset == (0, 1)

    with pytest.raises(ValueError, match="1 <= d"):
        find_non_red_subgraph(red_free, 6)


def test_find_non_red_subgraph_ignores_the_budget_variable(monkeypatch):
    # C(4, 2) = 6 subsets; a library call reads only its budget argument
    monkeypatch.setenv("GAPFORGE_BUDGET", "5")
    red_path = RedBlueGraph(4, frozenset(), frozenset({(0, 1), (1, 2), (2, 3)}))
    assert find_non_red_subgraph(red_path, 2) == ((0, 2), Fraction(1))
    assert find_non_red_subgraph(red_path, 2, budget=5) == ((0, 3), Fraction(1))


def test_find_non_red_subgraph_exact_beats_greedy():
    # red star at vertex 0: greedy and exact must both avoid it
    red = frozenset({(0, v) for v in range(1, 5)})
    graph = RedBlueGraph(5, frozenset(), red)
    exact_subset, exact_density = find_non_red_subgraph(graph, 3)
    greedy_subset, greedy_density = find_non_red_subgraph(graph, 3, budget=9)
    assert exact_density == 1 and exact_subset == (1, 2, 3)
    assert greedy_density <= exact_density


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_non_red_subgraph_meets_density_bound(seed):
    """On an h-transitive graph with enough blue edges, some d-subset has
    non-red density at least 1 - h*k/d^2."""
    rng = random.Random(seed)
    k, d = 8, 3
    pairs = list(itertools.combinations(range(k), 2))
    blue, red = set(), set()
    for pair in pairs:
        roll = rng.random()
        if roll < 0.55:
            blue.add(pair)
        elif roll < 0.7:
            red.add(pair)
    graph = RedBlueGraph(k, frozenset(blue), frozenset(red))
    adj = [set() for _ in range(k)]
    for u, v in blue:
        adj[u].add(v)
        adj[v].add(u)
    h = max((len(adj[u] & adj[v]) for u, v in red), default=0) + 1
    if len(blue) < 2 * k * d:
        return
    _, density = find_non_red_subgraph(graph, d)
    assert density >= 1 - Fraction(h * k, d * d)


def test_majority_decode_hand_example():
    system = SetSystem(4, ((0, 1), (1, 2), (1, 3)))
    fc = FunctionCollection(system, ((1, 1), (0, 1), (1, 0)))
    g, stats = majority_decode(fc, (0, 1, 2))
    assert g == (1, 1, 1, 0)
    assert stats.mean_disagr == Fraction(1, 3)
    assert stats.kappa == Fraction(4, 9)
    assert stats.pair_mean_disagr == Fraction(4, 9)
    assert stats.bound_holds and stats.power_mean_holds

    _, high_zeta = majority_decode(fc, (0, 1, 2), zeta=Fraction(1, 2))
    assert high_zeta.kappa == 0


def test_majority_decode_restrictions_and_single():
    system = sample_random_subsets(9, 4, Fraction(1, 2), seed=8)
    bits = tuple((e + 1) % 2 for e in range(9))
    fc = FunctionCollection.from_global(system, bits)
    g, stats = majority_decode(fc, range(4))
    covered = sorted(set().union(*map(set, system.sets)))
    assert all(g[e] == bits[e] for e in covered)
    assert stats.mean_disagr == 0

    single = majority_decode(fc, (2,))
    g1, stats1 = single
    assert stats1.mean_disagr == 0
    assert all(g1[e] == 0 for e in range(9) if e not in system.sets[2])


def test_majority_decode_errors():
    fc = collection_from_seed(2, k=4)
    with pytest.raises(ValueError, match="nonempty"):
        majority_decode(fc, ())
    with pytest.raises(ValueError, match="distinct"):
        majority_decode(fc, (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        majority_decode(fc, (0, 9))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_majority_bound_and_power_mean(seed):
    """The mean-disagreement bound and the power-mean step hold for measured
    rho at every tested threshold."""
    fc = collection_from_seed(seed, n=30, k=6, p=Fraction(2, 5))
    rho = Fraction(pairwise_intersection_max(fc.system), fc.n)
    for j in range(0, 10, 3):
        _, stats = majority_decode(fc, range(fc.k), zeta=Fraction(j, 10), rho=rho)
        assert stats.bound_holds
        assert stats.power_mean_holds


def _perfect_params(k, rho):
    return soundness_params(
        Fraction(1, 2), 1, Fraction(1, 2), 2, k,
        p_override=Fraction(1, 10),
        alpha_override=Fraction(1, 16),
        rho_override=rho,
        eta_override=Fraction(1, 100),
    )


def test_agreement_decode_argument_errors():
    system = sample_random_subsets(8, 5, Fraction(1, 2), seed=4)
    agree = FunctionCollection.from_global(system, (0,) * 8)
    params = _perfect_params(5, Fraction(1, 2))
    with pytest.raises(ValueError, match="k >= 10t/alpha"):
        agreement_decode(agree, 2, params)

    disagreeing = FunctionCollection(SetSystem(3, ((0, 1), (1, 2))), ((0, 1), (0, 0)))
    with pytest.raises(ValueError, match="zero weak agreement"):
        agreement_decode(disagreeing, 2, params)

    zero_alpha = soundness_params(Fraction(1, 2), 1, Fraction(1, 2), 2, 2)
    with pytest.raises(ValueError, match="alpha must be positive"):
        agreement_decode(agree, 2, zero_alpha)

    big_system = sample_random_subsets(8, 80, Fraction(1, 2), seed=4)
    big_agree = FunctionCollection.from_global(big_system, (0,) * 8)
    wide = soundness_params(Fraction(1, 2), 1, Fraction(1, 2), 2, 80,
                            alpha_override=Fraction(1, 4))
    with pytest.raises(ValueError, match="exceeds beta"):
        agreement_decode(big_agree, 2, wide)


def _zero_satisfiable_formula(n, m, seed):
    f, planted = random_planted_formula(n, m, seed)
    clauses = tuple(
        tuple(-lit if planted[abs(lit)] else lit for lit in cl) for cl in f.clauses
    )
    return CnfFormula(n, clauses)


def test_decode_assignment_end_to_end():
    """Full pipeline at the smallest scale the stage preconditions allow
    (alpha <= delta/(4 t^2) and k >= 10t/alpha force k = 320 at t = 2)."""
    formula = _zero_satisfiable_formula(10, 12, seed=13)
    zeros = {v: 0 for v in range(1, 11)}
    assert clause_value(formula, zeros) == 1
    system = sample_random_subsets(12, 320, Fraction(1, 4), seed=13)
    instance = build_main_reduction(formula, system, 2)
    sigma = restriction_labeling(instance, zeros)

    var_sets = tuple(
        tuple(sorted(v - 1 for v in vars_of(formula, s))) for s in system.sets
    )
    rho = Fraction(pairwise_intersection_max(SetSystem(10, var_sets)), 10)
    params = _perfect_params(320, rho)

    psi, report = decode_assignment(formula, system, sigma, params)
    assert psi == zeros
    assert report.nu == 0
    assert report.clause_fraction == 1
    assert report.bound == 1 - params.mu
    assert report.holds
    assert report.subcollection_uniform

    agr = report.agreement
    assert agr.wagr == 1 and agr.delta == 1
    assert len(agr.subset) == 10  # ceil(delta k / (8 t^2))
    assert agr.blue_ok and agr.rb_transitive
    assert agr.density_ok and agr.final_ok
    assert agr.non_red_density == 1
    assert not agr.graph_estimated
    assert agr.subgraph_mode == "greedy"
    assert agr.overrides == ("p", "alpha", "rho", "eta")


def test_decode_assignment_builds_no_game(monkeypatch):
    """The decoder reads only the game's left side, so at k = 320 it
    constructs none of the C(320, 2) right vertices' game."""
    formula = _zero_satisfiable_formula(10, 12, seed=13)
    system = sample_random_subsets(12, 320, Fraction(1, 4), seed=13)
    zeros = {v: 0 for v in range(1, 11)}
    sigma = restriction_labeling(build_main_reduction(formula, system, 2), zeros)
    built = []
    post_init = LabelCoverInstance.__post_init__

    def counted(self):
        built.append(self.num_left)
        post_init(self)

    monkeypatch.setattr(LabelCoverInstance, "__post_init__", counted)
    psi, report = decode_assignment(formula, system, sigma, _perfect_params(320, Fraction(1)))
    assert built == []
    assert psi == zeros and report.agreement.wagr == 1


def test_decode_assignment_label_errors():
    formula = CnfFormula(3, ((1, 2), (-1, 3), (-2, -3)))
    system = SetSystem(3, ((0,), (1,), (2,)))
    params = _perfect_params(3, Fraction(1, 2))
    with pytest.raises(ValueError, match="cover every left vertex"):
        decode_assignment(formula, system, (0, 0), params)
    with pytest.raises(ValueError, match="label index 3 out of range at vertex 1"):
        decode_assignment(formula, system, (0, 3, 0), params)
    unsat = CnfFormula(1, ((1,), (-1,)))
    with pytest.raises(UnsatisfiableSubsetError) as exc:
        decode_assignment(unsat, SetSystem(2, ((0,), (0, 1))), (0, 0), params)
    assert exc.value.index == 1


def test_decode_assignment_rejects_zero_agreement():
    formula = CnfFormula(3, ((1, 2), (-1, 3), (-2, -3)))
    system = SetSystem(3, ((0,), (1,), (2,)))
    instance = build_main_reduction(formula, system, 2)
    labels = []
    # local assignments disagreeing on every shared variable
    for u, mask in ((0, 0b11), (1, 0b00), (2, 0b10)):
        labels.append(instance.left_alphabets[u].index(mask))
    params = _perfect_params(3, Fraction(1, 2))
    with pytest.raises(ValueError, match="zero weak agreement"):
        decode_assignment(formula, system, tuple(labels), params)


@pytest.mark.parametrize("t", [2, 3])
def test_game_and_collection_weak_agreement_agree(t):
    """The game's weak agreement of a left labeling equals t_wagr of the
    function collection decode_assignment reads from it: the sets are the
    0-based left domains and bit i of the chosen label is the value at
    domain[i]. The decoder's measured delta rests on this."""
    rng = random.Random(t)
    for seed in range(20):
        formula, _ = random_planted_formula(rng.randrange(4, 7), rng.randrange(3, 7), seed)
        system = sample_random_subsets(formula.num_clauses, rng.randrange(t + 1, 8),
                                       Fraction(2, 5), seed)
        game = build_main_reduction(formula, system, t)
        domains, alphabets = left_vertices(formula, system)
        sets = SetSystem(formula.num_vars, tuple(tuple(v - 1 for v in d) for d in domains))
        for _ in range(15):
            sigma = tuple(rng.randrange(len(a)) for a in alphabets)
            values = tuple(tuple((a[li] >> i) & 1 for i in range(len(d)))
                           for li, d, a in zip(sigma, domains, alphabets))
            collection = FunctionCollection(sets, values)
            assert weak_agreement_value(game, sigma) == t_wagr(collection, t)


def _key_cost(collection, diff, ell):
    """The work the budget charges for one (diff, ell) count: a pass over
    the k sets and, at ell >= 2, the cheaper of inclusion-exclusion over the
    subsets of diff and enumeration of the subcollections."""
    k = collection.k
    if ell == 0:
        return 0
    if ell == 1:
        return k
    d = bin(diff).count("1")
    return k + min(d * 2**d, math.comb(k - 2, ell))


@pytest.mark.parametrize("t", [2, 3, 4])
def test_two_level_graph_charges_the_counted_work(t):
    fc = collection_from_seed(2, k=9)
    # at t = 2 every pair is blue, so alpha = 0 keeps every pair off red
    alpha, beta = (Fraction(0) if t == 2 else Fraction(4, 5)), Fraction(4, 5)
    ells = (t - 2, 2 * t - 3)
    diffs = {(i, j): (fc.ones_masks[i] ^ fc.ones_masks[j]) & fc.domain_masks[i] & fc.domain_masks[j]
             for i, j in itertools.combinations(range(fc.k), 2)}
    charge = len(diffs) + sum(_key_cost(fc, diff, ell)
                              for diff in set(diffs.values()) for ell in ells)
    with pytest.raises(BudgetError) as exc:
        build_two_level_graph(fc, alpha, beta, t, budget=charge - 1)
    assert exc.value.required == charge and exc.value.budget == charge - 1
    graph = build_two_level_graph(fc, alpha, beta, t, budget=charge)
    assert graph == build_two_level_graph(fc, alpha, beta, t)
    assert not graph.estimated
    assert graph.blue and (graph.red or t == 2)
    for (i, j), diff in diffs.items():
        for ell in [ell for ell in ells if ell >= 1]:
            cost = _key_cost(fc, diff, ell)
            with pytest.raises(BudgetError) as exc:
                pair_consistency(fc, i, j, ell, budget=cost - 1)
            assert exc.value.required == cost
            assert (pair_consistency(fc, i, j, ell, budget=cost)
                    == _enumerated_pair_consistency(fc, i, j, ell))


def test_decode_assignment_measures_agreement_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return t_wagr(*args, **kwargs)

    monkeypatch.setattr(gapforge.agreement, "t_wagr", counted)
    formula = CnfFormula(3, ((1, 2), (-1, 3), (-2, -3)))
    system = SetSystem(3, ((0,), (1,), (2,)))
    sigma = restriction_labeling(build_main_reduction(formula, system, 2), {1: 1, 2: 0, 3: 1})
    # k = 3 is far below 10t/alpha, so the decoder stops right after measuring
    with pytest.raises(ValueError, match="k >= 10t/alpha"):
        decode_assignment(formula, system, sigma, _perfect_params(3, Fraction(1, 2)))
    assert len(calls) == 1
