"""Exact enumeration solvers, the greedy coverage baseline, and their
agreement on shared instances."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (BudgetError, ClusteringInstance, CodeInstance,
                      CoverageInstance, LabelCoverInstance, LatticeInstance,
                      RedBlueGraph, brute_force_val, brute_force_wval,
                      coverage_fraction, exact_cvp, exact_kmean,
                      exact_kmedian, exact_max_coverage, exact_min_set_cover,
                      exact_ncp, find_non_red_subgraph, greedy_max_coverage,
                      guha_khuller_reduction, optimal_extension,
                      verify_unique_cover, weak_agreement_value)
from gapforge import solvers
from gapforge.agreement import _non_red_density
from gapforge.setsys import bitmask, masks


def random_coverage(rng, universe=10, nsets=8, k=3):
    sets = tuple(
        tuple(sorted(rng.sample(range(universe), rng.randrange(1, universe))))
        for _ in range(nsets)
    )
    return CoverageInstance(universe, sets, k=k)


def test_greedy_on_disjoint_sets():
    inst = CoverageInstance(10, ((0,), (1, 2), (3, 4, 5), (6, 7, 8, 9)), k=2)
    result = greedy_max_coverage(inst)
    assert result.witness == (3, 2) and result.value == 7


def test_greedy_whole_universe_first():
    inst = CoverageInstance(4, ((0, 1), (0, 1, 2, 3), (2,)), k=2)
    result = greedy_max_coverage(inst)
    assert result.value == 4 and result.witness[0] == 1


def test_greedy_suboptimal_classic():
    inst = CoverageInstance(
        8, ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 6, 7)), k=2)
    greedy = greedy_max_coverage(inst)
    exact = exact_max_coverage(inst)
    assert greedy.value == 6 and greedy.witness == (0, 1)
    assert exact.value == 8 and exact.witness == (1, 2)
    assert greedy.value >= (1 - Fraction(1, 4)) * exact.value  # 1-(1-1/2)^2


def test_greedy_ties_take_lowest_index():
    inst = CoverageInstance(2, ((0,), (1,), (0, 1)), k=1)
    assert greedy_max_coverage(inst).witness == (2,)
    tie = CoverageInstance(2, ((0,), (1,)), k=1)
    assert greedy_max_coverage(tie).witness == (0,)


def test_exact_max_coverage_partition():
    inst = CoverageInstance(6, ((0, 3), (1, 4), (2, 5)), k=3)
    result = exact_max_coverage(inst)
    assert result.value == 6
    assert result.enumerated == 1
    assert verify_unique_cover(inst, result.witness)
    assert coverage_fraction(inst, result.value) == 1


def test_exact_max_coverage_min_lex_witness():
    inst = CoverageInstance(2, ((0,), (1,)), k=1)
    assert exact_max_coverage(inst).witness == (0,)


def test_unique_cover_rejects_double_coverage():
    inst = CoverageInstance(3, ((0, 1), (1, 2)), k=2)
    assert not verify_unique_cover(inst, (0, 1))
    assert not verify_unique_cover(inst, (0,))  # element 2 uncovered


@given(st.integers(0, 6).flatmap(lambda universe: st.tuples(
    st.just(universe),
    st.lists(st.sets(st.integers(0, universe - 1)) if universe else st.just(set()),
             min_size=1, max_size=5))), st.data())
@settings(max_examples=100, deadline=None)
def test_unique_cover_matches_element_counts(drawn, data):
    """Distinct chosen elements as many as the universe is the same verdict
    as every element counted exactly once."""
    universe, sets = drawn
    inst = CoverageInstance(universe, tuple(tuple(sorted(s)) for s in sets), k=1)
    chosen = data.draw(st.lists(st.integers(0, len(sets) - 1), max_size=4))
    counts = [0] * universe
    for j in chosen:
        for e in inst.sets[j]:
            counts[e] += 1
    assert verify_unique_cover(inst, chosen) == all(c == 1 for c in counts)


def test_exact_min_set_cover():
    inst = CoverageInstance(3, ((0, 1, 2), (0,), (1,), (2,)), k=1)
    result = exact_min_set_cover(inst)
    assert result.value == 1 and result.witness == (0,) and result.enumerated == 1 + 4

    no_cover = CoverageInstance(3, ((0,), (1,)), k=1)
    with pytest.raises(ValueError, match="no cover exists"):
        exact_min_set_cover(no_cover)


@pytest.mark.parametrize("seed", range(20))
def test_exact_dominates_greedy(seed):
    inst = random_coverage(random.Random(seed))
    greedy = greedy_max_coverage(inst)
    exact = exact_max_coverage(inst)
    assert exact.value >= greedy.value
    guarantee = 1 - (1 - Fraction(1, inst.k)) ** inst.k
    assert greedy.value >= guarantee * exact.value


@pytest.mark.parametrize("seed", range(8))
def test_exact_solvers_order_invariant(seed):
    rng = random.Random(seed)
    inst = random_coverage(rng, nsets=6, k=2)
    perm = list(range(6))
    rng.shuffle(perm)
    shuffled = CoverageInstance(
        inst.universe_size, tuple(inst.sets[j] for j in perm), k=2)
    assert exact_max_coverage(inst).value == exact_max_coverage(shuffled).value

    gk = guha_khuller_reduction(_covering_variant(inst))
    gk_perm = ClusteringInstance(
        gk.num_clients, gk.num_facilities,
        _permute_facilities(gk.dist, gk.num_clients, perm), k=gk.k)
    assert exact_kmedian(gk).value == exact_kmedian(gk_perm).value


def _covering_variant(inst):
    covered = set().union(*map(set, inst.sets))
    leftovers = sorted(set(range(inst.universe_size)) - covered)
    sets = list(inst.sets)
    if leftovers:
        sets[0] = tuple(sorted(set(sets[0]) | set(leftovers)))
    return CoverageInstance(inst.universe_size, tuple(sets), k=inst.k)


def _permute_facilities(dist, nc, perm):
    size = len(dist)
    mapping = list(range(nc)) + [nc + perm[j] for j in range(size - nc)]
    return tuple(
        tuple(dist[mapping[a]][mapping[b]] for b in range(size))
        for a in range(size)
    )


def test_clustering_k_equals_all_facilities():
    d = (
        (0, 2, 1, 3),
        (2, 0, 3, 1),
        (1, 3, 0, 2),
        (3, 1, 2, 0),
    )
    inst = ClusteringInstance(2, 2, d, k=2)
    assert exact_kmedian(inst).value == 2  # each client at its distance-1 facility
    assert exact_kmean(inst).value == 2


def test_clustering_unit_distance_cost():
    cov = CoverageInstance(4, ((0, 1), (2, 3)), k=2)
    inst = guha_khuller_reduction(cov)
    median = exact_kmedian(inst)
    assert median.value == 4 and median.enumerated == 1
    assert exact_kmean(inst).value == 4


@pytest.mark.parametrize("seed", range(8))
def test_kmean_dominates_kmedian_on_unit_metrics(seed):
    cov = _covering_variant(random_coverage(random.Random(seed), nsets=5, k=2))
    inst = guha_khuller_reduction(cov)
    assert exact_kmean(inst).value >= exact_kmedian(inst).value


def test_exact_ncp_codeword_target():
    code = CodeInstance(((1, 0), (0, 1), (1, 1)), (1, 1, 0), k=1)
    result = exact_ncp(code)
    assert result.value == 0 and result.witness == (1, 1)
    assert result.enumerated == 4

    identity = CodeInstance(((1, 0), (0, 1)), (1, 0), k=1)
    assert exact_ncp(identity).value == 0


def test_exact_cvp_examples():
    lat = LatticeInstance(((1, 0), (0, 1)), (2, -1), p=1, k=1)
    result = exact_cvp(lat, box=2)
    assert result.value == 0 and result.witness == (2, -1)
    assert result.enumerated == 25

    default_box = exact_cvp(LatticeInstance(((1,),), (3,), p=2, k=1))
    assert default_box.note == "coordinates enumerated in [-2, 2]"
    assert default_box.value == 1  # box k+1 = 2 stops short of 3

    with pytest.raises(ValueError, match="box must be nonnegative"):
        exact_cvp(lat, box=-1)


def test_solver_budget_errors():
    cov = random_coverage(random.Random(0))
    with pytest.raises(BudgetError):
        exact_max_coverage(cov, budget=10)
    with pytest.raises(BudgetError):
        exact_min_set_cover(cov, budget=31)
    gk = guha_khuller_reduction(_covering_variant(cov))
    with pytest.raises(BudgetError):
        exact_kmedian(gk, budget=10)
    code = CodeInstance(((1,) * 8,), (1,), k=1)
    with pytest.raises(BudgetError):
        exact_ncp(code, budget=100)
    lat = LatticeInstance(((1,) * 8,), (1,), p=1, k=1)
    with pytest.raises(BudgetError):
        exact_cvp(lat, box=2, budget=100)


@pytest.mark.parametrize("box, cols", [(0, 3), (1, 0), (1, 4), (2, 3)])
def test_exact_cvp_budget_threshold(box, cols):
    lat = LatticeInstance(((1,) * cols, (0,) * cols), (1, 2), p=2, k=0)
    total = (2 * box + 1) ** cols
    with pytest.raises(BudgetError) as refused:
        exact_cvp(lat, box=box, budget=total - 1)
    assert refused.value.required == total
    assert refused.value.what == "coordinate box enumeration"
    assert exact_cvp(lat, box=box, budget=total).enumerated == total


@pytest.mark.parametrize("cols", [0, 1, 4])
def test_exact_ncp_budget_threshold(cols):
    code = CodeInstance(((1,) * cols, (0,) * cols), (1, 1), k=0)
    total = 1 << cols
    with pytest.raises(BudgetError) as refused:
        exact_ncp(code, budget=total - 1)
    assert refused.value.required == total
    assert refused.value.what == "message enumeration"
    assert exact_ncp(code, budget=total).enumerated == total


def test_exact_cvp_huge_box_is_refused_before_anything_is_built():
    lat = LatticeInstance(((1,) * 8,), (1,), p=1, k=1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as refused:
            exact_cvp(lat, box=10**6, budget=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused.value.required == (2 * 10**6 + 1) ** 8
    assert peak < 64 * 1024


def test_exact_ints_past_the_int64_bound():
    # (10^10)^2 wraps in int64; the bound sends these instances to Python ints
    rng = random.Random(5)
    rows = tuple(tuple(rng.choice((-1, 1)) * 10**10 for _ in range(2)) for _ in range(3))
    target = tuple(rng.randint(-10**11, 10**11) for _ in range(3))
    for p in (1, 2, 3):
        lat = LatticeInstance(rows, target, p=p, k=0)
        _same(_fields(exact_cvp(lat, box=2)), _old_cvp(lat, 2))
    # the same for clustering: distances in [10^10, 2*10^10] form a metric
    size = 7
    d = [[0] * size for _ in range(size)]
    for a, b in itertools.combinations(range(size), 2):
        d[a][b] = d[b][a] = rng.randint(10**10, 2 * 10**10)
    metric = ClusteringInstance(4, 3, tuple(map(tuple, d)), k=2)
    _same(_fields(exact_kmean(metric)), _old_clustering(metric, 2))


@pytest.mark.parametrize("margin", [0, 1])
def test_exact_cvp_either_side_of_the_int64_bound(margin):
    # rows * (max|a| * box * cols + max|y|)^2 is just under 2^63 at margin 0
    # and just over at margin 1, so each dtype scores this lattice once; every
    # row reaches the bound's residual at x = (1, 1), where int64 would wrap
    height, box, cols, y = 3, 1, 2, 5
    a = (math.isqrt((2**63 - 1) // height) - y) // (box * cols) + margin
    assert (height * (a * box * cols + y) ** 2 < 2**63) == (margin == 0)
    lat = LatticeInstance(((a, a),) * height, (-y,) * height, p=2, k=0)
    _same(_fields(exact_cvp(lat, box=box)), _old_cvp(lat, box))


def test_exact_cvp_tall_matrix_spans_blocks():
    # tall enough that a block holds one trailing coordinate: 9 points, 3 blocks
    height = solvers._BLOCK_CELLS // 9 + 1
    rng = random.Random(3)
    lat = LatticeInstance(_tied_columns(rng, height, 2, (-1, 0, 1)),
                          tuple(rng.randint(-1, 1) for _ in range(height)), p=1, k=0)
    _same(_fields(exact_cvp(lat, box=1)), _old_cvp(lat, 1))


def test_exact_ncp_tall_code_spans_blocks():
    # tall enough that a block holds one trailing coordinate: 8 messages, 4 blocks
    height = solvers._BLOCK_CELLS // 4 + 1
    rng = random.Random(3)
    code = CodeInstance(_tied_columns(rng, height, 3, (0, 1)),
                        tuple(rng.randrange(2) for _ in range(height)), k=0)
    _same(_fields(exact_ncp(code)), _old_ncp(code))


def test_k_larger_than_collection_rejected():
    inst = CoverageInstance(2, ((0,), (1,)), k=2)
    small = CoverageInstance(2, ((0, 1),), k=2)
    assert exact_max_coverage(inst).value == 2
    with pytest.raises(ValueError, match="k exceeds"):
        greedy_max_coverage(small)
    with pytest.raises(ValueError, match="k exceeds"):
        exact_max_coverage(small)


def test_solver_results_carry_accounting():
    inst = CoverageInstance(4, ((0, 1), (2,), (3,)), k=2)
    result = exact_max_coverage(inst)
    assert result.enumerated == 3  # C(3, 2)
    assert result.note == ""


# Reference searches: hand-written best-so-far loops that keep the first
# optimum in lex order through a sentinel and a strict compare. The library's
# builtin min/max searches must return the same value, witness, count and note.

def _old_greedy(instance):
    ms = masks(instance)
    chosen = []
    covered = 0
    steps = 0
    for _ in range(instance.k):
        best, best_gain = None, -1
        for j in range(len(ms)):
            if j in chosen:
                continue
            steps += 1
            gain = (ms[j] & ~covered).bit_count()
            if gain > best_gain:
                best, best_gain = j, gain
        chosen.append(best)
        covered |= ms[best]
    return covered.bit_count(), tuple(chosen), steps, ""


def _old_max_coverage(instance):
    n = len(instance.sets)
    ms = masks(instance)
    best, best_value = None, -1
    for combo in itertools.combinations(range(n), instance.k):
        m = 0
        for j in combo:
            m |= ms[j]
        c = m.bit_count()
        if c > best_value:
            best, best_value = combo, c
    return best_value, tuple(best), math.comb(n, instance.k), ""


def _old_min_set_cover(instance):
    n = len(instance.sets)
    ms = masks(instance)
    universe = (1 << instance.universe_size) - 1
    enumerated = 0
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(n), size):
            enumerated += 1
            m = 0
            for j in combo:
                m |= ms[j]
            if m == universe:
                return size, tuple(combo), enumerated, ""
    raise AssertionError("unreachable: full union covers the universe")


def _old_clustering(instance, exponent):
    nc, nf = instance.num_clients, instance.num_facilities
    d = instance.dist
    best, best_cost = None, None
    for combo in itertools.combinations(range(nf), instance.k):
        cost = 0
        for u in range(nc):
            nearest = min(d[u][nc + f] for f in combo)
            cost += nearest**exponent
        if best_cost is None or cost < best_cost:
            best, best_cost = combo, cost
    return best_cost, tuple(best), math.comb(nf, instance.k), ""


def _old_ncp(instance):
    cols = instance.num_cols
    col_masks = [bitmask(r for r, row in enumerate(instance.rows) if row[j])
                 for j in range(cols)]
    y_mask = bitmask(r for r, bit in enumerate(instance.target) if bit)
    best, best_cost = None, None
    for x in itertools.product((0, 1), repeat=cols):
        acc = 0
        for j, bit in enumerate(x):
            if bit:
                acc ^= col_masks[j]
        cost = (acc ^ y_mask).bit_count()
        if best_cost is None or cost < best_cost:
            best, best_cost = x, cost
    return best_cost, best, 1 << cols, ""


def _old_cvp(instance, box):
    cols = instance.num_cols
    if box is None:
        box = instance.k + 1
    best, best_cost = None, None
    for x in itertools.product(range(-box, box + 1), repeat=cols):
        cost = 0
        for row, yr in zip(instance.rows, instance.target):
            acc = sum(a * xi for a, xi in zip(row, x))
            cost += abs(acc - yr) ** instance.p
        if best_cost is None or cost < best_cost:
            best, best_cost = x, cost
    return (best_cost, best, (2 * box + 1) ** cols,
            f"coordinates enumerated in [-{box}, {box}]")


def _old_best_left(instance, score):
    sizes = [len(a) for a in instance.left_alphabets]
    best_left, best_val = None, Fraction(-1)
    for left in itertools.product(*(range(s) for s in sizes)):
        val = score(left)
        if val > best_val:
            best_left, best_val = left, val
    return best_left, best_val


def _old_val(instance):
    best_left, _ = _old_best_left(instance, lambda left: optimal_extension(instance, left)[1])
    right, val = optimal_extension(instance, best_left)
    return (best_left, right), val


def _old_wval(instance):
    return _old_best_left(instance, lambda left: weak_agreement_value(instance, left))


def _old_non_red_subgraph(graph, d):
    best, best_density = None, Fraction(-1)
    for combo in itertools.combinations(range(graph.num_vertices), d):
        dens = _non_red_density(graph, combo)
        if dens > best_density:
            best, best_density = combo, dens
    return tuple(best), best_density


def _fields(result):
    return result.value, result.witness, result.enumerated, result.note


def _same(got, want):
    """Equal, and equal in type at every position (Fraction 2 is not int 2)."""
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def _tied_coverage(rng):
    # a few distinct sets drawn with repeats, so many k-subsets tie
    u = rng.randint(1, 4)
    pool = [tuple(sorted(rng.sample(range(u), rng.randint(0, u)))) for _ in range(3)]
    n = rng.randint(1, 6)
    return CoverageInstance(u, tuple(rng.choice(pool) for _ in range(n)), k=rng.randint(1, n))


def _tied_clustering(rng):
    # off-diagonal distances in [1, 2] always satisfy the triangle inequality
    nc, nf = rng.randint(1, 4), rng.randint(1, 4)
    size = nc + nf
    d = [[0] * size for _ in range(size)]
    for a, b in itertools.combinations(range(size), 2):
        d[a][b] = d[b][a] = rng.choice((1, Fraction(3, 2), 2))
    return ClusteringInstance(nc, nf, tuple(map(tuple, d)), k=rng.randint(1, nf))


def _tied_columns(rng, rows, cols, entries):
    # columns drawn from a pool of two, so messages tie
    pool = [tuple(rng.choice(entries) for _ in range(rows)) for _ in range(2)]
    columns = [rng.choice(pool) for _ in range(cols)]
    return tuple(tuple(c[r] for c in columns) for r in range(rows))


def _tied_game(rng):
    num_left, num_right = rng.randint(1, 3), rng.randint(1, 3)
    lsizes = [rng.randint(1, 3) for _ in range(num_left)]
    rsizes = [rng.randint(1, 2) for _ in range(num_right)]
    edges = [(u, v) for u in range(num_left) for v in range(num_right) if rng.random() < 0.6]
    if not edges:
        edges = [(0, 0)]
    tables = tuple(tuple(rng.randrange(rsizes[v]) for _ in range(lsizes[u])) for u, v in edges)
    return LabelCoverInstance(
        edges=tuple(edges),
        left_alphabets=tuple(tuple(range(s)) for s in lsizes),
        right_alphabets=tuple(tuple(range(s)) for s in rsizes),
        projections=tables)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_builtin_searches_match_the_old_loops(seed):
    rng = random.Random(seed)

    cov = _tied_coverage(rng)
    _same(_fields(greedy_max_coverage(cov)), _old_greedy(cov))
    _same(_fields(exact_max_coverage(cov)), _old_max_coverage(cov))
    covering = _covering_variant(cov)
    # same value and witness; `enumerated` is the charge of the levels
    # searched, not the candidates the old loop visited
    got, old = _fields(exact_min_set_cover(covering)), _old_min_set_cover(covering)
    _same(got[:2] + got[3:], old[:2] + old[3:])
    assert got[2] == sum(math.comb(len(covering.sets), s) for s in range(got[0] + 1))

    metric = _tied_clustering(rng)
    _same(_fields(exact_kmedian(metric)), _old_clustering(metric, 1))
    _same(_fields(exact_kmean(metric)), _old_clustering(metric, 2))

    rows = rng.randint(0, 5)
    code = CodeInstance(_tied_columns(rng, rows, rng.randint(0, 4), (0, 1)),
                        tuple(rng.randrange(2) for _ in range(rows)), k=1)
    _same(_fields(exact_ncp(code)), _old_ncp(code))

    rows = rng.randint(1, 3)
    lat = LatticeInstance(_tied_columns(rng, rows, rng.randint(0, 3), (-1, 0, 1)),
                          tuple(rng.randint(-2, 2) for _ in range(rows)),
                          p=rng.randint(1, 2), k=0)
    box = rng.choice((None, 0, 1))
    _same(_fields(exact_cvp(lat, box=box)), _old_cvp(lat, box))
    # blocks of a few cells, so each search spans many blocks and ties fall
    # on both sides of a block boundary
    with mock.patch.object(solvers, "_BLOCK_CELLS", rng.randint(0, 12)):
        _same(_fields(exact_kmedian(metric)), _old_clustering(metric, 1))
        _same(_fields(exact_kmean(metric)), _old_clustering(metric, 2))
        _same(_fields(exact_ncp(code)), _old_ncp(code))
        _same(_fields(exact_cvp(lat, box=box)), _old_cvp(lat, box))

    game = _tied_game(rng)
    _same(brute_force_val(game), _old_val(game))
    _same(brute_force_wval(game), _old_wval(game))

    k = rng.randint(1, 6)
    red = frozenset(e for e in itertools.combinations(range(k), 2) if rng.random() < 0.4)
    graph = RedBlueGraph(k, frozenset(), red)
    d = rng.randint(1, k)
    _same(find_non_red_subgraph(graph, d), _old_non_red_subgraph(graph, d))
