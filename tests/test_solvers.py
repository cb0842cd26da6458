"""Exact enumeration solvers, the greedy coverage baseline, and their
agreement on shared instances."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
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
                      verify_unique_cover)
from gapforge import agreement, budget, labelcover, solvers
from gapforge.budget import block_search as budget_block_search
import reference


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
        _same(_fields(exact_cvp(lat, box=2)), _fields(reference.cvp(lat, 2)))
    # the same for clustering: distances in [10^10, 2*10^10] form a metric
    size = 7
    d = [[0] * size for _ in range(size)]
    for a, b in itertools.combinations(range(size), 2):
        d[a][b] = d[b][a] = rng.randint(10**10, 2 * 10**10)
    metric = ClusteringInstance(4, 3, tuple(map(tuple, d)), k=2)
    _same(_fields(exact_kmean(metric)), _fields(reference.clustering(metric, 2)))


@pytest.mark.parametrize("margin", [0, 1])
def test_exact_cvp_either_side_of_the_int64_bound(margin):
    # rows * (max|a| * box * cols + max|y|)^2 is just under 2^63 at margin 0
    # and just over at margin 1, so each dtype scores this lattice once; every
    # row reaches the bound's residual at x = (1, 1), where int64 would wrap
    height, box, cols, y = 3, 1, 2, 5
    a = (math.isqrt((2**63 - 1) // height) - y) // (box * cols) + margin
    assert (height * (a * box * cols + y) ** 2 < 2**63) == (margin == 0)
    lat = LatticeInstance(((a, a),) * height, (-y,) * height, p=2, k=0)
    _same(_fields(exact_cvp(lat, box=box)), _fields(reference.cvp(lat, box)))


def test_exact_cvp_tall_matrix_spans_blocks():
    # tall enough that a block holds one trailing coordinate: 9 points, 3 blocks
    height = budget.BLOCK_CELLS // 9 + 1
    rng = random.Random(3)
    lat = LatticeInstance(_tied_columns(rng, height, 2, (-1, 0, 1)),
                          tuple(rng.randint(-1, 1) for _ in range(height)), p=1, k=0)
    _same(_fields(exact_cvp(lat, box=1)), _fields(reference.cvp(lat, 1)))


def test_exact_ncp_tall_code_spans_blocks():
    # 257 words a column, and a cap of 3 x 257 cells holds one trailing
    # coordinate: 8 messages, 4 blocks
    height = budget.BLOCK_CELLS // 4 + 1
    rng = random.Random(3)
    code = CodeInstance(_tied_columns(rng, height, 3, (0, 1)),
                        tuple(rng.randrange(2) for _ in range(height)), k=0)
    with mock.patch.object(budget, "BLOCK_CELLS", 3 * -(-height // 64)):
        _same(_fields(exact_ncp(code)), _fields(reference.ncp(code)))


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
    # the last right vertex sometimes gets no edges
    rsizes = [rng.randint(1, 2) for _ in range(num_right + rng.randint(0, 1))]
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
    """The library's searches return the value, witness, count and note of
    the reference loops, on instances with many ties."""
    rng = random.Random(seed)

    cov = _tied_coverage(rng)
    _same(_fields(greedy_max_coverage(cov)), _fields(reference.greedy_max_coverage(cov)))
    _same(_fields(exact_max_coverage(cov)), _fields(reference.max_coverage(cov)))
    covering = _covering_variant(cov)
    # `enumerated` is the charge of the levels searched
    got = _fields(exact_min_set_cover(covering))
    _same(got, _fields(reference.min_set_cover(covering)))
    assert got[2] == sum(math.comb(len(covering.sets), s) for s in range(got[0] + 1))

    metric = _tied_clustering(rng)
    _same(_fields(exact_kmedian(metric)), _fields(reference.clustering(metric, 1)))
    _same(_fields(exact_kmean(metric)), _fields(reference.clustering(metric, 2)))

    rows = rng.randint(0, 5)
    code = CodeInstance(_tied_columns(rng, rows, rng.randint(0, 4), (0, 1)),
                        tuple(rng.randrange(2) for _ in range(rows)), k=1)
    _same(_fields(exact_ncp(code)), _fields(reference.ncp(code)))

    rows = rng.randint(1, 3)
    lat = LatticeInstance(_tied_columns(rng, rows, rng.randint(0, 3), (-1, 0, 1)),
                          tuple(rng.randint(-2, 2) for _ in range(rows)),
                          p=rng.randint(1, 2), k=0)
    box = rng.choice((None, 0, 1))
    _same(_fields(exact_cvp(lat, box=box)), _fields(reference.cvp(lat, box)))
    # blocks of a few cells, so each search spans many blocks and ties fall
    # on both sides of a block boundary
    with mock.patch.object(budget, "BLOCK_CELLS", rng.randint(0, 12)):
        _same(_fields(exact_kmedian(metric)), _fields(reference.clustering(metric, 1)))
        _same(_fields(exact_kmean(metric)), _fields(reference.clustering(metric, 2)))
        _same(_fields(exact_ncp(code)), _fields(reference.ncp(code)))
        _same(_fields(exact_cvp(lat, box=box)), _fields(reference.cvp(lat, box)))

    game = _tied_game(rng)
    for left in itertools.product(*(range(len(a)) for a in game.left_alphabets)):
        _same(optimal_extension(game, left), reference.extension(game, left))
    _same(brute_force_val(game), reference.val(game))
    _same(brute_force_wval(game), reference.wval(game))

    k = rng.randint(1, 6)
    red = frozenset(e for e in itertools.combinations(range(k), 2) if rng.random() < 0.4)
    graph = RedBlueGraph(k, frozenset(), red)
    d = rng.randint(1, k)
    _same(find_non_red_subgraph(graph, d), reference.non_red_subgraph(graph, d))


def test_label_cover_and_subgraph_searches_score_by_int():
    # every candidate's score shares one denominator, so the searches compare
    # integers and only the returned value is a Fraction
    scores = []

    def spy(pick, blocks, count, budget, what):
        label, i, score = budget_block_search(pick, blocks, count, budget, what)
        scores.append(score)
        return label, i, score

    extension = labelcover._extension

    def scorer(instance, left):
        right, sat, agreed = extension(instance, left)
        scores.extend((sat, agreed))
        return right, sat, agreed

    game = _tied_game(random.Random(3))
    graph = RedBlueGraph(4, frozenset(), frozenset({(0, 1), (2, 3)}))
    with mock.patch.object(labelcover, "_extension", scorer), \
            mock.patch.object(agreement, "block_search", spy):
        results = [brute_force_val(game)[1], brute_force_wval(game)[1],
                   find_non_red_subgraph(graph, 3)[1]]
    # the joint label-cover search keeps both maxima as counts
    (_, top_sat), (_, top_agreed) = game._optima
    assert len(scores) > 3
    assert {type(s) for s in scores + [top_sat, top_agreed]} == {int}
    assert [type(r) for r in results] == [Fraction, Fraction, Fraction]


# The packed coverage and NCP kernels and the narrow CVP words against the
# plain references.

def _coverage_corpus():
    """Seeded coverage instances over the shapes the kernel splits on: an
    empty universe, one word, two words and more, empty and repeated sets,
    k = 1 and k = n, and systems with no cover."""
    rng = random.Random(27)
    cases = []
    for universe in (0, 1, 7, 64, 65, 100, 128, 129, 200, 700):
        for _ in range(4):
            n = rng.randint(1, 8)
            density = rng.choice((0.1, 0.3, 0.6))
            sets = [tuple(e for e in range(universe) if rng.random() < density)
                    for _ in range(n)]
            if rng.random() < 0.4:
                sets[rng.randrange(n)] = ()
            if n > 1 and rng.random() < 0.5:
                sets[rng.randrange(n)] = sets[rng.randrange(n)]
            if universe and rng.random() < 0.6:
                # every element in some set, so a cover exists
                for e in range(universe):
                    if not any(e in s for s in sets):
                        j = rng.randrange(n)
                        sets[j] = tuple(sorted(sets[j] + (e,)))
            for k in sorted({1, n, rng.randint(1, n)}):
                cases.append(CoverageInstance(universe, tuple(sets), k=k))
    # enough 11-word rows that even the default block holds no 4-subset level
    sets = tuple(tuple(e for e in range(700) if rng.random() < 0.2) for _ in range(24))
    cases.append(CoverageInstance(700, sets, k=5))
    # the shape of the command-line tour's cov.txt: 6 sets of 256 elements
    # over 768, 12 words a row
    sets = tuple(tuple(sorted(rng.sample(range(768), 256))) for _ in range(6))
    cases.append(CoverageInstance(768, sets, k=3))
    return cases


def _result_or_error(solve, *args, **kwargs):
    try:
        return _fields(solve(*args, **kwargs))
    except BudgetError as e:
        return "BudgetError", e.required, e.budget, e.what
    except ValueError as e:
        return "ValueError", str(e)


@pytest.mark.parametrize("cells", [None, 1, 7, 97])
def test_coverage_solvers_match_the_bitmask_reference(cells):
    levels = []  # (sets, words, size, blocks) of each level searched through
    union_blocks = solvers._union_blocks

    def counted(rows):
        blocks = union_blocks(rows)

        def sizes(size):
            count = 0
            for block in blocks(size):
                count += 1
                yield block
            levels.append((*rows.shape, size, count))
        return sizes

    corpus = _coverage_corpus()
    assert {0, 1} <= {cov.universe_size for cov in corpus}
    assert any(() in cov.sets for cov in corpus)
    assert any(len(set(cov.sets)) < len(cov.sets) for cov in corpus)
    assert any(cov.k == 1 < len(cov.sets) for cov in corpus)
    assert any(cov.k == len(cov.sets) > 1 for cov in corpus)
    outcomes = set()
    with mock.patch.object(solvers, "_union_blocks", counted), \
            mock.patch.object(budget, "BLOCK_CELLS", cells or budget.BLOCK_CELLS):
        for cov in corpus:
            n, k = len(cov.sets), cov.k
            total = math.comb(n, k)
            _same(_fields(exact_max_coverage(cov)), _fields(reference.max_coverage(cov)))
            # refused one short of C(n, k), admitted at it
            for limit in (total - 1, total):
                assert (_result_or_error(exact_max_coverage, cov, limit)
                        == _result_or_error(reference.max_coverage, cov, limit))

            got = _result_or_error(exact_min_set_cover, cov)
            assert got == _result_or_error(reference.min_set_cover, cov)
            outcomes.add(got[0] if isinstance(got[0], str) else "cover")
            if isinstance(got[0], str):
                continue
            _same(got, _fields(reference.min_set_cover(cov)))
            # each level is refused one short of its charge, and the cover's
            # own charge admits the search
            for size in range(got[0] + 1):
                charged = sum(math.comb(n, j) for j in range(size + 1))
                with pytest.raises(BudgetError) as refused:
                    exact_min_set_cover(cov, budget=charged - 1)
                assert (refused.value.required, refused.value.budget, refused.value.what) == (
                    charged, charged - 1, f"subset enumeration through size {size}")
                assert (_result_or_error(exact_min_set_cover, cov, charged - 1)
                        == _result_or_error(reference.min_set_cover, cov, charged - 1))
            assert _fields(exact_min_set_cover(cov, budget=got[2])) == got
    assert outcomes == {"cover", "ValueError"}
    # rows of one, two, three and twelve words
    widths = {words for _, words, _, _ in levels}
    assert {1, 2, 3, 12} <= widths
    # the grid holds the largest level r that fits, with every level below
    # it, and each (size - r)-prefix is one block
    cap = cells or budget.BLOCK_CELLS
    for n, words, size, count in levels:
        r = 0
        while r < size and math.comb(n, r + 1) * words <= cap:
            r += 1
        assert count == math.comb(n - r, size - r)
    # some size level spans several blocks, so prefixes meet suffixes
    assert max(count for *_, count in levels) > 1


def test_coverage_solvers_enumerate_in_bounded_blocks():
    # 40 sets over 1,000 elements, 16 words a row: C(40, 4) = 91,390 subsets.
    # The first 36 sets miss the elements 0, 250, 500 and 999, which the last
    # four split between them, so the only cover of size 4 is the last one.
    rng = random.Random(40)
    marked = {0, 250, 500, 999}
    sets = [tuple(sorted(e for e in rng.sample(range(1000), 300) if e not in marked))
            for _ in range(36)]
    sets += [tuple(range(a, b)) for a, b in ((0, 250), (250, 500), (500, 750), (750, 1000))]
    cov = CoverageInstance(1000, tuple(sets), k=4)
    tracemalloc.start()
    try:
        best = exact_max_coverage(cov)
        cover = exact_min_set_cover(cov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 91,390 unions at once would take 11.7 MB
    assert peak < 4 * 1024 * 1024
    assert best.enumerated == 91_390 and best.value == 1000
    _same(_fields(best), _fields(reference.max_coverage(cov)))
    assert (cover.value, cover.witness) == (4, (36, 37, 38, 39))
    assert cover.enumerated == sum(math.comb(40, j) for j in range(5))


@pytest.mark.parametrize("height", [1, 255, 256, 300, 1000])
def test_exact_ncp_in_bytes_matches_int64(height):
    # more rows than a byte counts, so only the uint64 sums of the popcounts
    # keep the distance; the blocks are cut to two messages each
    rng = random.Random(height)
    words = -(-height // 64)
    for cols in (1, 5, 8):
        code = CodeInstance(_tied_columns(rng, height, cols, (0, 1)),
                            tuple(rng.randrange(2) for _ in range(height)), k=0)
        _same(_fields(exact_ncp(code)), _fields(reference.ncp(code)))
        with mock.patch.object(budget, "BLOCK_CELLS", 3 * words):
            _same(_fields(exact_ncp(code)), _fields(reference.ncp(code)))
    # the all-ones word is a codeword of the all-ones column and at the full
    # height from the zero code
    assert exact_ncp(CodeInstance(((1,),) * height, (1,) * height, k=0)).value == 0
    assert exact_ncp(CodeInstance(((0,),) * height, (1,) * height, k=0)).value == height


def _code_corpus(height):
    """Seeded codes of `height` rows and 0 to 12 columns: tied columns under
    a random target, then with a zero column under the all-zero and the
    all-one target."""
    rng = random.Random(height)
    for cols in range(13):
        rows = _tied_columns(rng, height, cols, (0, 1))
        yield CodeInstance(rows, tuple(rng.randrange(2) for _ in range(height)), k=0)
        if cols:
            zero = rng.randrange(cols)
            rows = tuple(row[:zero] + (0,) + row[zero + 1:] for row in rows)
        for bit in (0, 1):
            yield CodeInstance(rows, (bit,) * height, k=0)


@pytest.mark.parametrize("height", [0, 1, 63, 64, 65, 128, 129, 300])
def test_exact_ncp_matches_the_reference(height):
    words = max(1, -(-height // 64))
    sizes = []  # the messages in each block of the last search
    block_search = solvers.block_search

    def spy(pick, blocks, count, limit, what):
        def counted():
            for label, costs in blocks():
                sizes.append(len(costs))
                yield label, costs
        sizes.clear()
        return block_search(pick, counted, count, limit, what)

    packbits = mock.Mock(wraps=np.packbits)
    with mock.patch.object(solvers, "block_search", spy), \
            mock.patch.object(np, "packbits", packbits):
        for code in _code_corpus(height):
            cols, want = code.num_cols, _fields(reference.ncp(code))
            total = 1 << cols
            # refused one short of 2^cols before anything is packed, and
            # admitted at it
            packbits.reset_mock()
            with pytest.raises(BudgetError) as refused:
                exact_ncp(code, budget=total - 1)
            assert (refused.value.required, refused.value.budget, refused.value.what) == (
                total, total - 1, "message enumeration")
            assert not packbits.called
            _same(_fields(exact_ncp(code, budget=total)), want)
            # a grid of 2^j messages: from one block of every message to a
            # block per message
            for j in range(cols + 1):
                with mock.patch.object(budget, "BLOCK_CELLS", words << j):
                    _same(_fields(exact_ncp(code)), want)
                assert sizes == [1 << j] * (1 << cols - j)


def _boundary_lattice(top, p, margin):
    """A 3 x 2 lattice whose largest |residual|^p, reached at x = (1, 1) on
    every row, is `top` at margin 0 and the next value above it at margin 1."""
    reach = math.isqrt(top) if p == 2 else top
    if margin:
        reach += 1
    a = (reach - 1) // 2
    y = reach - 2 * a
    return LatticeInstance(((a, a),) * 3, (-y,) * 3, p=p, k=0)


def _dtype_spy(dtypes):
    box_search = solvers._box_search

    def spy(instance, values, dtype, cost, budget, what):
        dtypes.append(dtype)
        return box_search(instance, values, dtype, cost, budget, what)
    return mock.patch.object(solvers, "_box_search", spy)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("top, narrow, wide", [(2**15 - 1, np.int16, np.int32),
                                               (2**31 - 1, np.int32, np.int64)])
def test_exact_cvp_either_side_of_each_narrow_word(p, top, narrow, wide):
    dtypes = []
    with _dtype_spy(dtypes):
        for margin, dtype in ((0, narrow), (1, wide)):
            lat = _boundary_lattice(top, p, margin)
            _same(_fields(exact_cvp(lat, box=1)), _fields(reference.cvp(lat, 1)))
            assert dtypes[-1] is dtype


def test_exact_cvp_word_holds_every_coordinate_and_entry():
    # a coordinate or an entry past int16 widens the word, though no residual
    # does; 65,537 points fit one block of 2^17 cells
    dtypes = []
    cases = [(LatticeInstance(((0,),), (0,), p=2, k=0), 2**15, np.int32),
             (LatticeInstance(((2**15, 1),), (3,), p=2, k=0), 0, np.int32),
             (LatticeInstance(((2,), (-3,)), (1, 1), p=3, k=0), 2, np.int16)]
    with _dtype_spy(dtypes), mock.patch.object(budget, "BLOCK_CELLS", 1 << 17):
        for lat, box, dtype in cases:
            _same(_fields(exact_cvp(lat, box=box)), _fields(reference.cvp(lat, box)))
            assert dtypes[-1] is dtype
