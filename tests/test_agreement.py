"""Agreement testing: disagr, consistency graphs, majority decoding, the
assignment decoder."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (BudgetError, CnfFormula, ConsistencyOverlapError,
                      FunctionCollection, RedBlueGraph, SetSystem,
                      build_two_level_graph,
                      check_rb_transitive, clause_value, decode_assignment,
                      disagr, find_non_red_subgraph,
                      majority_decode, pair_consistency,
                      pairwise_intersection_max, random_planted_formula,
                      sample_random_subsets, soundness_params, t_wagr,
                      vars_of)
import gapforge.agreement
import reference
from gapforge.agreement import (_SubcollectionHits, _agreement_decode,
                                _peel_red_vertices)
from gapforge.labelcover import (LabelCoverInstance, UnsatisfiableSubsetError,
                                 build_main_reduction, left_vertices,
                                 restriction_labeling, weak_agreement_value)
from gapforge.setsys import _words

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
    for values in (((0, 2), (1,)), ((0, 1), ([1],)), ((0, 1), (0.5,))):
        with pytest.raises(ValueError, match="^values must be bits$"):
            FunctionCollection(system, values)
    assert FunctionCollection(system, ((True, 0.0), (1,))).ones_masks == (0b1, 0b100)
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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_t_wagr_matches_recount(seed):
    fc = collection_from_seed(seed, k=4)
    assert t_wagr(fc, 2) == reference.t_wagr(fc, 2)


def test_t_wagr_counts_pairs_in_bounded_blocks(monkeypatch):
    fc = collection_from_seed(4, n=8, k=2000, noise=0.05)
    fc._rows  # the k masks themselves are the collection's, not the count's
    tracemalloc.start()
    try:
        value = t_wagr(fc, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < value < 1 and peak < 4 << 20
    small = [collection_from_seed(seed, k=k) for seed, k in zip(range(6), (2, 3, 5, 7, 9, 11))]
    for cells in (1, 7, 97):
        monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        assert t_wagr(fc, 2) == value
        assert all(t_wagr(c, 2) == reference.t_wagr(c, 2) for c in small)


@pytest.mark.parametrize("n", [8, 40, 63, 64, 65, 130])
def test_t_wagr_matches_the_reference(n, monkeypatch):
    """t = 2 to 5 on seeded collections over n points (one to three words a
    row), some with few and some with many disagreeing pairs, whole and in
    blocks of 1, 7 and 97 cells."""
    collections = [_seeded_wide_collection(seed, n) for seed in range(3)]
    collections += [collection_from_seed(seed, n, k, noise=0.3) for seed, k in ((3, 6), (4, 8))]
    expected = [reference.t_wagr(fc, t) for fc in collections for t in range(2, 6)]
    # some value at t = 3 or t = 4 is neither 0 nor 1
    assert any(0 < value < 1 for value in expected[1::4] + expected[2::4])
    for cells in (None, 1, 7, 97):
        if cells is not None:
            monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        assert [_exact(t_wagr(fc, t)) for fc in collections for t in range(2, 6)] == expected


def test_t_wagr_counts_t_subsets_in_bounded_blocks():
    """The C(120, 3) = 280,840 t-subsets are scored in index blocks of about
    BLOCK_CELLS cells: whole, their index array alone would take 6.7 MB."""
    fc = collection_from_seed(6, n=40, k=120, noise=0.2)
    fc._rows  # the k masks themselves are the collection's, not the count's
    tracemalloc.start()
    try:
        value = t_wagr(fc, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < value < 1 and peak < 4 << 20


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


def _reference_graph(collection, alpha, beta, t):
    """The reference graph, or ("overlap", pair, blue value, red value) where
    the reference refuses a pair that is both blue and red."""
    try:
        return reference.two_level_graph(collection, alpha, beta, t)
    except ConsistencyOverlapError as exc:
        return "overlap", exc.pair, exc.blue_consistency, exc.red_consistency


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
    for ell in range(fc.k - 1):
        for (i, j), want in reference.pair_consistencies(fc, ell).items():
            assert pair_consistency(fc, i, j, ell) == want
    alpha, beta = min(a, b), max(a, b)
    for t in (2, 3, 4):
        if fc.k < 2 * t - 1:
            continue
        expected = _reference_graph(fc, alpha, beta, t)
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
        for ell in range(1, fc.k - 1):
            for (i, j), want in reference.pair_consistencies(fc, ell).items():
                diff = ((fc.ones_masks[i] ^ fc.ones_masks[j])
                        & fc.domain_masks[i] & fc.domain_masks[j])
                assert pair_consistency(fc, i, j, ell) == want
                paths.add("empty" if diff == 0 else
                          "enumerated" if _counts_by_enumeration(fc, diff, ell) else
                          "closed" if ell == 1 else "counted")
    assert paths == {"empty", "closed", "counted", "enumerated"}


def _packed(diffs, n):
    """Python-int diffs over n points as the counter's word rows."""
    return _words((len(diffs), n), sets=[[e for e in range(n) if d >> e & 1] for d in diffs])


def _unpacked(rows):
    """Word rows as Python ints."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def test_shared_counter_reuses_a_diff_across_pairs(monkeypatch):
    # pairs (0, 1) and (2, 3) differ exactly at point 0; their "other" sets
    # differ, yet each pair's count is the same number, counted once
    system = SetSystem(4, ((0, 1, 2), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2),
                           (1, 2), (0, 3), (0, 1), (2,)))
    values = ((0, 0, 0), (1, 0, 0), (1, 1, 1, 0), (0, 1, 1),
              (0, 0), (0, 0), (0, 0), (0,))
    fc = FunctionCollection(system, values)
    counter = _SubcollectionHits(fc, _packed([0b1], 4))
    for ell in range(1, 7):
        [count] = counter.hits(ell)
        for i, j in ((0, 1), (2, 3)):
            want = reference.pair_consistencies(fc, ell)[i, j]
            assert Fraction(count, math.comb(6, ell)) == want
    batches = []
    hits = _SubcollectionHits.hits

    def spy(self, ell):
        batches.append((ell, _unpacked(self._diffs)))
        return hits(self, ell)

    monkeypatch.setattr(_SubcollectionHits, "hits", spy)
    build_two_level_graph(fc, Fraction(0), Fraction(1, 2), 3)
    distinct = sorted({fc.disagreement(i, j) for i, j in itertools.combinations(range(8), 2)})
    assert batches == [(1, distinct), (3, distinct)]


def _counter_corpus(n, k):
    """k sets over n points, two of them the whole universe, so that a diff of
    any width fits inside some S_i ∩ S_j, and the rest of mixed density; with
    three distinct diffs of each width up to 9 (or n), drawn inside the
    whole universe or inside a random pair's intersection. The counter reads
    only the domains, so every function is 0."""
    rng = random.Random(n * 100 + k)
    sets = ((tuple(range(n)),) * 2
            + tuple(tuple(e for e in range(n) if rng.random() < rng.choice((0.3, 0.6, 0.9)))
                    for _ in range(k - 2)))
    fc = FunctionCollection(SetSystem(n, sets), tuple((0,) * len(s) for s in sets))
    diffs = set()
    for w in range(min(n, 9) + 1):
        while len([d for d in diffs if d.bit_count() == w]) < min(3, math.comb(n, w)):
            i, j = rng.sample(range(k), 2)
            inter = sorted(set(sets[i]) & set(sets[j]))
            if len(inter) >= w:
                diffs.add(sum(1 << e for e in rng.sample(inter, w)))
    return fc, sorted(diffs)


@pytest.mark.parametrize("n, k", [(8, 14), (40, 12), (62, 9), (63, 12), (64, 11), (65, 10),
                                  (128, 9), (129, 10), (130, 10)])
def test_counter_matches_the_frozen_reference(n, k, monkeypatch):
    """Every count and charge of the per-width counter equals the frozen
    counter's, as Python ints, at every ell from 1 to k - 2, with one word
    per mask (n <= 64) and several, on whole arrays and in blocks of 1, 7
    and 97 cells; the diffs span every width up to the rule's limit and past
    it. The counter takes the diffs as word rows, the frozen one as ints."""
    fc, diffs = _counter_corpus(n, k)
    counter, frozen = _SubcollectionHits(fc, _packed(diffs, n)), reference.SubcollectionHits(fc)
    widths = {d.bit_count() for d in diffs}
    rule = {1: {"enumerated": widths}}
    for ell in range(2, k - 1):
        total = math.comb(k - 2, ell)
        limit = max(w for w in range(n + 1) if w << w <= total)
        assert set(range(min(limit, n) + 1)) <= widths
        rule[ell] = {"included": {w for w in widths if w <= limit},
                     "enumerated": {w for w in widths if w > limit}}
    assert any(len(paths) == 2 for paths in rule.values())
    taken = {}
    for path in ("included", "enumerated"):
        def spy(self, diffs, ell, *rest, count=getattr(_SubcollectionHits, "_" + path), path=path):
            taken.setdefault(ell, {}).setdefault(path, set()).update(
                d.bit_count() for d in _unpacked(diffs))
            return count(self, diffs, ell, *rest)
        monkeypatch.setattr(_SubcollectionHits, "_" + path, spy)
    for cells in (None, 1, 7, 97):
        if cells is not None:
            monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        for ell in range(1, k - 1):
            hits, cost = counter.hits(ell), counter.cost(ell)
            assert hits == frozen.hits(diffs, ell) and cost == frozen.cost(diffs, ell)
            assert {type(x) for x in hits} == {type(cost)} == {int}
        assert taken == {ell: {p: ws for p, ws in paths.items() if ws} for ell, paths in rule.items()}


def test_counter_counts_past_int64():
    """At k = 70, C(68, ell) passes 2^63 for ell from 28 to 40: those counts
    are exact Python ints, equal to the frozen counter's."""
    fc, diffs = _counter_corpus(40, 70)
    counter, frozen = _SubcollectionHits(fc, _packed(diffs, 40)), reference.SubcollectionHits(fc)
    for ell in (2, 3, 27, 28, 34, 40, 41, 66):
        hits = counter.hits(ell)
        assert hits == frozen.hits(diffs, ell)
        assert counter.cost(ell) == frozen.cost(diffs, ell)
        assert {type(x) for x in hits} == {int}
    assert max(counter.hits(34)) == math.comb(68, 34) >= 1 << 63


def _seeded_wide_collection(seed, n):
    """A collection over n points whose pairs differ on a few points each:
    some functions are exact restrictions, the others flip each value with
    probability 1/20."""
    rng = random.Random(seed)
    k = rng.randint(5, 9)
    system = sample_random_subsets(n, k, Fraction(1, 2), rng.randrange(2**32))
    base = [rng.randrange(2) for _ in range(n)]
    noisy = [rng.random() < 0.6 for _ in range(k)]
    return FunctionCollection(system, tuple(
        tuple(base[e] ^ (noisy[x] and rng.random() < 0.05) for e in s)
        for x, s in enumerate(system.sets)))


def _exact(*values):
    """The first value, after checking that every value is a Fraction of
    Python ints, not of numpy integers."""
    assert all(type(v) is Fraction and type(v.numerator) is type(v.denominator) is int
               for v in values)
    return values[0]


def _check_two_level_graphs(fc, alpha, beta):
    for t in (2, 3):
        expected = _reference_graph(fc, alpha, beta, t)
        if isinstance(expected, RedBlueGraph):
            graph = build_two_level_graph(fc, alpha, beta, t)
            assert graph == expected
            assert {type(x) for edge in graph.blue | graph.red for x in edge} <= {int}
        else:
            with pytest.raises(ConsistencyOverlapError) as exc:
                build_two_level_graph(fc, alpha, beta, t)
            assert ("overlap", exc.value.pair, exc.value.blue_consistency,
                    exc.value.red_consistency) == expected
            assert {type(x) for x in exc.value.pair} == {int}
            _exact(exc.value.blue_consistency, exc.value.red_consistency)


THRESHOLDS = [(Fraction(0), Fraction(1, 2)), (Fraction(9, 10), Fraction(9, 10)),
              (Fraction(1), Fraction(1)), (Fraction(3, 4), Fraction(4, 5)),
              (Fraction(1, 2), Fraction(1)), (Fraction(19, 20), Fraction(1))]


@pytest.mark.parametrize("n", [61, 62, 63, 64, 65, 127, 128, 129, 130, 200])
def test_wide_collections_match_the_pairwise_oracles(n, monkeypatch):
    # one uint64 word per mask up to n = 64, two up to 128, three or four
    # above, against the references' exact ints; a few points of difference
    # per pair reach both counting branches at ell = 3
    paths = set()
    for seed in range(6):
        fc = _seeded_wide_collection(seed, n)
        assert _exact(t_wagr(fc, 2)) == reference.t_wagr(fc, 2)
        for ell in range(1, fc.k - 1):
            for (i, j), want in reference.pair_consistencies(fc, ell).items():
                assert _exact(pair_consistency(fc, i, j, ell)) == want
                paths.add("closed" if ell == 1 else "enumerated"
                          if _counts_by_enumeration(fc, fc.disagreement(i, j), ell) else "counted")
        for zeta in (Fraction(0), Fraction(1, 40), Fraction(1, 10)):
            members = range(seed % 2, fc.k)
            g, stats = majority_decode(fc, members, zeta, Fraction(1, 3))
            assert (g, stats) == reference.majority_decode(fc, members, zeta, Fraction(1, 3))
            assert {type(x) for x in g} <= {int} and {type(stats.bound_holds)} == {bool}
            _exact(stats.mean_disagr, stats.kappa, stats.pair_mean_disagr)
        # graphs with no red edges, with both colors, and overlaps at t = 2
        alpha, beta = THRESHOLDS[seed]
        _check_two_level_graphs(fc, alpha, beta)
        # one cell and small primes per block: every batch spans many blocks
        for cells in (1, 7, 97):
            monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
            _check_two_level_graphs(fc, alpha, beta)
        monkeypatch.undo()
    assert paths == {"closed", "counted", "enumerated"}


def test_dense_majority_decode_matches_the_old_loop():
    """The shapes of `verify majority-bound` (n from 60 to 200, k from 4 to 12,
    every zeta j/10), with one more set that is empty, over all members,
    unsorted members, an unsorted proper subset and the empty set alone."""
    rng = random.Random(23)
    for _ in range(6):
        n, k = rng.randrange(60, 201), rng.randrange(4, 13)
        fc = collection_from_seed(rng.randrange(2**32), n, k, Fraction(2, 5), noise=0.1)
        fc = FunctionCollection(SetSystem(n, fc.system.sets + ((),)), fc.values + ((),))
        rho = Fraction(pairwise_intersection_max(fc.system), n)
        shuffled = rng.sample(range(k + 1), k + 1)
        for members in (range(k + 1), shuffled, shuffled[:rng.randint(2, k)], (k,)):
            for zeta in (Fraction(j, 10) for j in range(10)):
                g, stats = majority_decode(fc, members, zeta, rho)
                assert (g, stats) == reference.majority_decode(fc, tuple(members), zeta, rho)
                assert {type(x) for x in g} == {int}
                assert {type(stats.bound_holds), type(stats.power_mean_holds)} == {bool}
                _exact(stats.mean_disagr, stats.kappa, stats.zeta, stats.rho,
                       stats.bound_squared, stats.pair_mean_disagr)


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

    greedy_subset, greedy_density = _peel_red_vertices(complete_red, 2)
    assert greedy_density == Fraction(1, 2) and greedy_subset == (0, 1)

    with pytest.raises(ValueError, match="1 <= d"):
        find_non_red_subgraph(red_free, 6)


def test_peel_and_rb_check_match_the_old_loops():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(1, 40)
        red_share, blue_share = rng.random(), rng.random()
        pairs = list(itertools.combinations(range(k), 2))
        colors = [rng.random() for _ in pairs]
        red = frozenset(pair for pair, c in zip(pairs, colors) if c < red_share)
        blue = frozenset(pair for pair, c in zip(pairs, colors) if c >= 1 - blue_share) - red
        graph = RedBlueGraph(k, blue, red)
        for d in range(1, k + 1):
            assert _peel_red_vertices(graph, d) == reference.peel_red_vertices(graph, d)
        for h in range(0, k + 1, 3):
            assert check_rb_transitive(graph, h) == reference.rb_check(graph, h)


def _check_graph_against_the_reference(fc, alpha, beta, t):
    """The graph, or its overlap error, equals the pair-set reference's, and so
    do the verdicts read off it. Returns the graph's red edge count, or None
    on an overlap."""
    try:
        expected = reference.two_level_graph(fc, alpha, beta, t)
    except ConsistencyOverlapError as exc:
        with pytest.raises(ConsistencyOverlapError) as got:
            build_two_level_graph(fc, alpha, beta, t)
        assert (got.value.pair, got.value.blue_consistency, got.value.red_consistency) \
            == (exc.pair, exc.blue_consistency, exc.red_consistency)
        return None
    graph = build_two_level_graph(fc, alpha, beta, t)
    assert graph == expected
    assert (graph.blue, graph.red) == (expected.blue, expected.red)
    k = graph.num_vertices
    for h in range(0, k + 1, 2):
        assert check_rb_transitive(graph, h) == reference.rb_check(graph, h)
    for d in range(1, k + 1):
        assert _peel_red_vertices(graph, d) == reference.peel_red_vertices(graph, d)
    for d in range(1, min(k, 4) + 1):
        assert find_non_red_subgraph(graph, d) == reference.non_red_subgraph(graph, d)
    return len(graph.red)


def test_graphs_match_the_pair_set_reference(monkeypatch):
    """Seeded collections at t = 2 (where any red pair is also blue, so an
    overlap) and t = 3 (graphs with red edges), whole and with blocks of a
    few cells, so the row blocks and the d-subset chunks split."""
    rng = random.Random(31)
    cases = []
    for _ in range(12):
        n, k = rng.randint(6, 24), rng.randint(5, 14)
        fc = collection_from_seed(rng.randrange(2**32), n, k, noise=rng.choice((0.05, 0.2, 0.4)))
        alpha = rng.choice((Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)))
        cases.append((fc, alpha, rng.choice((alpha, Fraction(1, 2) + alpha / 2, Fraction(1)))))
    outcomes = {2: set(), 3: set()}
    for cells in (None, 1, 7, 97):
        if cells is not None:
            monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        for fc, alpha, beta in cases:
            for t in (2, 3):
                red = _check_graph_against_the_reference(fc, alpha, beta, t)
                outcomes[t].add("overlap" if red is None else "red" if red else "no red")
    assert outcomes == {2: {"overlap", "no red"}, 3: {"red", "no red"}}


def test_two_level_graph_rows_are_blocked():
    """2,000 sets over 8 points at t = 2: no k x k block, pair index or pair
    set is built, only the int8 adjacency."""
    fc = collection_from_seed(4, n=8, k=2000, noise=0.05)
    fc._rows  # the k masks themselves are the collection's, not the graph's
    tracemalloc.start()
    try:
        graph = build_two_level_graph(fc, Fraction(0), Fraction(1, 2), 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20
    # at t = 2 every pair is blue, and alpha = 0 keeps every pair off red
    assert (graph.adjacency == gapforge.agreement._BLUE).sum() == 2000 * 1999
    assert check_rb_transitive(graph, 0) == (True, None)


def test_two_level_graph_t3_counts_in_bounded_blocks():
    """60 sets over 40 points at t = 3: the red count (ell = 3) takes
    inclusion-exclusion up to width 11, where C(58, 3) = 30,856 subcollections
    make it the cheaper path, and enumerates the wider diffs. The build stays
    within blocks of BLOCK_CELLS cells, and its charge is the frozen
    counter's to the unit."""
    fc = collection_from_seed(8, n=40, k=60, p=Fraction(3, 5), noise=0.25)
    alpha, beta = Fraction(46, 100), Fraction(1)
    diffs = sorted({fc.disagreement(i, j) for i, j in itertools.combinations(range(60), 2)})
    widths = {d.bit_count() for d in diffs}
    assert widths >= set(range(12)) and max(widths) > 11
    frozen = reference.SubcollectionHits(fc)
    charge = math.comb(60, 2) + frozen.cost(diffs, 1) + frozen.cost(diffs, 3)
    with pytest.raises(BudgetError) as exc:
        build_two_level_graph(fc, alpha, beta, 3, budget=charge - 1)
    assert (exc.value.required, exc.value.budget, exc.value.what) \
        == (charge, charge - 1, "two-level consistency count")
    fc._rows  # the k masks themselves are the collection's, not the graph's
    tracemalloc.start()
    try:
        graph = build_two_level_graph(fc, alpha, beta, 3, budget=charge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert graph == reference.two_level_graph(fc, alpha, beta, 3)
    assert graph.blue and graph.red


def test_find_non_red_subgraph_ignores_the_budget_variable(monkeypatch):
    # C(4, 2) = 6 subsets; a library call reads only its budget argument,
    # and a budget below the count refuses rather than peeling
    monkeypatch.setenv("GAPFORGE_BUDGET", "5")
    red_path = RedBlueGraph(4, frozenset(), frozenset({(0, 1), (1, 2), (2, 3)}))
    assert find_non_red_subgraph(red_path, 2) == ((0, 2), Fraction(1))
    with pytest.raises(BudgetError) as exc:
        find_non_red_subgraph(red_path, 2, budget=5)
    assert (exc.value.required, exc.value.what) == (6, "d-subset enumeration")
    assert _peel_red_vertices(red_path, 2) == ((0, 3), Fraction(1))


def test_find_non_red_subgraph_exact_beats_greedy():
    # red star at vertex 0: greedy and exact must both avoid it
    red = frozenset({(0, v) for v in range(1, 5)})
    graph = RedBlueGraph(5, frozenset(), red)
    exact_subset, exact_density = find_non_red_subgraph(graph, 3)
    greedy_subset, greedy_density = _peel_red_vertices(graph, 3)
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

    # the four disagreeing ordered pairs differ at one point; at zeta * n = 1
    # exactly they no longer count, since kappa counts disagr > zeta * n
    _, at_zeta = majority_decode(fc, (0, 1, 2), zeta=Fraction(1, 4))
    assert at_zeta.kappa == 0
    _, below_zeta = majority_decode(fc, (0, 1, 2), zeta=Fraction(1, 4) - Fraction(1, 10**9))
    assert below_zeta.kappa == Fraction(4, 9)


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
        _agreement_decode(agree, 2, params)

    disagreeing = FunctionCollection(SetSystem(3, ((0, 1), (1, 2))), ((0, 1), (0, 0)))
    with pytest.raises(ValueError, match="zero weak agreement"):
        _agreement_decode(disagreeing, 2, params)

    zero_alpha = soundness_params(Fraction(1, 2), 1, Fraction(1, 2), 2, 2)
    with pytest.raises(ValueError, match="alpha must be positive"):
        _agreement_decode(agree, 2, zero_alpha)

    big_system = sample_random_subsets(8, 80, Fraction(1, 2), seed=4)
    big_agree = FunctionCollection.from_global(big_system, (0,) * 8)
    wide = soundness_params(Fraction(1, 2), 1, Fraction(1, 2), 2, 80,
                            alpha_override=Fraction(1, 4))
    with pytest.raises(ValueError, match="exceeds beta"):
        _agreement_decode(big_agree, 2, wide)


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
    want = {ell: reference.pair_consistencies(fc, ell) for ell in ells if ell >= 1}
    for (i, j), diff in diffs.items():
        for ell in want:
            cost = _key_cost(fc, diff, ell)
            with pytest.raises(BudgetError) as exc:
                pair_consistency(fc, i, j, ell, budget=cost - 1)
            assert exc.value.required == cost
            assert pair_consistency(fc, i, j, ell, budget=cost) == want[ell][i, j]


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
