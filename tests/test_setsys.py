"""Set systems: sampling, random-like property checkers, monotone DNFs."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapforge.budget
from gapforge import (BudgetError, MonotoneDnf, SetSystem, dnf_bound_holds,
                      dnf_false_count_by_weight, dnf_false_prob,
                      is_strong_intersection_disperser, pairwise_intersection_max,
                      parse_dnf, parse_setsys, sample_random_subsets)
from gapforge.setsys import is_uniform
from gapforge.textformat import write
import reference

systems = st.builds(
    lambda u, raw: SetSystem(u, tuple(tuple(sorted(e for e in s if e < u)) for s in raw)),
    st.integers(1, 8),
    st.lists(st.sets(st.integers(0, 7)), min_size=1, max_size=5),
)


def test_sample_endpoints():
    empty = sample_random_subsets(10, 3, 0, seed=1)
    assert empty.sets == ((), (), ())
    full = sample_random_subsets(10, 3, 1, seed=1)
    assert full.sets == (tuple(range(10)),) * 3


@given(st.integers(0, 2**32 - 1),
       st.one_of(st.fractions(0, 1), st.floats(0, 1), st.sampled_from([0, 1])),
       st.integers(0, 30), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_sample_matches_float_comparison(seed, p, universe_size, k):
    assert sample_random_subsets(universe_size, k, p, seed).sets == \
        reference.sample_random_subsets(universe_size, k, p, seed)


def test_sample_compares_exactly_at_the_draw():
    for seed in range(20):
        draw = Fraction(random.Random(seed).random())
        assert sample_random_subsets(1, 1, draw, seed).sets == ((),)
        assert sample_random_subsets(1, 1, draw + Fraction(1, 2**80), seed).sets == ((0,),)


def test_sample_matches_the_integer_comparison():
    # probabilities at and next to a draw, tiny, close to 1 and with a
    # 31-digit denominator, where a rounded threshold would differ
    long_denominator = Fraction(3 * 10**29 + 1, 10**30 + 7)
    assert len(str(long_denominator.denominator)) == 31
    for seed in range(100):
        drawn, tiny = Fraction(random.Random(seed).random()), Fraction(1, 2**80)
        for p in (0, 1, Fraction(1, 3), Fraction(2, 5), Fraction(0.1), 0.3,
                  drawn, drawn + tiny, drawn - tiny, Fraction(1, 2**60),
                  1 - Fraction(1, 2**53), long_denominator):
            for universe_size in (0, 17):
                assert sample_random_subsets(universe_size, 3, p, seed).sets == \
                    reference.sample_random_subsets(universe_size, 3, p, seed)


def test_sample_determinism():
    a = sample_random_subsets(10, 3, Fraction(1, 2), seed=99)
    b = sample_random_subsets(10, 3, Fraction(1, 2), seed=99)
    assert a == b
    assert a.universe_size == 10 and a.k == 3


def test_set_system_validation():
    with pytest.raises(ValueError, match="sorted"):
        SetSystem(4, ((1, 0),))
    with pytest.raises(ValueError, match="sorted"):
        SetSystem(4, ((0, 0, 1),))
    with pytest.raises(ValueError, match="outside"):
        SetSystem(4, ((0, 4),))


def test_is_uniform_examples():
    full = SetSystem(4, (tuple(range(4)),) * 3)
    assert is_uniform(full, 1, 0) == (True, set())
    empty = SetSystem(4, ((), (), ()))
    ok, failing = is_uniform(empty, Fraction(1, 2), Fraction(1, 4))
    assert not ok and failing == {0, 1, 2, 3}
    ok, failing = is_uniform(SetSystem(2, ((0, 1), (1,))), 1, Fraction(1, 2))
    assert ok and failing == {0}


def test_disperser_examples():
    full = SetSystem(4, (tuple(range(4)),) * 3)
    assert is_strong_intersection_disperser(full, 2, 1, 0).status == "certified-yes"
    empty = SetSystem(3, ((), ()))
    v = is_strong_intersection_disperser(empty, 1, 1, Fraction(1, 2))
    assert v.status == "violated" and v.uncovered == 3

    # pairs of the chain leave 1, 0 and 1 elements uncovered: both verdicts
    # carry the lex-first worst pair, a certified one its margin below eta*|U|
    chain = SetSystem(4, ((0, 1), (1, 2), (2, 3)))
    ok = is_strong_intersection_disperser(chain, 2, 1, Fraction(1, 4))
    assert ok.status == "certified-yes"
    assert ok.witness == ((0,), (1,)) and ok.uncovered == 1
    bad = is_strong_intersection_disperser(chain, 2, 1, Fraction(1, 8))
    assert bad.status == "violated"
    assert bad.witness == ((0,), (1,)) and bad.uncovered == 1
    assert bad.combinations_checked == ok.combinations_checked == 3


def test_disperser_vacuous_and_budget():
    # fewer than r candidate subcollections: nothing to check
    v = is_strong_intersection_disperser(SetSystem(3, ((0,),)), 2, 1, 0)
    assert v.status == "certified-yes" and "fewer than r" in v.note

    # C(10 + C(10, 2), 3) r-tuples are over the budget: refused, like every
    # other exhaustive oracle
    big = sample_random_subsets(12, 10, Fraction(1, 2), seed=0)
    with pytest.raises(BudgetError) as err:
        is_strong_intersection_disperser(big, 3, 2, 0, budget=10)
    assert err.value.required == math.comb(55, 3) == 26_235
    assert err.value.budget == 10


def test_disperser_heuristic_modes():
    # no heuristic fallback is left: a budget below C(#subcollections, r)
    # is refused, and a budget equal to it runs the exact search
    empty = SetSystem(3, ((), ()))
    with pytest.raises(BudgetError) as err:
        is_strong_intersection_disperser(empty, 1, 1, Fraction(1, 2), budget=1)
    assert err.value.required == 2
    assert is_strong_intersection_disperser(empty, 1, 1, Fraction(1, 2), budget=2).status == "violated"
    full = SetSystem(4, (tuple(range(4)),) * 3)
    with pytest.raises(BudgetError):
        is_strong_intersection_disperser(full, 2, 1, 0, budget=2)
    assert is_strong_intersection_disperser(full, 2, 1, 0, budget=3).status == "certified-yes"


@given(systems, st.integers(1, 2), st.integers(1, 2), st.fractions(0, 1))
@settings(max_examples=80, deadline=None)
def test_disperser_matches_oracle(system, r, ell, eta):
    got = is_strong_intersection_disperser(system, r, ell, eta)
    assert (got.status, got.witness, got.uncovered, got.combinations_checked) \
        == reference.disperser(system, r, ell, eta)


@given(systems, st.integers(1, 2), st.integers(1, 2), st.fractions(0, 1))
@settings(max_examples=60, deadline=None)
def test_disperser_monotone_in_eta_and_r(system, r, ell, eta):
    """Certification survives loosening eta and raising r (a bigger union of
    intersections covers at least as much)."""
    got = is_strong_intersection_disperser(system, r, ell, eta)
    if got.status != "certified-yes":
        return
    looser = is_strong_intersection_disperser(system, r, ell, eta + Fraction(1, 10))
    assert looser.status == "certified-yes"
    more = is_strong_intersection_disperser(system, r + 1, ell, eta)
    assert more.status == "certified-yes"


def _disperser_corpus():
    """Seeded systems over 1 to 12 points and a few over 70 and 130 (two and
    three words a row). Every third draws its sets from the empty set, the
    whole universe and the even points, so many r-tuples tie for the most
    uncovered and only the lex-first one is the witness."""
    rng = random.Random(32)
    systems = []
    for i in range(36):
        u = rng.choice((70, 130)) if i % 9 == 8 else rng.randint(1, 12)
        k = rng.randint(2, 6)
        if i % 3:
            sets = [tuple(sorted(rng.sample(range(u), rng.randint(0, u)))) for _ in range(k)]
        else:
            sets = [rng.choice(((), tuple(range(u)), tuple(range(0, u, 2)))) for _ in range(k)]
        systems.append(SetSystem(u, tuple(sets)))
    return systems


def test_disperser_matches_the_reference_in_blocks(monkeypatch):
    """The whole verdict, witness included, equals the reference's on the
    whole arrays and in blocks of 1, 7 and 97 cells."""
    cases = [(system, r, ell, eta) for system in _disperser_corpus() for r in (1, 2, 3)
             for ell in (1, 2) for eta in (Fraction(0), Fraction(1, 4))]
    expected = [reference.disperser(*case) for case in cases]
    assert {status for status, *_ in expected} == {"certified-yes", "violated"}
    for cells in (None, 1, 7, 97):
        if cells is not None:
            monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        for case, want in zip(cases, expected):
            got = is_strong_intersection_disperser(*case)
            assert (got.status, got.witness, got.uncovered, got.combinations_checked) == want


def test_pairwise_intersection_max():
    assert pairwise_intersection_max(SetSystem(4, ((0, 1), (2, 3)))) == 0
    assert pairwise_intersection_max(SetSystem(4, ((0, 1, 2), (0, 1, 2)))) == 3
    assert pairwise_intersection_max(SetSystem(6, ((0, 1, 2), (1, 2, 3), (5,)))) == 2
    with pytest.raises(ValueError):
        pairwise_intersection_max(SetSystem(4, ((0,),)))


def test_pairwise_intersection_max_over_several_words(monkeypatch):
    """Seeded systems over one to four words a row, whole and in blocks of
    1, 7 and 97 cells, against the largest intersection of two Python sets."""
    systems = [sample_random_subsets(n, k, Fraction(1, 2), n + k)
               for n in (8, 63, 64, 65, 130, 200) for k in (2, 3, 17)]
    expected = [max(len(set(a) & set(b)) for a, b in itertools.combinations(system.sets, 2))
                for system in systems]
    for cells in (None, 1, 7, 97):
        if cells is not None:
            monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        assert [pairwise_intersection_max(system) for system in systems] == expected


def test_dnf_validation():
    with pytest.raises(ValueError, match="duplicate"):
        MonotoneDnf(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="empty term"):
        MonotoneDnf(3, ((),))
    assert MonotoneDnf(4, ((0,), (1, 2, 3))).width == 3


def test_dnf_false_prob_examples():
    one = MonotoneDnf(1, ((0,),))
    for p in (Fraction(1, 3), Fraction(7, 10)):
        assert dnf_false_prob(one, p) == 1 - p
    s = 4
    singles = MonotoneDnf(s, tuple((i,) for i in range(s)))
    p = Fraction(2, 5)
    assert dnf_false_prob(singles, p) == (1 - p) ** s
    pair = MonotoneDnf(2, ((0, 1),))
    assert dnf_false_prob(pair, Fraction(1, 2)) == Fraction(3, 4)


def test_dnf_false_prob_budget():
    f = MonotoneDnf(8, ((0,),))
    with pytest.raises(BudgetError):
        dnf_false_prob(f, Fraction(1, 2), budget=100)


def _random_dnf(rng, k):
    terms = {tuple(sorted(rng.sample(range(k), rng.randint(1, min(4, k)))))
             for _ in range(rng.randint(1, 12))}
    return MonotoneDnf(k, tuple(sorted(terms)))


def test_dnf_false_counts_are_summed_over_spans(monkeypatch):
    """Spans of a few assignments give the weight histogram of one span."""
    rng = random.Random(23)
    cases = [_random_dnf(rng, k) for k in (8, 10) for _ in range(10)]
    whole = [dnf_false_count_by_weight(f) for f in cases]
    for cells in (7, 97):
        monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        assert [dnf_false_count_by_weight(f) for f in cases] == whole


def test_dnf_false_counts_memory_does_not_grow_with_two_to_the_k():
    f = _random_dnf(random.Random(5), 20)
    tracemalloc.start()
    try:
        counts = dnf_false_count_by_weight(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) < 1 << 20 and counts[0] == 1
    assert peak < 4 << 20


def _accepts(f, bits):
    return any(all(bits[i] for i in term) for term in f.terms)


@given(systems, st.data())
@settings(max_examples=60, deadline=None)
def test_dnf_membership_equivalence(system, data):
    """u is in the union of the subcollections' intersections iff the DNF
    with one term per subcollection accepts u's membership vector."""
    k = system.k
    subcols = data.draw(
        st.lists(st.sets(st.integers(0, k - 1), min_size=1, max_size=k),
                 min_size=1, max_size=4, unique_by=frozenset)
    )
    f = MonotoneDnf(k, tuple(tuple(sorted(sc)) for sc in subcols))
    sets = [set(s) for s in system.sets]
    union = set()
    for sc in subcols:
        inter = set(range(system.universe_size))
        for i in sc:
            inter &= sets[i]
        union |= inter
    for u in range(system.universe_size):
        membership = [1 if u in sets[i] else 0 for i in range(k)]
        assert (u in union) == _accepts(f, membership)


def test_dnf_bound_holds():
    # ell=1, eps=1/2, k=4, p=1/2: bound is (1/2)^2 = 1/4
    assert dnf_bound_holds(Fraction(1, 4), 1, Fraction(1, 2), Fraction(1, 2), 4)
    assert not dnf_bound_holds(Fraction(26, 100), 1, Fraction(1, 2), Fraction(1, 2), 4)
    # fractional exponent: eps*k/ell = 3/2, bound (1/4)^(3/2) = 1/8
    assert dnf_bound_holds(Fraction(1, 8), 1, Fraction(3, 4), Fraction(1, 2), 3)
    assert not dnf_bound_holds(Fraction(1, 8) + Fraction(1, 1000), 1, Fraction(3, 4), Fraction(1, 2), 3)
    assert dnf_bound_holds(0, 2, Fraction(1, 2), Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        dnf_bound_holds(Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 2), 4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_dnf_bound_small_sweep(seed):
    import random

    rng = random.Random(seed)
    for k, ell, eps in ((4, 1, Fraction(1, 2)), (6, 2, Fraction(1, 4)), (6, 1, Fraction(1, 4))):
        pool = []
        for w in range(1, ell + 1):
            pool.extend(itertools.combinations(range(k), w))
        size = math.ceil(eps * k**ell)
        if size > len(pool):
            continue
        f = MonotoneDnf(k, tuple(sorted(rng.sample(pool, size))))
        for p in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            assert dnf_bound_holds(dnf_false_prob(f, p), ell, p, eps, k)


def test_setsys_text_round_trip():
    system = SetSystem(5, ((0, 2), (), (1, 3, 4)))
    assert parse_setsys(write("setsys", (5, 3), system.sets)) == system
    with pytest.raises(ValueError, match="header"):
        parse_setsys("bogus 3 1\n0\n")


def test_dnf_text_round_trip():
    f = MonotoneDnf(4, ((0,), (1, 3)))
    assert parse_dnf(write("dnf", (4, 2), f.terms)) == f
    with pytest.raises(ValueError, match="header"):
        parse_dnf("setsys 3 0\n")
