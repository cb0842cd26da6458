"""Relabeling invariance of the coverage-side oracles: permuting the elements
and the sets of a coverage instance changes no optimum, here or in the
Guha-Khuller clustering, ABSS nearest-codeword and ABSS closest-vector
instances built from it. Values are compared, never min-lex witnesses (a
min-lex witness is not invariant); each witness, mapped through the
relabeling, must score the same value on the other side."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (CoverageInstance, abss_cvp_reduction, abss_ncp_reduction,
                      exact_cvp, exact_kmean, exact_kmedian, exact_max_coverage,
                      exact_min_set_cover, exact_ncp, guha_khuller_reduction,
                      verify_unique_cover)

small = settings(max_examples=60, deadline=None)


@st.composite
def relabeled(draw, max_sets=5):
    """(instance, its relabeling, set map): set j of the instance becomes set
    set_map[j] of the relabeling, and element e becomes element_map[e]."""
    u = draw(st.integers(1, 5))
    n = draw(st.integers(1, max_sets))
    subsets = st.lists(st.integers(0, u - 1), unique=True).map(lambda s: tuple(sorted(s)))
    sets = draw(st.lists(subsets, min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    element_map = draw(st.permutations(range(u)))
    set_map = draw(st.permutations(range(n)))
    moved = [None] * n
    for j, s in enumerate(sets):
        moved[set_map[j]] = tuple(sorted(element_map[e] for e in s))
    return (CoverageInstance(u, tuple(sets), k), CoverageInstance(u, tuple(moved), k),
            set_map)


def _sets(set_map, chosen):
    return tuple(sorted(set_map[j] for j in chosen))


def _back(set_map):
    inverse = [0] * len(set_map)
    for j, image in enumerate(set_map):
        inverse[image] = j
    return inverse


def _covered(cov, chosen):
    return len({e for j in chosen for e in cov.sets[j]})


def _column_vector(set_map, x):
    """x over the original columns (sets), moved to the relabeled columns."""
    moved = [0] * len(x)
    for j, xj in enumerate(x):
        moved[set_map[j]] = xj
    return tuple(moved)


@given(relabeled(), st.data())
@small
def test_coverage_oracles_are_invariant(case, data):
    cov, moved, set_map = case
    best, other = exact_max_coverage(cov), exact_max_coverage(moved)
    assert best.value == other.value
    assert _covered(moved, _sets(set_map, best.witness)) == best.value
    assert _covered(cov, _sets(_back(set_map), other.witness)) == best.value

    if _covered(cov, range(len(cov.sets))) < cov.universe_size:
        with pytest.raises(ValueError, match="no cover"):
            exact_min_set_cover(moved)
    else:
        best, other = exact_min_set_cover(cov), exact_min_set_cover(moved)
        assert best.value == other.value
        assert _covered(moved, _sets(set_map, best.witness)) == moved.universe_size
        assert _covered(cov, _sets(_back(set_map), other.witness)) == cov.universe_size

    chosen = data.draw(st.lists(st.integers(0, len(cov.sets) - 1), unique=True))
    assert verify_unique_cover(cov, chosen) == verify_unique_cover(moved, _sets(set_map, chosen))


def _clustering_cost(inst, facilities):
    nc = inst.num_clients
    return sum(min(inst.dist[c][nc + f] for f in facilities) ** inst.exponent
               for c in range(nc))


@given(relabeled())
@small
def test_guha_khuller_optima_are_invariant(case):
    cov, moved, set_map = case
    if _covered(cov, range(len(cov.sets))) < cov.universe_size:
        return  # the metric is degenerate: an element lies in no set
    for exponent, solve in ((1, exact_kmedian), (2, exact_kmean)):
        inst = guha_khuller_reduction(cov, exponent=exponent)
        other_inst = guha_khuller_reduction(moved, exponent=exponent)
        best, other = solve(inst), solve(other_inst)
        assert best.value == other.value
        assert _clustering_cost(other_inst, _sets(set_map, best.witness)) == best.value
        assert _clustering_cost(inst, _sets(_back(set_map), other.witness)) == best.value


def _residual_cost(inst, x, p):
    return sum(abs(sum(a * xj for a, xj in zip(row, x)) - y) ** p
               for row, y in zip(inst.rows, inst.target))


@given(relabeled(), st.integers(0, 2))
@small
def test_abss_ncp_optimum_is_invariant(case, tbar):
    cov, moved, set_map = case
    inst, other_inst = abss_ncp_reduction(cov, tbar), abss_ncp_reduction(moved, tbar)
    best, other = exact_ncp(inst), exact_ncp(other_inst)
    assert best.value == other.value

    def hamming(code, x):
        return sum((sum(a * xj for a, xj in zip(row, x)) - y) % 2
                   for row, y in zip(code.rows, code.target))

    assert hamming(other_inst, _column_vector(set_map, best.witness)) == best.value
    assert hamming(inst, _column_vector(_back(set_map), other.witness)) == best.value


@given(relabeled(max_sets=4), st.sampled_from((1, 2)))
@small
def test_abss_cvp_optimum_is_invariant(case, p):
    cov, moved, set_map = case
    inst, other_inst = abss_cvp_reduction(cov, 1, p=p), abss_cvp_reduction(moved, 1, p=p)
    best, other = exact_cvp(inst), exact_cvp(other_inst)
    assert best.value == other.value
    assert _residual_cost(other_inst, _column_vector(set_map, best.witness), p) == best.value
    assert _residual_cost(inst, _column_vector(_back(set_map), other.witness), p) == best.value
