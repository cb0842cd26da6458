"""Relabeling invariance of the oracles. Renaming the variables of a CNF
formula and reordering its clauses (and each clause's literals), with the
clause subsets mapped to match, changes neither val nor wval of the
clause-subset game. Permuting the vertices and edges of
a projection game, reordering a restriction game's domains or writing it
out as explicit tables changes neither val nor wval. Permuting the elements
and the sets of a coverage instance changes no optimum, here or in the
Guha-Khuller clustering, ABSS nearest-codeword and ABSS closest-vector
instances built from it. Values are compared, never min-lex witnesses (a
min-lex witness is not invariant); each witness, mapped through the
relabeling, must score the same value on the other side. Permuting the
points and the local functions of a collection changes no agreement
measure, and permuting the vertices of a red-blue graph changes neither its
best non-red density nor its red-blue transitivity."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (CnfFormula, CoverageInstance, FunctionCollection,
                      LabelCoverInstance, RedBlueGraph, SetSystem,
                      abss_cvp_reduction, abss_ncp_reduction, brute_force_val,
                      brute_force_wval, budget, build_main_reduction,
                      check_rb_transitive, disagr, exact_cvp, exact_kmean,
                      exact_kmedian, exact_max_coverage, exact_min_set_cover,
                      exact_ncp, find_non_red_subgraph, guha_khuller_reduction,
                      pair_consistency, t_wagr, verify_unique_cover,
                      weak_agreement_value)
from gapforge.agreement import _non_red_density
from gapforge.labelcover import RESTRICTION
import reference

small = settings(max_examples=60, deadline=None)


@st.composite
def games(draw):
    """A projection game on at most 3 + 3 vertices: explicit tables, or a
    restriction game over the variables 0..3 in which every right vertex has
    at least one edge."""
    num_left, num_right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        lsizes = [draw(st.integers(1, 3)) for _ in range(num_left)]
        rsizes = [draw(st.integers(1, 3)) for _ in range(num_right)]
        edges = draw(st.lists(st.tuples(st.integers(0, num_left - 1),
                                        st.integers(0, num_right - 1)), min_size=1, max_size=6))
        tables = tuple(tuple(draw(st.integers(0, rsizes[v] - 1)) for _ in range(lsizes[u]))
                       for u, v in edges)
        return LabelCoverInstance(tuple(edges), tuple(tuple(range(s)) for s in lsizes),
                                  tuple(tuple(range(s)) for s in rsizes), tables)
    ldoms = [draw(st.permutations(range(4)))[:draw(st.integers(1, 3))] for _ in range(num_left)]
    labels = [draw(st.lists(st.integers(0, (1 << len(d)) - 1), min_size=1, unique=True))
              for d in ldoms]
    parents = [draw(st.integers(0, num_left - 1)) for _ in range(num_right)]
    rdoms = [draw(st.permutations(ldoms[u]))[:draw(st.integers(0, len(ldoms[u])))]
             for u in parents]
    edges = [(u, v) for u in range(num_left) for v in range(num_right)
             if u == parents[v] or set(rdoms[v]) <= set(ldoms[u]) and draw(st.booleans())]
    return LabelCoverInstance(tuple(edges), tuple(map(tuple, labels)),
                              tuple(tuple(range(1 << len(d))) for d in rdoms), RESTRICTION,
                              tuple(map(tuple, ldoms)), tuple(map(tuple, rdoms)))


def _moved(items, where):
    """items[i] placed at position where[i]."""
    out = [None] * len(items)
    for i, item in enumerate(items):
        out[where[i]] = item
    return tuple(out)


def _relabel(game, left_map, right_map, edge_order):
    """Left vertex u renamed left_map[u], right vertex v renamed right_map[v],
    and the edges listed in `edge_order`."""
    edges = tuple((left_map[u], right_map[v]) for u, v in (game.edges[e] for e in edge_order))
    lefts, rights = _moved(game.left_alphabets, left_map), _moved(game.right_alphabets, right_map)
    if game.projections != RESTRICTION:
        return LabelCoverInstance(edges, lefts, rights,
                                  tuple(game.projections[e] for e in edge_order))
    return LabelCoverInstance(edges, lefts, rights, RESTRICTION,
                              _moved(game.left_domains, left_map),
                              _moved(game.right_domains, right_map))


def _reorder_left_domains(game, orders):
    """Left vertex u lists its domain as dom[orders[u][i]] for i = 0, 1, ...,
    and each of its labels moves its bits to match; label indices stay."""
    domains, alphabets = [], []
    for dom, alphabet, order in zip(game.left_domains, game.left_alphabets, orders):
        domains.append(tuple(dom[j] for j in order))
        alphabets.append(tuple(sum(((label >> j) & 1) << i for i, j in enumerate(order))
                               for label in alphabet))
    return LabelCoverInstance(game.edges, tuple(alphabets), game.right_alphabets, RESTRICTION,
                              tuple(domains), game.right_domains)


def _explicit(game):
    """The restriction game as a tables game, each projection worked out bit
    by bit from the domains."""
    tables = []
    for u, v in game.edges:
        where = [game.left_domains[u].index(var) for var in game.right_domains[v]]
        tables.append(tuple(sum(((label >> i) & 1) << j for j, i in enumerate(where))
                            for label in game.left_alphabets[u]))
    return LabelCoverInstance(game.edges, game.left_alphabets, game.right_alphabets,
                              tuple(tables))


@given(games(), st.data())
@small
def test_game_values_are_invariant(game, data):
    (left, right), val = brute_force_val(game)
    weak_left, wval = brute_force_wval(game)
    left_map = data.draw(st.permutations(range(game.num_left)))
    right_map = data.draw(st.permutations(range(game.num_right)))
    edge_order = data.draw(st.permutations(range(game.num_edges)))
    same = tuple(range(game.num_left)), tuple(range(game.num_right))
    others = [(_relabel(game, left_map, right_map, edge_order), (left_map, right_map))]
    if game.projections == RESTRICTION:
        orders = [data.draw(st.permutations(range(len(d)))) for d in game.left_domains]
        others += [(_explicit(game), same), (_reorder_left_domains(game, orders), same)]
    for other, (lmap, rmap) in others:
        (other_left, other_right), other_val = brute_force_val(other)
        other_weak, other_wval = brute_force_wval(other)
        assert (other_val, other_wval) == (val, wval)
        assert reference.labeling_value(other, (_moved(left, lmap), _moved(right, rmap))) == val
        assert weak_agreement_value(other, _moved(weak_left, lmap)) == wval
        back = [_back(lmap), _back(rmap)]
        assert reference.labeling_value(game, (_moved(other_left, back[0]),
                                                _moved(other_right, back[1]))) == val
        assert weak_agreement_value(game, _moved(other_weak, back[0])) == wval


@st.composite
def renamed_formulas(draw):
    """(formula, clause subsets, the renamed formula, its subsets, variable
    map): six clauses of width 1 to 3 over at most 3 variables, split into 2
    or 3 subsets, so that about a third of the games have value below 1.
    Variable v becomes var_map[v], clause i becomes clause clause_map[i] with
    its literals reordered, and each subset follows its clauses."""
    m, k = 6, draw(st.sampled_from((2, 3)))
    clauses = [tuple(v if draw(st.booleans()) else -v
                     for v in draw(st.permutations((1, 2, 3)))[:draw(st.sampled_from((1, 2, 3)))])
               for _ in range(m)]
    # number the variables that occur 1, 2, ..., so that every one is used
    used = sorted({abs(lit) for clause in clauses for lit in clause})
    clauses = [tuple((used.index(abs(lit)) + 1) * (1 if lit > 0 else -1) for lit in clause)
               for clause in clauses]
    n = len(used)
    order = draw(st.permutations(range(m)))
    sets = [tuple(sorted(order[j::k])) for j in range(k)]
    var_map = (0, *draw(st.permutations(range(1, n + 1))))
    clause_map = draw(st.permutations(range(m)))
    moved = [None] * m
    for i, clause in enumerate(clauses):
        renamed = tuple(var_map[abs(lit)] * (1 if lit > 0 else -1) for lit in clause)
        moved[clause_map[i]] = tuple(draw(st.permutations(renamed)))
    moved_sets = tuple(tuple(sorted(clause_map[c] for c in s)) for s in sets)
    return (CnfFormula(n, tuple(clauses)), SetSystem(m, tuple(sets)),
            CnfFormula(n, tuple(moved)), SetSystem(m, moved_sets), var_map)


def _renamed(mask, dom, other_dom, var_map):
    """The assignment `mask` to `dom` (bit j the value of dom[j]) as a mask
    over other_dom, variable v renamed var_map[v]."""
    return sum(((mask >> j) & 1) << other_dom.index(var_map[v]) for j, v in enumerate(dom))


def _renamed_labeling(game, other, var_map, left, right=None):
    """A labeling of `game` as the labeling of `other` that gives each
    vertex the same assignment, renamed; right labels are their masks."""
    moved = tuple(other.left_alphabets[u].index(_renamed(game.left_alphabets[u][a],
                                                         game.left_domains[u],
                                                         other.left_domains[u], var_map))
                  for u, a in enumerate(left))
    if right is None:
        return moved
    return moved, tuple(_renamed(b, game.right_domains[v], other.right_domains[v], var_map)
                        for v, b in enumerate(right))


@given(renamed_formulas())
@small
def test_clause_game_values_are_invariant(case):
    formula, system, other_formula, other_system, var_map = case
    game = build_main_reduction(formula, system, 2, allow_vacuous=True)
    other = build_main_reduction(other_formula, other_system, 2, allow_vacuous=True)
    assert [len(a) for a in other.left_alphabets] == [len(a) for a in game.left_alphabets]
    if not all(game.left_alphabets):
        return  # a subset holds two opposite unit clauses: no left labeling
    (left, right), val = brute_force_val(game)
    weak_left, wval = brute_force_wval(game)
    (other_left, other_right), other_val = brute_force_val(other)
    other_weak, other_wval = brute_force_wval(other)
    assert (other_val, other_wval) == (val, wval)
    back = _back(var_map)
    assert reference.labeling_value(
        other, _renamed_labeling(game, other, var_map, left, right)) == val
    assert weak_agreement_value(other, _renamed_labeling(game, other, var_map, weak_left)) == wval
    assert reference.labeling_value(
        game, _renamed_labeling(other, game, back, other_left, other_right)) == val
    assert weak_agreement_value(game, _renamed_labeling(other, game, back, other_weak)) == wval


@st.composite
def relabeled(draw, min_sets=1, max_sets=5):
    """(instance, its relabeling, set map): set j of the instance becomes set
    set_map[j] of the relabeling, and element e becomes element_map[e]."""
    u = draw(st.integers(1, 5))
    n = draw(st.integers(min_sets, max_sets))
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


def _check_ncp(case, tbar):
    cov, moved, set_map = case
    inst, other_inst = abss_ncp_reduction(cov, tbar), abss_ncp_reduction(moved, tbar)
    best, other = exact_ncp(inst), exact_ncp(other_inst)
    assert best.value == other.value

    def hamming(code, x):
        return sum((sum(a * xj for a, xj in zip(row, x)) - y) % 2
                   for row, y in zip(code.rows, code.target))

    assert hamming(other_inst, _column_vector(set_map, best.witness)) == best.value
    assert hamming(inst, _column_vector(_back(set_map), other.witness)) == best.value


@given(relabeled(), st.integers(0, 2))
@small
def test_abss_ncp_optimum_is_invariant(case, tbar):
    _check_ncp(case, tbar)


@given(relabeled(min_sets=3, max_sets=3), st.integers(0, 2))
@small
def test_abss_ncp_optimum_is_invariant_across_a_long_prefix(case, tbar):
    """Blocks of one trailing column, so the lex prefix holds the other two."""
    cov, _, _ = case
    words = max(1, -(-len(abss_ncp_reduction(cov, tbar).rows) // 64))
    with mock.patch.object(budget, "BLOCK_CELLS", 2 * words):
        _check_ncp(case, tbar)


def _check_cvp(case, p):
    cov, moved, set_map = case
    inst, other_inst = abss_cvp_reduction(cov, 1, p=p), abss_cvp_reduction(moved, 1, p=p)
    best, other = exact_cvp(inst), exact_cvp(other_inst)
    assert best.value == other.value
    assert _residual_cost(other_inst, _column_vector(set_map, best.witness), p) == best.value
    assert _residual_cost(inst, _column_vector(_back(set_map), other.witness), p) == best.value


@given(relabeled(max_sets=4), st.sampled_from((1, 2)))
@small
def test_abss_cvp_optimum_is_invariant(case, p):
    _check_cvp(case, p)


@given(relabeled(min_sets=3, max_sets=3), st.sampled_from((1, 2)))
@small
def test_abss_cvp_optimum_is_invariant_across_a_long_prefix(case, p):
    """Blocks of one trailing column, so the lex prefix holds the other two."""
    cov, _, _ = case
    side, height = 2 * (cov.k + 1) + 1, len(abss_cvp_reduction(cov, 1).rows)
    with mock.patch.object(budget, "BLOCK_CELLS", side * height):
        _check_cvp(case, p)


@st.composite
def relabeled_collections(draw):
    """(collection, its relabeling, set map): 2 to 5 local functions over at
    most 6 points; function j becomes function set_map[j], and point e
    becomes point point_map[e], keeping its value."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    subsets = st.lists(st.integers(0, n - 1), unique=True).map(lambda s: tuple(sorted(s)))
    sets = draw(st.lists(subsets, min_size=k, max_size=k))
    values = [tuple(draw(st.lists(st.integers(0, 1), min_size=len(s), max_size=len(s))))
              for s in sets]
    point_map = draw(st.permutations(range(n)))
    set_map = draw(st.permutations(range(k)))
    moved_sets, moved_values = [None] * k, [None] * k
    for j, (s, vals) in enumerate(zip(sets, values)):
        points = sorted((point_map[e], v) for e, v in zip(s, vals))
        moved_sets[set_map[j]] = tuple(e for e, _ in points)
        moved_values[set_map[j]] = tuple(v for _, v in points)
    return (FunctionCollection(SetSystem(n, tuple(sets)), tuple(values)),
            FunctionCollection(SetSystem(n, tuple(moved_sets)), tuple(moved_values)),
            set_map)


@given(relabeled_collections())
@small
def test_agreement_measures_are_invariant(case):
    fc, moved, set_map = case
    for i, j in itertools.combinations(range(fc.k), 2):
        assert disagr(fc, i, j) == disagr(moved, set_map[i], set_map[j])
        for ell in range(fc.k - 1):
            assert (pair_consistency(fc, i, j, ell)
                    == pair_consistency(moved, set_map[i], set_map[j], ell))
    for t in range(2, fc.k + 1):
        assert t_wagr(fc, t) == t_wagr(moved, t)


@st.composite
def relabeled_graphs(draw):
    """(graph, its relabeling, vertex map): at most 7 vertices, each pair
    blue, red or neither; vertex v becomes vertex vertex_map[v]."""
    k = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(k), 2))
    colours = draw(st.lists(st.sampled_from("br-"), min_size=len(pairs), max_size=len(pairs)))
    vertex_map = draw(st.permutations(range(k)))

    def graph(vertex):
        edges = {c: frozenset(tuple(sorted((vertex[u], vertex[v])))
                              for (u, v), colour in zip(pairs, colours) if colour == c)
                 for c in "br"}
        return RedBlueGraph(k, edges["b"], edges["r"])
    return graph(range(k)), graph(vertex_map), vertex_map


@given(relabeled_graphs())
@small
def test_red_blue_graph_verdicts_are_invariant(case):
    graph, moved, vertex_map = case
    for d in range(1, graph.num_vertices + 1):
        subset, density = find_non_red_subgraph(graph, d)
        assert find_non_red_subgraph(moved, d)[1] == density
        assert _non_red_density(moved, tuple(sorted(vertex_map[v] for v in subset))) == density
    for h in range(graph.num_vertices):
        assert check_rb_transitive(graph, h)[0] == check_rb_transitive(moved, h)[0]
