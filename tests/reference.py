"""Reference oracles for the cross-checks: plain copies of functions that a
rewrite replaced, kept as they were so the rewrite can be compared with them
on seeded corpora. The graph references read a graph only through its
`blue` and `red` pair sets; the two-level colouring shares the subcollection
counter with the code it checks, which the tests compare with enumeration
on their own."""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np

from gapforge import ConsistencyOverlapError, RedBlueGraph
from gapforge.agreement import _SubcollectionHits
from gapforge.budget import BudgetError, check
from gapforge.formula import satisfied_counts, vars_of


def two_level_graph(collection, alpha, beta, t):
    """`build_two_level_graph` as it coloured pairs into frozensets: the whole
    k x k disagreement block, `np.triu_indices` and one `np.unique` over the
    pairs, each distinct diff coloured by a Python comparison."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    k = collection.k
    rows, cols = np.triu_indices(k, 1)
    diffs, inverse = np.unique(collection._disagreements()[rows, cols], return_inverse=True)
    counter = _SubcollectionHits(collection)
    blue_ell, red_ell = t - 2, 2 * t - 3
    blue_total, red_total = math.comb(k - 2, blue_ell), math.comb(k - 2, red_ell)
    blue_hits, red_hits = counter.hits(diffs, blue_ell), counter.hits(diffs, red_ell)
    blue = np.array([h * beta.denominator >= beta.numerator * blue_total for h in blue_hits])
    red = np.array([h * alpha.denominator < alpha.numerator * red_total for h in red_hits])
    if (both := np.flatnonzero((blue & red)[inverse])).size:
        p, u = both[0], inverse[both[0]]
        raise ConsistencyOverlapError(int(rows[p]), int(cols[p]),
                                      Fraction(blue_hits[u], blue_total),
                                      Fraction(red_hits[u], red_total))
    return RedBlueGraph(k, *(frozenset(zip(rows[on].tolist(), cols[on].tolist()))
                             for on in (blue[inverse], red[inverse])))


def rb_check(graph, h):
    """`check_rb_transitive` with blue neighbour sets for every vertex."""
    adj = [set() for _ in range(graph.num_vertices)]
    for u, v in graph.blue:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in sorted(graph.red):
        common = len(adj[u] & adj[v])
        if common >= h:
            return False, (u, v, common)
    return True, None


def _red_pairs(graph, vertices):
    vs = set(vertices)
    return sum(u in vs and v in vs for u, v in graph.red)


def _density(graph, vertices):
    size = len(vertices)
    return Fraction(size * size - 2 * _red_pairs(graph, vertices), size * size)


def peel_red_vertices(graph, d):
    """`_peel_red_vertices` as a red-degree recount on every step."""
    remaining = set(range(graph.num_vertices))
    while len(remaining) > d:
        deg = collections.Counter(x for u, v in graph.red
                                  if u in remaining and v in remaining for x in (u, v))
        remaining.remove(max(remaining, key=lambda v: (deg[v], v)))
    chosen = tuple(sorted(remaining))
    return chosen, _density(graph, chosen)


def non_red_subgraph(graph, d):
    """`find_non_red_subgraph` as one strict-improvement loop over the d-subsets
    in lex order, scoring each by its red pairs; no budget."""
    best, best_density = None, Fraction(-1)
    for combo in itertools.combinations(range(graph.num_vertices), d):
        density = _density(graph, combo)
        if density > best_density:
            best, best_density = combo, density
    return best, best_density


def left_vertices(formula, system, var_budget=24, budget=None):
    """`left_vertices` as one `satisfied_counts` call per subset, over the
    domain reversed so that bit j of an assignment index is domain[j]."""
    if system.universe_size != formula.num_clauses:
        raise ValueError("system universe must be the clause set")
    domains = tuple(tuple(sorted(vars_of(formula, subset))) for subset in system.sets)
    for i, dom in enumerate(domains):
        if len(dom) > var_budget:
            raise BudgetError(1 << len(dom), 1 << var_budget,
                              f"alphabet enumeration for subset {i}")
    check(sum(1 << len(dom) for dom in domains), budget, what="left alphabet enumeration")
    alphabets = []
    for subset, dom in zip(system.sets, domains):
        counts = satisfied_counts(formula, dom[::-1], subset)
        alphabets.append(tuple(np.flatnonzero(counts == len(subset)).tolist()))
    return domains, tuple(alphabets)
