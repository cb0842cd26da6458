"""Reference oracles for the cross-checks: plain copies of functions that a
rewrite replaced, kept as they were so the rewrite can be compared with them
on seeded corpora. The graph references read a graph only through its
`blue` and `red` pair sets; the two-level colouring counts with
`SubcollectionHits`, the subcollection counter as it tested each submask of
a diff against every set. The CVP reference shares the box search with
the code it checks and differs from it only in the word it computes in; the
NCP reference is that box search over {0, 1} in int64 residuals, so it
shares no code with the packed-word search it checks."""

import collections
import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np

from gapforge import ConsistencyOverlapError, RedBlueGraph, SolverResult
from gapforge import budget as _budget
from gapforge.budget import BudgetError, check, search
from gapforge.formula import satisfied_counts, vars_of
from gapforge.setsys import masks
from gapforge.solvers import _box_search


class SubcollectionHits:
    """`agreement._SubcollectionHits` as it counted one diff width at a time
    by testing each submask of the diff against every set, and enumerated
    from lists of index tuples."""

    def __init__(self, collection):
        self._masks, self._k = collection._mask_arrays[1], collection.k

    def _paths(self, diffs, ell):
        total = math.comb(self._k - 2, ell) if ell > 1 else 0
        paths, steps = [], []
        for d in (int(diff).bit_count() for diff in diffs):
            included = ell > 1 and d << d <= total
            paths.append(d if included else -1)
            steps.append(d << d if included else total)
        return np.array(paths, np.int64), steps

    def cost(self, diffs, ell):
        if ell == 0:
            return 0
        _, steps = self._paths(diffs, ell)
        return len(steps) * self._k + sum(steps)

    def hits(self, diffs, ell):
        diffs = np.asarray(diffs, self._masks.dtype)
        if ell == 0:
            return [1] * len(diffs)
        paths, _ = self._paths(diffs, ell)
        counts = np.zeros(len(diffs), object)
        step = max(1, _budget.BLOCK_CELLS // self._k)
        for d in set(paths.tolist()):
            rows, count = np.flatnonzero(paths == d), self._included if d >= 0 else self._enumerated
            for part in (rows[lo:lo + step] for lo in range(0, len(rows), step)):
                counts[part] = count(diffs[part], diffs[part, None] & self._masks, ell, d)
        return counts.tolist()

    def _enumerated(self, diffs, cuts, ell, _):
        if ell == 1:
            return (np.count_nonzero(cuts == 0, axis=1) - 2 * (diffs == 0)).tolist()
        equal = cuts == diffs[:, None]
        rest = cuts[~(equal & (equal.cumsum(axis=1) <= 2))].reshape(len(diffs), self._k - 2)
        hits = np.zeros(len(diffs), np.int64)
        combos = itertools.combinations(range(self._k - 2), ell)
        while chunk := list(itertools.islice(combos, max(1, _budget.BLOCK_CELLS // len(diffs)))):
            hits += np.count_nonzero(np.bitwise_and.reduce(rest[:, chunk], axis=2) == 0, axis=1)
        return hits.tolist()

    def _included(self, diffs, cuts, ell, d):
        bits = np.array([[1 << p for p in range(diff.bit_length()) if diff >> p & 1]
                         for diff in diffs.tolist()], self._masks.dtype)
        tally = np.zeros((len(diffs), self._k + 1), np.int64)
        width = max(1, _budget.BLOCK_CELLS // (len(diffs) * self._k))
        for lo in range(0, 1 << d, width):
            picks = (np.arange(lo, min(lo + width, 1 << d))[:, None] >> np.arange(d)) & 1
            subs = (bits @ picks.T)[:, :, None]
            sizes = np.count_nonzero(cuts[:, None, :] & subs == subs, axis=2)
            np.add.at(tally, (np.arange(len(diffs))[:, None], sizes), 1 - 2 * (picks.sum(1) & 1))
        terms = [math.comb(max(x - 2, 0), ell) for x in range(self._k + 1)]
        return [sum(c * n for c, n in zip(terms, row) if n) for row in tally.tolist()]


def two_level_graph(collection, alpha, beta, t):
    """`build_two_level_graph` as it coloured pairs into frozensets: the whole
    k x k disagreement block, `np.triu_indices` and one `np.unique` over the
    pairs, each distinct diff coloured by a Python comparison."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    k = collection.k
    rows, cols = np.triu_indices(k, 1)
    diffs, inverse = np.unique(collection._disagreements()[rows, cols], return_inverse=True)
    counter = SubcollectionHits(collection)
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


def _covered(ms, combo):
    """How many elements the sets `combo` cover together, ms being the
    instance's set masks."""
    m = 0
    for j in combo:
        m |= ms[j]
    return m.bit_count()


def max_coverage(instance, budget=None):
    """`exact_max_coverage` as one `search` over the k-subsets in lex order,
    each scored by OR-ing the Python int masks of its sets."""
    n = len(instance.sets)
    if instance.k > n:
        raise ValueError("k exceeds the number of sets")
    total = math.comb(n, instance.k)
    best, value = search(max, lambda: itertools.combinations(range(n), instance.k), total,
                         partial(_covered, masks(instance)), budget, "k-subset enumeration")
    return SolverResult(value=value, witness=best, enumerated=total)


def min_set_cover(instance, budget=None):
    """`exact_min_set_cover` as the same per-level charge in front of an
    itertools.combinations loop over Python int masks."""
    n = len(instance.sets)
    covered = partial(_covered, masks(instance))
    if covered(range(n)) < instance.universe_size:
        raise ValueError("no cover exists: some element is in no set")
    for size in range(n + 1):
        charged = sum(math.comb(n, j) for j in range(size + 1))
        check(charged, budget, f"subset enumeration through size {size}")
        for combo in itertools.combinations(range(n), size):
            if covered(combo) == instance.universe_size:
                return SolverResult(value=size, witness=combo, enumerated=charged)
    raise AssertionError("unreachable: full union covers the universe")


def ncp(instance, budget=None):
    """`exact_ncp` as a box search over {0, 1}: the parity of each int64
    residual is the F_2 residual."""
    witness, value = _box_search(instance, (0, 1), np.int64, lambda r: r & 1, budget,
                                 "message enumeration")
    return SolverResult(value=value, witness=witness, enumerated=1 << instance.num_cols)


def cvp(instance, box=None, budget=None):
    """`exact_cvp` in int64 when no partial sum can reach 2^63, in Python
    ints otherwise."""
    cols = instance.num_cols
    if box is None:
        box = instance.k + 1
    if box < 0:
        raise ValueError("box must be nonnegative")
    rows, target, p = instance.rows, instance.target, instance.p
    reach = (max((abs(a) for row in rows for a in row), default=0) * box * cols
             + max(map(abs, target), default=0))
    dtype = np.int64 if len(rows) * reach ** min(p, 64) < 2 ** 63 else object
    witness, value = _box_search(instance, range(-box, box + 1), dtype, lambda r: abs(r) ** p,
                                 budget, "coordinate box enumeration")
    return SolverResult(value=value, witness=witness, enumerated=(2 * box + 1) ** cols,
                        note=f"coordinates enumerated in [-{box}, {box}]")
