"""Reference oracles for the cross-checks: one per quantity, the only home of
the code the library's searches and counters are compared with.

Most are plain loops from the definition, over Python ints, sets and
Fractions, that share with the library only its instance types,
`SolverResult`, `bitmask` (elements as an int, which this module's own
`_masks` applies to every set of a system, where the library reads packed
word rows) and, where a refusal is compared, `budget.check`: the
label-cover values and the full labeling value (reading a game through its
`tables` and `incidence`), max coverage, min set cover, greedy coverage,
k-median and k-mean, NCP, CVP, the best assignment of a formula, the
sampler, the disperser verdict, the t-wise weak agreement, the majority
decode, the red-blue transitivity check, the peel and the non-red subgraph
search. Two keep a frozen numpy kernel, because a plain loop cannot run
their corpora in time: `SubcollectionHits`, the subcollection counter as it tested each
submask of a diff against every set's domain mask, which
`pair_consistencies` and `two_level_graph` count with, and
`left_vertices`, one `satisfied_counts` call per subset. None calls the
kernel it checks, and none imports a private name of the library."""

import collections
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np

from gapforge import ConsistencyOverlapError, RedBlueGraph, SolverResult
from gapforge import budget as _budget
from gapforge.agreement import MajorityStats
from gapforge.budget import BudgetError, check
from gapforge.formula import satisfied_counts, vars_of
from gapforge.setsys import bitmask


def _masks(system):
    """Each set of a system or coverage instance as an int, bit e set for
    each element e."""
    return [bitmask(s) for s in system.sets]


class SubcollectionHits:
    """`agreement._SubcollectionHits` as it counted one diff width at a time
    by testing each submask of the diff against every set, and enumerated
    from lists of index tuples."""

    def __init__(self, collection):
        dtype = np.int64 if collection.n <= 62 else object
        self._masks, self._k = np.array(collection.domain_masks, dtype), collection.k

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


def pair_consistencies(collection, ell):
    """{(i, j): the share of the ell-subcollections of the sets other than i
    and j whose common points miss disagreement(i, j)}, for every pair i < j."""
    diffs = {pair: collection.disagreement(*pair)
             for pair in itertools.combinations(range(collection.k), 2)}
    distinct = sorted(set(diffs.values()))
    hits = dict(zip(distinct, SubcollectionHits(collection).hits(distinct, ell)))
    total = math.comb(collection.k - 2, ell)
    return {pair: Fraction(hits[diff], total) for pair, diff in diffs.items()}


def two_level_graph(collection, alpha, beta, t):
    """`build_two_level_graph` from the definition: a pair is blue when its
    (t - 2)-consistency is at least beta and red when its (2t - 3)-consistency
    is below alpha; the first pair in lex order that is both is refused."""
    blue_values = pair_consistencies(collection, t - 2)
    red_values = pair_consistencies(collection, 2 * t - 3)
    blue = {pair for pair, value in blue_values.items() if value >= beta}
    red = {pair for pair, value in red_values.items() if value < alpha}
    if both := sorted(blue & red):
        raise ConsistencyOverlapError(*both[0], blue_values[both[0]], red_values[both[0]])
    return RedBlueGraph(collection.k, frozenset(blue), frozenset(red))


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


def t_wagr(collection, t):
    """`t_wagr`: the share of t-subsets of the sets, some two of whose
    functions agree on every point of the t sets' common domain."""
    on = [dict(zip(s, vals)) for s, vals in zip(collection.system.sets, collection.values)]
    combos = list(itertools.combinations(range(collection.k), t))
    hits = 0
    for combo in combos:
        inter = set.intersection(*(set(collection.system.sets[i]) for i in combo))
        hits += any(all(on[i][e] == on[j][e] for e in inter)
                    for i, j in itertools.combinations(combo, 2))
    return Fraction(hits, len(combos))


def majority_decode(collection, members, zeta=Fraction(0), rho=Fraction(1)):
    """`majority_decode` with its per-pair disagreement loop."""
    n = collection.n
    g = tuple(1 if 2 * sum(collection.values[i][collection.system.sets[i].index(x)]
                           for i in members if x in collection.system.sets[i])
              > sum(x in collection.system.sets[i] for i in members) else 0
              for x in range(n))
    g_ones = sum(1 << x for x in range(n) if g[x])
    total = sum(((g_ones ^ collection.ones_masks[i]) & collection.domain_masks[i]).bit_count()
                for i in members)
    mean = Fraction(total, len(members))
    pair_total = kappa_hits = 0
    for i in members:
        for j in members:
            dij = collection.disagreement(i, j).bit_count()
            pair_total += dij
            if dij > zeta * n:
                kappa_hits += 1
    pairs = len(members) ** 2
    kappa, pair_mean = Fraction(kappa_hits, pairs), Fraction(pair_total, pairs)
    bound_squared = Fraction(n * n) * (rho * kappa + zeta)
    return g, MajorityStats(tuple(members), mean, kappa, zeta, rho, bound_squared,
                            mean * mean <= bound_squared, pair_mean, pair_mean * n >= mean * mean)


def sample_random_subsets(universe_size, k, p, seed):
    """The sets of `sample_random_subsets`: element e joins a set when its
    draw is below p, one `rng.random() < p` per element (exact for a
    Fraction p)."""
    rng = random.Random(seed)
    return tuple(tuple(e for e in range(universe_size) if rng.random() < p) for _ in range(k))


def disperser(system, r, ell, eta):
    """`is_strong_intersection_disperser` as (status, witness, uncovered,
    combinations checked): every r-tuple of the subcollections of size at
    most ell, in (size, lex) then combinations order, its union of
    intersections materialized as a Python set; the witness is the first
    r-tuple leaving the most elements uncovered."""
    pool = [sub for size in range(1, ell + 1)
            for sub in itertools.combinations(range(system.k), size)]
    if len(pool) < r:
        return "certified-yes", None, None, 0
    sets = [set(s) for s in system.sets]

    def uncovered(combo):
        return system.universe_size - len(set().union(
            *(set.intersection(*(sets[i] for i in sub)) for sub in combo)))
    worst = max(itertools.combinations(pool, r), key=uncovered)
    most = uncovered(worst)
    status = "violated" if most > Fraction(eta) * system.universe_size else "certified-yes"
    return status, worst, most, math.comb(len(pool), r)


def brute_force_max_val(formula):
    """`brute_force_max_val`: the lex-first assignment, x1 first, satisfying
    the most clauses; bit n - v of an assignment index is variable v."""
    n = formula.num_vars
    clauses = [(bitmask(n - lit for lit in clause if lit > 0),
                bitmask(n + lit for lit in clause if lit < 0)) for clause in formula.clauses]

    def satisfied(x):
        return sum(bool(x & pos or ~x & neg) for pos, neg in clauses)
    best = max(range(1 << n), key=satisfied)
    return ({v: best >> n - v & 1 for v in range(1, n + 1)},
            Fraction(satisfied(best), formula.num_clauses))


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


def labeling_value(game, labeling):
    """The share of edges whose left label projects to the right label, for
    a full labeling (left indices, right indices)."""
    left, right = labeling
    sat = sum(game.tables[e][left[u]] == right[v] for e, (u, v) in enumerate(game.edges))
    return Fraction(sat, game.num_edges)


def extension(game, left):
    """`optimal_extension`: each right vertex takes its most projected label,
    ties to the smallest and 0 without edges; with its value."""
    right, sat = [], 0
    for pairs in game.incidence:
        counts = collections.Counter(game.tables[e][left[u]] for e, u in pairs)
        best = max(sorted(counts), key=counts.__getitem__, default=0)
        right.append(best)
        sat += counts[best]
    return tuple(right), Fraction(sat, game.num_edges)


def weak_agreement(game, left):
    """`weak_agreement_value`: the share of right vertices two of whose edges
    project the same label."""
    projected = ([game.tables[e][left[u]] for e, u in pairs] for pairs in game.incidence)
    return Fraction(sum(len(set(labels)) < len(labels) for labels in projected), game.num_right)


def _lex_first_best(game, score):
    best = max(itertools.product(*(range(len(a)) for a in game.left_alphabets)), key=score)
    return best, score(best)


def val(game):
    """`brute_force_val`: the lex-first left labeling of largest extension
    value, with its extension."""
    best, _ = _lex_first_best(game, lambda left: extension(game, left)[1])
    right, value = extension(game, best)
    return (best, right), value


def wval(game):
    """`brute_force_wval`: the lex-first left labeling of largest weak
    agreement, with its value."""
    return _lex_first_best(game, functools.partial(weak_agreement, game))


def _covered(ms, combo):
    """How many elements the sets `combo` cover together, ms being the
    instance's set masks."""
    m = 0
    for j in combo:
        m |= ms[j]
    return m.bit_count()


def greedy_max_coverage(instance):
    """`greedy_max_coverage` as a best-so-far loop: each step takes the first
    unchosen set of largest gain; `enumerated` counts the sets it scored."""
    ms = _masks(instance)
    chosen, covered, steps = [], 0, 0
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
    return SolverResult(value=covered.bit_count(), witness=tuple(chosen), enumerated=steps)


def max_coverage(instance, budget=None):
    """`exact_max_coverage`: the lex-first k-subset covering the most, each
    scored by OR-ing the Python int masks of its sets."""
    n = len(instance.sets)
    if instance.k > n:
        raise ValueError("k exceeds the number of sets")
    total = math.comb(n, instance.k)
    check(total, budget, "k-subset enumeration")
    covered = functools.partial(_covered, _masks(instance))
    best = max(itertools.combinations(range(n), instance.k), key=covered)
    return SolverResult(value=covered(best), witness=best, enumerated=total)


def min_set_cover(instance, budget=None):
    """`exact_min_set_cover` as the same per-level charge in front of an
    itertools.combinations loop over Python int masks."""
    n = len(instance.sets)
    covered = functools.partial(_covered, _masks(instance))
    if covered(range(n)) < instance.universe_size:
        raise ValueError("no cover exists: some element is in no set")
    for size in range(n + 1):
        charged = sum(math.comb(n, j) for j in range(size + 1))
        check(charged, budget, f"subset enumeration through size {size}")
        for combo in itertools.combinations(range(n), size):
            if covered(combo) == instance.universe_size:
                return SolverResult(value=size, witness=combo, enumerated=charged)
    raise AssertionError("unreachable: full union covers the universe")


def clustering(instance, exponent):
    """`exact_kmedian` (exponent 1) and `exact_kmean` (exponent 2): the
    lex-first facility k-subset of least sum over clients of the nearest
    distance to the power."""
    nc, nf, d = instance.num_clients, instance.num_facilities, instance.dist

    def cost(combo):
        return sum(min(d[u][nc + f] for f in combo) ** exponent for u in range(nc))
    best = min(itertools.combinations(range(nf), instance.k), key=cost)
    return SolverResult(value=cost(best), witness=best, enumerated=math.comb(nf, instance.k))


def ncp(instance, budget=None):
    """`exact_ncp`: the lex-first message x in {0, 1}^cols whose codeword is
    nearest the target, each codeword the XOR of the int masks of the
    columns that x selects."""
    cols = instance.num_cols
    check(1 << cols, budget, "message enumeration")
    columns = [bitmask(r for r, row in enumerate(instance.rows) if row[j]) for j in range(cols)]
    target = bitmask(r for r, bit in enumerate(instance.target) if bit)

    def distance(x):
        return functools.reduce(operator.xor, itertools.compress(columns, x), target).bit_count()
    best = min(itertools.product((0, 1), repeat=cols), key=distance)
    return SolverResult(value=distance(best), witness=best, enumerated=1 << cols)


def cvp(instance, box=None, budget=None):
    """`exact_cvp`: the lex-first x in [-box, box]^cols minimizing the sum
    over rows of |Ax - y|^p, in Python ints."""
    cols, p = instance.num_cols, instance.p
    if box is None:
        box = instance.k + 1
    if box < 0:
        raise ValueError("box must be nonnegative")
    check((2 * box + 1) ** cols, budget, "coordinate box enumeration")

    def cost(x):
        return sum(abs(sum(map(operator.mul, row, x)) - y) ** p
                   for row, y in zip(instance.rows, instance.target))
    best = min(itertools.product(range(-box, box + 1), repeat=cols), key=cost)
    return SolverResult(value=cost(best), witness=best, enumerated=(2 * box + 1) ** cols,
                        note=f"coordinates enumerated in [-{box}, {box}]")
