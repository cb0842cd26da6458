"""Agreement testing over collections of local boolean functions: pairwise
disagreement, t-wise weak agreement, two-level consistency graphs, red-blue
transitivity, almost-non-red subgraph search, majority decoding, and the
decoder turning a good left labeling back into an assignment."""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .budget import BudgetError, check, search
from .formula import clause_value, max_occurrence
from .labelcover import UnsatisfiableSubsetError, left_vertices
from .setsys import SetSystem, bitmask, is_uniform, masks


@dataclass(frozen=True)
class FunctionCollection:
    """One boolean function per set of a SetSystem, bits aligned with the
    set's sorted elements."""

    system: SetSystem
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.values) != self.system.k:
            raise ValueError("one function per set required")
        for s, vals in zip(self.system.sets, self.values):
            if len(vals) != len(s):
                raise ValueError("function length must equal its set size")
            if any(v not in (0, 1) for v in vals):
                raise ValueError("values must be bits")

    @classmethod
    def from_global(cls, system, bits):
        """Restrict one global function (bits over the whole universe)."""
        if len(bits) != system.universe_size:
            raise ValueError("global function must cover the universe")
        return cls(system, tuple(tuple(bits[e] for e in s) for s in system.sets))

    @property
    def k(self):
        return self.system.k

    @property
    def n(self):
        return self.system.universe_size

    @cached_property
    def domain_masks(self):
        return tuple(masks(self.system))

    @cached_property
    def ones_masks(self):
        return tuple(bitmask(e for e, v in zip(s, vals) if v)
                     for s, vals in zip(self.system.sets, self.values))

    def disagreement(self, i, j):
        """The mask of the points of S_i ∩ S_j where f_i and f_j differ."""
        return ((self.ones_masks[i] ^ self.ones_masks[j])
                & self.domain_masks[i] & self.domain_masks[j])


def disagr(collection, i, j):
    """|{u in S_i ∩ S_j : f_i(u) != f_j(u)}|; disjoint sets give 0."""
    return collection.disagreement(i, j).bit_count()


def _combo_agrees(collection, combo):
    # each pair's disagreement lies inside S_i ∩ S_j, which holds the t-wise
    # intersection, so masking it by that intersection is exact
    inter = collection.domain_masks[combo[0]]
    for i in combo[1:]:
        inter &= collection.domain_masks[i]
    for i, j in itertools.combinations(combo, 2):
        if collection.disagreement(i, j) & inter == 0:
            return True
    return False


def t_wagr(collection, t, budget=None):
    """Probability over unordered t-set samples that some two functions agree
    on the t-wise domain intersection."""
    k = collection.k
    if not 2 <= t <= k:
        raise ValueError("need 2 <= t <= k")
    total = math.comb(k, t)
    check(total, budget, what="t-subset enumeration")
    hits = sum(1 for combo in itertools.combinations(range(k), t) if _combo_agrees(collection, combo))
    return Fraction(hits, total)


class _SubcollectionHits:
    """hits(diff, ell): how many ell-subsets S' of the sets other than a pair
    (i, j) give diff ∩ ⋂S' = ∅, for diff inside S_i ∩ S_j.

    S_i and S_j both contain diff, so they never empty it: the count depends
    on the pair only through diff and is cached by (diff, ell) for the whole
    collection. ell = 0 counts the empty subcollection as consistent.
    """

    def __init__(self, collection):
        self._masks = collection.domain_masks
        self._k = collection.k
        self._cache = {}

    def hits(self, diff, ell):
        if ell == 0:
            return 1
        key = (diff, ell)
        if key not in self._cache:
            self._cache[key] = self._count(diff, ell)
        return self._cache[key]

    def cost(self, diff, ell):
        """The work of hits(diff, ell): one pass over the k sets and, for
        ell >= 2, the cheaper of inclusion-exclusion (|diff| steps for each
        subset of diff) and enumeration of the C(k-2, ell) subcollections."""
        if ell == 0:
            return 0
        if ell == 1:
            return self._k
        d = diff.bit_count()
        return self._k + min(d << d, math.comb(self._k - 2, ell))

    def _count(self, diff, ell):
        cuts = [m & diff for m in self._masks]
        if ell == 1:
            # i and j cut nothing off diff, so they count only when diff = ∅
            return cuts.count(0) - (2 if diff == 0 else 0)
        d = diff.bit_count()
        if self.cost(diff, ell) < self._k + (d << d):
            # enumeration is cheaper; two cuts equal to diff stand for i and j
            cuts.remove(diff)
            cuts.remove(diff)
            hits = 0
            for combo in itertools.combinations(cuts, ell):
                m = diff
                for c in combo:
                    m &= c
                if m == 0:
                    hits += 1
            return hits
        # inclusion-exclusion: sum over D ⊆ diff of (-1)^|D| C(N_D - 2, ell),
        # N_D = |{x : D ⊆ S_x}| from one superset sum over the cuts, with the
        # bits of diff renumbered 0..d-1
        bits = [1 << p for p in range(diff.bit_length()) if diff >> p & 1]
        supersets = [0] * (1 << d)
        for cut, times in collections.Counter(cuts).items():
            supersets[sum(1 << r for r, b in enumerate(bits) if cut & b)] += times
        for r in range(d):
            step = 1 << r
            for sub in range(1 << d):
                if not sub & step:
                    supersets[sub] += supersets[sub | step]
        return sum((-1) ** sub.bit_count() * math.comb(n - 2, ell)
                   for sub, n in enumerate(supersets))


def pair_consistency(collection, i, j, ell, budget=None):
    """Fraction of ell-size subcollections S' of the other sets on which
    f_i and f_j agree over S_i ∩ S_j ∩ ⋂S'. ell=0 returns 1 by convention."""
    k = collection.k
    if i == j or not (0 <= i < k and 0 <= j < k):
        raise ValueError("need two distinct set indices")
    if ell == 0:
        return Fraction(1)
    if not 1 <= ell <= k - 2:
        raise ValueError("need 0 <= ell <= k - 2")
    diff = collection.disagreement(i, j)
    counter = _SubcollectionHits(collection)
    check(counter.cost(diff, ell), budget, what="subcollection count")
    return Fraction(counter.hits(diff, ell), math.comb(k - 2, ell))


class ConsistencyOverlapError(ValueError):
    """A pair qualified as both blue and red; the two-level definition does
    not rule this out at t=2, where every pair is vacuously blue."""

    def __init__(self, i, j, blue_consistency, red_consistency):
        self.pair = (i, j)
        self.blue_consistency = blue_consistency
        self.red_consistency = red_consistency
        super().__init__(
            f"pair ({i}, {j}) is both blue and red "
            f"(consistency {blue_consistency} vs {red_consistency})"
        )


@dataclass(frozen=True)
class RedBlueGraph:
    num_vertices: int
    blue: frozenset
    red: frozenset
    # always False: every graph is exact; kept so recorded graphs still compare
    estimated: bool = False

    def __post_init__(self):
        for name, edges in (("blue", self.blue), ("red", self.red)):
            for u, v in edges:
                if not (0 <= u < v < self.num_vertices):
                    raise ValueError(f"{name} edge ({u}, {v}) not a sorted in-range pair")
        if self.blue & self.red:
            raise ValueError("blue and red edge sets must be disjoint")


def build_two_level_graph(collection, alpha, beta, t, budget=None):
    """Blue edges are (t-2, beta)-consistent pairs; red edges are pairs that
    are not (2t-3, alpha)-consistent. Requires alpha <= beta and k >= 2t-1.

    The consistencies are exact, from one hit counter shared by all pairs.
    The budget is charged C(k, 2) pair lookups plus the counter's cost of
    each distinct (diff, ell) key. A pair qualifying as both raises
    ConsistencyOverlapError (possible only at t=2, where the blue condition
    is vacuous); the thresholds compare as integers.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not 0 <= alpha <= beta <= 1:
        raise ValueError("need 0 <= alpha <= beta <= 1")
    if t < 2:
        raise ValueError("t must be at least 2")
    k = collection.k
    if k < 2 * t - 1:
        raise ValueError("need k >= 2t - 1 so both subcollection sizes exist")
    pairs = list(itertools.combinations(range(k), 2))
    diffs = [collection.disagreement(i, j) for i, j in pairs]
    counter = _SubcollectionHits(collection)
    blue_ell, red_ell = t - 2, 2 * t - 3
    check(len(pairs) + sum(counter.cost(diff, blue_ell) + counter.cost(diff, red_ell)
                           for diff in set(diffs)),
          budget, what="two-level consistency count")
    blue_total, red_total = math.comb(k - 2, blue_ell), math.comb(k - 2, red_ell)
    blue, red = set(), set()
    for (i, j), diff in zip(pairs, diffs):
        blue_hits = counter.hits(diff, blue_ell)
        red_hits = counter.hits(diff, red_ell)
        is_blue = blue_hits * beta.denominator >= beta.numerator * blue_total
        is_red = red_hits * alpha.denominator < alpha.numerator * red_total
        if is_blue and is_red:
            raise ConsistencyOverlapError(i, j, Fraction(blue_hits, blue_total),
                                          Fraction(red_hits, red_total))
        if is_blue:
            blue.add((i, j))
        if is_red:
            red.add((i, j))
    return RedBlueGraph(k, frozenset(blue), frozenset(red))


def check_rb_transitive(graph, h):
    """True iff every red edge's endpoints share fewer than h common blue
    neighbors; otherwise (False, (u, v, common_count)) for the first violation."""
    adj = [set() for _ in range(graph.num_vertices)]
    for u, v in graph.blue:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in sorted(graph.red):
        common = len(adj[u] & adj[v])
        if common >= h:
            return False, (u, v, common)
    return True, None


def _non_red_density(graph, vertices):
    # ordered pairs over B x B, diagonal included; only red pairs count against
    bad = 0
    vs = set(vertices)
    for u, v in graph.red:
        if u in vs and v in vs:
            bad += 2
    size = len(vertices)
    return Fraction(size * size - bad, size * size)


def find_non_red_subgraph(graph, d, budget=None):
    """A d-vertex subset with high non-red ordered-pair density.

    When the C(k, d) subsets fit the budget this maximizes over all of them
    (min-lex ties); otherwise it deletes the heaviest red vertex until d
    remain. Density is recomputed exactly either way.
    """
    subset, density, _ = _non_red_subgraph(graph, d, budget)
    return subset, density


def _non_red_subgraph(graph, d, budget):
    """find_non_red_subgraph's (subset, density) and whether it searched
    every subset."""
    k = graph.num_vertices
    if not 1 <= d <= k:
        raise ValueError("need 1 <= d <= num_vertices")
    total = math.comb(k, d)
    try:
        subset, density = search(max, lambda: itertools.combinations(range(k), d),
                                 total, lambda combo: _non_red_density(graph, combo),
                                 budget, "d-subset enumeration")
        return subset, density, True
    except BudgetError:
        pass  # too many d-subsets: delete red-heavy vertices instead
    remaining = set(range(k))
    while len(remaining) > d:
        deg = collections.Counter(x for u, v in graph.red
                                  if u in remaining and v in remaining for x in (u, v))
        remaining.remove(max(remaining, key=lambda v: (deg[v], v)))
    chosen = tuple(sorted(remaining))
    return chosen, _non_red_density(graph, chosen), False


@dataclass(frozen=True)
class MajorityStats:
    members: tuple[int, ...]
    mean_disagr: Fraction
    kappa: Fraction
    zeta: Fraction
    rho: Fraction
    bound_squared: Fraction
    bound_holds: bool
    pair_mean_disagr: Fraction
    power_mean_holds: bool


def majority_decode(collection, members, zeta=Fraction(0), rho=Fraction(1)):
    """Pointwise majority over the member functions covering each point.

    Ties and uncovered points decode to 0. Stats report the exact mean
    disagreement E_{S in S'}[disagr(g, f_S)], kappa = Pr over independent
    ordered member pairs of disagr > zeta*n, the squared bound n^2(rho*kappa
    + zeta) compared against the squared mean, and the ordered-pair mean
    disagreement checked against mean^2/n.
    """
    members = tuple(members)
    if not members:
        raise ValueError("need a nonempty subcollection")
    if len(set(members)) != len(members):
        raise ValueError("members must be distinct")
    k = collection.k
    if any(not 0 <= i < k for i in members):
        raise ValueError("member index out of range")
    n = collection.n
    zeta, rho = Fraction(zeta), Fraction(rho)
    cover = [0] * n
    ones = [0] * n
    for i in members:
        for e, v in zip(collection.system.sets[i], collection.values[i]):
            cover[e] += 1
            ones[e] += v
    g = tuple(1 if 2 * ones[x] > cover[x] else 0 for x in range(n))
    g_ones = bitmask(x for x in range(n) if g[x])
    total = 0
    for i in members:
        total += ((g_ones ^ collection.ones_masks[i]) & collection.domain_masks[i]).bit_count()
    mean = Fraction(total, len(members))
    pair_total = 0
    kappa_hits = 0
    for i in members:
        for j in members:
            dij = collection.disagreement(i, j).bit_count()
            pair_total += dij
            if Fraction(dij) > zeta * n:
                kappa_hits += 1
    pairs = len(members) ** 2
    kappa = Fraction(kappa_hits, pairs)
    pair_mean = Fraction(pair_total, pairs)
    bound_squared = Fraction(n * n) * (rho * kappa + zeta)
    stats = MajorityStats(
        members=members,
        mean_disagr=mean,
        kappa=kappa,
        zeta=zeta,
        rho=rho,
        bound_squared=bound_squared,
        bound_holds=mean * mean <= bound_squared,
        pair_mean_disagr=pair_mean,
        power_mean_holds=pair_mean * n >= mean * mean,
    )
    return g, stats


@dataclass(frozen=True)
class AgreementDecodeReport:
    t: int
    k: int
    n: int
    delta: Fraction
    wagr: Fraction
    alpha: Fraction
    beta: Fraction
    rho: Fraction
    eta: Fraction
    h: int
    d: int
    blue_count: int
    blue_threshold: Fraction
    blue_ok: bool
    rb_transitive: bool
    rb_witness: object
    subset: tuple[int, ...]
    non_red_density: Fraction
    density_threshold: Fraction
    density_ok: bool
    stats: MajorityStats
    final_bound_squared: Fraction
    final_ok: bool
    graph_estimated: bool
    subgraph_mode: str
    overrides: tuple[str, ...]


def agreement_decode(collection, t, params, budget=None):
    """Run the two-level-graph decoding pipeline on a collection at delta =
    its measured t-wise weak agreement.

    Stages: measure delta, build the two-level graph at beta = delta/(4 t^2)
    and alpha from params, audit red-blue transitivity at
    h = ceil((2 alpha / beta^2) k), extract a d = ceil(delta k / (8 t^2))
    subset of high non-red density, majority-decode it at zeta = rho*eta, and
    compare every stage quantity against its target. Returns
    (subset, g, report)."""
    k = collection.k
    n = collection.n
    delta = wagr = t_wagr(collection, t, budget=budget)
    if wagr == 0:
        raise ValueError("collection has zero weak agreement; nothing to decode")
    alpha = params.alpha
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if Fraction(k) < Fraction(10 * t) / alpha:
        raise ValueError(f"need k >= 10t/alpha = {Fraction(10 * t) / alpha}")
    beta = delta / (4 * t * t)
    if alpha > beta:
        raise ValueError(f"alpha {alpha} exceeds beta {beta}")
    graph = build_two_level_graph(collection, alpha, beta, t, budget=budget)
    blue_threshold = beta * k * k
    blue_ok = Fraction(len(graph.blue)) >= blue_threshold
    h = math.ceil(2 * alpha / (beta * beta) * k)
    rb_ok, rb_witness = check_rb_transitive(graph, h)
    d = math.ceil(delta * k / (8 * t * t))
    subset, density, exhaustive = _non_red_subgraph(graph, d, budget)
    err = Fraction(2048) * t**8 * alpha / delta**4
    density_threshold = 1 - err
    density_ok = density >= density_threshold
    zeta = params.rho * params.eta
    g, stats = majority_decode(collection, subset, zeta=zeta, rho=params.rho)
    final_bound_squared = Fraction(n * n) * params.rho * (err + params.eta)
    report = AgreementDecodeReport(
        t=t, k=k, n=n, delta=delta, wagr=wagr,
        alpha=alpha, beta=beta, rho=params.rho, eta=params.eta,
        h=h, d=d,
        blue_count=len(graph.blue), blue_threshold=blue_threshold, blue_ok=blue_ok,
        rb_transitive=rb_ok, rb_witness=rb_witness,
        subset=subset, non_red_density=density,
        density_threshold=density_threshold, density_ok=density_ok,
        stats=stats,
        final_bound_squared=final_bound_squared,
        final_ok=stats.mean_disagr ** 2 <= final_bound_squared,
        graph_estimated=graph.estimated,
        subgraph_mode="exact" if exhaustive else "greedy",
        overrides=params.overrides,
    )
    return subset, g, report


@dataclass(frozen=True)
class DecodeAssignmentReport:
    nu: Fraction
    mu: Fraction
    gamma: Fraction
    Delta: int
    clause_fraction: Fraction
    bound: Fraction
    holds: bool
    subcollection_uniform: bool
    agreement: AgreementDecodeReport


def decode_assignment(formula, system, sigma, params, budget=None):
    """Decode a left labeling of the clause-subset game into an assignment.

    The labeling's local assignments become a function collection over the
    variables; the agreement decoder extracts a global function, which is the
    returned assignment. The report compares the clause fraction it satisfies
    against 1 - mu - 3*nu*Delta/gamma with nu the measured mean disagreement
    over n."""
    domains, alphabets = left_vertices(formula, system, budget=budget)
    if () in alphabets:
        u = alphabets.index(())
        raise UnsatisfiableSubsetError(u, system.sets[u])
    if len(sigma) != system.k:
        raise ValueError("labeling must cover every left vertex")
    sets = []
    values = []
    for u, (li, dom, alphabet) in enumerate(zip(sigma, domains, alphabets)):
        if not 0 <= li < len(alphabet):
            raise ValueError(f"label index {li} out of range at vertex {u}")
        sets.append(tuple(v - 1 for v in dom))
        values.append(tuple((alphabet[li] >> i) & 1 for i in range(len(dom))))
    fc = FunctionCollection(SetSystem(formula.num_vars, tuple(sets)), tuple(values))
    subset, g, agr = agreement_decode(fc, params.t, params, budget=budget)
    psi = {v + 1: g[v] for v in range(formula.num_vars)}
    nu = agr.stats.mean_disagr / formula.num_vars
    delta_occ = max_occurrence(formula)
    value = clause_value(formula, psi)
    bound = 1 - params.mu - 3 * nu * delta_occ / params.gamma
    # the clause-fraction bound is only promised when the decoded
    # subcollection is itself (gamma, mu)-uniform over the clause universe
    sub_system = SetSystem(system.universe_size,
                           tuple(system.sets[i] for i in subset))
    uniform_ok, _ = is_uniform(sub_system, params.gamma, params.mu)
    report = DecodeAssignmentReport(
        nu=nu, mu=params.mu, gamma=params.gamma, Delta=delta_occ,
        clause_fraction=value, bound=bound, holds=value >= bound,
        subcollection_uniform=uniform_ok,
        agreement=agr,
    )
    return psi, report
