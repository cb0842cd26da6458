"""Agreement testing over collections of local boolean functions: pairwise
disagreement, t-wise weak agreement, two-level consistency graphs, red-blue
transitivity, almost-non-red subgraph search, majority decoding, and the
decoder turning a good left labeling back into an assignment."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .budget import check, effective
from .formula import clause_value, max_occurrence
from .labelcover import build_main_reduction
from .setsys import Estimate, SetSystem, bitmask, is_uniform, masks


@dataclass(frozen=True)
class LocalFunction:
    """A boolean function on a subset of [n], elements sorted ascending."""

    elements: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.elements) != len(self.values):
            raise ValueError("one value per element required")
        if any(e < 0 for e in self.elements):
            raise ValueError("elements must be nonnegative")
        if any(self.elements[i] >= self.elements[i + 1] for i in range(len(self.elements) - 1)):
            raise ValueError("elements must be sorted and distinct")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be bits")

    @cached_property
    def domain_mask(self):
        return bitmask(self.elements)

    @cached_property
    def ones_mask(self):
        return bitmask(e for e, v in zip(self.elements, self.values) if v)


def disagr(f1, f2):
    """|{u in dom(f1) ∩ dom(f2) : f1(u) != f2(u)}|; disjoint domains give 0."""
    return ((f1.ones_mask ^ f2.ones_mask) & f1.domain_mask & f2.domain_mask).bit_count()


def disagr_within(f1, f2, elements):
    """Disagreement count restricted to a further element set."""
    m = bitmask(elements)
    return ((f1.ones_mask ^ f2.ones_mask) & f1.domain_mask & f2.domain_mask & m).bit_count()


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

    def function(self, i):
        return LocalFunction(self.system.sets[i], self.values[i])


def _pair_agrees(collection, i, j, domain_mask):
    return ((collection.ones_masks[i] ^ collection.ones_masks[j]) & domain_mask) == 0


def _combo_agrees(collection, combo):
    inter = collection.domain_masks[combo[0]]
    for i in combo[1:]:
        inter &= collection.domain_masks[i]
    for i, j in itertools.combinations(combo, 2):
        if _pair_agrees(collection, i, j, inter):
            return True
    return False


def t_wagr(collection, t, mode="exact", trials=2000, seed=0, budget=None):
    """Probability over unordered t-set samples that some two functions agree
    on the t-wise domain intersection."""
    k = collection.k
    if not 2 <= t <= k:
        raise ValueError("need 2 <= t <= k")
    if mode == "exact":
        total = math.comb(k, t)
        check(total, budget, what="t-subset enumeration")
        hits = sum(1 for combo in itertools.combinations(range(k), t) if _combo_agrees(collection, combo))
        return Fraction(hits, total)
    if mode == "montecarlo":
        rng = random.Random(seed)
        hits = 0
        for _ in range(trials):
            combo = sorted(rng.sample(range(k), t))
            if _combo_agrees(collection, combo):
                hits += 1
        return Estimate(value=hits / trials, trials=trials, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")


def pair_consistency(collection, i, j, ell, mode="exact", trials=2000, seed=0, budget=None):
    """Fraction of ell-size subcollections S' of the other sets on which
    f_i and f_j agree over S_i ∩ S_j ∩ ⋂S'. ell=0 returns 1 by convention."""
    k = collection.k
    if i == j or not (0 <= i < k and 0 <= j < k):
        raise ValueError("need two distinct set indices")
    if ell == 0:
        return Fraction(1)
    others = [x for x in range(k) if x != i and x != j]
    if not 1 <= ell <= len(others):
        raise ValueError("need 0 <= ell <= k - 2")
    base = collection.domain_masks[i] & collection.domain_masks[j]
    diff = (collection.ones_masks[i] ^ collection.ones_masks[j]) & base
    if mode == "exact":
        total = math.comb(len(others), ell)
        check(total, budget, what="subcollection enumeration")
        hits = 0
        for combo in itertools.combinations(others, ell):
            m = diff
            for x in combo:
                m &= collection.domain_masks[x]
            if m == 0:
                hits += 1
        return Fraction(hits, total)
    if mode == "montecarlo":
        rng = random.Random(seed)
        hits = 0
        for _ in range(trials):
            combo = rng.sample(others, ell)
            m = diff
            for x in combo:
                m &= collection.domain_masks[x]
            if m == 0:
                hits += 1
        return Estimate(value=hits / trials, trials=trials, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")


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
    estimated: bool = False

    def __post_init__(self):
        for name, edges in (("blue", self.blue), ("red", self.red)):
            for u, v in edges:
                if not (0 <= u < v < self.num_vertices):
                    raise ValueError(f"{name} edge ({u}, {v}) not a sorted in-range pair")
        if self.blue & self.red:
            raise ValueError("blue and red edge sets must be disjoint")


def build_two_level_graph(collection, alpha, beta, t, mode="auto", trials=2000,
                          seed=0, budget=None):
    """Blue edges are (t-2, beta)-consistent pairs; red edges are pairs that
    are not (2t-3, alpha)-consistent. Requires alpha <= beta and k >= 2t-1.

    A pair qualifying as both raises ConsistencyOverlapError (possible only
    at t=2, where the blue condition is vacuous).
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not 0 <= alpha <= beta <= 1:
        raise ValueError("need 0 <= alpha <= beta <= 1")
    if t < 2:
        raise ValueError("t must be at least 2")
    k = collection.k
    if k < 2 * t - 1:
        raise ValueError("need k >= 2t - 1 so both subcollection sizes exist")
    work = math.comb(k, 2) * (math.comb(k - 2, t - 2) + math.comb(k - 2, 2 * t - 3))
    if mode == "auto":
        mode = "exact" if work <= effective(budget) else "montecarlo"
    if mode == "exact":
        check(work, budget, what="pair consistency enumeration")
    estimated = mode == "montecarlo"
    blue, red = set(), set()
    for i, j in itertools.combinations(range(k), 2):
        bc = pair_consistency(collection, i, j, t - 2, mode=mode,
                              trials=trials, seed=seed * 1_000_003 + i * k + j, budget=budget)
        rc = pair_consistency(collection, i, j, 2 * t - 3, mode=mode,
                              trials=trials, seed=seed * 1_000_003 + i * k + j + 1, budget=budget)
        bval = bc.value if isinstance(bc, Estimate) else bc
        rval = rc.value if isinstance(rc, Estimate) else rc
        is_blue = bval >= beta
        is_red = rval < alpha
        if is_blue and is_red:
            raise ConsistencyOverlapError(i, j, bval, rval)
        if is_blue:
            blue.add((i, j))
        if is_red:
            red.add((i, j))
    return RedBlueGraph(k, frozenset(blue), frozenset(red), estimated)


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


def find_non_red_subgraph(graph, d, mode="exact", budget=None):
    """A d-vertex subset with high non-red ordered-pair density.

    Exact mode maximizes over all d-subsets (min-lex ties); greedy mode
    deletes the heaviest red vertex until d remain. Density is recomputed
    exactly either way.
    """
    k = graph.num_vertices
    if not 1 <= d <= k:
        raise ValueError("need 1 <= d <= num_vertices")
    if mode == "exact":
        check(math.comb(k, d), budget, what="subset enumeration")
        best, best_density = None, Fraction(-1)
        for combo in itertools.combinations(range(k), d):
            dens = _non_red_density(graph, combo)
            if dens > best_density:
                best, best_density = combo, dens
        return tuple(best), best_density
    if mode == "greedy":
        remaining = set(range(k))
        while len(remaining) > d:
            deg = {v: 0 for v in remaining}
            for u, v in graph.red:
                if u in remaining and v in remaining:
                    deg[u] += 1
                    deg[v] += 1
            drop = max(remaining, key=lambda v: (deg[v], v))
            remaining.remove(drop)
        chosen = tuple(sorted(remaining))
        return chosen, _non_red_density(graph, chosen)
    raise ValueError(f"unknown mode {mode!r}")


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
            dij = ((collection.ones_masks[i] ^ collection.ones_masks[j])
                   & collection.domain_masks[i] & collection.domain_masks[j]).bit_count()
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


def agreement_decode(collection, t, delta_measured, params, budget=None,
                     graph_mode="auto", subgraph_mode="auto", trials=2000, seed=0):
    """Run the two-level-graph decoding pipeline on a collection whose t-wise
    weak agreement is at least delta_measured.

    Stages: verify the agreement floor, build the two-level graph at
    beta = delta/(4 t^2) and alpha from params, audit red-blue transitivity at
    h = ceil((2 alpha / beta^2) k), extract a d = ceil(delta k / (8 t^2))
    subset of high non-red density, majority-decode it at zeta = rho*eta, and
    compare every stage quantity against its target. Returns
    (subset, g, report)."""
    delta = Fraction(delta_measured)
    if not 0 < delta <= 1:
        raise ValueError("delta_measured must be in (0, 1]")
    k = collection.k
    n = collection.n
    wagr = t_wagr(collection, t, budget=budget)
    if wagr < delta:
        raise ValueError(f"measured t-wise weak agreement {wagr} is below {delta}")
    alpha = params.alpha
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if Fraction(k) < Fraction(10 * t) / alpha:
        raise ValueError(f"need k >= 10t/alpha = {Fraction(10 * t) / alpha}")
    beta = delta / (4 * t * t)
    if alpha > beta:
        raise ValueError(f"alpha {alpha} exceeds beta {beta}")
    graph = build_two_level_graph(collection, alpha, beta, t, mode=graph_mode,
                                  trials=trials, seed=seed, budget=budget)
    blue_threshold = beta * k * k
    blue_ok = Fraction(len(graph.blue)) >= blue_threshold
    h = math.ceil(2 * alpha / (beta * beta) * k)
    rb_ok, rb_witness = check_rb_transitive(graph, h)
    d = math.ceil(delta * k / (8 * t * t))
    if subgraph_mode == "auto":
        subgraph_mode = "exact" if math.comb(k, d) <= effective(budget) else "greedy"
    subset, density = find_non_red_subgraph(graph, d, mode=subgraph_mode, budget=budget)
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
        subgraph_mode=subgraph_mode,
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


def decode_assignment(formula, system, sigma, params, budget=None, seed=0):
    """Decode a left labeling of the clause-subset game into an assignment.

    The labeling's local assignments become a function collection over the
    variables; the agreement decoder extracts a global function, which is the
    returned assignment. The report compares the clause fraction it satisfies
    against 1 - mu - 3*nu*Delta/gamma with nu the measured mean disagreement
    over n."""
    t = params.t
    instance = build_main_reduction(formula, system, t, budget=budget)
    if len(sigma) != instance.num_left:
        raise ValueError("labeling must cover every left vertex")
    sets = []
    values = []
    for u in range(instance.num_left):
        li = sigma[u]
        if not 0 <= li < len(instance.left_alphabets[u]):
            raise ValueError(f"label index {li} out of range at vertex {u}")
        dom = instance.left_domains[u]
        mask = instance.left_alphabets[u][li]
        sets.append(tuple(v - 1 for v in dom))
        values.append(tuple((mask >> i) & 1 for i in range(len(dom))))
    fc = FunctionCollection(SetSystem(formula.num_vars, tuple(sets)), tuple(values))
    delta = t_wagr(fc, t, budget=budget)
    if delta == 0:
        raise ValueError("labeling has zero weak agreement; nothing to decode")
    subset, g, agr = agreement_decode(fc, t, delta, params, budget=budget, seed=seed)
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
