"""Agreement testing over collections of local boolean functions: pairwise
disagreement, t-wise weak agreement, two-level consistency graphs, red-blue
transitivity, almost-non-red subgraph search, majority decoding, and the
decoder turning a good left labeling back into an assignment."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from . import budget as _budget
from .budget import _combinations, block_search, check
from .formula import clause_value, max_occurrence
from .labelcover import UnsatisfiableSubsetError, left_vertices
from .setsys import SetSystem, _binary, _words, bitmask, is_uniform


def _keys(rows):
    """One sortable key per row of words (the last axis): its word or its bytes."""
    words = rows.shape[-1]
    return (rows if words == 1 else np.ascontiguousarray(rows).view(f"V{8 * words}"))[..., 0]


def _zero(rows):
    """Which rows of words (the last axis) are 0, one OR a word (`.all` is slow there)."""
    return reduce(np.bitwise_or, (rows[..., w] for w in range(rows.shape[-1]))) == 0


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
            if not _binary(vals):
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
        return tuple(map(bitmask, self.system.sets))

    @cached_property
    def ones_masks(self):
        return tuple(bitmask(itertools.compress(s, vals))
                     for s, vals in zip(self.system.sets, self.values))

    def disagreement(self, i, j):
        """The mask of the points of S_i ∩ S_j where f_i and f_j differ."""
        return ((self.ones_masks[i] ^ self.ones_masks[j])
                & self.domain_masks[i] & self.domain_masks[j])

    @cached_property
    def _rows(self):
        """The ones rows, then the domain rows, in one 2 x k x words scatter."""
        ones = np.fromiter(itertools.chain.from_iterable(self.values), bool)
        return _words((2, self.k, self.n), np.array([ones, np.ones_like(ones)]), self.system.sets)

    def _disagreements(self, rows=slice(None)):
        """The pair masks of a slice of the sets against all k of them: entry
        [a, b] is disagreement(i, b) in words for the a-th index i of the slice."""
        ones, dom = self._rows
        return (ones[rows, None] ^ ones) & (dom[rows, None] & dom)


def disagr(collection, i, j):
    """|{u in S_i ∩ S_j : f_i(u) != f_j(u)}|; disjoint sets give 0."""
    return collection.disagreement(i, j).bit_count()


def t_wagr(collection, t, budget=None):
    """Probability over unordered t-set samples that some two functions agree
    on the t-wise domain intersection. At t = 2 the agreeing pairs are the
    zero cells of row blocks of the disagreement block. Above, lex-ordered
    index blocks of t-subsets AND their t domain rows, and a t-subset hits
    when some pair's ones rows differ nowhere inside that intersection."""
    k = collection.k
    if not 2 <= t <= k:
        raise ValueError("need 2 <= t <= k")
    total = math.comb(k, t)
    check(total, budget, what="t-subset enumeration")
    if t == 2:  # the diagonal is zero, and each agreeing pair is zero twice off it
        step = max(1, _budget.BLOCK_CELLS // collection._rows[0].size)  # rows of k x words cells
        zeros = sum(int(np.count_nonzero(_zero(collection._disagreements(slice(lo, lo + step)))))
                    for lo in range(0, k, step))
        return Fraction((zeros - k) // 2, total)
    ones, dom = collection._rows
    hits = 0
    for combo in _combinations(k, t, _budget.BLOCK_CELLS // (t * dom.shape[1])):
        picked, inter = ones[combo], np.bitwise_and.reduce(dom[combo], axis=1)
        agree = reduce(np.logical_or, (_zero((picked[:, a] ^ picked[:, b]) & inter)
                                       for a, b in itertools.combinations(range(t), 2)))
        hits += int(np.count_nonzero(agree))
    return Fraction(hits, total)


class _SubcollectionHits:
    """hits(ell): for each of the diffs, each inside some S_i ∩ S_j, how many ell-subsets
    S' of the sets other than i and j give diff ∩ ⋂S' = ∅. S_i and S_j contain
    diff and never empty it, so the count depends on the pair only through
    diff. ell = 0 counts the empty subcollection as consistent.

    Inclusion-exclusion runs one batch per diff width w: each set's cut
    diff ∩ S_x is compressed to w bits, a histogram of the k cuts per diff
    is summed over supersets in w passes, which gives N_D for every D ⊆ diff,
    and Σ_D (-1)^|D| C(N_D - 2, ell) is read off a table of C(x - 2, ell).
    Enumeration ANDs the other k - 2 cuts ell at a time, reading the
    subcollections as int index blocks, on rows of words reduced over the word
    axis. Counts are int64 where a bound proves they fit and exact Python ints
    otherwise, and no array holds more than about BLOCK_CELLS cells. The
    diffs, rows of words, and their widths are fixed when the counter is
    built."""

    def __init__(self, collection, diffs):
        self._masks, self._k = collection._rows[1], collection.k
        self._members = np.unpackbits(self._masks.view(np.uint8), axis=1,  # [e, x]: e in S_x
                                      bitorder="little").T.astype(np.int64)
        self._diffs, self._widths = diffs, np.bitwise_count(diffs).sum(axis=1, dtype=np.int64)

    def _paths(self, ell):
        """The path rule, for ell >= 1: each diff's count is one pass over the
        k sets and then, for ell >= 2, the cheaper of inclusion-exclusion
        (|diff| steps for each subset of diff) and enumeration of the
        C(k-2, ell) subcollections, ties going to inclusion-exclusion. At
        ell = 1 the pass alone enumerates. |diff|·2^|diff| grows with |diff|,
        so inclusion-exclusion takes the diffs up to one width. Returns that
        width (-1 when it takes none) and the steps after the pass of an
        enumerated diff."""
        total = math.comb(self._k - 2, ell) if ell > 1 else 0
        limit, top = -1, int(self._widths.max(initial=0))
        if ell > 1:
            limit = 0
            while limit < top and (limit + 1) << (limit + 1) <= total:
                limit += 1
        return limit, total

    def cost(self, ell):
        """The work of counting every diff, by the path rule."""
        if ell == 0:
            return 0
        limit, total = self._paths(ell)
        return len(self._diffs) * self._k + sum(
            size * (w << w if w <= limit else total)
            for w, size in enumerate(np.bincount(self._widths).tolist()))

    def hits(self, ell):
        """The count of each diff, as a list of ints."""
        diffs, widths = self._diffs, self._widths
        if ell == 0:
            return [1] * len(diffs)
        limit, _ = self._paths(ell)
        counts = np.zeros(len(diffs), object)
        if (rows := np.flatnonzero(widths > limit)).size:
            counts[rows] = self._enumerated(diffs[rows], ell)
        terms = [math.comb(max(x - 2, 0), ell) for x in range(self._k + 1)]
        for w in np.unique(widths[widths <= limit]).tolist():
            rows = np.flatnonzero(widths == w)
            counts[rows] = self._included(diffs[rows], ell, w, terms)
        return counts.tolist()

    def _enumerated(self, diffs, ell):
        (k, words), counts = self._masks.shape, []
        step = max(1, _budget.BLOCK_CELLS // (k * words))
        for lo in range(0, len(diffs), step):
            part = diffs[lo:lo + step]
            cuts = part[:, None] & self._masks
            if ell == 1:  # i and j cut nothing off diff, so they count only when diff = ∅
                counts.append(np.count_nonzero(_zero(cuts), axis=1) - 2 * _zero(part))
                continue
            # two cuts equal to diff stand for i and j; AND the rest ell at a time
            equal = _zero(cuts ^ part[:, None])
            rest = cuts[~(equal & (equal.cumsum(axis=1) <= 2))].reshape(len(part), k - 2, words)
            hits = np.zeros(len(part), np.int64)
            for chunk in _combinations(k - 2, ell, _budget.BLOCK_CELLS // (len(part) * words)):
                picks = chunk.T
                cut = rest[:, picks[0]]
                for column in picks[1:]:
                    cut &= rest[:, column]
                hits += np.count_nonzero(_zero(cut), axis=1)
            counts.append(hits)
        return np.concatenate(counts)

    def _included(self, diffs, ell, w, terms):
        # sum over D ⊆ diff of (-1)^|D| C(N_D - 2, ell), N_D = |{x : D ⊆ S_x}| >= 2,
        # with terms[x] = C(x - 2, ell); each term is at most C(k-2, ell) = terms[k],
        # so |sum| <= 2^w terms[k]
        k = self._k
        table = np.array(terms, np.int64 if terms[k] << w < 1 << 63 else object)
        # a histogram spans the low bits of the compressed cuts; each diff takes
        # one histogram per value H of the high bits, of the cuts that hold H
        low = min(w, _budget.BLOCK_CELLS.bit_length() - 1)
        bins, highs = 1 << low, 1 << (w - low)
        signs = np.where(np.bitwise_count(np.arange(bins)) & 1, -1, 1)
        step = max(1, _budget.BLOCK_CELLS // max(k, bins + 1))  # histograms per block
        per, chunk = max(1, step // highs), min(step, highs)    # diffs x values of H
        counts = np.zeros(len(diffs), table.dtype)
        for lo in range(0, len(diffs), per):
            code = self._compressed(diffs[lo:lo + per], w)[:, None]
            rows = len(code) * chunk
            for h in range(0, highs, chunk):
                fixed = np.arange(h, h + chunk)
                # cuts without H go to one spare cell past the last histogram
                cells = np.where(code >> low & fixed[:, None] == fixed[:, None],
                                 np.arange(rows).reshape(-1, chunk, 1) << low | code & (bins - 1),
                                 rows << low)
                sizes = np.bincount(cells.ravel(), minlength=(rows << low) + 1)[:-1]
                sizes = sizes.reshape(rows, bins)
                for r in range(low):  # superset sums: each index adds the one with bit r set
                    pairs = sizes.reshape(rows, -1, 2, 1 << r)
                    pairs[:, :, 0] += pairs[:, :, 1]
                counts[lo:lo + len(code)] += ((table[sizes] @ signs).reshape(-1, chunk)
                                              @ np.where(np.bitwise_count(fixed) & 1, -1, 1))
        return counts

    def _compressed(self, diffs, w):
        """Each set's cut diff ∩ S_x for each of `diffs` (all of width w), as
        w bits: bit r is the r-th lowest point of diff, read across its words."""
        points = np.nonzero(np.unpackbits(diffs.view(np.uint8), axis=1, bitorder="little"))[1]
        code = np.zeros((len(diffs), self._k), np.int64)
        for r, point in enumerate(points.reshape(len(diffs), w).T):
            code |= self._members[point] << r
        return code


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
    counter = _SubcollectionHits(collection, collection._disagreements([i])[:, j])
    check(counter.cost(ell), budget, what="subcollection count")
    return Fraction(counter.hits(ell)[0], math.comb(k - 2, ell))


class ConsistencyOverlapError(ValueError):
    """A pair qualified as both blue and red; the two-level definition does
    not rule this out at t=2, where every pair is vacuously blue."""

    def __init__(self, i, j, blue_consistency, red_consistency):
        self.pair = (i, j)
        self.blue_consistency = blue_consistency
        self.red_consistency = red_consistency
        super().__init__(f"pair ({i}, {j}) is both blue and red "
                         f"(consistency {blue_consistency} vs {red_consistency})")


# the colour of a pair; _BLUE | _RED marks a pair that qualifies as both
_NEITHER, _BLUE, _RED = 0, 1, 2


def _upper_pairs(cells):
    """The true cells (u, v) with u < v of a k x k boolean array, in lex order."""
    u, v = np.divmod(np.flatnonzero(cells), len(cells))
    keep = u < v
    return u[keep], v[keep]


class RedBlueGraph:
    """A graph whose every vertex pair is blue, red or neither.

    The one internal form is `adjacency`, a symmetric read-only k x k int8
    array of those colours with an uncoloured diagonal, so blue and red are
    disjoint by construction. `blue` and `red` are the edges as frozensets of
    sorted pairs, derived on demand. The constructor takes the two pair sets
    and refuses a pair that is not sorted and in range, then overlapping sets."""

    def __init__(self, num_vertices, blue, red, estimated=False):
        for name, edges in (("blue", blue), ("red", red)):
            for u, v in edges:
                if not (0 <= u < v < num_vertices):
                    raise ValueError(f"{name} edge ({u}, {v}) not a sorted in-range pair")
        adjacency = np.zeros((num_vertices, num_vertices), np.int8)
        for colour, edges in ((_BLUE, blue), (_RED, red)):
            u, v = np.array(list(edges), np.int64).reshape(-1, 2).T
            adjacency[u, v] |= colour
            adjacency[v, u] |= colour
        if (adjacency == _BLUE | _RED).any():
            raise ValueError("blue and red edge sets must be disjoint")
        self._set(adjacency, estimated)

    @classmethod
    def _of(cls, adjacency):
        """The graph of a colour array that is symmetric by construction."""
        graph = cls.__new__(cls)
        graph._set(adjacency, False)
        return graph

    def _set(self, adjacency, estimated):
        adjacency.flags.writeable = False
        self.num_vertices = len(adjacency)
        self.adjacency = adjacency
        # always False: every graph is exact; kept so recorded graphs still compare
        self.estimated = estimated

    def _edges(self, colour):
        u, v = _upper_pairs(self.adjacency == colour)
        return frozenset(zip(u.tolist(), v.tolist()))

    blue = property(lambda self: self._edges(_BLUE))
    red = property(lambda self: self._edges(_RED))

    def __eq__(self, other):
        if not isinstance(other, RedBlueGraph):
            return NotImplemented
        return (self.estimated == other.estimated
                and np.array_equal(self.adjacency, other.adjacency))

    def __hash__(self):
        return hash((self.num_vertices, self.adjacency.tobytes(), self.estimated))

    def __repr__(self):
        return (f"RedBlueGraph(num_vertices={self.num_vertices}, blue={self.blue!r}, "
                f"red={self.red!r}, estimated={self.estimated!r})")


def build_two_level_graph(collection, alpha, beta, t, budget=None):
    """Blue edges are (t-2, beta)-consistent pairs; red edges are pairs that
    are not (2t-3, alpha)-consistent. Requires alpha <= beta and k >= 2t-1.

    Each distinct diff is counted once, in one batch per ell and diff width
    (see _SubcollectionHits), and colored once, in integers. The pairs
    are read in row blocks of the disagreement block, twice: once for their
    distinct diffs, once to scatter the colours into the adjacency. The
    budget is charged the C(k, 2) pair lookups before any is made, then
    those lookups plus the counter's cost of each distinct (diff, ell) key.
    The lex-first pair qualifying as both raises ConsistencyOverlapError
    (possible only at t=2, where the blue condition is vacuous)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not 0 <= alpha <= beta <= 1:
        raise ValueError("need 0 <= alpha <= beta <= 1")
    if t < 2:
        raise ValueError("t must be at least 2")
    k = collection.k
    if k < 2 * t - 1:
        raise ValueError("need k >= 2t - 1 so both subcollection sizes exist")
    pairs = math.comb(k, 2)
    check(pairs, budget, what="two-level pair enumeration")
    step = max(1, _budget.BLOCK_CELLS // collection._rows[0].size)

    def blocks():
        """(first row, the rows' diffs with all k sets, which cells lie right of the diagonal)"""
        for lo in range(0, k, step):
            rows = np.arange(lo, min(lo + step, k))
            yield lo, collection._disagreements(rows), rows[:, None] < np.arange(k)

    keys = np.unique(np.concatenate([np.unique(_keys(b)[up]) for _, b, up in blocks()]))
    counter = _SubcollectionHits(collection, keys.view("<u8").reshape(len(keys), -1))
    blue_ell, red_ell = t - 2, 2 * t - 3
    check(pairs + counter.cost(blue_ell) + counter.cost(red_ell),
          budget, what="two-level consistency count")
    blue_total, red_total = math.comb(k - 2, blue_ell), math.comb(k - 2, red_ell)
    blue_hits, red_hits = counter.hits(blue_ell), counter.hits(red_ell)
    # exact Python-int products, compared once per distinct diff
    colours = (_BLUE * (np.array(blue_hits, object) * beta.denominator
                       >= beta.numerator * blue_total)
               + _RED * (np.array(red_hits, object) * alpha.denominator
                        < alpha.numerator * red_total)).astype(np.int8)
    adjacency = np.zeros((k, k), np.int8)
    for lo, block, upper in blocks():
        # every cell's diff is in diffs (the diagonal's 0 finds index 0), but
        # only the cells right of the diagonal are coloured, then mirrored
        index = np.searchsorted(keys, _keys(block))
        rows = adjacency[lo:lo + len(block)] = np.where(upper, colours[index], _NEITHER)
        # row-major order of the cells right of the diagonal is lex order of the pairs
        if (both := np.argwhere(rows == _BLUE | _RED)).size:
            a, j = both[0].tolist()
            u = index[a, j]
            raise ConsistencyOverlapError(lo + a, j, Fraction(blue_hits[u], blue_total),
                                          Fraction(red_hits[u], red_total))
    adjacency |= adjacency.T
    return RedBlueGraph._of(adjacency)


def check_rb_transitive(graph, h):
    """True iff every red edge's endpoints share fewer than h common blue
    neighbors; otherwise (False, (u, v, common_count)) for the first violation
    in sorted red order. Each red edge's count is a row-wise AND of the two
    endpoints' blue rows of words, in blocks of about BLOCK_CELLS words."""
    adjacency = graph.adjacency
    us, vs = _upper_pairs(adjacency == _RED)
    blue = _words(adjacency.shape, adjacency == _BLUE)
    step = max(1, _budget.BLOCK_CELLS // blue.shape[1])
    for lo in range(0, len(us), step):
        u, v = us[lo:lo + step], vs[lo:lo + step]
        common = np.bitwise_count(blue[u] & blue[v]).sum(axis=1, dtype=np.int64)
        if (over := np.flatnonzero(common >= h)).size:
            i = over[0]
            return False, (int(u[i]), int(v[i]), int(common[i]))
    return True, None


def _red_pairs(graph, vertices):
    """The number of red edges with both ends in `vertices`."""
    vs = list(vertices)
    return int(np.count_nonzero(graph.adjacency[np.ix_(vs, vs)] == _RED)) // 2


def _non_red_density(graph, vertices):
    # ordered pairs over B x B, diagonal included; only red pairs count against
    size = len(vertices)
    return Fraction(size * size - 2 * _red_pairs(graph, vertices), size * size)


def find_non_red_subgraph(graph, d, budget=None):
    """The d-vertex subset of highest non-red ordered-pair density over all
    C(k, d) of them (min-lex ties), and that density; refused with
    BudgetError when C(k, d) exceeds the budget. Lex-ordered chunks of
    d-subsets are scored as numpy red counts, in blocks of about BLOCK_CELLS
    cells."""
    k = graph.num_vertices
    if not 1 <= d <= k:
        raise ValueError("need 1 <= d <= num_vertices")
    red = graph.adjacency == _RED

    def blocks():
        for subsets in _combinations(k, d, _budget.BLOCK_CELLS // (d * d)):
            # each red edge inside a subset is counted twice, once per order
            yield subsets, -np.count_nonzero(red[subsets[:, :, None], subsets[:, None, :]],
                                             axis=(1, 2))

    # at fixed d the density falls as the red count rises
    subsets, i, _ = block_search(max, blocks, math.comb(k, d), budget, "d-subset enumeration")
    best = tuple(subsets[i].tolist())
    return best, _non_red_density(graph, best)


def _peel_red_vertices(graph, d):
    """Delete the vertex with the most red edges inside what remains (the
    larger index on ties) until d remain; (subset, non-red density). Once no
    remaining vertex has a red edge, the rest of the deletions would take the
    largest indices, so the d smallest remaining vertices are kept at once."""
    red = graph.adjacency == _RED
    degree = red.sum(axis=1)  # a deleted vertex's degree is negative
    alive = np.ones(graph.num_vertices, bool)
    for _ in range(graph.num_vertices - d):
        if degree.max() == 0:
            break
        v = len(degree) - 1 - int(np.argmax(degree[::-1]))
        alive[v] = False
        degree -= red[v]
        degree[v] = -1
    chosen = tuple(np.flatnonzero(alive)[:d].tolist())
    return chosen, _non_red_density(graph, chosen)


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
    if any(not 0 <= i < collection.k for i in members):
        raise ValueError("member index out of range")
    n = collection.n
    zeta, rho = Fraction(zeta), Fraction(rho)
    # dense rows of the members only: ones marks f_i = 1 and dom marks S_i
    ones, dom = np.unpackbits(collection._rows[:, members].view(np.uint8), axis=2, count=n,
                              bitorder="little").astype(np.int64)
    g = (2 * ones.sum(axis=0) > dom.sum(axis=0)).astype(np.int64)
    mean = Fraction(int(((g ^ ones) & dom).sum()), len(members))
    # ordered member pairs by disagreement size: a point of S_i ∩ S_j counts when
    # exactly one of f_i, f_j is 1 there. The products run in float64, where
    # numpy has BLAS; every partial sum is an integer of at most n, so exact.
    o, d = ones.astype(float), dom.astype(float)
    cross = o @ d.T
    sizes = np.bincount((cross + cross.T - 2 * (o @ o.T)).astype(np.int64).ravel()).tolist()
    pair_total = sum(dij * times for dij, times in enumerate(sizes))
    # dij > zeta * n in integers
    kappa_hits = sum(times for dij, times in enumerate(sizes)
                     if dij * zeta.denominator > zeta.numerator * n)
    kappa, pair_mean = (Fraction(x, len(members) ** 2) for x in (kappa_hits, pair_total))
    bound_squared = Fraction(n * n) * (rho * kappa + zeta)
    return tuple(g.tolist()), MajorityStats(
        members=members, mean_disagr=mean, kappa=kappa, zeta=zeta, rho=rho,
        bound_squared=bound_squared, bound_holds=mean * mean <= bound_squared,
        pair_mean_disagr=pair_mean, power_mean_holds=pair_mean * n >= mean * mean)


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


def _agreement_decode(collection, t, params, budget=None):
    """Run the two-level-graph decoding pipeline on a collection at delta =
    its measured t-wise weak agreement.

    Stages: measure delta, build the two-level graph at beta = delta/(4 t^2)
    and alpha from params, audit red-blue transitivity at
    h = ceil((2 alpha / beta^2) k), extract a d = ceil(delta k / (8 t^2))
    subset of high non-red density, majority-decode it at zeta = rho*eta, and
    compare every stage quantity against its target. Returns
    (subset, g, report)."""
    k, n = collection.k, collection.n
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
    blue_count = int(np.count_nonzero(graph.adjacency == _BLUE)) // 2
    blue_ok = Fraction(blue_count) >= blue_threshold
    h = math.ceil(2 * alpha / (beta * beta) * k)
    rb_ok, rb_witness = check_rb_transitive(graph, h)
    d = math.ceil(delta * k / (8 * t * t))
    # the checks above force k >= 40t^3/delta and d >= 5t, so C(k, d) >= C(320, 10) ~ 2.7e18
    subset, density = _peel_red_vertices(graph, d)
    err = Fraction(2048) * t**8 * alpha / delta**4
    density_threshold = 1 - err
    density_ok = density >= density_threshold
    zeta = params.rho * params.eta
    g, stats = majority_decode(collection, subset, zeta=zeta, rho=params.rho)
    final_bound_squared = Fraction(n * n) * params.rho * (err + params.eta)
    return subset, g, AgreementDecodeReport(
        t=t, k=k, n=n, delta=delta, wagr=wagr,
        alpha=alpha, beta=beta, rho=params.rho, eta=params.eta, h=h, d=d,
        blue_count=blue_count, blue_threshold=blue_threshold, blue_ok=blue_ok,
        rb_transitive=rb_ok, rb_witness=rb_witness, subset=subset, non_red_density=density,
        density_threshold=density_threshold, density_ok=density_ok, stats=stats,
        final_bound_squared=final_bound_squared,
        final_ok=stats.mean_disagr ** 2 <= final_bound_squared,
        graph_estimated=graph.estimated, subgraph_mode="greedy", overrides=params.overrides)


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
    labels = []
    for u, (li, alphabet) in enumerate(zip(sigma, alphabets)):
        if not 0 <= li < len(alphabet):
            raise ValueError(f"label index {li} out of range at vertex {u}")
        labels.append(alphabet[li])
    # bit i of a label is the value of the i-th variable of its domain; the
    # domains are at most left_vertices' 24 variables wide, so int64 holds it
    widths = [len(dom) for dom in domains]
    bits = (np.array(labels, np.int64)[:, None] >> np.arange(max(widths, default=0)) & 1).tolist()
    fc = FunctionCollection(
        SetSystem(formula.num_vars, tuple(tuple(v - 1 for v in dom) for dom in domains)),
        tuple(tuple(row[:w]) for row, w in zip(bits, widths)))
    subset, g, agr = _agreement_decode(fc, params.t, params, budget=budget)
    psi = {v + 1: g[v] for v in range(formula.num_vars)}
    nu = agr.stats.mean_disagr / formula.num_vars
    delta_occ = max_occurrence(formula)
    value = clause_value(formula, psi)
    bound = 1 - params.mu - 3 * nu * delta_occ / params.gamma
    # the clause-fraction bound is only promised when the decoded
    # subcollection is itself (gamma, mu)-uniform over the clause universe
    sub_system = SetSystem(system.universe_size, tuple(system.sets[i] for i in subset))
    uniform_ok, _ = is_uniform(sub_system, params.gamma, params.mu)
    return psi, DecodeAssignmentReport(
        nu=nu, mu=params.mu, gamma=params.gamma, Delta=delta_occ,
        clause_fraction=value, bound=bound, holds=value >= bound,
        subcollection_uniform=uniform_ok, agreement=agr)
