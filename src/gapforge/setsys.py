"""Set systems over [m]: seeded sampling, random-like property checkers, monotone DNFs."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .budget import BudgetError, check
from .textformat import read, write


@dataclass(frozen=True)
class SetSystem:
    """An ordered list of subsets of the universe [0, universe_size)."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        for i, s in enumerate(self.sets):
            if list(s) != sorted(set(s)):
                raise ValueError(f"set {i} is not a sorted duplicate-free list")
            if s and (s[0] < 0 or s[-1] >= self.universe_size):
                raise ValueError(f"set {i} has an element outside the universe")

    @property
    def k(self):
        return len(self.sets)


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate; trials and seed are kept so reruns reproduce it."""

    value: float
    trials: int
    seed: int


def bitmask(elements):
    """The integer with bit e set for each e in elements."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def masks(system):
    """Each set as a bitmask integer (bit e set iff element e is in the set)."""
    return [bitmask(s) for s in system.sets]


def sample_random_subsets(universe_size, k, p, seed):
    """k subsets of [universe_size], each membership an independent p-coin flip.

    The generator is seeded, sets are drawn in order and elements within a
    set in order, so identical arguments give identical systems.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 <= p <= 1:
        raise ValueError("p must be a probability")
    rng = random.Random(seed)
    sets = []
    for _ in range(k):
        sets.append(tuple(e for e in range(universe_size) if rng.random() < p))
    return SetSystem(universe_size, tuple(sets))


def is_uniform(system, gamma, mu):
    """Check (gamma, mu)-uniformity: all but a mu-fraction of elements lie in
    at least a gamma-fraction of the sets. Returns (bool, failing elements)."""
    if system.k < 1:
        raise ValueError("need at least one set")
    counts = [0] * system.universe_size
    for s in system.sets:
        for e in s:
            counts[e] += 1
    failing = {e for e in range(system.universe_size) if Fraction(counts[e], system.k) < gamma}
    ok = Fraction(len(failing)) <= Fraction(mu) * system.universe_size
    return ok, failing


@dataclass(frozen=True)
class DisperserVerdict:
    status: str  # certified-yes | violated | inconclusive
    witness: tuple | None = None
    uncovered: int | None = None
    combinations_checked: int = 0
    note: str = ""


def _subcollections(k, ell):
    """All nonempty subcollections of set indices of size at most ell, ordered by (size, lex)."""
    out = []
    for size in range(1, ell + 1):
        out.extend(itertools.combinations(range(k), size))
    return out


def _intersection_mask(set_masks, subcol, universe_mask):
    m = universe_mask
    for i in subcol:
        m &= set_masks[i]
    return m


def is_strong_intersection_disperser(system, r, ell, eta, mode="exact", budget=None):
    """Verdict on the (r, ell, eta) strong-intersection-disperser property.

    The property: any r distinct subcollections of size <= ell (distinct as
    index sets, taken as an unordered combination) leave at most eta*|U|
    elements outside the union of their intersections. Exact mode enumerates
    every combination; heuristic mode greedily builds one low-coverage
    candidate tuple and can only refute or give up.
    """
    if r < 1 or ell < 1:
        raise ValueError("r and ell must be at least 1")
    u = system.universe_size
    universe_mask = (1 << u) - 1
    set_masks = masks(system)
    subcols = _subcollections(system.k, ell)
    limit_uncovered = Fraction(eta) * u

    if mode == "exact":
        if len(subcols) < r:
            return DisperserVerdict("certified-yes", note="fewer than r candidate subcollections")
        total = math.comb(len(subcols), r)
        check(total, budget, what="disperser combination enumeration")
        inter = [_intersection_mask(set_masks, sc, universe_mask) for sc in subcols]
        checked = 0
        for combo in itertools.combinations(range(len(subcols)), r):
            union = 0
            for ci in combo:
                union |= inter[ci]
            uncovered = (universe_mask & ~union).bit_count()
            checked += 1
            if uncovered > limit_uncovered:
                return DisperserVerdict(
                    "violated",
                    witness=tuple(subcols[ci] for ci in combo),
                    uncovered=uncovered,
                    combinations_checked=checked,
                )
        return DisperserVerdict("certified-yes", combinations_checked=checked)

    if mode == "heuristic":
        if len(subcols) < r:
            return DisperserVerdict("inconclusive", note="fewer than r candidate subcollections")
        inter = [_intersection_mask(set_masks, sc, universe_mask) for sc in subcols]
        chosen = []
        union = 0
        remaining = set(range(len(subcols)))
        for _ in range(r):
            best = min(remaining, key=lambda ci: ((inter[ci] & ~union).bit_count(), ci))
            chosen.append(best)
            union |= inter[best]
            remaining.discard(best)
        uncovered = (universe_mask & ~union).bit_count()
        if uncovered > limit_uncovered:
            return DisperserVerdict(
                "violated",
                witness=tuple(subcols[ci] for ci in chosen),
                uncovered=uncovered,
                combinations_checked=r,
            )
        return DisperserVerdict("inconclusive", combinations_checked=r)

    raise ValueError(f"unknown mode {mode!r}")


def pairwise_intersection_max(system):
    """max over i<j of |S_i ∩ S_j|."""
    if system.k < 2:
        raise ValueError("need at least two sets")
    ms = masks(system)
    return max((ms[i] & ms[j]).bit_count() for i in range(system.k) for j in range(i + 1, system.k))


def max_set_size(system):
    if not system.sets:
        return 0
    return max(len(s) for s in system.sets)


@dataclass(frozen=True)
class MonotoneDnf:
    """OR of distinct AND-terms over k boolean variables, all terms positive."""

    num_vars: int
    terms: tuple[tuple[int, ...], ...]
    allow_empty_term: bool = False

    def __post_init__(self):
        seen = set()
        for term in self.terms:
            if list(term) != sorted(set(term)):
                raise ValueError("term must be a sorted duplicate-free index list")
            if term and (term[0] < 0 or term[-1] >= self.num_vars):
                raise ValueError("term index out of range")
            if not term and not self.allow_empty_term:
                raise ValueError("empty term (always-true) must be explicitly allowed")
            if term in seen:
                raise ValueError(f"duplicate term {term}")
            seen.add(term)

    @property
    def width(self):
        return max((len(t) for t in self.terms), default=0)

    @property
    def size(self):
        return len(self.terms)

    def evaluate(self, bits):
        """bits: indexable of 0/1 of length num_vars."""
        return any(all(bits[i] for i in term) for term in self.terms)


def _popcounts(n_bits):
    idx = np.arange(1 << n_bits, dtype=np.uint64)
    pc = np.zeros(1 << n_bits, dtype=np.uint8)
    for shift in range(n_bits):
        pc += ((idx >> np.uint64(shift)) & np.uint64(1)).astype(np.uint8)
    return pc


def dnf_false_count_by_weight(f):
    """counts[w] = number of weight-w assignments falsifying every term."""
    k = f.num_vars
    idx = np.arange(1 << k, dtype=np.uint64)
    true = np.zeros(1 << k, dtype=bool)
    for term in f.terms:
        mask = np.uint64(bitmask(term))
        true |= (idx & mask) == mask
    pc = _popcounts(k)
    counts = np.bincount(pc[~true], minlength=k + 1)
    return [int(c) for c in counts]


def dnf_false_prob(f, p, mode="exact", trials=None, seed=None, budget=None):
    """Pr[f(x) = 0] under the p-biased product distribution.

    Exact mode sums the falsifying assignments (budget 2^k) and returns an
    exact Fraction when p is rational; montecarlo mode returns an Estimate
    recording (trials, seed).
    """
    if mode == "exact":
        check(1 << f.num_vars, budget, what="assignment enumeration")
        p = Fraction(p)
        counts = dnf_false_count_by_weight(f)
        k = f.num_vars
        return sum(
            c * p**w * (1 - p) ** (k - w) for w, c in enumerate(counts) if c
        ) if any(counts) else Fraction(0)
    if mode == "montecarlo":
        if trials is None or seed is None:
            raise ValueError("montecarlo mode needs trials and seed")
        rng = random.Random(seed)
        hits = 0
        for _ in range(trials):
            bits = [1 if rng.random() < p else 0 for _ in range(f.num_vars)]
            if not f.evaluate(bits):
                hits += 1
        return Estimate(hits / trials, trials, seed)
    raise ValueError(f"unknown mode {mode!r}")


def dnf_bound_holds(false_prob, ell, p, eps, k):
    """Exact test of false_prob <= ell * (1-p)^(eps*k/ell).

    The right side is irrational when eps*k/ell is not an integer, so the
    comparison is done on integer powers: with eps*k/ell = a/b both sides of
    (false_prob/ell)^b <= (1-p)^a are rational, and raising to the b-th power
    preserves order on [0, 1].
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    u = Fraction(false_prob) / ell
    if u <= 0:
        return True
    if u > 1:
        return False
    exponent = Fraction(eps) * k / ell
    a, b = exponent.numerator, exponent.denominator
    base = 1 - Fraction(p)
    return u**b <= base**a


def dnf_from_subcollections(k, subcollections):
    """The DNF with one term per subcollection: f = OR_j (AND_{i in j} X_i).

    An element lies in the union of the subcollections' intersections iff f
    is true on the element's membership vector.
    """
    terms = []
    seen = set()
    for sc in subcollections:
        term = tuple(sorted(sc))
        if term in seen:
            raise ValueError(f"duplicate subcollection {term}")
        seen.add(term)
        terms.append(term)
    return MonotoneDnf(k, tuple(terms))


def restrict_system(system, elements, exclude=()):
    """The subsystem (sets minus `exclude`) restricted to `elements`.

    Returns (SetSystem over [len(elements)], sorted element list); element i
    of the new universe is the i-th smallest member of `elements`.
    """
    elems = sorted(elements)
    pos = {e: i for i, e in enumerate(elems)}
    excluded = set(exclude)
    sets = tuple(
        tuple(pos[e] for e in s if e in pos)
        for i, s in enumerate(system.sets)
        if i not in excluded
    )
    return SetSystem(len(elems), sets), elems


@dataclass(frozen=True)
class SampledPropertiesReport:
    universe_size: int
    k: int
    p: float
    delta: int
    n: int
    max_set_size: int
    size_bound: Fraction
    size_ok: bool
    pairwise_max: int | None
    pairwise_bound: Fraction
    pairwise_ok: bool | None
    gamma: Fraction
    mu: float
    uniform_ok: bool
    uniform_failing: tuple[int, ...]
    disperser_params: tuple
    disperser: tuple = field(default_factory=tuple)  # (i, j, DisperserVerdict)


def check_sampled_properties(system, p, delta, n, disperser_params, budget=None):
    """Audit a sampled system against the bounds expected of random subsets.

    Checks max set size against 2*p*universe, max pairwise intersection
    against 18*p^2*delta^2*n (n supplied by the caller), uniformity at
    gamma = p/2 with mu = min(1, 2e^{-pk/8}), and runs the
    strong-intersection-disperser check on each pair's restriction
    (S minus the pair, cut down to the pair's intersection) at the supplied
    (r, ell, eta), exact when it fits the budget, greedy otherwise.
    """
    r, ell, eta = disperser_params
    pf = Fraction(p)
    size_bound = 2 * pf * system.universe_size
    size_max = max_set_size(system)
    pair_bound = 18 * pf * pf * delta * delta * n
    if system.k >= 2:
        pair_max = pairwise_intersection_max(system)
        pair_ok = Fraction(pair_max) <= pair_bound
    else:
        pair_max, pair_ok = None, None
    gamma = pf / 2
    mu = min(1.0, 2 * math.exp(-p * system.k / 8))
    uniform_ok, failing = is_uniform(system, gamma, mu)
    ms = masks(system)
    verdicts = []
    for i in range(system.k):
        for j in range(i + 1, system.k):
            inter = ms[i] & ms[j]
            elems = [e for e in range(system.universe_size) if inter >> e & 1]
            sub, _ = restrict_system(system, elems, exclude=(i, j))
            try:
                v = is_strong_intersection_disperser(sub, r, ell, eta, "exact", budget)
            except BudgetError:
                v = is_strong_intersection_disperser(sub, r, ell, eta, "heuristic", budget)
            verdicts.append((i, j, v))
    return SampledPropertiesReport(
        universe_size=system.universe_size,
        k=system.k,
        p=float(p),
        delta=delta,
        n=n,
        max_set_size=size_max,
        size_bound=size_bound,
        size_ok=Fraction(size_max) <= size_bound,
        pairwise_max=pair_max,
        pairwise_bound=pair_bound,
        pairwise_ok=pair_ok,
        gamma=gamma,
        mu=mu,
        uniform_ok=uniform_ok,
        uniform_failing=tuple(sorted(failing)),
        disperser_params=(r, ell, eta),
        disperser=tuple(verdicts),
    )


def setsys_to_text(system):
    return write("setsys", (system.universe_size, system.k), system.sets)


def parse_setsys(text):
    (u, _), sets = read("setsys", text)
    return SetSystem(u, sets)


def dnf_to_text(f):
    return write("dnf", (f.num_vars, f.size), f.terms)


def parse_dnf(text):
    (num_vars, _), terms = read("dnf", text)
    return MonotoneDnf(num_vars, terms)
