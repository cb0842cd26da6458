"""Set systems over [m]: seeded sampling, random-like property checkers, monotone DNFs."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import check, search
from .textformat import read


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


def bitmask(elements):
    """The integer with bit e set for each e in elements."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def _words(shape, bits=True, sets=None):
    """The rows (last axis) of a 0/1 array of `shape` as little-endian uint64
    words, bit e at bit e % 64 of word e // 64, at least one word a row. The
    array is `bits`, or with `sets`, zero but for `bits` at the cells (i, e)
    with e in sets[i]. Every bit row in the package is packed here."""
    cells = np.zeros((*shape[:-1], 64 * max(1, -(-shape[-1] // 64))), bool)
    if sets is None:
        cells[..., :shape[-1]] = bits
    else:
        lengths = [len(s) for s in sets]
        cells[..., np.arange(len(sets)).repeat(lengths),
              np.fromiter(itertools.chain.from_iterable(sets), np.intp, sum(lengths))] = bits
    return np.packbits(cells, axis=-1, bitorder="little").view("<u8")


def _binary_set(values):
    """True iff the set {0, 1} holds every entry of `values`: hashable, and
    equal to 0 or 1 under its hash. Reads `values` once, so it takes an
    iterator."""
    try:
        return {0, 1}.issuperset(values)
    except TypeError:
        return False


def _binary(values):
    """True iff every entry of `values` is 0 or 1, as `v in (0, 1)` tests it.
    The set test is the fast path; it can only miss entries that are
    unhashable or equal to 0 or 1 under a different hash, so the entries
    it does not accept are compared one by one."""
    return _binary_set(values) or all(v in (0, 1) for v in values)


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
    p = Fraction(p)
    # random() is i / 2^53 for an integer i, so x < p iff i < ceil(p 2^53), and
    # that threshold over 2^53 is a float with no rounding: one exact comparison
    bound = math.ceil(p * (1 << 53)) / (1 << 53)
    draw = random.Random(seed).random
    return SetSystem(universe_size, tuple(
        tuple(e for e in range(universe_size) if draw() < bound) for _ in range(k)))


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
    status: str  # certified-yes | violated
    witness: tuple | None = None  # the lex-first r-tuple leaving the most uncovered
    uncovered: int | None = None
    combinations_checked: int = 0
    note: str = ""


def is_strong_intersection_disperser(system, r, ell, eta, budget=None):
    """Verdict on the (r, ell, eta) strong-intersection-disperser property.

    The property: any r distinct subcollections of size <= ell (distinct as
    index sets, taken as an unordered combination) leave at most eta*|U|
    elements outside the union of their intersections. One search over all
    C(#subcollections, r) r-tuples, in (size, lex) then combinations order,
    finds the lex-first tuple leaving the most elements uncovered; the
    verdict compares that count with eta*|U| once. Over budget it raises
    BudgetError.
    """
    if r < 1 or ell < 1:
        raise ValueError("r and ell must be at least 1")
    u = system.universe_size
    sizes = range(1, min(ell, system.k) + 1)
    pool_size = sum(math.comb(system.k, size) for size in sizes)
    if pool_size < r:
        return DisperserVerdict("certified-yes", note="fewer than r candidate subcollections")

    def tuples():
        set_masks = masks(system)
        pool = [(sc, functools.reduce(operator.and_, (set_masks[i] for i in sc)))
                for size in sizes for sc in itertools.combinations(range(system.k), size)]
        return itertools.combinations(pool, r)

    def uncovered(combo):
        union = 0
        for _, m in combo:
            union |= m
        return u - union.bit_count()

    count = math.comb(pool_size, r)
    worst, most = search(max, tuples, count, uncovered, budget,
                         "subcollection r-tuple enumeration")
    return DisperserVerdict("violated" if most > Fraction(eta) * u else "certified-yes",
                            witness=tuple(sc for sc, _ in worst), uncovered=most,
                            combinations_checked=count)


def pairwise_intersection_max(system):
    """max over i<j of |S_i ∩ S_j|."""
    if system.k < 2:
        raise ValueError("need at least two sets")
    ms = masks(system)
    return max((ms[i] & ms[j]).bit_count() for i in range(system.k) for j in range(i + 1, system.k))


@dataclass(frozen=True)
class MonotoneDnf:
    """OR of distinct AND-terms over k boolean variables, all terms positive."""

    num_vars: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for term in self.terms:
            if list(term) != sorted(set(term)):
                raise ValueError("term must be a sorted duplicate-free index list")
            if term and (term[0] < 0 or term[-1] >= self.num_vars):
                raise ValueError("term index out of range")
            if not term:
                raise ValueError("empty term (always-true) is not allowed")
            if term in seen:
                raise ValueError(f"duplicate term {term}")
            seen.add(term)

    @property
    def width(self):
        return max((len(t) for t in self.terms), default=0)

    @property
    def size(self):
        return len(self.terms)


def dnf_false_count_by_weight(f):
    """counts[w] = number of weight-w assignments falsifying every term."""
    k = f.num_vars
    idx = np.arange(1 << k, dtype=np.uint64)
    true = np.zeros(1 << k, dtype=bool)
    for mask in _words((f.size, k), sets=f.terms)[:, 0]:
        true |= (idx & mask) == mask
    counts = np.bincount(np.bitwise_count(idx[~true]), minlength=k + 1)
    return [int(c) for c in counts]


def dnf_false_prob(f, p, budget=None):
    """Pr[f(x) = 0] under the p-biased product distribution, summed exactly
    over the falsifying assignments (budget 2^k); a Fraction when p is
    rational."""
    check(1 << f.num_vars, budget, what="assignment enumeration")
    p = Fraction(p)
    counts = dnf_false_count_by_weight(f)
    k = f.num_vars
    return sum(
        c * p**w * (1 - p) ** (k - w) for w, c in enumerate(counts) if c
    ) if any(counts) else Fraction(0)


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


def parse_setsys(text):
    (u, _), sets = read("setsys", text)
    return SetSystem(u, sets)


def parse_dnf(text):
    (num_vars, _), terms = read("dnf", text)
    return MonotoneDnf(num_vars, terms)
