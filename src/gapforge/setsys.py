"""Set systems over [m]: seeded sampling, random-like property checkers, monotone DNFs."""

from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget as _budget
from .budget import _combinations, block_search, check
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


class _ArrayValue:
    """A value of read-only numpy arrays and plain fields, none of which can be
    set again: a public constructor checks its input and passes the fields
    to __init__, `_of` takes fields that hold by construction. Equality and
    the hash go by every field's values and shape, the repr by the
    constructor's parameters."""

    def __init__(self, **fields):
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(fields)

    @classmethod
    def _of(cls, **fields):
        value = object.__new__(cls)
        _ArrayValue.__init__(value, **fields)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def _key(self):
        return tuple((name, (value.shape, *value.ravel().tolist())
                      if isinstance(value, np.ndarray) else value)
                     for name, value in sorted(vars(self).items()))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}"
                  for name in inspect.signature(type(self)).parameters)
        return f"{type(self).__name__}({', '.join(fields)})"


def _unrank(n, label, rank):
    """The subset at position `rank` of the block labelled (prefix, lo, r):
    the prefix, then the r-subset of [lo, n) at that position in lex order."""
    prefix, lo, r = label
    tail = []
    for left in range(r, 0, -1):
        while rank >= (run := math.comb(n - 1 - lo, left - 1)):
            rank -= run
            lo += 1
        tail.append(lo)
        lo += 1
    return prefix + tuple(tail)


def _union_blocks(rows):
    """A function blocks(size) that yields the covered counts of the
    size-subsets of the packed sets `rows` in lex-ordered numpy blocks, as
    (label, counts) pairs; `_unrank(n, label, i)` is the subset counted at
    position i. Successive calls must ask for sizes in ascending order.

    The grid holds the unions of all r-subsets in lex order, one column
    each, built level by level while words x C(n, r) fits in one block, so
    the r-subsets whose least element is at least lo are its last
    C(n - lo, r) columns. Each lex-ordered (size - r)-prefix meets that
    suffix, lo just above the prefix, in one block, whose popcounts are
    summed over the word axis."""
    n, words = rows.shape
    sets = rows.T
    # the grid starts at the empty subset; from level 1 on, least[j] is the
    # least element of its j-th subset
    heads = least = np.arange(n)
    grid = np.zeros((words, 1), rows.dtype)
    r = 0

    def blocks(size):
        nonlocal grid, least, r
        while r < size and words * math.comb(n, r + 1) <= _budget.BLOCK_CELLS:
            if r:
                # the (r + 1)-subsets in lex order: each set a joined to
                # each r-subset whose least element is above a
                least, tails = (least > heads[:, None]).nonzero()
                grid = sets.take(least, axis=1) | grid.take(tails, axis=1)
            else:
                grid = sets
            r += 1
        for prefix in itertools.combinations(range(n - r), size - r):
            lo = prefix[-1] + 1 if prefix else 0
            block = grid[:, grid.shape[1] - math.comb(n - lo, r):]
            if prefix:
                union = np.bitwise_or.reduce(sets.take(prefix, axis=1), axis=1)
                block = union[:, None] | block
            yield (prefix, lo, r), np.bitwise_count(block).sum(axis=0)

    return blocks


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
    elements outside the union of their intersections. The intersections
    of the subcollections, in (size, lex) order, are packed word rows, one
    AND over each lex-ordered index block; one block search over the unions
    of their C(#subcollections, r) r-tuples in lex order then finds the
    lex-first tuple covering the fewest elements, which leaves the most
    uncovered. The verdict compares that count with eta*|U| once. Over
    budget it raises BudgetError.
    """
    if r < 1 or ell < 1:
        raise ValueError("r and ell must be at least 1")
    k, u = system.k, system.universe_size
    sizes = range(1, min(ell, k) + 1)
    pool_size = sum(math.comb(k, size) for size in sizes)
    if pool_size < r:
        return DisperserVerdict("certified-yes", note="fewer than r candidate subcollections")

    def blocks():
        rows = _words((k, u), sets=system.sets)
        step = _budget.BLOCK_CELLS // (ell * rows.shape[1])
        pool = np.concatenate([np.bitwise_and.reduce(rows[chunk], axis=1)
                               for size in sizes for chunk in _combinations(k, size, step)])
        return _union_blocks(pool)(r)

    count = math.comb(pool_size, r)
    label, i, covered = block_search(min, blocks, count, budget,
                                     "subcollection r-tuple enumeration")
    pool = [sub for size in sizes for sub in itertools.combinations(range(k), size)]
    most = u - covered
    return DisperserVerdict("violated" if most > Fraction(eta) * u else "certified-yes",
                            witness=tuple(pool[p] for p in _unrank(pool_size, label, i)),
                            uncovered=most, combinations_checked=count)


def pairwise_intersection_max(system):
    """max over i<j of |S_i ∩ S_j|, from the popcounts of row blocks of the
    packed sets against all of them, about BLOCK_CELLS words a block."""
    if system.k < 2:
        raise ValueError("need at least two sets")
    rows = _words((system.k, system.universe_size), sets=system.sets)
    step = max(1, _budget.BLOCK_CELLS // rows.size)
    # np.triu keeps the cells (lo + a, j) with j > lo + a
    return max(int(np.triu(np.bitwise_count(rows[lo:lo + step, None] & rows).sum(axis=2),
                           lo + 1).max())
               for lo in range(0, system.k - 1, step))


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
