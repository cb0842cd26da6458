"""Exact enumeration solvers and the greedy coverage baseline; every result
carries its witness and enumeration count so reports are checkable.

Each exhaustive optimum search is one budget.block_search over lex-ordered
numpy blocks of its candidates (max coverage, clustering, NCP and CVP), which
returns the min-lex witness. Two kernels score bit rows packed by
`setsys._words`, laid out word-major so that each block's popcounts are
summed over its leading, word axis. Max coverage and min set cover share
`_union_blocks`: a grid of the unions of all r-subsets in lex order, and
each lex-ordered prefix of the leading sets meeting the grid's columns
above it in one block of popcounts. Min set cover charges and searches one
size level at a time. NCP meets each lex-ordered prefix of the leading
columns with one grid of the target XOR every subset of the trailing ones.
CVP is a box search: the min-lex x in [-box, box]^cols minimizing the sum
over rows of |Ax - y|^p."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget as _budget
from .budget import block_search, check
from .setsys import _words, masks


@dataclass(frozen=True)
class SolverResult:
    value: object
    witness: tuple
    enumerated: int
    note: str = ""


def greedy_max_coverage(instance):
    """Pick k sets, each covering the most yet-uncovered elements; ties go to
    the lowest set index."""
    n = len(instance.sets)
    if instance.k > n:
        raise ValueError("k exceeds the number of sets")
    ms = masks(instance)
    chosen = []
    covered = 0
    for _ in range(instance.k):
        best = max((j for j in range(n) if j not in chosen),
                   key=lambda j: (ms[j] & ~covered).bit_count())
        chosen.append(best)
        covered |= ms[best]
    return SolverResult(
        value=covered.bit_count(),
        witness=tuple(chosen),
        enumerated=sum(n - i for i in range(instance.k)),
    )


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


def exact_max_coverage(instance, budget=None):
    """Best k-subset of sets by exhaustive enumeration; min-lex witness."""
    n, k = len(instance.sets), instance.k
    if k > n:
        raise ValueError("k exceeds the number of sets")
    total = math.comb(n, k)
    label, i, value = block_search(
        max, lambda: _union_blocks(_words((n, instance.universe_size), sets=instance.sets))(k),
        total, budget, "k-subset enumeration")
    return SolverResult(value=value, witness=_unrank(n, label, i), enumerated=total)


def exact_min_set_cover(instance, budget=None):
    """Smallest family of sets covering the whole universe, by size-ascending
    enumeration; min-lex witness. Raises if no cover exists. Each size level
    is charged before it is searched, so `enumerated` counts every subset up
    to the cover's size: the least budget that admits a rerun."""
    n, universe = len(instance.sets), instance.universe_size
    rows = _words((n, universe), sets=instance.sets)
    if np.bitwise_count(np.bitwise_or.reduce(rows)).sum() < universe:
        raise ValueError("no cover exists: some element is in no set")
    blocks = _union_blocks(rows)
    for size in range(n + 1):
        charged = sum(math.comb(n, j) for j in range(size + 1))
        check(charged, budget, f"subset enumeration through size {size}")
        # no subset covers more than the universe, so the first maximum of a
        # block is its first cover if it has one
        for label, counts in blocks(size):
            i = int(counts.argmax())
            if counts[i] == universe:
                return SolverResult(value=size, witness=_unrank(n, label, i), enumerated=charged)
    raise AssertionError("unreachable: full union covers the universe")


def verify_unique_cover(instance, chosen):
    """True iff the chosen sets cover every universe element exactly once:
    sets hold no duplicates, so iff their elements are all distinct and as
    many as the universe."""
    for j in chosen:
        if not 0 <= j < len(instance.sets):
            raise ValueError(f"set index {j} is not in [0, {len(instance.sets)})")
    elements = [e for j in chosen for e in instance.sets[j]]
    return len(elements) == len(set(elements)) == instance.universe_size


def _exact_clustering(instance, exponent, budget):
    nc, nf, k = instance.num_clients, instance.num_facilities, instance.k
    total = math.comb(nf, k)
    clients = [row[nc:] for row in instance.dist[:nc]]
    # int64 when every distance is an int and no client sum can reach 2^63
    fits = (all(type(d) is int for row in clients for d in row)
            and nc * max((d for row in clients for d in row), default=0) ** exponent < 2 ** 63)
    size = max(1, _budget.BLOCK_CELLS // (max(nc, 1) * k))

    def blocks():
        dist = np.array(clients, np.int64 if fits else object).reshape(nc, nf)
        combos = itertools.combinations(range(nf), k)
        while chunk := list(itertools.islice(combos, size)):
            nearest = dist[:, np.array(chunk)].min(axis=2)
            yield chunk, (nearest ** exponent).sum(axis=0)

    chunk, i, value = block_search(min, blocks, total, budget, "facility subset enumeration")
    return SolverResult(value=value, witness=chunk[i], enumerated=total)


def exact_kmedian(instance, budget=None):
    """Exact k-median cost: sum over clients of the distance to the nearest
    open facility, minimized over facility k-subsets."""
    return _exact_clustering(instance, 1, budget)


def exact_kmean(instance, budget=None):
    """Exact k-mean cost: squared distances instead."""
    return _exact_clustering(instance, 2, budget)


def _box_search(instance, values, dtype, cost, budget, what):
    """The min-lex x in values^cols (values ascending) that minimizes the sum
    over rows of cost(Ax - y), cost acting elementwise on a numpy array of
    `dtype`, and that sum as a Python number; charged len(values)^cols.

    The box is scored in lex-ordered blocks: each prefix of the leading
    coordinates, in lex order, meets one fixed grid of the trailing ones,
    and numpy scores the whole block."""
    rows, cols, side = instance.rows, instance.num_cols, len(values)
    height = len(rows)
    tail = 0
    while tail < cols and side ** (tail + 1) * max(height, 1) <= _budget.BLOCK_CELLS:
        tail += 1
    head = cols - tail

    def blocks():
        matrix = np.array(rows, dtype).reshape(height, cols)
        coords = np.array(values, dtype)[:, None]
        # residual of every trailing grid point at prefix 0, in lex order
        grid = -np.array(instance.target, dtype)
        for c in range(head, cols):
            grid = grid[..., None, :] + coords * matrix[:, c]
        grid = grid.reshape(side ** tail, height)
        lead = matrix[:, :head]
        return ((x, cost(grid + lead @ np.array(x, dtype)).sum(axis=1))
                for x in itertools.product(values, repeat=head))

    prefix, i, value = block_search(min, blocks, side ** cols, budget, what)
    return prefix + tuple(values[j] for j in np.unravel_index(i, (side,) * tail)), value


def exact_ncp(instance, budget=None):
    """Exact nearest-codeword distance over all binary messages, on the
    columns, then the target, packed word-major by `setsys._words`. After the
    charge it builds one words x 2^tail grid under the block cap, whose
    column m is the target XOR the trailing columns that the m-th trailing
    message in lex order picks. Each lex-ordered prefix of the leading
    coordinates meets the grid in one XOR with the columns it picks, and the
    block's Hamming distances are its popcounts summed over the word axis."""
    rows, cols, height = instance.rows, instance.num_cols, len(instance.rows)
    words = max(1, -(-height // 64))
    tail = 0
    while tail < cols and words << (tail + 1) <= _budget.BLOCK_CELLS:
        tail += 1
    head = cols - tail

    def blocks():
        bits = np.zeros((cols + 1, height), np.uint8)
        bits[:cols] = np.fromiter(itertools.chain.from_iterable(rows), np.uint8,
                                  height * cols).reshape(height, cols).T
        bits[cols] = instance.target
        packed = _words(bits.shape, bits).T
        # the target XOR every subset of the trailing columns, in lex order:
        # message m picks column cols - 1 - j iff bit j of m is set
        grid = np.empty((words, 1 << tail), packed.dtype)
        grid[:, 0] = packed[:, cols]
        for j in range(tail):
            np.bitwise_xor(grid[:, :1 << j], packed[:, cols - 1 - j, None],
                           out=grid[:, 1 << j:2 << j])
        for x in itertools.product((0, 1), repeat=head):
            lead = np.bitwise_xor.reduce(packed[:, list(itertools.compress(range(head), x))],
                                         axis=1, keepdims=True)
            yield x, np.bitwise_count(grid ^ lead).sum(axis=0)

    prefix, i, value = block_search(min, blocks, 1 << cols, budget, "message enumeration")
    witness = prefix + tuple(i >> s & 1 for s in range(tail - 1, -1, -1))
    return SolverResult(value=value, witness=witness, enumerated=1 << cols)


def exact_cvp(instance, box=None, budget=None):
    """Exact ||Ax - y||_p^p over integer x with every coordinate in
    [-box, box]. The default box k+1 is safe for the unique-cover encoding:
    a coordinate beyond it already pays more than k on its identity row.

    The arithmetic is in the narrowest of int16, int32 and int64 that holds
    every entry, coordinate, residual and |residual|^p, with row sums in
    int64, when no sum of costs can reach 2^63; it is in exact Python ints
    otherwise."""
    cols = instance.num_cols
    if box is None:
        box = instance.k + 1
    if box < 0:
        raise ValueError("box must be nonnegative")
    rows, target, p = instance.rows, instance.target, instance.p
    # every |Ax - y| is at most `reach`
    entries = max((abs(a) for row in rows for a in row), default=0)
    reach = entries * box * cols + max(map(abs, target), default=0)
    # the word holds every entry and coordinate too, which `reach` does not
    # bound when box, cols or every entry is 0
    top = max(reach ** p, entries, box)
    dtype = next((t for t in (np.int16, np.int32, np.int64)
                  if top <= np.iinfo(t).max and len(rows) * top < 2 ** 63), object)
    witness, value = _box_search(instance, range(-box, box + 1), dtype, lambda r: abs(r) ** p,
                                 budget, "coordinate box enumeration")
    return SolverResult(value=value, witness=witness, enumerated=(2 * box + 1) ** cols,
                        note=f"coordinates enumerated in [-{box}, {box}]")


def coverage_fraction(instance, result_value):
    """Covered count as an exact fraction of the universe."""
    return Fraction(result_value, instance.universe_size)
