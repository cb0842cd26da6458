"""Exact enumeration solvers and the greedy coverage baseline; every result
carries its witness and enumeration count so reports are checkable.

Each exhaustive optimum search is one budget.block_search over lex-ordered
numpy blocks of its candidates (max coverage, clustering, NCP and CVP), which
returns the min-lex witness. Sets and codes are bit rows packed by
`setsys._words`, never Python ints (those are left to the cross-checks'
references), laid out word-major so that each block's popcounts are summed
over its leading, word axis. Max coverage and min set cover share
`setsys._union_blocks` with the disperser check: a grid of the unions of
all r-subsets in lex order, and each lex-ordered prefix of the leading sets
meeting the grid's columns above it in one block of popcounts. Min set
cover charges and searches one size level at a time. Greedy coverage takes
one popcount of the packed sets per step. NCP meets each lex-ordered prefix
of the leading columns with one grid of the target XOR every subset of the
trailing ones. CVP is a box search: the min-lex x in [-box, box]^cols
minimizing the sum over rows of |Ax - y|^p. Clustering, NCP and CVP read the
instance's arrays, never the tuples derived from them."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget as _budget
from .budget import _combinations, block_search, check
from .setsys import _union_blocks, _unrank, _words


@dataclass(frozen=True)
class SolverResult:
    value: object
    witness: tuple
    enumerated: int
    note: str = ""


def greedy_max_coverage(instance):
    """Pick k sets, each covering the most yet-uncovered elements; ties go to
    the lowest set index. Each step is one popcount of the packed sets
    minus what is covered, chosen sets scoring -1."""
    n = len(instance.sets)
    if instance.k > n:
        raise ValueError("k exceeds the number of sets")
    rows = _words((n, instance.universe_size), sets=instance.sets)
    chosen = []
    covered = np.zeros_like(rows[0])
    for _ in range(instance.k):
        gains = np.bitwise_count(rows & ~covered).sum(axis=1, dtype=np.int64)
        gains[chosen] = -1
        chosen.append(int(gains.argmax()))
        covered |= rows[chosen[-1]]
    return SolverResult(
        value=int(np.bitwise_count(covered).sum()),
        witness=tuple(chosen),
        enumerated=sum(n - i for i in range(instance.k)),
    )


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
    size = max(1, _budget.BLOCK_CELLS // (max(nc, 1) * k))

    def blocks():
        dist = instance.distances[:nc, nc:]
        # exact Python ints once a client sum could reach 2^63
        if dist.dtype != object and nc * int(dist.max(initial=0)) ** exponent >= 2 ** 63:
            dist = dist.astype(object)
        for chunk in _combinations(nf, k, size):
            yield chunk, (dist[:, chunk].min(axis=2) ** exponent).sum(axis=0)

    chunk, i, value = block_search(min, blocks, total, budget, "facility subset enumeration")
    return SolverResult(value=value, witness=tuple(chunk[i].tolist()), enumerated=total)


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
    (height, cols), side = instance.matrix.shape, len(values)
    tail = 0
    while tail < cols and side ** (tail + 1) * max(height, 1) <= _budget.BLOCK_CELLS:
        tail += 1
    head = cols - tail

    def blocks():
        matrix = instance.matrix.astype(dtype, copy=False)
        coords = np.array(values, dtype)[:, None]
        # residual of every trailing grid point at prefix 0, in lex order
        grid = -instance.goal.astype(dtype)
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
    height, cols = instance.matrix.shape
    words = max(1, -(-height // 64))
    tail = 0
    while tail < cols and words << (tail + 1) <= _budget.BLOCK_CELLS:
        tail += 1
    head = cols - tail

    def blocks():
        packed = _words((cols + 1, height), np.vstack((instance.matrix.T, instance.goal))).T
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
    p = instance.p
    # every |Ax - y| is at most `reach`
    entries, targets = (max(int(a.max(initial=0)), -int(a.min(initial=0)))
                        for a in (instance.matrix, instance.goal))
    reach = entries * box * cols + targets
    # the word holds every entry and coordinate too, which `reach` does not
    # bound when box, cols or every entry is 0
    top = max(reach ** p, entries, box)
    dtype = next((t for t in (np.int16, np.int32, np.int64)
                  if top <= np.iinfo(t).max and len(instance.goal) * top < 2 ** 63), object)
    witness, value = _box_search(instance, range(-box, box + 1), dtype, lambda r: abs(r) ** p,
                                 budget, "coordinate box enumeration")
    return SolverResult(value=value, witness=witness, enumerated=(2 * box + 1) ** cols,
                        note=f"coordinates enumerated in [-{box}, {box}]")


def coverage_fraction(instance, result_value):
    """Covered count as an exact fraction of the universe."""
    return Fraction(result_value, instance.universe_size)
