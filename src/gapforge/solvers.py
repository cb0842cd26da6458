"""Exact enumeration solvers and the greedy coverage baseline; every result
carries its witness and enumeration count so reports are checkable.

Each exhaustive search is one budget.search over its candidates in lex
order, which returns the min-lex witness. NCP and CVP are one box search:
the min-lex x in a box of coordinates minimizing a row-wise cost of Ax - y,
parity over {0, 1} for NCP and |r|^p over [-box, box] for CVP."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .budget import check, search
from .setsys import masks

# Cap on the cells of one scored block (box points x rows for CVP, facility
# subsets x clients x k for clustering), so that a larger instance makes
# blocks shorter instead of larger.
_BLOCK_CELLS = 1 << 16


def _block_search(blocks, count, budget, what):
    """budget.search over lex-ordered blocks: `blocks()` yields (label, costs)
    pairs, costs a numpy array in lex order. The first block holding the
    least cost wins, as does the first least cost in it, so the witness is
    min-lex. Returns the label, the position in the block and the cost as a
    Python number."""
    (label, costs), _ = search(min, blocks, count, lambda block: block[1].min(), budget, what)
    i = int(costs.argmin())
    return label, i, costs.item(i)


@dataclass(frozen=True)
class SolverResult:
    value: object
    witness: tuple
    enumerated: int
    note: str = ""


def _covered(ms, combo):
    """How many elements the sets `combo` cover together, ms being the
    instance's set masks."""
    m = 0
    for j in combo:
        m |= ms[j]
    return m.bit_count()


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


def exact_max_coverage(instance, budget=None):
    """Best k-subset of sets by exhaustive enumeration; min-lex witness."""
    n = len(instance.sets)
    if instance.k > n:
        raise ValueError("k exceeds the number of sets")
    total = math.comb(n, instance.k)
    best, value = search(max, lambda: itertools.combinations(range(n), instance.k), total,
                         partial(_covered, masks(instance)), budget, "k-subset enumeration")
    return SolverResult(value=value, witness=best, enumerated=total)


def exact_min_set_cover(instance, budget=None):
    """Smallest family of sets covering the whole universe, by size-ascending
    enumeration; min-lex witness. Raises if no cover exists. Each size level
    is charged before it is searched, so `enumerated` counts every subset up
    to the cover's size: the least budget that admits a rerun."""
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
    size = max(1, _BLOCK_CELLS // (max(nc, 1) * k))

    def blocks():
        dist = np.array(clients, np.int64 if fits else object).reshape(nc, nf)
        combos = itertools.combinations(range(nf), k)
        while chunk := list(itertools.islice(combos, size)):
            nearest = dist[:, np.array(chunk)].min(axis=2)
            yield chunk, (nearest ** exponent).sum(axis=0)

    chunk, i, value = _block_search(blocks, total, budget, "facility subset enumeration")
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
    while tail < cols and side ** (tail + 1) * max(height, 1) <= _BLOCK_CELLS:
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

    prefix, i, value = _block_search(blocks, side ** cols, budget, what)
    return prefix + tuple(values[j] for j in np.unravel_index(i, (side,) * tail)), value


def exact_ncp(instance, budget=None):
    """Exact nearest-codeword distance over all binary messages: the box
    search over {0, 1}, since the parity of the integer residual is the F_2
    residual."""
    witness, value = _box_search(instance, (0, 1), np.int64, lambda r: r & 1, budget,
                                 "message enumeration")
    return SolverResult(value=value, witness=witness, enumerated=1 << instance.num_cols)


def exact_cvp(instance, box=None, budget=None):
    """Exact ||Ax - y||_p^p over integer x with every coordinate in
    [-box, box]. The default box k+1 is safe for the unique-cover encoding:
    a coordinate beyond it already pays more than k on its identity row.

    The arithmetic is int64 when no partial sum can reach 2^63, and exact
    Python ints otherwise."""
    cols = instance.num_cols
    if box is None:
        box = instance.k + 1
    if box < 0:
        raise ValueError("box must be nonnegative")
    rows, target, p = instance.rows, instance.target, instance.p
    # every |Ax - y| is at most `reach`; p is capped at 64 because
    # reach >= 2 fails the bound there anyway
    reach = (max((abs(a) for row in rows for a in row), default=0) * box * cols
             + max(map(abs, target), default=0))
    dtype = np.int64 if len(rows) * reach ** min(p, 64) < 2 ** 63 else object
    witness, value = _box_search(instance, range(-box, box + 1), dtype, lambda r: abs(r) ** p,
                                 budget, "coordinate box enumeration")
    return SolverResult(value=value, witness=witness, enumerated=(2 * box + 1) ** cols,
                        note=f"coordinates enumerated in [-{box}, {box}]")


def coverage_fraction(instance, result_value):
    """Covered count as an exact fraction of the universe."""
    return Fraction(result_value, instance.universe_size)
