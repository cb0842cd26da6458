"""Exact enumeration solvers and the greedy coverage baseline; every result
carries its witness and enumeration count so reports are checkable.

Each exhaustive search is one budget.search over its candidates in lex
order, which returns the min-lex witness."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .budget import BudgetError, effective, search
from .setsys import bitmask, masks


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
    enumeration; min-lex witness. Raises if no cover exists. The budget
    counts the candidates visited, not the 2^n the search may reach."""
    n = len(instance.sets)
    limit = effective(budget)
    covered = partial(_covered, masks(instance))
    if covered(range(n)) < instance.universe_size:
        raise ValueError("no cover exists: some element is in no set")
    by_size = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n + 1))
    for enumerated, combo in enumerate(by_size, 1):
        if enumerated > limit:
            raise BudgetError(1 << n, limit, what="subset enumeration")
        if covered(combo) == instance.universe_size:
            return SolverResult(value=len(combo), witness=combo, enumerated=enumerated)
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
    nc, nf = instance.num_clients, instance.num_facilities
    total = math.comb(nf, instance.k)
    clients = instance.dist[:nc]

    def cost(combo):
        return sum(min([row[nc + f] for f in combo]) ** exponent for row in clients)

    best, value = search(min, lambda: itertools.combinations(range(nf), instance.k),
                         total, cost, budget, "facility subset enumeration")
    return SolverResult(value=value, witness=best, enumerated=total)


def exact_kmedian(instance, budget=None):
    """Exact k-median cost: sum over clients of the distance to the nearest
    open facility, minimized over facility k-subsets."""
    return _exact_clustering(instance, 1, budget)


def exact_kmean(instance, budget=None):
    """Exact k-mean cost: squared distances instead."""
    return _exact_clustering(instance, 2, budget)


def exact_ncp(instance, budget=None):
    """Exact nearest-codeword distance over all binary messages."""
    cols = instance.num_cols
    total = 1 << cols
    col_masks = [bitmask(r for r, row in enumerate(instance.rows) if row[j])
                 for j in range(cols)]
    y_mask = bitmask(r for r, bit in enumerate(instance.target) if bit)

    def distance(x):
        acc = 0
        for j, bit in enumerate(x):
            if bit:
                acc ^= col_masks[j]
        return (acc ^ y_mask).bit_count()

    best, value = search(min, lambda: itertools.product((0, 1), repeat=cols), total,
                         distance, budget, "message enumeration")
    return SolverResult(value=value, witness=best, enumerated=total)


def exact_cvp(instance, box=None, budget=None):
    """Exact ||Ax - y||_p^p over integer x with every coordinate in
    [-box, box]. The default box k+1 is safe for the unique-cover encoding:
    a coordinate beyond it already pays more than k on its identity row."""
    cols = instance.num_cols
    if box is None:
        box = instance.k + 1
    if box < 0:
        raise ValueError("box must be nonnegative")
    total = (2 * box + 1) ** cols
    rows, target, p = instance.rows, instance.target, instance.p

    def cost(x):
        norm = 0
        for row, yr in zip(rows, target):
            norm += abs(sum(a * xi for a, xi in zip(row, x)) - yr) ** p
        return norm

    best, value = search(min, lambda: itertools.product(range(-box, box + 1), repeat=cols),
                         total, cost, budget, "coordinate box enumeration")
    return SolverResult(value=value, witness=best, enumerated=total,
                        note=f"coordinates enumerated in [-{box}, {box}]")


def coverage_fraction(instance, result_value):
    """Covered count as an exact fraction of the universe."""
    return Fraction(result_value, instance.universe_size)
