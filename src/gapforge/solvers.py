"""Exact enumeration solvers and the greedy coverage baseline; every result
carries its witness and enumeration count so reports are checkable."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .budget import check
from .setsys import bitmask, masks


@dataclass(frozen=True)
class SolverResult:
    value: object
    witness: tuple
    enumerated: int
    wall_time: float
    note: str = ""


def greedy_max_coverage(instance):
    """Pick k sets, each covering the most yet-uncovered elements; ties go to
    the lowest set index."""
    start = time.perf_counter()
    if instance.k > len(instance.sets):
        raise ValueError("k exceeds the number of sets")
    ms = masks(instance)
    chosen = []
    covered = 0
    steps = 0
    for _ in range(instance.k):
        best, best_gain = None, -1
        for j in range(len(ms)):
            if j in chosen:
                continue
            steps += 1
            gain = (ms[j] & ~covered).bit_count()
            if gain > best_gain:
                best, best_gain = j, gain
        chosen.append(best)
        covered |= ms[best]
    return SolverResult(
        value=covered.bit_count(),
        witness=tuple(chosen),
        enumerated=steps,
        wall_time=time.perf_counter() - start,
    )


def exact_max_coverage(instance, budget=None):
    """Best k-subset of sets by exhaustive enumeration; min-lex witness."""
    start = time.perf_counter()
    n = len(instance.sets)
    if instance.k > n:
        raise ValueError("k exceeds the number of sets")
    total = math.comb(n, instance.k)
    check(total, budget, what="k-subset enumeration")
    ms = masks(instance)
    best, best_value = None, -1
    for combo in itertools.combinations(range(n), instance.k):
        m = 0
        for j in combo:
            m |= ms[j]
        c = m.bit_count()
        if c > best_value:
            best, best_value = combo, c
    return SolverResult(
        value=best_value,
        witness=tuple(best),
        enumerated=total,
        wall_time=time.perf_counter() - start,
    )


def exact_min_set_cover(instance, budget=None):
    """Smallest family of sets covering the whole universe, by size-ascending
    enumeration; min-lex witness. Raises if no cover exists."""
    start = time.perf_counter()
    n = len(instance.sets)
    check(1 << n, budget, what="subset enumeration")
    ms = masks(instance)
    universe = (1 << instance.universe_size) - 1
    if bitmask(itertools.chain.from_iterable(instance.sets)) != universe:
        raise ValueError("no cover exists: some element is in no set")
    enumerated = 0
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(n), size):
            enumerated += 1
            m = 0
            for j in combo:
                m |= ms[j]
            if m == universe:
                return SolverResult(
                    value=size,
                    witness=tuple(combo),
                    enumerated=enumerated,
                    wall_time=time.perf_counter() - start,
                )
    raise AssertionError("unreachable: full union covers the universe")


def verify_unique_cover(instance, chosen):
    """True iff the chosen sets cover every universe element exactly once."""
    counts = [0] * instance.universe_size
    for j in chosen:
        if not 0 <= j < len(instance.sets):
            raise ValueError(f"set index {j} is not in [0, {len(instance.sets)})")
        for e in instance.sets[j]:
            counts[e] += 1
    return all(c == 1 for c in counts)


def _exact_clustering(instance, exponent, budget):
    start = time.perf_counter()
    nc, nf = instance.num_clients, instance.num_facilities
    total = math.comb(nf, instance.k)
    check(total, budget, what="facility subset enumeration")
    d = instance.dist
    best, best_cost = None, None
    for combo in itertools.combinations(range(nf), instance.k):
        cost = 0
        for u in range(nc):
            nearest = min(d[u][nc + f] for f in combo)
            cost += nearest**exponent
        if best_cost is None or cost < best_cost:
            best, best_cost = combo, cost
    return SolverResult(
        value=best_cost,
        witness=tuple(best),
        enumerated=total,
        wall_time=time.perf_counter() - start,
    )


def exact_kmedian(instance, budget=None):
    """Exact k-median cost: sum over clients of the distance to the nearest
    open facility, minimized over facility k-subsets."""
    return _exact_clustering(instance, 1, budget)


def exact_kmean(instance, budget=None):
    """Exact k-mean cost: squared distances instead."""
    return _exact_clustering(instance, 2, budget)


def exact_ncp(instance, budget=None):
    """Exact nearest-codeword distance over all binary messages."""
    start = time.perf_counter()
    cols = instance.num_cols
    total = 1 << cols
    check(total, budget, what="message enumeration")
    col_masks = [bitmask(r for r, row in enumerate(instance.rows) if row[j])
                 for j in range(cols)]
    y_mask = bitmask(r for r, bit in enumerate(instance.target) if bit)
    best, best_cost = None, None
    for x in itertools.product((0, 1), repeat=cols):
        acc = 0
        for j, bit in enumerate(x):
            if bit:
                acc ^= col_masks[j]
        cost = (acc ^ y_mask).bit_count()
        if best_cost is None or cost < best_cost:
            best, best_cost = x, cost
    return SolverResult(
        value=best_cost,
        witness=best,
        enumerated=total,
        wall_time=time.perf_counter() - start,
    )


def exact_cvp(instance, box=None, budget=None):
    """Exact ||Ax - y||_p^p over integer x with every coordinate in
    [-box, box]. The default box k+1 is safe for the unique-cover encoding:
    a coordinate beyond it already pays more than k on its identity row."""
    start = time.perf_counter()
    cols = instance.num_cols
    if box is None:
        box = instance.k + 1
    if box < 0:
        raise ValueError("box must be nonnegative")
    width = 2 * box + 1
    total = width**cols
    check(total, budget, what="coordinate box enumeration")
    best, best_cost = None, None
    for x in itertools.product(range(-box, box + 1), repeat=cols):
        cost = 0
        for row, yr in zip(instance.rows, instance.target):
            acc = sum(a * xi for a, xi in zip(row, x))
            cost += abs(acc - yr) ** instance.p
        if best_cost is None or cost < best_cost:
            best, best_cost = x, cost
    return SolverResult(
        value=best_cost,
        witness=best,
        enumerated=total,
        wall_time=time.perf_counter() - start,
        note=f"coordinates enumerated in [-{box}, {box}]",
    )


def coverage_fraction(instance, result_value):
    """Covered count as an exact fraction of the universe."""
    return Fraction(result_value, instance.universe_size)
