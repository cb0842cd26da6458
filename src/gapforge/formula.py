"""3-CNF formulas: DIMACS parsing, evaluation, and the exhaustive value oracle."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget as _budget
from .budget import block_search
from .textformat import integer


class DimacsError(ValueError):
    """Malformed DIMACS input; the message names the offending line."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula with clauses of width 1 to 3.

    Clauses are tuples of signed variable indices (1-based); clause i is the
    i-th clause of the input. Every variable in [1, num_vars] must occur in
    at least one clause.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        seen = set()
        for idx, clause in enumerate(self.clauses):
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause {idx} has {len(clause)} literals")
            vs = [abs(lit) for lit in clause]
            if len(set(vs)) != len(vs):
                raise ValueError(f"clause {idx} repeats a variable")
            for v in vs:
                if not 1 <= v <= self.num_vars:
                    raise ValueError(f"clause {idx} references variable {v} out of range")
            seen.update(vs)
        # clause variables are in range, so num_vars - len(seen) are unused
        # and the first ten of them are at most len(seen) + 10
        missing = self.num_vars - len(seen)
        if missing:
            last = min(self.num_vars, len(seen) + 10)
            first = [v for v in range(1, last + 1) if v not in seen][:10]
            more = f" ({missing} in all)" if missing > 10 else ""
            raise ValueError(f"variables never used: {first}{more}")

    @property
    def num_clauses(self):
        return len(self.clauses)


def parse_dimacs(text):
    """Parse DIMACS CNF text into a CnfFormula.

    Comment lines (c/%) are skipped; clauses may span lines and end with 0.
    A variable that occurs in no clause is an error.
    """
    num_vars = None
    num_clauses = None
    header_line = None
    clauses = []
    current = []
    current_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "c%":
            continue
        if line.startswith("p"):
            if header_line is not None:
                raise DimacsError(f"line {lineno}: second header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = integer(parts[2]), integer(parts[3])
            except ValueError as e:
                raise DimacsError(f"line {lineno}: malformed header: {e}") from None
            if num_vars < 1 or num_clauses < 0:
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            header_line = lineno
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = integer(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                if not current:
                    raise DimacsError(f"line {lineno}: empty clause")
                _finish_clause(current, current_line, clauses, num_vars)
                current = []
                current_line = None
            else:
                if current_line is None:
                    current_line = lineno
                current.append(lit)
                if len(current) > 3:
                    raise DimacsError(f"line {lineno}: clause has more than 3 literals")
    if current:
        _finish_clause(current, current_line, clauses, num_vars)
    if num_vars is None:
        raise DimacsError("line 0: missing header")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise DimacsError(
            f"line {header_line}: header promises {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(tuple(cl) for cl in clauses))


def _finish_clause(lits, lineno, clauses, num_vars):
    vs = [abs(l) for l in lits]
    for v in vs:
        if v > num_vars:
            raise DimacsError(f"line {lineno}: variable {v} out of range")
    if len(set(vs)) != len(vs):
        raise DimacsError(f"line {lineno}: duplicated variable in clause")
    clauses.append(tuple(lits))


def to_dimacs(formula):
    """Serialize back to DIMACS; one clause per line, terminated by 0."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _require_total(formula, phi):
    for v in range(1, formula.num_vars + 1):
        if v not in phi:
            raise ValueError(f"assignment is partial: variable {v} unset")


def _clause_satisfied(clause, phi):
    return any(phi[abs(lit)] == (1 if lit > 0 else 0) for lit in clause)


def _clause_masks(lits, positions):
    """Clauses as two masks each, from their literals padded to one width
    (a repeated literal changes nothing) and their variables' bit positions:
    `care`, the clause's variables, and `falsify`, the one assignment to them
    that falsifies every literal. An assignment satisfies the clause iff it
    differs from `falsify` on `care`."""
    bits = np.int64(1) << positions
    return np.bitwise_or.reduce(bits, axis=-1), np.bitwise_or.reduce(bits * (lits < 0), axis=-1)


def _assignment_blocks(care, falsify, width):
    """The 2^width assignments in ascending order, as (first, sat) blocks of
    about BLOCK_CELLS cells: sat[..., c, j] tells whether assignment first + j
    satisfies clause c of the masks `care` and `falsify`, shaped (..., c)."""
    care, falsify = care[..., None], falsify[..., None]
    span = min(1 << width, max(1, _budget.BLOCK_CELLS // max(1, care.size)))
    for first in range(0, 1 << width, span):
        masks = np.arange(first, min(first + span, 1 << width))
        yield first, (masks & care) != falsify


def clause_value(formula, phi):
    """Fraction of clauses satisfied by a total assignment, as an exact rational."""
    _require_total(formula, phi)
    sat = sum(1 for cl in formula.clauses if _clause_satisfied(cl, phi))
    return Fraction(sat, formula.num_clauses)


def vars_of(formula, clause_subset):
    """var(T): the variables appearing in at least one clause of the subset."""
    out = set()
    for idx in clause_subset:
        if not 0 <= idx < formula.num_clauses:
            raise IndexError(f"clause index {idx} out of range")
        out.update(abs(lit) for lit in formula.clauses[idx])
    return out


def max_occurrence(formula):
    """The occurrence bound: max over variables of the number of clauses containing it."""
    counts = {}
    for clause in formula.clauses:
        for lit in clause:
            counts[abs(lit)] = counts.get(abs(lit), 0) + 1
    return max(counts.values())


def random_planted_formula(num_vars, num_clauses, seed, max_occurrence=None):
    """A seeded satisfiable 3-CNF with a planted assignment.

    Every clause gets three distinct variables (unused variables first, so
    all appear) with random signs, one sign flipped if needed so the planted
    assignment satisfies the clause. max_occurrence caps how many clauses a
    variable may join; if an unlucky draw corners the construction it
    restarts with fresh randomness. Returns (formula, planted assignment).
    """
    if num_vars < 3:
        raise ValueError("need at least 3 variables")
    if 3 * num_clauses < num_vars:
        raise ValueError("too few clauses to use every variable")
    cap = max_occurrence if max_occurrence is not None else num_clauses
    if 3 * num_clauses > cap * num_vars:
        raise ValueError("occurrence cap too tight for this clause count")
    rng = random.Random(seed)
    planted = {v: rng.randrange(2) for v in range(1, num_vars + 1)}
    for _ in range(1000):
        counts = {v: 0 for v in range(1, num_vars + 1)}
        unused = list(range(1, num_vars + 1))
        rng.shuffle(unused)
        clauses = []
        for _ in range(num_clauses):
            vs = []
            while unused and len(vs) < 3:
                vs.append(unused.pop())
            if len(vs) < 3:
                avail = [v for v in range(1, num_vars + 1) if counts[v] < cap and v not in vs]
                if len(avail) < 3 - len(vs):
                    break
                vs.extend(rng.sample(avail, 3 - len(vs)))
            lits = [v if rng.randrange(2) else -v for v in vs]
            phi = {v: planted[v] for v in vs}
            if not _clause_satisfied(lits, phi):
                i = rng.randrange(3)
                lits[i] = -lits[i]
            for v in vs:
                counts[v] += 1
            clauses.append(tuple(lits))
        if len(clauses) == num_clauses:
            return CnfFormula(num_vars, tuple(clauses)), planted
    raise ValueError("could not place clauses under the occurrence cap")


def brute_force_max_val(formula, budget=None):
    """Exhaustively find an assignment attaining val(formula).

    Returns (assignment dict, Fraction value); ties break to the
    lexicographically smallest bit vector (x1 first). Refuses when
    2^n exceeds the budget.
    """
    n = formula.num_vars
    # variable v sits at bit n - v, so integer order is lex order, x1 first
    lits = np.array([(clause * 3)[:3] for clause in formula.clauses], np.int64)
    care, falsify = _clause_masks(lits, n - abs(lits))
    first, i, count = block_search(
        max, lambda: ((lo, sat.sum(axis=0)) for lo, sat in _assignment_blocks(care, falsify, n)),
        1 << n, budget, "assignment enumeration")
    phi = {v: (first + i >> (n - v)) & 1 for v in range(1, n + 1)}
    return phi, Fraction(count, formula.num_clauses)
