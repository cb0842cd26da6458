"""3-CNF formulas: DIMACS parsing, evaluation, and the exhaustive value oracle."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def satisfied_counts(formula, variables=None, clause_indices=None):
    """Vector of satisfied-clause counts over all assignments to `variables`.

    Assignment index i encodes the bits of the variables in the order given,
    the first variable as the most significant bit, so integer order equals
    lexicographic order on bit vectors. Every selected clause must touch only
    listed variables. Used by the brute-force oracles.
    """
    if variables is None:
        variables = range(1, formula.num_vars + 1)
    nv = len(variables)
    pos = {v: i for i, v in enumerate(variables)}
    if clause_indices is None:
        clause_indices = range(formula.num_clauses)
    idx = np.arange(1 << nv, dtype=np.uint64)
    counts = np.zeros(1 << nv, dtype=np.int32)
    for ci in clause_indices:
        clause = formula.clauses[ci]
        sat = np.zeros(1 << nv, dtype=bool)
        for lit in clause:
            if abs(lit) not in pos:
                raise ValueError(f"clause {ci} touches variable {abs(lit)} outside the domain")
            shift = nv - 1 - pos[abs(lit)]
            bit = (idx >> np.uint64(shift)) & np.uint64(1)
            sat |= bit == (1 if lit > 0 else 0)
        counts += sat
    return counts


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
    _, best, count = block_search(max, lambda: [(None, satisfied_counts(formula))], 1 << n,
                                  budget, "assignment enumeration")
    phi = {v: (best >> (n - v)) & 1 for v in range(1, n + 1)}
    return phi, Fraction(count, formula.num_clauses)
