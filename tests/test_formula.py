"""Formula layer: DIMACS parsing, clause values, the exhaustive oracle."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (BudgetError, CnfFormula, DimacsError,
                      brute_force_max_val, clause_value, max_occurrence,
                      parse_dimacs, random_planted_formula, to_dimacs,
                      vars_of)
import gapforge.budget
import reference

TINY = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"


def tiny():
    return parse_dimacs(TINY)


def test_parse_basic():
    f = parse_dimacs("p cnf 2 1\n1 -2 0")
    assert f.num_vars == 2
    assert f.clauses == ((1, -2),)


def test_parse_tiny():
    f = tiny()
    assert f.num_vars == 3
    assert f.clauses == ((1, 2), (-1, 3), (-2, -3))


def test_parse_duplicated_variable():
    with pytest.raises(DimacsError, match=r"line 2: duplicated variable"):
        parse_dimacs("p cnf 1 1\n1 -1 0")


def test_parse_errors_name_the_line():
    with pytest.raises(DimacsError, match=r"line 1: malformed header"):
        parse_dimacs("p cnf x 1\n1 0")
    with pytest.raises(DimacsError, match=r"line 2: clause has more than 3"):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0")
    with pytest.raises(DimacsError, match=r"line 2: variable 3 out of range"):
        parse_dimacs("p cnf 2 1\n1 3 0")
    with pytest.raises(DimacsError, match=r"clause before header"):
        parse_dimacs("1 2 0")
    with pytest.raises(DimacsError, match=r"promises 2 clauses, found 1"):
        parse_dimacs("p cnf 2 2\n1 2 0")
    with pytest.raises(DimacsError, match=r"^line 3: empty clause$"):
        parse_dimacs("p cnf 2 2\n1 2 0\n0")
    with pytest.raises(DimacsError, match=r"^line 3: empty clause$"):
        parse_dimacs("p cnf 1 2\n1 0\n0\n")
    # a later header used to replace the first, and its clause count won
    with pytest.raises(DimacsError, match=r"^line 3: second header$"):
        parse_dimacs("p cnf 3 5\n1 2 3 0\np cnf 3 1\n")
    with pytest.raises(DimacsError, match=r"^line 4: second header$"):
        parse_dimacs("p cnf 3 1\n1 -2 3 0\n1 2 0\np cnf 3 2\n")
    # a number is ASCII digits after an optional '-', as in the text formats
    with pytest.raises(DimacsError, match=r"^line 1: malformed header: '\+3' is not an integer$"):
        parse_dimacs("p cnf +3 1\n1 0")
    with pytest.raises(DimacsError, match=r"^line 1: malformed header: '1_0' is not an integer$"):
        parse_dimacs("p cnf 3 1_0\n1 0")
    with pytest.raises(DimacsError, match=r"^line 2: bad literal '\+3'$"):
        parse_dimacs("p cnf 3 1\n1 +3 0")
    with pytest.raises(DimacsError, match=r"^line 3: bad literal '1_0'$"):
        parse_dimacs("p cnf 12 1\n1\n1_0 0")
    with pytest.raises(DimacsError, match="^line 2: bad literal '\u0663'$"):
        parse_dimacs("p cnf 3 1\n1 \u0663 0")


def test_parse_comments_and_clauses_spanning_lines():
    f = parse_dimacs("c hi\np cnf 3 2\n1 2\n3 0 -1 -2 0\n% tail\n")
    assert f.clauses == ((1, 2, 3), (-1, -2))
    # the last clause needs no terminating 0
    f = parse_dimacs("p cnf 3 2\n1 2 0\n-1 3")
    assert f.clauses == ((1, 2), (-1, 3))


def test_formula_built_in_code_is_checked():
    # parse_dimacs refuses each of these first; the constructor refuses
    # them for formulas built without a parser
    with pytest.raises(ValueError, match="at least one variable"):
        CnfFormula(0, ())
    with pytest.raises(ValueError, match="clause 0 has 4 literals"):
        CnfFormula(4, ((1, 2, 3, 4),))
    with pytest.raises(ValueError, match="clause 1 repeats a variable"):
        CnfFormula(2, ((1, 2), (2, -2)))
    with pytest.raises(ValueError, match="clause 0 references variable 3 out of range"):
        CnfFormula(2, ((1, 2, -3),))


def test_unused_variable_rejected():
    with pytest.raises(ValueError, match="never used"):
        parse_dimacs("p cnf 3 1\n1 3 0")
    with pytest.raises(ValueError, match=r"never used: \[2, 4, 5\]$"):
        parse_dimacs("p cnf 5 1\n1 3 0")
    # past ten unused variables, the first ten and the count
    with pytest.raises(ValueError, match=r"never used: \[2, 3, 4, 5, 6, 7, 8, 9, 10, 11\] "
                                         r"\(11 in all\)$"):
        parse_dimacs("p cnf 12 1\n1 0")
    with pytest.raises(ValueError, match=r"never used: \[1, 3, 4, 5, 6, 7, 8, 9, 10, 11\] "
                                         r"\(999999998 in all\)$"):
        parse_dimacs("p cnf 1000000000 1\n2 -12 0")


def test_serialize_round_trip_is_identity_on_clauses():
    f = tiny()
    assert to_dimacs(f) == TINY
    assert parse_dimacs(to_dimacs(f)) == f


def test_clause_value_examples():
    f = tiny()
    assert clause_value(f, {1: 1, 2: 0, 3: 1}) == 1
    assert clause_value(f, {1: 1, 2: 1, 3: 1}) == Fraction(2, 3)


def test_clause_value_rejects_partial_assignment():
    with pytest.raises(ValueError, match="partial"):
        clause_value(tiny(), {1: 1, 2: 0})


def test_vars_of():
    f = tiny()
    assert vars_of(f, {0}) == {1, 2}
    assert vars_of(f, {0, 1}) == {1, 2, 3}
    assert vars_of(f, set()) == set()
    with pytest.raises(IndexError):
        vars_of(f, {3})


def test_max_occurrence():
    assert max_occurrence(tiny()) == 2
    assert max_occurrence(parse_dimacs("p cnf 3 1\n1 2 3 0")) == 1
    f = CnfFormula(3, ((1, 2, 3), (1, -2, -3), (-1, 2, -3), (1, -2, 3)))
    assert max_occurrence(f) == 4


def test_brute_force_examples():
    phi, val = brute_force_max_val(tiny())
    assert val == 1
    # two optima exist; the oracle takes the lex-smaller bit vector
    assert phi == {1: 0, 2: 1, 3: 0}
    assert clause_value(tiny(), {1: 1, 2: 0, 3: 1}) == 1
    _, forced = brute_force_max_val(parse_dimacs("p cnf 1 2\n1 0\n-1 0"))
    assert forced == Fraction(1, 2)
    phi1, val1 = brute_force_max_val(parse_dimacs("p cnf 1 1\n1 0"))
    assert (phi1, val1) == ({1: 1}, 1)


def test_brute_force_budget_refusal():
    f, _ = random_planted_formula(12, 8, seed=5)
    with pytest.raises(BudgetError) as exc:
        brute_force_max_val(f, budget=1 << 11)
    assert exc.value.required == 1 << 12
    assert exc.value.budget == 1 << 11


def _random_formula(rng, n):
    """Random clauses of width 1 to 3 over n variables, unsatisfiable ones
    included, and one unit clause for each variable they leave out."""
    clauses = [tuple(v * rng.choice((1, -1))
                     for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
               for _ in range(rng.randint(1, 3 * n))]
    seen = {abs(lit) for clause in clauses for lit in clause}
    clauses += [(v,) for v in range(1, n + 1) if v not in seen]
    return CnfFormula(n, tuple(clauses))


def test_brute_force_matches_the_old_argmax_and_charges_two_to_the_n(monkeypatch):
    """The same optimum and witness as the reference loop, and the same
    refusal, whole and in blocks of a few cells."""
    for cells in (None, 1, 7, 97):
        if cells is not None:
            monkeypatch.setattr(gapforge.budget, "BLOCK_CELLS", cells)
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 10)
            formula = (_random_formula(rng, n) if rng.random() < 0.5
                       else random_planted_formula(max(n, 3), 2 * max(n, 3),
                                                   rng.randrange(2**32))[0])
            n = formula.num_vars
            result = brute_force_max_val(formula, budget=1 << n)
            assert result == reference.brute_force_max_val(formula)
            assert type(result[1]) is Fraction
            with pytest.raises(BudgetError) as exc:
                brute_force_max_val(formula, budget=(1 << n) - 1)
            assert (exc.value.what, exc.value.required) == ("assignment enumeration", 1 << n)


def test_brute_force_memory_does_not_grow_with_two_to_the_n():
    """The 2^20 assignments are scored in blocks, not in arrays of 2^20."""
    formula, planted = random_planted_formula(20, 60, seed=3)
    tracemalloc.start()
    try:
        _, value = brute_force_max_val(formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1 == clause_value(formula, planted)
    assert peak < 4 << 20


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_oracle_dominance(seed, probe_seed):
    import random

    f, _ = random_planted_formula(6, 10, seed)
    _, best = brute_force_max_val(f)
    rng = random.Random(probe_seed)
    for _ in range(5):
        phi = {v: rng.randrange(2) for v in range(1, f.num_vars + 1)}
        assert best >= clause_value(f, phi)


@given(st.integers(0, 2**32 - 1), st.integers(3, 9), st.integers(3, 12))
@settings(max_examples=60, deadline=None)
def test_planted_formula_contract(seed, n, m):
    if 3 * m < n:
        m = n
    f, planted = random_planted_formula(n, m, seed, max_occurrence=None)
    assert f.num_vars == n and f.num_clauses == m
    assert clause_value(f, planted) == 1
    assert all(len(cl) == 3 for cl in f.clauses)
    assert parse_dimacs(to_dimacs(f)) == f


def test_planted_formula_respects_occurrence_cap():
    f, planted = random_planted_formula(9, 12, seed=3, max_occurrence=4)
    assert max_occurrence(f) <= 4
    assert clause_value(f, planted) == 1
    with pytest.raises(ValueError, match="cap too tight"):
        random_planted_formula(9, 12, seed=3, max_occurrence=3)


def test_planted_formula_needs_enough_clauses():
    with pytest.raises(ValueError, match="too few clauses"):
        random_planted_formula(10, 3, seed=0)
