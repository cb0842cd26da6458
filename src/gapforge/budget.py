"""Enumeration budgets shared by all brute-force operations. A budget is the
caller's argument, None meaning DEFAULT_BUDGET; only the command line reads
GAPFORGE_BUDGET."""

from __future__ import annotations

DEFAULT_BUDGET = 10_000_000


class BudgetError(Exception):
    """Raised when an exact enumeration would exceed its budget.

    Carries the number of candidates the enumeration would have to visit,
    so callers can report the budget a rerun would need.
    """

    def __init__(self, required, budget, what):
        self.required = required
        self.budget = budget
        self.what = what
        super().__init__(f"{what} needs {required} candidates, budget is {budget}")


def check(required, budget, what):
    """Raise BudgetError unless `required` candidates fit in the budget."""
    limit = DEFAULT_BUDGET if budget is None else int(budget)
    if required > limit:
        raise BudgetError(required, limit, what)


def search(pick, candidates, count, cost, budget, what):
    """Charge `count`, then return (best, cost(best)) for the builtin `pick`
    (min or max) of `cost` over `candidates()` in the order given; nothing is
    built before the charge. Both builtins keep the first optimum they meet,
    so candidates in lex order give the min-lex witness."""
    check(count, budget, what)
    best = pick(candidates(), key=cost)
    return best, cost(best)
