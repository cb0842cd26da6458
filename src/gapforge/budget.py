"""Enumeration budgets shared by all brute-force operations, and the search
layer that spends them. A budget is the caller's argument, None meaning
DEFAULT_BUDGET; only the command line reads GAPFORGE_BUDGET.

Every exhaustive optimum search is `search` over candidates in lex order, or
`block_search` over lex-ordered numpy blocks of them: each charges its count
before it builds anything and returns the min-lex optimum. `search` serves
the disperser check; `block_search` serves max coverage, clustering, the NCP
messages, the CVP box, `formula.brute_force_max_val` and the non-red
subgraph (`agreement.find_non_red_subgraph`). Two exhaustive loops keep
their own `check`: the label-cover joint optima, which read both lex-first
maxima off one enumeration (`labelcover._left_optima`), and
`solvers.exact_min_set_cover`, which charges each size level and returns the
first cover in it, reading the blocks of the max-coverage kernel."""

from __future__ import annotations

DEFAULT_BUDGET = 10_000_000

# Cap on the cells of one numpy block: box points x rows for CVP, words x
# messages for NCP, words x r-subsets for coverage, facility subsets x
# clients x k for clustering, diffs x sets x words, diffs x 2^w histogram
# cells or diffs x subcollections x words in the agreement counts, rows x
# sets x words of pair disagreements, d-subsets x d x d and red edges x words
# in the red-blue graph, and subsets x clauses x 3 x assignments for the left
# alphabets. A larger instance makes blocks shorter instead of larger.
# Callers read it when they run, so patching this one name resizes every
# block.
BLOCK_CELLS = 1 << 16


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


def block_search(pick, blocks, count, budget, what):
    """`search` over lex-ordered blocks: charge `count`, then `blocks()`
    yields (label, costs) pairs, costs a numpy array in lex order. The first
    block holding the best cost wins, as does the first best position in it,
    so the witness is min-lex. Returns the label, the position in the block
    and the cost as a Python number."""
    least = pick is min
    (label, costs), _ = search(pick, blocks, count,
                               lambda block: block[1].min() if least else block[1].max(),
                               budget, what)
    i = int(costs.argmin() if least else costs.argmax())
    return label, i, costs.item(i)
