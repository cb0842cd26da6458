"""Enumeration budgets shared by all brute-force operations, and the search
layer that spends them. A budget is the caller's argument, None meaning
DEFAULT_BUDGET; only the command line reads GAPFORGE_BUDGET.

Every exhaustive optimum search is `block_search` over lex-ordered numpy
blocks of its candidates: it charges the count before it builds anything
and returns the min-lex optimum. It serves max coverage, clustering, the
NCP messages, the CVP box, `formula.brute_force_max_val`, the non-red
subgraph (`agreement.find_non_red_subgraph`) and the disperser check
(`setsys.is_strong_intersection_disperser`). Two exhaustive loops keep
their own `check`: the label-cover joint optima, which read both lex-first
maxima off one enumeration (`labelcover._left_optima`), and
`solvers.exact_min_set_cover`, which charges each size level and returns the
first cover in it, reading the blocks of the max-coverage kernel.
`_combinations` is the one chunker of lex-ordered index blocks."""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_BUDGET = 10_000_000

# Cap on the cells of one numpy block: box points x rows for CVP, words x
# messages for NCP, words x r-subsets for coverage, facility subsets x
# clients x k for clustering, diffs x sets x words, diffs x 2^w histogram
# cells or diffs x subcollections x words in the agreement counts, rows x
# sets x words of pair disagreements, d-subsets x d x d and red edges x words
# in the red-blue graph, the CNF assignment blocks (subsets x clauses x
# assignments for the left alphabets, clauses x assignments for a formula's
# value) and the assignments of a monotone DNF's weight counts. A larger
# instance makes blocks shorter instead of larger.
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


def block_search(pick, blocks, count, budget, what):
    """Charge `count`, then `blocks()` yields (label, costs) pairs, costs a
    numpy array in lex order, for the builtin `pick` (min or max); nothing
    is built before the charge. The first block holding the best cost wins,
    as does the first best position in it (both builtins keep the first
    optimum they meet), so the witness is min-lex. Returns the label, the
    position in the block and the cost as a Python number."""
    check(count, budget, what)
    least = pick is min
    label, costs = pick(blocks(), key=lambda block: block[1].min() if least else block[1].max())
    i = int(costs.argmin() if least else costs.argmax())
    return label, i, costs.item(i)


def _combinations(n, r, rows):
    """The r-subsets of range(n) in lex order, as int64 arrays of at most
    `rows` rows (one at least), one ascending subset a row."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    while (chunk := np.fromiter(itertools.islice(flat, max(1, rows) * r), np.int64)).size:
        yield chunk.reshape(-1, r)
