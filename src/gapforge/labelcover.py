"""Projection games: the data model, value oracles, the clause-subset reduction,
the Hadamard right-alphabet reduction, and the soundness parameter bundle."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import budget as _budget
from .budget import BudgetError, check
from .formula import vars_of
from .setsys import bitmask

RESTRICTION = "restriction"

_NO_EDGES = "the game has no edges, so its value is undefined"
_NO_RIGHT = "the game has no right vertices, so its value is undefined"


class UnsatisfiableSubsetError(ValueError):
    """A clause subset admits no satisfying assignment, so its alphabet is empty."""

    def __init__(self, index, clause_indices):
        self.index = index
        self.clause_indices = tuple(clause_indices)
        super().__init__(
            f"subset {index} (clauses {sorted(clause_indices)}) is unsatisfiable; "
            "pass allow_vacuous=True to build the instance anyway"
        )


@dataclass(frozen=True)
class LabelCoverInstance:
    """A bipartite projection game.

    Labels are opaque objects listed per vertex. Projections are either
    explicit per-edge tables (tables[e][left_label_index] = right_label_index)
    or the tag "restriction": per-vertex domains list distinct variables,
    labels are bitmasks over them (bit i is the value of the i-th domain
    variable), left labels are distinct, a right alphabet is every mask in
    order, and an edge keeps the bits of the right domain. A tables game may
    keep left domains (as `reduce_alphabet` does), not right ones. Oracles read
    only the derived `tables` and `incidence`; the vertex counts, `vacuous`,
    `right_degree` and `bi_regular` are read off the fields too.
    """

    edges: tuple[tuple[int, int], ...]
    left_alphabets: tuple[tuple, ...]
    right_alphabets: tuple[tuple, ...]
    projections: object = RESTRICTION
    left_domains: tuple[tuple[int, ...], ...] | None = None
    right_domains: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        num_left, num_right = self.num_left, self.num_right
        for u, v in self.edges:
            if not (0 <= u < num_left and 0 <= v < num_right):
                raise ValueError(f"edge ({u}, {v}) out of range")
        restriction = self.projections == RESTRICTION
        if restriction and (self.left_domains is None or self.right_domains is None):
            raise ValueError("restriction projections need vertex domains")
        if not restriction and self.right_domains is not None:
            raise ValueError("tables projections take no right domains")
        sides = ((self.left_domains, num_left), (self.right_domains, num_right))
        if any(doms is not None and len(doms) != count for doms, count in sides):
            raise ValueError("one domain per vertex required")
        for dom in (self.left_domains or ()) + (self.right_domains or ()):
            if len(set(dom)) != len(dom):
                raise ValueError(f"domain {list(dom)} repeats a variable")
        if restriction:
            for u, (dom, alphabet) in enumerate(zip(self.left_domains, self.left_alphabets)):
                if alphabet and (len(set(alphabet)) != len(alphabet) or min(alphabet) < 0
                                 or max(alphabet) >= 1 << len(dom)):
                    raise ValueError(f"left vertex {u}: labels must be distinct masks "
                                     f"below 2^{len(dom)}")
            every_mask = {}
            for v, (dom, alphabet) in enumerate(zip(self.right_domains, self.right_alphabets)):
                n = len(dom)
                # lengths first: a claimed domain size alone builds no masks
                if len(alphabet) == 1 << n and n not in every_mask:
                    every_mask[n] = tuple(range(1 << n))
                if alphabet != every_mask.get(n):
                    raise ValueError(f"right vertex {v}: the alphabet must be every mask "
                                     f"0..2^{n}-1 in order")
            left_sets = [set(dom) for dom in self.left_domains]
            for u, v in self.edges:
                if not left_sets[u].issuperset(self.right_domains[v]):
                    raise ValueError(f"edge ({u}, {v}): right domain not inside left domain")
        else:
            if len(self.projections) != len(self.edges):
                raise ValueError("one projection table per edge required")
            for e, table in enumerate(self.projections):
                u, v = self.edges[e]
                if len(table) != len(self.left_alphabets[u]):
                    raise ValueError(f"edge {e}: projection table not total on the left alphabet")
                for out in table:
                    if not 0 <= out < len(self.right_alphabets[v]):
                        raise ValueError(f"edge {e}: projection lands outside the right alphabet")

    @property
    def num_left(self):
        return len(self.left_alphabets)

    @property
    def num_right(self):
        return len(self.right_alphabets)

    @property
    def vacuous(self):
        """Some vertex has an empty alphabet, so the game has no labeling."""
        return not all(self.left_alphabets) or not all(self.right_alphabets)

    @cached_property
    def right_degree(self):
        """The common right degree when the game has edges, every left vertex
        has one degree and every right vertex another; else None."""
        left = [0] * self.num_left
        for u, _ in self.edges:
            left[u] += 1
        right = {len(pairs) for pairs in self.incidence}
        return right.pop() if self.edges and len(set(left)) == len(right) == 1 else None

    @property
    def bi_regular(self):
        return self.right_degree is not None

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def tables(self):
        """tables[e][left_label_index] = right_label_index, for every edge e.

        A tables game returns its projections; a restriction game derives its
        tables here, once. Not a field, so ==, to_json and fields() ignore it.
        """
        if self.projections != RESTRICTION:
            return self.projections
        lpos = [{var: i for i, var in enumerate(dom)} for dom in self.left_domains]
        tables = []
        for u, v in self.edges:
            shifts = [(lpos[u][var], j) for j, var in enumerate(self.right_domains[v])]
            tables.append(tuple(sum(((label >> i) & 1) << j for i, j in shifts)
                                for label in self.left_alphabets[u]))
        return tuple(tables)

    @cached_property
    def incidence(self):
        """Per right vertex, the (edge_index, left_vertex) pairs."""
        inc = [[] for _ in range(self.num_right)]
        for e, (u, v) in enumerate(self.edges):
            inc[v].append((e, u))
        return tuple(map(tuple, inc))

    @cached_property
    def _optima(self):
        """((left, sat), (left, agreed)): one enumeration of the left box keeps
        the lex-first labelings of most satisfied edges and of most weakly
        agreed right vertices. Read through `_left_optima`; not a field."""
        val_left = wval_left = None
        top_sat = top_agreed = -1
        for left in itertools.product(*(range(len(a)) for a in self.left_alphabets)):
            _, sat, agreed = _extension(self, left)
            if sat > top_sat:
                val_left, top_sat = left, sat
            if agreed > top_agreed:
                wval_left, top_agreed = left, agreed
        return (val_left, top_sat), (wval_left, top_agreed)


def _check_labeling(instance, left):
    if len(left) != instance.num_left:
        raise ValueError("left labeling must label every left vertex")
    for u, li in enumerate(left):
        if not 0 <= li < len(instance.left_alphabets[u]):
            raise ValueError(f"left label index {li} out of range at vertex {u}")


def weak_agreement_value(instance, left):
    """Fraction of right vertices with two distinct neighbors projecting equal labels.

    Right vertices of degree < 2 cannot be weakly agreed on.
    """
    _check_labeling(instance, left)
    if not instance.num_right:
        raise ValueError(_NO_RIGHT)
    return Fraction(_extension(instance, left)[2], instance.num_right)


def optimal_extension(instance, left):
    """Best right labeling given a left labeling: each right vertex takes the
    plurality projected value (ties to the smallest right-label index).
    Returns (right labeling, Fraction value)."""
    _check_labeling(instance, left)
    if not instance.edges:
        raise ValueError(_NO_EDGES)
    right, sat, _ = _extension(instance, left)
    return right, Fraction(sat, instance.num_edges)


def _extension(instance, left):
    """The plurality right labeling, the number of edges it satisfies, and the
    number of weakly agreed right vertices (those whose top count is 2 or more).

    One pass per right vertex keeps the top count and the smallest label at
    that count; a right vertex without edges takes label 0 and adds 0."""
    tables = instance.tables
    right = []
    sat = agreed = 0
    for pairs in instance.incidence:
        counts = {}
        top = best = 0
        for e, u in pairs:
            val = tables[e][left[u]]
            count = counts[val] = counts.get(val, 0) + 1
            if count > top or (count == top and val < best):
                top, best = count, val
        right.append(best)
        sat += top
        agreed += top > 1
    return tuple(right), sat, agreed


def _left_optima(instance, budget):
    """Charge every left labeling on every call, cached or not, and only then
    read the game's `_optima`, so a refused game enumerates nothing."""
    sizes = [len(a) for a in instance.left_alphabets]
    if 0 in sizes:
        raise ValueError(f"left vertex {sizes.index(0)} has an empty alphabet, "
                         "so the game has no left labeling")
    check(math.prod(sizes), budget, "left labeling enumeration")
    return instance._optima


def brute_force_val(instance, budget=None):
    """Optimum over all labelings by left enumeration plus optimal extension.

    Returns ((left, right), Fraction). Ties break to the lexicographically
    smallest left labeling (and the plurality extension's min-index rule).
    Every score is an edge count over the same |E|, so the search compares
    counts and divides once.
    """
    if not instance.edges:
        raise ValueError(_NO_EDGES)
    (best_left, _), _ = _left_optima(instance, budget)
    right, sat, _ = _extension(instance, best_left)
    return (best_left, right), Fraction(sat, instance.num_edges)


def brute_force_wval(instance, budget=None):
    """Maximum weak agreement value over all left labelings, with min-lex witness."""
    if not instance.num_right:
        raise ValueError(_NO_RIGHT)
    _, (best_left, agreed) = _left_optima(instance, budget)
    return best_left, Fraction(agreed, instance.num_right)


def left_vertices(formula, system, var_budget=24, budget=None):
    """The clause-subset game's left side: per subset T of `system`, the
    sorted domain var(T) and the satisfying assignments to it as ascending
    masks, bit j holding the value of domain[j]. An unsatisfiable subset gets
    an empty alphabet; a subset over more than var_budget variables is
    refused, and all sum_T 2^|var(T)| assignments are charged to `budget`
    before any is enumerated.

    A clause of T is read as two masks over var(T): `care`, its variables,
    and `falsify`, the one assignment to them that falsifies every literal;
    an assignment satisfies the clause iff it differs from `falsify` on
    `care`. The subsets of one domain width and clause count are scored
    together, in one array of subsets x clauses x assignments cut to about
    BLOCK_CELLS cells along the subsets and the assignments."""
    if system.universe_size != formula.num_clauses:
        raise ValueError("system universe must be the clause set")
    domains = tuple(tuple(sorted(vars_of(formula, subset))) for subset in system.sets)
    for i, dom in enumerate(domains):
        # compare widths: 2^var_budget itself may be too large to build
        if len(dom) > var_budget:
            raise BudgetError(1 << len(dom), 1 << var_budget,
                              f"alphabet enumeration for subset {i}")
    check(sum(1 << len(dom) for dom in domains), budget, what="left alphabet enumeration")
    # every clause of every subset in order, padded to 3 literals by
    # repeating its first; a variable's bit is the number of smaller
    # variables in its subset's domain, which is padded past num_vars
    counts = [len(subset) for subset in system.sets]
    lits = np.array([(formula.clauses[c] * 3)[:3] for subset in system.sets for c in subset],
                    np.int64).reshape(-1, 3)
    widest = max(map(len, domains), default=0)
    padded = np.array([dom + (formula.num_vars + 1,) * (widest - len(dom)) for dom in domains],
                      np.int64).reshape(len(domains), widest)
    owner = np.repeat(np.arange(len(domains)), counts)
    bits = 1 << (padded[owner, None, :] < abs(lits)[..., None]).sum(axis=2)
    care = np.bitwise_or.reduce(bits, axis=1)
    falsify = np.bitwise_or.reduce(bits * (lits < 0), axis=1)
    first = np.cumsum([0] + counts)[:-1]
    groups = {}
    for i, (count, dom) in enumerate(zip(counts, domains)):
        groups.setdefault((len(dom), count), []).append(i)
    alphabets = [None] * len(domains)
    for (width, count), members in groups.items():
        rows = first[members][:, None] + np.arange(count)
        group_care, group_falsify = care[rows][..., None], falsify[rows][..., None]
        span = min(1 << width, max(1, _budget.BLOCK_CELLS // (count or 1)))
        step = max(1, _budget.BLOCK_CELLS // (count * span or 1))
        found = {i: [] for i in members}
        for lo in range(0, 1 << width, span):
            masks = np.arange(lo, min(lo + span, 1 << width))
            for start in range(0, len(members), step):
                part = slice(start, start + step)
                sat = np.logical_and.reduce((masks & group_care[part]) != group_falsify[part], axis=1)
                for i, row in zip(members[part], sat):
                    found[i] += masks[row].tolist()
        for i, labels in found.items():
            alphabets[i] = tuple(labels)
    return domains, tuple(alphabets)


def build_main_reduction(formula, system, t, var_budget=24, budget=None, allow_vacuous=False):
    """The clause-subset projection game.

    Left vertices are the subsets of `system` (a SetSystem over clause
    indices) with the labels of `left_vertices`; right vertices are the
    t-size subcollections; right labels are all assignments to the t-wise
    variable intersection; edges project by restriction. An unsatisfiable
    subset raises unless allow_vacuous.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    k = system.k
    if k < t:
        raise ValueError("need at least t subsets")
    left_domains, left_alphabets = left_vertices(formula, system, var_budget, budget)
    if not all(left_alphabets) and not allow_vacuous:
        i = left_alphabets.index(())
        raise UnsatisfiableSubsetError(i, system.sets[i])
    check(math.comb(k, t), budget, what="right vertex enumeration")
    right_domains = []
    right_alphabets = []
    edges = []
    dom_sets = [set(dom) for dom in left_domains]
    for v_idx, combo in enumerate(itertools.combinations(range(k), t)):
        rdom = tuple(sorted(set.intersection(*(dom_sets[i] for i in combo))))
        right_domains.append(rdom)
        right_alphabets.append(tuple(range(1 << len(rdom))))
        for i in combo:
            edges.append((i, v_idx))
    return LabelCoverInstance(
        edges=tuple(edges),
        left_alphabets=left_alphabets,
        right_alphabets=tuple(right_alphabets),
        left_domains=left_domains,
        right_domains=tuple(right_domains),
    )


def restriction_labeling(instance, phi):
    """Left labeling induced by a global assignment on a restriction instance.

    phi maps variables to bits; each left vertex takes the restriction of phi
    to its domain. Raises if some restriction is not in the vertex alphabet
    (the assignment violates that subset's clauses).
    """
    if instance.projections != RESTRICTION:
        raise ValueError("needs a restriction-projection instance")
    labeling = []
    for u in range(instance.num_left):
        mask = bitmask(i for i, var in enumerate(instance.left_domains[u]) if phi[var] & 1)
        try:
            labeling.append(instance.left_alphabets[u].index(mask))
        except ValueError:
            raise ValueError(
                f"assignment does not satisfy left vertex {u}'s clauses"
            ) from None
    return tuple(labeling)


def _hadamard_codeword(message, q, ell):
    """All inner products <message, j> over F_q, j running over F_q^ell
    (position index j decodes little-endian in base q)."""
    return tuple(sum(m * c for m, c in zip(message, _digits(j, q, ell), strict=True)) % q
                 for j in range(q**ell))


def _digits(value, q, ell):
    return tuple((value // q**d) % q for d in range(ell))


def reduce_alphabet(instance, delta, budget=None):
    """Shrink right alphabets to F_q by splitting each right vertex into one
    vertex per Hadamard codeword position.

    q is the smallest prime >= t^2/delta; messages are the right-label
    indices written in base q. Weak agreement value grows by at most delta;
    satisfiability is preserved. The prime search's lower end, then the
    output's size, its right labels plus its projection-table entries, are
    checked against the budget before anything is built.
    """
    t = instance.right_degree
    if t is None:
        raise ValueError("needs a bi-regular instance with at least one edge")
    if instance.vacuous:
        raise ValueError("vacuous instance has no satisfiable labelings to preserve")
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    lo = math.ceil(Fraction(t * t) / delta)
    check(lo, budget, what="prime search")
    q = next(q for q in itertools.count(max(2, lo))
             if all(q % f for f in range(2, math.isqrt(q) + 1)))
    big_r = max(len(a) for a in instance.right_alphabets)
    ell = 1
    while q**ell < big_r:
        ell += 1
    positions = q**ell
    table_entries = sum(len(instance.left_alphabets[u]) for u, _ in instance.edges)
    check(positions * (instance.num_right * q + table_entries), budget,
          what="reduced game size (right labels plus projection entries)")
    edges = []
    tables = []
    right_alphabets = []
    fq = tuple(range(q))
    for v in range(instance.num_right):
        words = [_hadamard_codeword(_digits(ri, q, ell), q, ell)
                 for ri in range(len(instance.right_alphabets[v]))]
        proj_tables = [(u, instance.tables[e]) for e, u in instance.incidence[v]]
        for j in range(positions):
            right_alphabets.append(fq)
            for u, table in proj_tables:
                edges.append((u, v * positions + j))
                tables.append(tuple(words[ri][j] for ri in table))
    return LabelCoverInstance(
        edges=tuple(edges),
        left_alphabets=instance.left_alphabets,
        right_alphabets=tuple(right_alphabets),
        projections=tuple(tables),
        left_domains=instance.left_domains,
    )


def wval_to_val_bound(delta, t):
    """delta + (1 - delta)/t: the best full value a left labeling of weak
    agreement value delta can reach on a right-degree-t bi-regular instance."""
    if t < 1:
        raise ValueError("t must be positive")
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError("delta must be in [0, 1]")
    return delta + (1 - delta) * Fraction(1, t)


_PREC = 50


def _ln(frac):
    with localcontext() as ctx:
        ctx.prec = _PREC
        return Fraction(Decimal(frac.numerator).ln() - Decimal(frac.denominator).ln())


def _exp(frac):
    with localcontext() as ctx:
        ctx.prec = _PREC
        val = (Decimal(frac.numerator) / Decimal(frac.denominator)).exp()
        return Fraction(val)


@dataclass(frozen=True)
class SoundnessParams:
    """The parameter bundle driving the decode pipeline.

    It stores the inputs (epsilon, Delta, delta, t, k), the constant C, the
    sampling probability p, the uniformity pair (mu, gamma), the decoder's
    alpha, rho and eta, and the names of the fields the caller overrode.
    Every field is exact except C and eta, which are irrational and stored
    as 50-digit rational approximations. `soundness_params` defines each
    derived field.
    """

    epsilon: Fraction
    Delta: int
    delta: Fraction
    t: int
    k: int
    C: Fraction
    p: Fraction
    mu: Fraction
    gamma: Fraction
    alpha: Fraction
    rho: Fraction
    eta: Fraction
    overrides: tuple[str, ...] = ()


def soundness_params(epsilon, Delta, delta, t, k, p_override=None,
                     alpha_override=None, rho_override=None, eta_override=None):
    """Instantiate the decode parameters from (epsilon, Delta, delta, t, k).

    The theory values are astronomical at desk scale (C alone is ~10^580 for
    the smallest inputs), so callers may override p, alpha, rho, eta with
    measured values; overrides are recorded in the bundle.
    """
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if t < 2 or Delta < 1 or k < 1:
        raise ValueError("need t >= 2, Delta >= 1, k >= 1")
    base_arg = Fraction(100 * Delta * t) / (epsilon * delta)
    c_val = base_arg ** (100 * t) * _ln(Fraction(Delta * t) / (epsilon * delta))
    kappa = base_arg ** (-50 * t)
    alpha = Fraction(10 * t) ** (2 * t) * kappa * Fraction(k - 2) ** (2 * t - 3) / Fraction(k) ** (2 * t - 3) if k > 2 else Fraction(0)
    overrides = []
    if p_override is not None:
        p = Fraction(p_override)
        overrides.append("p")
    else:
        p = c_val / k
    mu = epsilon / 2
    gamma = p / 2
    rho = 18 * p * p * Delta * Delta
    eta = Fraction(6 * Delta * (2 * t - 3)) * _exp(-p * kappa * (k - 2) / (2 * t - 3))
    if alpha_override is not None:
        alpha = Fraction(alpha_override)
        overrides.append("alpha")
    if rho_override is not None:
        rho = Fraction(rho_override)
        overrides.append("rho")
    if eta_override is not None:
        eta = Fraction(eta_override)
        overrides.append("eta")
    return SoundnessParams(
        epsilon=epsilon, Delta=Delta, delta=delta, t=t, k=k, C=c_val, p=p, mu=mu,
        gamma=gamma, alpha=alpha, rho=rho, eta=eta, overrides=tuple(overrides),
    )


def to_json(instance):
    """Stable JSON interchange text for an instance."""
    doc = {
        "format": "labelcover",
        "edges": [list(e) for e in instance.edges],
        "left_alphabets": [list(a) for a in instance.left_alphabets],
        "right_alphabets": [list(a) for a in instance.right_alphabets],
        **{key: getattr(instance, key) for key, _ in _DERIVED},
    }
    if instance.projections == RESTRICTION:
        doc["projection"] = RESTRICTION
        doc["left_domains"] = [list(d) for d in instance.left_domains]
        doc["right_domains"] = [list(d) for d in instance.right_domains]
    else:
        doc["projection"] = "tables"
        doc["tables"] = [list(tb) for tb in instance.projections]
        if instance.left_domains is not None:
            doc["left_domains"] = [list(d) for d in instance.left_domains]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# attributes read off the game that a document also records, with their JSON types
_DERIVED = (("num_left", _is_int), ("num_right", _is_int),
            ("bi_regular", lambda x: isinstance(x, bool)),
            ("right_degree", lambda x: x is None or _is_int(x)),
            ("vacuous", lambda x: isinstance(x, bool)))


def _is_rows(x):
    return isinstance(x, list) and all(
        isinstance(row, list) and all(_is_int(y) for y in row) for row in x)


def _get(doc, key, ok):
    """doc[key]; ValueError naming the key when it is missing or mistyped."""
    if key not in doc:
        raise ValueError(f"labelcover document lacks {key!r}")
    if not ok(doc[key]):
        raise ValueError(f"labelcover key {key!r} has the wrong JSON type")
    return doc[key]


def _rows(doc, key):
    return tuple(tuple(row) for row in _get(doc, key, _is_rows))


def from_json(text):
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("labelcover document is nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != "labelcover":
        raise ValueError("not a labelcover document")
    restriction = _get(doc, "projection", lambda x: x in (RESTRICTION, "tables")) == RESTRICTION
    recorded = {key: _get(doc, key, ok) for key, ok in _DERIVED}
    game = LabelCoverInstance(
        edges=_rows(doc, "edges"),
        left_alphabets=_rows(doc, "left_alphabets"),
        right_alphabets=_rows(doc, "right_alphabets"),
        projections=RESTRICTION if restriction else _rows(doc, "tables"),
        **{key: _rows(doc, key) if restriction or key in doc else None
           for key in ("left_domains", "right_domains")},
    )
    for key, value in recorded.items():
        if getattr(game, key) != value:
            raise ValueError(f"labelcover key {key!r} records {json.dumps(value)}, "
                             f"but the game has {json.dumps(getattr(game, key))}")
    return game
