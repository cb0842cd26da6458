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

from .budget import check, search
from .formula import satisfied_counts, vars_of
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
    order, and an edge keeps the bits of the right domain. Oracles read only
    the derived `tables` and `incidence`; the vertex counts, `vacuous`,
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
        if self.projections == RESTRICTION:
            if self.left_domains is None or self.right_domains is None:
                raise ValueError("restriction projections need vertex domains")
            if len(self.left_domains) != num_left or len(self.right_domains) != num_right:
                raise ValueError("one domain per vertex required")
            for dom in self.left_domains + self.right_domains:
                if len(set(dom)) != len(dom):
                    raise ValueError(f"domain {list(dom)} repeats a variable")
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


def labeling_value(instance, labeling):
    """Fraction of edges satisfied by a full labeling (left indices, right indices)."""
    left, right = labeling
    _check_labeling(instance, left, right)
    if not instance.edges:
        raise ValueError(_NO_EDGES)
    tables = instance.tables
    sat = 0
    for e, (u, v) in enumerate(instance.edges):
        if tables[e][left[u]] == right[v]:
            sat += 1
    return Fraction(sat, instance.num_edges)


def _check_labeling(instance, left, right=None):
    if len(left) != instance.num_left:
        raise ValueError("left labeling must label every left vertex")
    for u, li in enumerate(left):
        if not 0 <= li < len(instance.left_alphabets[u]):
            raise ValueError(f"left label index {li} out of range at vertex {u}")
    if right is not None:
        if len(right) != instance.num_right:
            raise ValueError("right labeling must label every right vertex")
        for v, ri in enumerate(right):
            if not 0 <= ri < len(instance.right_alphabets[v]):
                raise ValueError(f"right label index {ri} out of range at vertex {v}")


def weak_agreement_value(instance, left):
    """Fraction of right vertices with two distinct neighbors projecting equal labels.

    Right vertices of degree < 2 cannot be weakly agreed on.
    """
    _check_labeling(instance, left)
    if not instance.num_right:
        raise ValueError(_NO_RIGHT)
    return _weak_agreement(instance, left)


def _weak_agreement(instance, left):
    tables = instance.tables
    agreed = 0
    for pairs in instance.incidence:
        seen = set()
        for e, u in pairs:
            val = tables[e][left[u]]
            if val in seen:
                agreed += 1
                break
            seen.add(val)
    return Fraction(agreed, instance.num_right)


def optimal_extension(instance, left):
    """Best right labeling given a left labeling: each right vertex takes the
    plurality projected value (ties to the smallest right-label index).
    Returns (right labeling, Fraction value)."""
    _check_labeling(instance, left)
    if not instance.edges:
        raise ValueError(_NO_EDGES)
    return _extension(instance, left)


def _extension(instance, left):
    tables = instance.tables
    right = []
    sat = 0
    for pairs in instance.incidence:
        counts = {}
        for e, u in pairs:
            val = tables[e][left[u]]
            counts[val] = counts.get(val, 0) + 1
        if counts:
            best = max(sorted(counts), key=lambda val: counts[val])
            # max keeps the first maximum, so sorting first gives min-index ties
            right.append(best)
            sat += counts[best]
        else:
            right.append(0)
    return tuple(right), Fraction(sat, instance.num_edges)


def _best_left(instance, budget, score):
    """The lexicographically first left labeling of maximum score, and the score.

    Every enumerated labeling is in range, so `score` skips the public
    oracles' checks."""
    sizes = [len(a) for a in instance.left_alphabets]
    if 0 in sizes:
        raise ValueError(f"left vertex {sizes.index(0)} has an empty alphabet, "
                         "so the game has no left labeling")
    return search(max, lambda: itertools.product(*(range(s) for s in sizes)),
                  math.prod(sizes), score, budget, "left labeling enumeration")


def brute_force_val(instance, budget=None):
    """Optimum over all labelings by left enumeration plus optimal extension.

    Returns ((left, right), Fraction). Ties break to the lexicographically
    smallest left labeling (and the plurality extension's min-index rule).
    """
    if not instance.edges:
        raise ValueError(_NO_EDGES)
    best_left, _ = _best_left(instance, budget, lambda left: _extension(instance, left)[1])
    right, val = _extension(instance, best_left)
    return (best_left, right), val


def brute_force_wval(instance, budget=None):
    """Maximum weak agreement value over all left labelings, with min-lex witness."""
    if not instance.num_right:
        raise ValueError(_NO_RIGHT)
    return _best_left(instance, budget, lambda left: _weak_agreement(instance, left))


def left_vertices(formula, system, var_budget=24):
    """The clause-subset game's left side: per subset T of `system`, the
    sorted domain var(T) and the satisfying assignments to it as ascending
    masks, bit j holding the value of domain[j]. An unsatisfiable subset gets
    an empty alphabet; a subset over more than var_budget variables is
    refused."""
    if system.universe_size != formula.num_clauses:
        raise ValueError("system universe must be the clause set")
    domains = []
    alphabets = []
    for i, subset in enumerate(system.sets):
        dom = sorted(vars_of(formula, subset))
        check(1 << len(dom), 1 << var_budget, what=f"alphabet enumeration for subset {i}")
        # reversed, so bit j of the enumeration index is dom[j]
        counts = satisfied_counts(formula, dom[::-1], subset)
        domains.append(tuple(dom))
        alphabets.append(tuple(np.flatnonzero(counts == len(subset)).tolist()))
    return tuple(domains), tuple(alphabets)


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
    left_domains, left_alphabets = left_vertices(formula, system, var_budget)
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


def is_prime(q):
    return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))


def smallest_prime_at_least(lo):
    return next(q for q in itertools.count(max(2, lo)) if is_prime(q))


def hadamard_codeword(message, q, ell):
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
    q = smallest_prime_at_least(lo)
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
        words = [hadamard_codeword(_digits(ri, q, ell), q, ell)
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

    Rational fields are exact; C and eta are irrational, so their exact
    factors (C_base, C_log_arg, eta_coef, eta_exp_arg) are stored alongside
    50-digit rational approximations. `soundness_params` defines each
    derived field; overrides lists fields replaced by the caller.
    """

    epsilon: Fraction
    Delta: int
    delta: Fraction
    t: int
    k: int
    C: Fraction
    C_base: Fraction
    C_log_arg: Fraction
    p: Fraction
    mu: Fraction
    gamma: Fraction
    kappa: Fraction
    alpha: Fraction
    rho: Fraction
    eta: Fraction
    eta_coef: Fraction
    eta_exp_arg: Fraction
    beta: Fraction
    d: Fraction
    overrides: tuple[str, ...] = ()

    @property
    def theory_only(self):
        """True when p is not a usable sampling probability."""
        return not 0 < self.p <= 1


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
    c_base = base_arg ** (100 * t)
    c_log_arg = Fraction(Delta * t) / (epsilon * delta)
    c_val = c_base * _ln(c_log_arg)
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
    eta_coef = Fraction(6 * Delta * (2 * t - 3))
    eta_exp_arg = -p * kappa * (k - 2) / (2 * t - 3)
    eta = eta_coef * _exp(eta_exp_arg)
    if alpha_override is not None:
        alpha = Fraction(alpha_override)
        overrides.append("alpha")
    if rho_override is not None:
        rho = Fraction(rho_override)
        overrides.append("rho")
    if eta_override is not None:
        eta = Fraction(eta_override)
        overrides.append("eta")
    beta = delta / (4 * t * t)
    d = delta * k / (8 * t * t)
    return SoundnessParams(
        epsilon=epsilon, Delta=Delta, delta=delta, t=t, k=k,
        C=c_val, C_base=c_base, C_log_arg=c_log_arg,
        p=p, mu=mu, gamma=gamma, kappa=kappa, alpha=alpha, rho=rho,
        eta=eta, eta_coef=eta_coef, eta_exp_arg=eta_exp_arg,
        beta=beta, d=d, overrides=tuple(overrides),
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
        left_domains=_rows(doc, "left_domains") if restriction or "left_domains" in doc else None,
        right_domains=_rows(doc, "right_domains") if restriction else None,
    )
    for key, value in recorded.items():
        if getattr(game, key) != value:
            raise ValueError(f"labelcover key {key!r} records {json.dumps(value)}, "
                             f"but the game has {json.dumps(getattr(game, key))}")
    return game
