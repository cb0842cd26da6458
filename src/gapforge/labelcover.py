"""Projection games: the data model, value oracles, the clause-subset reduction,
the Hadamard right-alphabet reduction, and the soundness parameter bundle."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .budget import check
from .formula import satisfied_counts, vars_of
from .setsys import bitmask

RESTRICTION = "restriction"


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
    or the tag "restriction", in which case per-vertex domains are variable
    lists, labels are bitmasks over them (bit i of a mask is the value of the
    i-th domain variable), and an edge projects by keeping the bits of the
    right domain.
    """

    num_left: int
    num_right: int
    edges: tuple[tuple[int, int], ...]
    left_alphabets: tuple[tuple, ...]
    right_alphabets: tuple[tuple, ...]
    projections: object = RESTRICTION
    left_domains: tuple[tuple[int, ...], ...] | None = None
    right_domains: tuple[tuple[int, ...], ...] | None = None
    bi_regular: bool = False
    right_degree: int | None = None
    vacuous: bool = False

    def __post_init__(self):
        if len(self.left_alphabets) != self.num_left:
            raise ValueError("one alphabet per left vertex required")
        if len(self.right_alphabets) != self.num_right:
            raise ValueError("one alphabet per right vertex required")
        if not self.vacuous:
            for side in (self.left_alphabets, self.right_alphabets):
                for a in side:
                    if not a:
                        raise ValueError("empty alphabet on a non-vacuous instance")
        for u, v in self.edges:
            if not (0 <= u < self.num_left and 0 <= v < self.num_right):
                raise ValueError(f"edge ({u}, {v}) out of range")
        if self.projections == RESTRICTION:
            if self.left_domains is None or self.right_domains is None:
                raise ValueError("restriction projections need vertex domains")
            if len(self.left_domains) != self.num_left \
                    or len(self.right_domains) != self.num_right:
                raise ValueError("one domain per vertex required")
            for u, v in self.edges:
                if not set(self.right_domains[v]) <= set(self.left_domains[u]):
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
        if self.bi_regular and self.edges:
            left_deg = {}
            right_deg = {}
            for u, v in self.edges:
                left_deg[u] = left_deg.get(u, 0) + 1
                right_deg[v] = right_deg.get(v, 0) + 1
            if len(set(left_deg.values())) > 1 or len(set(right_deg.values())) > 1:
                raise ValueError("instance flagged bi-regular but degrees vary")
            if self.right_degree is not None and set(right_deg.values()) != {self.right_degree}:
                raise ValueError("recorded right degree does not match the edges")

    @property
    def num_edges(self):
        return len(self.edges)


def project_index(instance, edge_index, left_label_index):
    """Right-label index the edge's projection assigns to a left-label index."""
    u, v = instance.edges[edge_index]
    if instance.projections != RESTRICTION:
        return instance.projections[edge_index][left_label_index]
    ldom = instance.left_domains[u]
    rdom = instance.right_domains[v]
    lpos = {var: i for i, var in enumerate(ldom)}
    label = instance.left_alphabets[u][left_label_index]
    out = 0
    for rpos, var in enumerate(rdom):
        out |= ((label >> lpos[var]) & 1) << rpos
    return out


def edge_projection_table(instance, edge_index):
    if instance.projections != RESTRICTION:
        return tuple(instance.projections[edge_index])
    u, _ = instance.edges[edge_index]
    return tuple(
        project_index(instance, edge_index, li) for li in range(len(instance.left_alphabets[u]))
    )


def right_incidence(instance):
    """Per right vertex, the list of (edge_index, left_vertex) pairs."""
    inc = [[] for _ in range(instance.num_right)]
    for e, (u, v) in enumerate(instance.edges):
        inc[v].append((e, u))
    return inc


def labeling_value(instance, labeling):
    """Fraction of edges satisfied by a full labeling (left indices, right indices)."""
    left, right = labeling
    _check_labeling(instance, left, right)
    sat = 0
    for e, (u, v) in enumerate(instance.edges):
        if project_index(instance, e, left[u]) == right[v]:
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
    inc = right_incidence(instance)
    agreed = 0
    for v in range(instance.num_right):
        seen = set()
        for e, u in inc[v]:
            val = project_index(instance, e, left[u])
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
    inc = right_incidence(instance)
    right = []
    sat = 0
    for v in range(instance.num_right):
        counts = {}
        for e, u in inc[v]:
            val = project_index(instance, e, left[u])
            counts[val] = counts.get(val, 0) + 1
        if counts:
            best = max(sorted(counts), key=lambda val: counts[val])
            # max keeps the first maximum, so sorting first gives min-index ties
            right.append(best)
            sat += counts[best]
        else:
            right.append(0)
    return tuple(right), Fraction(sat, instance.num_edges)


def _left_space(instance, budget, what):
    sizes = [len(a) for a in instance.left_alphabets]
    total = math.prod(sizes)
    check(total, budget, what=what)
    return sizes


def brute_force_val(instance, budget=None):
    """Optimum over all labelings by left enumeration plus optimal extension.

    Returns ((left, right), Fraction). Ties break to the lexicographically
    smallest left labeling (and the plurality extension's min-index rule).
    """
    sizes = _left_space(instance, budget, "left labeling enumeration")
    best_left, best_val = None, Fraction(-1)
    for left in itertools.product(*(range(s) for s in sizes)):
        _, val = optimal_extension(instance, left)
        if val > best_val:
            best_left, best_val = left, val
    right, val = optimal_extension(instance, best_left)
    return (best_left, right), val


def brute_force_wval(instance, budget=None):
    """Maximum weak agreement value over all left labelings, with min-lex witness."""
    sizes = _left_space(instance, budget, "left labeling enumeration")
    best_left, best_val = None, Fraction(-1)
    for left in itertools.product(*(range(s) for s in sizes)):
        val = weak_agreement_value(instance, left)
        if val > best_val:
            best_left, best_val = left, val
    return best_left, best_val


def build_main_reduction(formula, system, t, var_budget=24, budget=None, allow_vacuous=False):
    """The clause-subset projection game.

    Left vertices are the subsets of `system` (a SetSystem over clause
    indices); left labels are the satisfying assignments to var(T) as
    bitmasks; right vertices are the t-size subcollections; right labels are
    all assignments to the t-wise variable intersection; edges project by
    restriction. An unsatisfiable subset raises unless allow_vacuous.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    k = system.k
    if k < t:
        raise ValueError("need at least t subsets")
    if system.universe_size != formula.num_clauses:
        raise ValueError("system universe must be the clause set")
    left_domains = []
    left_alphabets = []
    vacuous = False
    for i, subset in enumerate(system.sets):
        dom = sorted(vars_of(formula, subset))
        if len(dom) > var_budget:
            check(1 << len(dom), 1 << var_budget, what=f"alphabet enumeration for subset {i}")
        if dom:
            counts = satisfied_counts(formula, dom, subset)
            sat = np.nonzero(counts == len(subset))[0]
            # mask convention: bit j of the enumeration index is dom[nv-1-j],
            # re-encode so bit j means dom[j]
            nv = len(dom)
            labels = tuple(
                sum(((int(m) >> (nv - 1 - j)) & 1) << j for j in range(nv)) for m in sat
            )
            labels = tuple(sorted(labels))
        else:
            labels = (0,)
        if not labels:
            if not allow_vacuous:
                raise UnsatisfiableSubsetError(i, subset)
            vacuous = True
        left_domains.append(tuple(dom))
        left_alphabets.append(labels)
    check(math.comb(k, t), budget, what="right vertex enumeration")
    combos = list(itertools.combinations(range(k), t))
    right_domains = []
    right_alphabets = []
    edges = []
    for v_idx, combo in enumerate(combos):
        rdom = set(left_domains[combo[0]])
        for i in combo[1:]:
            rdom &= set(left_domains[i])
        rdom = tuple(sorted(rdom))
        right_domains.append(rdom)
        right_alphabets.append(tuple(range(1 << len(rdom))))
        for i in combo:
            edges.append((i, v_idx))
    return LabelCoverInstance(
        num_left=k,
        num_right=len(combos),
        edges=tuple(edges),
        left_alphabets=tuple(left_alphabets),
        right_alphabets=tuple(right_alphabets),
        projections=RESTRICTION,
        left_domains=tuple(left_domains),
        right_domains=tuple(right_domains),
        bi_regular=True,
        right_degree=t,
        vacuous=vacuous,
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
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def smallest_prime_at_least(lo, prime_budget=10**6):
    check(lo, prime_budget, what="prime search")
    q = max(2, lo)
    while not is_prime(q):
        q += 1
    return q


def hadamard_codeword(message, q, ell):
    """All inner products <message, j> over F_q, j running over F_q^ell
    (position index j decodes little-endian in base q)."""
    return tuple(sum(m * c for m, c in zip(message, _digits(j, q, ell), strict=True)) % q
                 for j in range(q**ell))


def _digits(value, q, ell):
    return tuple((value // q**d) % q for d in range(ell))


def reduce_alphabet(instance, delta, prime_budget=10**6):
    """Shrink right alphabets to F_q by splitting each right vertex into one
    vertex per Hadamard codeword position.

    q is the smallest prime >= t^2/delta; messages are the right-label
    indices written in base q. Weak agreement value grows by at most delta;
    satisfiability is preserved.
    """
    if not instance.bi_regular or instance.right_degree is None:
        raise ValueError("needs a bi-regular instance with a recorded right degree")
    if instance.vacuous:
        raise ValueError("vacuous instance has no satisfiable labelings to preserve")
    t = instance.right_degree
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    q = smallest_prime_at_least(math.ceil(Fraction(t * t) / delta), prime_budget)
    big_r = max(len(a) for a in instance.right_alphabets)
    ell = 1
    while q**ell < big_r:
        ell += 1
    positions = q**ell
    inc = right_incidence(instance)
    edges = []
    tables = []
    right_alphabets = []
    fq = tuple(range(q))
    for v in range(instance.num_right):
        words = [hadamard_codeword(_digits(ri, q, ell), q, ell)
                 for ri in range(len(instance.right_alphabets[v]))]
        proj_tables = [(u, edge_projection_table(instance, e)) for e, u in inc[v]]
        for j in range(positions):
            right_alphabets.append(fq)
            for u, table in proj_tables:
                edges.append((u, v * positions + j))
                tables.append(tuple(words[ri][j] for ri in table))
    return LabelCoverInstance(
        num_left=instance.num_left,
        num_right=instance.num_right * positions,
        edges=tuple(edges),
        left_alphabets=instance.left_alphabets,
        right_alphabets=tuple(right_alphabets),
        projections=tuple(tables),
        left_domains=instance.left_domains,
        right_domains=None,
        bi_regular=instance.bi_regular,
        right_degree=t,
        vacuous=False,
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
    50-digit rational approximations. formulas maps each derived field to
    the defining expression; overrides lists fields replaced by the caller.
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
    formulas: tuple[tuple[str, str], ...]
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
    formulas = (
        ("C", "(100*Delta*t/(epsilon*delta))**(100*t) * ln(Delta*t/(epsilon*delta))"),
        ("p", "C/k"),
        ("mu", "epsilon/2"),
        ("gamma", "p/2"),
        ("kappa", "(100*Delta*t/(epsilon*delta))**(-50*t)"),
        ("alpha", "(10*t)**(2*t) * kappa * (k-2)**(2*t-3) / k**(2*t-3)"),
        ("rho", "18*p**2*Delta**2"),
        ("eta", "6*Delta*(2*t-3) * exp(-p*kappa*(k-2)/(2*t-3))"),
        ("beta", "delta/(4*t**2)"),
        ("d", "delta*k/(8*t**2)"),
    )
    return SoundnessParams(
        epsilon=epsilon, Delta=Delta, delta=delta, t=t, k=k,
        C=c_val, C_base=c_base, C_log_arg=c_log_arg,
        p=p, mu=mu, gamma=gamma, kappa=kappa, alpha=alpha, rho=rho,
        eta=eta, eta_coef=eta_coef, eta_exp_arg=eta_exp_arg,
        beta=beta, d=d, formulas=formulas, overrides=tuple(overrides),
    )


def to_json(instance):
    """Stable JSON interchange text for an instance."""
    doc = {
        "format": "labelcover",
        "num_left": instance.num_left,
        "num_right": instance.num_right,
        "edges": [list(e) for e in instance.edges],
        "left_alphabets": [list(a) for a in instance.left_alphabets],
        "right_alphabets": [list(a) for a in instance.right_alphabets],
        "bi_regular": instance.bi_regular,
        "right_degree": instance.right_degree,
        "vacuous": instance.vacuous,
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
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "labelcover":
        raise ValueError("not a labelcover document")
    restriction = _get(doc, "projection", lambda x: x in (RESTRICTION, "tables")) == RESTRICTION
    return LabelCoverInstance(
        num_left=_get(doc, "num_left", _is_int),
        num_right=_get(doc, "num_right", _is_int),
        edges=_rows(doc, "edges"),
        left_alphabets=_rows(doc, "left_alphabets"),
        right_alphabets=_rows(doc, "right_alphabets"),
        projections=RESTRICTION if restriction else _rows(doc, "tables"),
        left_domains=_rows(doc, "left_domains") if restriction or "left_domains" in doc else None,
        right_domains=_rows(doc, "right_domains") if restriction else None,
        bi_regular=_get(doc, "bi_regular", lambda x: isinstance(x, bool)),
        right_degree=_get(doc, "right_degree", lambda x: x is None or _is_int(x)),
        vacuous=_get(doc, "vacuous", lambda x: isinstance(x, bool)),
    )
