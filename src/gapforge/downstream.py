"""Reductions out of projection games: partition-system coverage gadgets,
the unit-distance clustering metric, and the nearest-codeword / closest-vector
encodings of unique cover."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .budget import check
from .setsys import SetSystem
from .textformat import read, write


@dataclass(frozen=True)
class PartitionSystem:
    """The ground set [t]^s of functions from s labels to t values.

    A ground element is the index of a function under big-endian base-t
    encoding (digit 0 is the most significant and belongs to label 0).
    part(a, j) collects the functions sending label a to value j; for fixed a
    the t parts partition the ground set.
    """

    num_labels: int
    t: int

    def __post_init__(self):
        if self.num_labels < 1:
            raise ValueError("need at least one label")
        if self.t < 2:
            raise ValueError("t must be at least 2")

    @property
    def ground_size(self):
        return self.t ** self.num_labels

    def part(self, a, j):
        if not 0 <= j < self.t:
            raise ValueError("part value out of range")
        if not 0 <= a < self.num_labels:
            raise ValueError("label index out of range")
        # digit a has weight w: the elements with digit a = j are hi + j*w + lo
        # for every higher-digit block hi and every lower-digit remainder lo
        w = self.t ** (self.num_labels - 1 - a)
        return tuple(hi + j * w + lo for hi in range(0, self.ground_size, w * self.t)
                     for lo in range(w))


@dataclass(frozen=True)
class CoverageInstance:
    """Pick k of the sets to cover as much of [universe_size] as possible.

    origins, when present, names where each set came from (construction
    provenance); it is ignored by solvers and serialization.
    """

    universe_size: int
    sets: tuple[tuple[int, ...], ...]
    k: int
    origins: tuple | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        SetSystem(self.universe_size, self.sets)
        if self.origins is not None and len(self.origins) != len(self.sets):
            raise ValueError("origins must name every set")


def feige_coverage_reduction(instance, budget=None):
    """Coverage gadget for a bi-regular right-degree-t projection game.

    The universe is the disjoint union over right vertices v of the partition
    system [t]^{Sigma_v}; the set for (left vertex u, label a) takes, at each
    right neighbor v, the part of the projected label at u's rank among v's
    neighbors (sorted by left index). k = number of left vertices; choosing
    the sets of a fully consistent labeling covers everything exactly once.
    The budget is charged the universe plus every set entry, t^(|Sigma_v| - 1)
    per edge (u, v) and label of u, before anything is built.
    """
    t = instance.right_degree
    if t is None:
        raise ValueError("needs a bi-regular instance with at least one edge")
    if t < 2:
        raise ValueError("right degree must be at least 2")
    if instance.vacuous:
        raise ValueError("vacuous instance has no labels to build sets from")
    offsets = list(itertools.accumulate(
        (t ** len(alphabet) for alphabet in instance.right_alphabets), initial=0))
    entries = sum(len(instance.left_alphabets[u]) * t ** (len(instance.right_alphabets[v]) - 1)
                  for u, v in instance.edges)
    check(offsets[-1] + entries, budget, what="coverage universe and set entries")
    systems = [PartitionSystem(len(alphabet), t) for alphabet in instance.right_alphabets]
    ranks = {}
    for v, pairs in enumerate(instance.incidence):
        neighbors = sorted(u for _, u in pairs)
        if len(set(neighbors)) != t:
            raise ValueError(f"right vertex {v} does not have t distinct neighbors")
        for e, u in pairs:
            ranks[e] = neighbors.index(u)
    left_inc = [[] for _ in range(instance.num_left)]
    for e, (u, v) in enumerate(instance.edges):
        left_inc[u].append((e, v))
    tables = instance.tables
    origins = tuple((u, a_idx) for u, alphabet in enumerate(instance.left_alphabets)
                    for a_idx in range(len(alphabet)))
    sets = tuple(
        tuple(sorted(offsets[v] + g for e, v in left_inc[u]
                     for g in systems[v].part(tables[e][a_idx], ranks[e])))
        for u, a_idx in origins)
    return CoverageInstance(
        universe_size=offsets[-1],
        sets=sets,
        k=instance.num_left,
        origins=origins,
    )


@dataclass(frozen=True)
class ClusteringInstance:
    """Clients then facilities share one distance matrix; open k facilities.

    The matrix must be a metric; the constructor verifies nonnegativity,
    symmetry, zero diagonal, and every triangle exhaustively.
    """

    num_clients: int
    num_facilities: int
    dist: tuple[tuple, ...]
    k: int
    exponent: int = 1

    def __post_init__(self):
        size = self.num_clients + self.num_facilities
        if len(self.dist) != size or any(len(row) != size for row in self.dist):
            raise ValueError("distance matrix shape must be clients+facilities square")
        if self.k < 1 or self.k > self.num_facilities:
            raise ValueError("need 1 <= k <= num_facilities")
        if self.exponent not in (1, 2):
            raise ValueError("exponent must be 1 (median) or 2 (mean)")
        # int64 for integer matrices, exact Python numbers in an object array
        # otherwise; every check names its first offender in row-major order
        arr = np.array(self.dist)
        diagonal = np.flatnonzero(arr.diagonal() != 0)
        if diagonal.size:
            raise ValueError(f"nonzero diagonal at {diagonal[0]}")
        for bad, what in ((arr < 0, "negative distance"), (arr != arr.T, "asymmetry")):
            if bad.any():
                a, b = map(int, np.argwhere(bad)[0])
                raise ValueError(f"{what} at ({a}, {b})")
        for b in range(size):
            bad = arr > arr[:, b : b + 1] + arr[b : b + 1, :]
            if bad.any():
                a, c = map(int, np.argwhere(bad)[0])
                raise ValueError(f"triangle violation at ({a}, {b}, {c})")


def _incidence(coverage):
    """The elements x sets 0/1 array: entry (u, j) is 1 iff set j holds u."""
    incidence = np.zeros((coverage.universe_size, len(coverage.sets)), dtype=np.int8)
    for j, s in enumerate(coverage.sets):
        incidence[list(s), j] = 1
    return incidence


def guha_khuller_reduction(coverage, exponent=1, budget=None):
    """Unit-distance clustering metric for a coverage instance.

    Clients are elements, facilities are sets; an element is at distance 1
    from sets containing it and 3 from the rest; distinct clients and
    distinct facilities sit at distance 2. Every element must appear in some
    set, else the construction is degenerate. The budget counts the
    (clients + facilities)^2 distances and is charged before anything is
    built, the degeneracy check included.
    """
    nc, nf = coverage.universe_size, len(coverage.sets)
    size = nc + nf
    check(size * size, budget, what="distance matrix")
    incidence = _incidence(coverage)
    missing = np.flatnonzero(~incidence.any(axis=1)).tolist()
    if missing:
        raise ValueError(f"degenerate: elements {missing} appear in no set")
    d = np.full((size, size), 2, dtype=np.int8)
    d[:nc, nc:] = 3 - 2 * incidence
    d[nc:, :nc] = d[:nc, nc:].T
    np.fill_diagonal(d, 0)
    return ClusteringInstance(
        num_clients=nc,
        num_facilities=nf,
        dist=tuple(map(tuple, d.tolist())),
        k=coverage.k,
        exponent=exponent,
    )


def _check_matrix(rows, target):
    """One target entry per row and every row as wide as the first."""
    if len(target) != len(rows):
        raise ValueError("target length must equal the row count")
    width = len(rows[0]) if rows else 0
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {r} has the wrong width")


@dataclass(frozen=True)
class CodeInstance:
    """Binary generator matrix (row-major) with a target word; minimize the
    Hamming distance of Ax to the target over x in F_2^cols."""

    rows: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    k: int

    def __post_init__(self):
        _check_matrix(self.rows, self.target)
        for r, row in enumerate(self.rows):
            if any(x not in (0, 1) for x in row):
                raise ValueError(f"row {r} has a non-binary entry")
        if any(x not in (0, 1) for x in self.target):
            raise ValueError("target has a non-binary entry")

    @property
    def num_cols(self):
        return len(self.rows[0]) if self.rows else 0


@dataclass(frozen=True)
class LatticeInstance:
    """Integer generator matrix with a target; minimize ||Ax - y||_p^p over
    integer x."""

    rows: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    p: int
    k: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be at least 1")
        _check_matrix(self.rows, self.target)

    @property
    def num_cols(self):
        return len(self.rows[0]) if self.rows else 0


def _abss_rows(coverage, soundness_threshold, multiplicity, budget):
    """The shared ABSS matrix: `multiplicity` copies of each element's
    incidence row with target 1, then an identity row per set with target 0.
    multiplicity defaults to soundness_threshold + 1, the smallest sound
    value."""
    if soundness_threshold < 0:
        raise ValueError("soundness_threshold must be nonnegative")
    if multiplicity is None:
        multiplicity = soundness_threshold + 1
    if multiplicity < soundness_threshold + 1:
        raise ValueError("multiplicity must be at least soundness_threshold + 1")
    nsets = len(coverage.sets)
    # every row holds nsets entries and one target entry
    check((multiplicity * coverage.universe_size + nsets) * (nsets + 1), budget,
          what="matrix size")
    elements = map(tuple, _incidence(coverage).tolist())
    identity = map(tuple, np.eye(nsets, dtype=np.int8).tolist())
    rows = (*(row for row in elements for _ in range(multiplicity)), *identity)
    return rows, (1,) * (multiplicity * coverage.universe_size) + (0,) * nsets


def abss_ncp_reduction(coverage, soundness_threshold, multiplicity=None, budget=None):
    """Nearest-codeword encoding of coverage-as-unique-cover.

    Columns are sets. Each element contributes `multiplicity` copies of its
    incidence row with target 1; each set contributes an identity row with
    target 0. A unique cover of size k costs exactly k; any solution of cost
    <= soundness_threshold picks <= soundness_threshold sets covering every
    element an odd number of times. multiplicity defaults to the smallest
    sound value, soundness_threshold + 1.
    """
    rows, target = _abss_rows(coverage, soundness_threshold, multiplicity, budget)
    return CodeInstance(rows=rows, target=target, k=coverage.k)


def abss_cvp_reduction(coverage, soundness_threshold, multiplicity=None, p=1, budget=None):
    """Closest-vector analogue over the integers: element rows charge
    multiplicity * |count - 1|^p, identity rows charge |x_j|^p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    rows, target = _abss_rows(coverage, soundness_threshold, multiplicity, budget)
    return LatticeInstance(rows=rows, target=target, p=p, k=coverage.k)


def coverage_to_text(instance):
    return write("cov", (instance.universe_size, len(instance.sets), instance.k),
                 instance.sets)


def parse_coverage(text):
    (u, _, k), sets = read("cov", text)
    return CoverageInstance(universe_size=u, sets=sets, k=k)


def clustering_to_text(instance):
    return write("clustering", (instance.num_clients, instance.num_facilities,
                                instance.k, instance.exponent), instance.dist)


def parse_clustering(text):
    (nc, nf, k, exponent), dist = read("clustering", text)
    return ClusteringInstance(num_clients=nc, num_facilities=nf, dist=dist, k=k,
                              exponent=exponent)


def code_to_text(instance):
    return write("ncp", (len(instance.rows), instance.num_cols, instance.k),
                 (*instance.rows, instance.target))


def parse_code(text):
    (_, _, k), body = read("ncp", text)
    return CodeInstance(rows=body[:-1], target=body[-1], k=k)


def lattice_to_text(instance):
    return write("cvp", (len(instance.rows), instance.num_cols, instance.k, instance.p),
                 (*instance.rows, instance.target))


def parse_lattice(text):
    (_, _, k, p), body = read("cvp", text)
    return LatticeInstance(rows=body[:-1], target=body[-1], p=p, k=k)
