"""Reductions out of projection games: partition-system coverage gadgets,
the unit-distance clustering metric, and the nearest-codeword / closest-vector
encodings of unique cover."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import check
from .labelcover import project_index, right_incidence
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

    def value_at(self, g, a):
        if not 0 <= g < self.ground_size:
            raise ValueError("ground element out of range")
        if not 0 <= a < self.num_labels:
            raise ValueError("label index out of range")
        return (g // self.t ** (self.num_labels - 1 - a)) % self.t

    def part(self, a, j):
        if not 0 <= j < self.t:
            raise ValueError("part value out of range")
        return tuple(g for g in range(self.ground_size) if self.value_at(g, a) == j)


def partition_system(labels, t, budget=None):
    """Partition system over [t]^labels; labels may be a list or a count."""
    s = labels if isinstance(labels, int) else len(labels)
    if s < 1:
        raise ValueError("need at least one label")
    if t < 2:
        raise ValueError("t must be at least 2")
    check(t**s, budget, what="partition ground set")
    return PartitionSystem(s, t)


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
        for i, s in enumerate(self.sets):
            if list(s) != sorted(set(s)):
                raise ValueError(f"set {i} is not a sorted duplicate-free list")
            if s and (s[0] < 0 or s[-1] >= self.universe_size):
                raise ValueError(f"set {i} has an element outside the universe")
        if self.origins is not None and len(self.origins) != len(self.sets):
            raise ValueError("origins must name every set")


def feige_coverage_reduction(instance, budget=None):
    """Coverage gadget for a bi-regular right-degree-t projection game.

    The universe is the disjoint union over right vertices v of the partition
    system [t]^{Sigma_v}; the set for (left vertex u, label a) takes, at each
    right neighbor v, the part of the projected label at u's rank among v's
    neighbors (sorted by left index). k = number of left vertices; choosing
    the sets of a fully consistent labeling covers everything exactly once.
    """
    if not instance.bi_regular or instance.right_degree is None:
        raise ValueError("needs a bi-regular instance with a recorded right degree")
    t = instance.right_degree
    if t < 2:
        raise ValueError("right degree must be at least 2")
    if instance.vacuous:
        raise ValueError("vacuous instance has no labels to build sets from")
    total = 0
    for v in range(instance.num_right):
        total += t ** len(instance.right_alphabets[v])
    check(total, budget, what="coverage universe")
    offsets = []
    acc = 0
    systems = []
    for v in range(instance.num_right):
        offsets.append(acc)
        ps = PartitionSystem(len(instance.right_alphabets[v]), t)
        systems.append(ps)
        acc += ps.ground_size
    inc = right_incidence(instance)
    ranks = {}
    for v in range(instance.num_right):
        neighbors = sorted(u for _, u in inc[v])
        if len(neighbors) != t or len(set(neighbors)) != t:
            raise ValueError(f"right vertex {v} does not have t distinct neighbors")
        for e, u in inc[v]:
            ranks[e] = neighbors.index(u)
    left_inc = [[] for _ in range(instance.num_left)]
    for e, (u, v) in enumerate(instance.edges):
        left_inc[u].append((e, v))
    sets = []
    origins = []
    for u in range(instance.num_left):
        for a_idx in range(len(instance.left_alphabets[u])):
            elems = []
            for e, v in left_inc[u]:
                b = project_index(instance, e, a_idx)
                for g in systems[v].part(b, ranks[e]):
                    elems.append(offsets[v] + g)
            sets.append(tuple(sorted(elems)))
            origins.append((u, a_idx))
    return CoverageInstance(
        universe_size=acc,
        sets=tuple(sets),
        k=instance.num_left,
        origins=tuple(origins),
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
        d = self.dist
        for a in range(size):
            if d[a][a] != 0:
                raise ValueError(f"nonzero diagonal at {a}")
            for b in range(size):
                if d[a][b] < 0:
                    raise ValueError(f"negative distance at ({a}, {b})")
                if d[a][b] != d[b][a]:
                    raise ValueError(f"asymmetry at ({a}, {b})")
        arr = np.array(d)
        if arr.dtype.kind == "i":
            for b in range(size):
                bad = arr > arr[:, b : b + 1] + arr[b : b + 1, :]
                if bad.any():
                    a, c = map(int, np.argwhere(bad)[0])
                    raise ValueError(f"triangle violation at ({a}, {b}, {c})")
        else:
            # exact entries (Fractions) stay out of numpy
            for a in range(size):
                for b in range(size):
                    for c in range(size):
                        if d[a][c] > d[a][b] + d[b][c]:
                            raise ValueError(f"triangle violation at ({a}, {b}, {c})")


def guha_khuller_reduction(coverage, exponent=1):
    """Unit-distance clustering metric for a coverage instance.

    Clients are elements, facilities are sets; an element is at distance 1
    from sets containing it and 3 from the rest; distinct clients and
    distinct facilities sit at distance 2. Every element must appear in some
    set, else the construction is degenerate.
    """
    nc, nf = coverage.universe_size, len(coverage.sets)
    covered = set()
    for s in coverage.sets:
        covered.update(s)
    missing = sorted(set(range(nc)) - covered)
    if missing:
        raise ValueError(f"degenerate: elements {missing} appear in no set")
    member = [set(s) for s in coverage.sets]
    size = nc + nf
    d = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            if a == b:
                continue
            a_client, b_client = a < nc, b < nc
            if a_client and b_client:
                d[a][b] = 2
            elif not a_client and not b_client:
                d[a][b] = 2
            else:
                u = a if a_client else b
                j = (b if a_client else a) - nc
                d[a][b] = 1 if u in member[j] else 3
    return ClusteringInstance(
        num_clients=nc,
        num_facilities=nf,
        dist=tuple(tuple(row) for row in d),
        k=coverage.k,
        exponent=exponent,
    )


@dataclass(frozen=True)
class CodeInstance:
    """Binary generator matrix (row-major) with a target word; minimize the
    Hamming distance of Ax to the target over x in F_2^cols."""

    rows: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.target) != len(self.rows):
            raise ValueError("target length must equal the row count")
        width = len(self.rows[0]) if self.rows else 0
        for r, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {r} has the wrong width")
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
        if len(self.target) != len(self.rows):
            raise ValueError("target length must equal the row count")
        width = len(self.rows[0]) if self.rows else 0
        for r, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {r} has the wrong width")

    @property
    def num_cols(self):
        return len(self.rows[0]) if self.rows else 0


def _abss_rows(coverage, multiplicity):
    rows = []
    target = []
    nsets = len(coverage.sets)
    member = [set(s) for s in coverage.sets]
    for u in range(coverage.universe_size):
        row = tuple(1 if u in member[j] else 0 for j in range(nsets))
        for _ in range(multiplicity):
            rows.append(row)
            target.append(1)
    for j in range(nsets):
        rows.append(tuple(1 if i == j else 0 for i in range(nsets)))
        target.append(0)
    return tuple(rows), tuple(target)


def abss_ncp_reduction(coverage, soundness_threshold, multiplicity=None, budget=None):
    """Nearest-codeword encoding of coverage-as-unique-cover.

    Columns are sets. Each element contributes `multiplicity` copies of its
    incidence row with target 1; each set contributes an identity row with
    target 0. A unique cover of size k costs exactly k; any solution of cost
    <= soundness_threshold picks <= soundness_threshold sets covering every
    element an odd number of times. multiplicity defaults to the smallest
    sound value, soundness_threshold + 1.
    """
    tbar = soundness_threshold
    if multiplicity is None:
        multiplicity = tbar + 1
    if multiplicity < tbar + 1:
        raise ValueError("multiplicity must be at least soundness_threshold + 1")
    nsets = len(coverage.sets)
    check((multiplicity * coverage.universe_size + nsets) * nsets, budget,
          what="matrix size")
    rows, target = _abss_rows(coverage, multiplicity)
    return CodeInstance(rows=rows, target=target, k=coverage.k)


def abss_cvp_reduction(coverage, soundness_threshold, multiplicity=None, p=1, budget=None):
    """Closest-vector analogue over the integers: element rows charge
    multiplicity * |count - 1|^p, identity rows charge |x_j|^p."""
    tbar = soundness_threshold
    if multiplicity is None:
        multiplicity = tbar + 1
    if multiplicity < tbar + 1:
        raise ValueError("multiplicity must be at least soundness_threshold + 1")
    if p < 1:
        raise ValueError("p must be at least 1")
    nsets = len(coverage.sets)
    check((multiplicity * coverage.universe_size + nsets) * nsets, budget,
          what="matrix size")
    rows, target = _abss_rows(coverage, multiplicity)
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
