"""Reductions out of projection games: partition-system coverage gadgets,
the unit-distance clustering metric, and the nearest-codeword / closest-vector
encodings of unique cover.

A clustering, code or lattice instance holds one form, read-only numpy
arrays: uint8 for codes, int64 for metrics and lattices (an object array of
exact Python numbers when an entry is not an int that fits). The public
constructors check and convert their input once; the reductions hand their
arrays in unchecked, since they hold by construction (the metric's size^3
triangle check included). `rows`, `target` and `dist` are tuples derived on
read, for the text writers."""

from __future__ import annotations

import array
import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .budget import check
from .setsys import SetSystem, _ArrayValue, _binary
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

    @cached_property
    def _parts(self):
        return {}

    def part(self, a, j):
        if not 0 <= j < self.t:
            raise ValueError("part value out of range")
        if not 0 <= a < self.num_labels:
            raise ValueError("label index out of range")
        if (a, j) not in self._parts:
            # digit a has weight w: the elements with digit a = j are hi + j*w + lo
            # for every higher-digit block hi and every lower-digit remainder lo
            w = self.t ** (self.num_labels - 1 - a)
            self._parts[a, j] = tuple(hi + j * w + lo
                                      for hi in range(0, self.ground_size, w * self.t)
                                      for lo in range(w))
        return self._parts[a, j]


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
    # one system per alphabet size, so its parts are built once for all of them
    shared = {size: PartitionSystem(size, t)
              for size in set(map(len, instance.right_alphabets))}
    systems = [shared[len(alphabet)] for alphabet in instance.right_alphabets]
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


def _exact(values, shape):
    """The flat list `values` as an array of `shape`: int64 when every entry
    is an integer that fits, else an object array of the entries, each
    Integral one as a Python int, so no entry is rounded or wraps."""
    try:
        # the array module takes only integers, and only those that fit
        return np.frombuffer(array.array("q", values), np.int64).reshape(shape)
    except (TypeError, OverflowError):
        return np.fromiter((int(v) if isinstance(v, numbers.Integral) else v for v in values),
                           object, len(values)).reshape(shape)


def _check_clustering(num_facilities, k, exponent):
    if k < 1 or k > num_facilities:
        raise ValueError("need 1 <= k <= num_facilities")
    if exponent not in (1, 2):
        raise ValueError("exponent must be 1 (median) or 2 (mean)")


class ClusteringInstance(_ArrayValue):
    """Clients then facilities share one distance matrix; open k facilities.

    The matrix is held as `distances`, a read-only square array, int64 or
    of exact Python numbers; `dist` gives it as row tuples. The constructor
    verifies that it is a metric: nonnegativity, symmetry, zero diagonal,
    and every triangle exhaustively."""

    def __init__(self, num_clients, num_facilities, dist, k, exponent=1):
        size = num_clients + num_facilities
        if len(dist) != size or any(len(row) != size for row in dist):
            raise ValueError("distance matrix shape must be clients+facilities square")
        _check_clustering(num_facilities, k, exponent)
        # every check names its first offender in row-major order
        arr = _exact([*itertools.chain(*dist)], (size, size))
        diagonal = np.flatnonzero(arr.diagonal() != 0)
        if diagonal.size:
            raise ValueError(f"nonzero diagonal at {diagonal[0]}")
        for bad, what in ((arr < 0, "negative distance"), (arr != arr.T, "asymmetry")):
            if bad.any():
                a, b = map(int, np.argwhere(bad)[0])
                raise ValueError(f"{what} at ({a}, {b})")
        # no entry is negative now, so a sum of two in uint64 cannot wrap
        tri = arr.view(np.uint64) if arr.dtype == np.int64 else arr
        for b in range(size):
            bad = tri > tri[:, b : b + 1] + tri[b : b + 1, :]
            if bad.any():
                a, c = map(int, np.argwhere(bad)[0])
                raise ValueError(f"triangle violation at ({a}, {b}, {c})")
        super().__init__(num_clients=num_clients, num_facilities=num_facilities,
                         distances=arr, k=k, exponent=exponent)

    dist = property(lambda self: tuple(map(tuple, self.distances.tolist())))


def _incidence(coverage):
    """The elements x sets boolean array: entry (u, j) is set iff set j holds u."""
    incidence = np.zeros((coverage.universe_size, len(coverage.sets)), bool)
    for j, s in enumerate(coverage.sets):
        incidence[list(s), j] = True
    return incidence


def guha_khuller_reduction(coverage, exponent=1, budget=None):
    """Unit-distance clustering metric for a coverage instance.

    Clients are elements, facilities are sets; an element is at distance 1
    from sets containing it and 3 from the rest; distinct clients and
    distinct facilities sit at distance 2. Every element must appear in some
    set, else the construction is degenerate. The budget counts the
    (clients + facilities)^2 distances and is charged before anything is
    built, the degeneracy check included. The result is a metric by
    construction, so its triangles are not checked.
    """
    nc, nf = coverage.universe_size, len(coverage.sets)
    size = nc + nf
    check(size * size, budget, what="distance matrix")
    incidence = _incidence(coverage)
    missing = [int(u) for u in np.flatnonzero(~incidence.any(axis=1))]
    if missing:
        raise ValueError(f"degenerate: elements {missing} appear in no set")
    _check_clustering(nf, coverage.k, exponent)
    d = np.full((size, size), 2, np.int64)
    d[:nc, nc:] = 3 - 2 * incidence
    d[nc:, :nc] = d[:nc, nc:].T
    np.fill_diagonal(d, 0)
    return ClusteringInstance._of(num_clients=nc, num_facilities=nf, distances=d,
                                  k=coverage.k, exponent=exponent)


def _check_matrix(rows, target):
    """One target entry per row and every row as wide as the first; the shape."""
    if len(target) != len(rows):
        raise ValueError("target length must equal the row count")
    width = len(rows[0]) if rows else 0
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {r} has the wrong width")
    return len(rows), width


def _refuse(rows, target, accepts, what):
    """Name the first row, else the target, that `accepts` refuses."""
    for r, row in enumerate(rows):
        if not accepts(row):
            raise ValueError(f"row {r} has a {what} entry")
    if not accepts(target):
        raise ValueError(f"target has a {what} entry")


def _check_norm(p):
    """The CVP exponent: past 64, scoring one point costs big-integer work
    that grows with p and that no enumeration count charges."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if p > 64:
        raise ValueError("p must be at most 64")


class _MatrixInstance(_ArrayValue):
    """A generator matrix A and a target y, held as read-only arrays `matrix`
    and `goal`, built from `values`: the rows of A in order, then y. `rows`
    and `target` give them as tuples."""

    def __init__(self, shape, values, **fields):
        cells = shape[0] * shape[1]
        super().__init__(matrix=values[:cells].reshape(shape), goal=values[cells:], **fields)

    rows = property(lambda self: tuple(map(tuple, self.matrix.tolist())))
    target = property(lambda self: tuple(self.goal.tolist()))
    num_cols = property(lambda self: self.matrix.shape[1])


class CodeInstance(_MatrixInstance):
    """Binary generator matrix (row-major) with a target word; minimize the
    Hamming distance of Ax to the target over x in F_2^cols. Held as uint8."""

    def __init__(self, rows, target, k):
        shape = _check_matrix(rows, target)
        values = _exact([*itertools.chain(*rows, target)], -1)
        if values.dtype == object or ((values < 0) | (values > 1)).any():
            _refuse(rows, target, _binary, "non-binary")
        # every entry is 0 or 1 as `in` tests it, so it is 1 iff it equals 1
        super().__init__(shape, (values == 1).astype(np.uint8), k=k)


class LatticeInstance(_MatrixInstance):
    """Integer generator matrix with a target; minimize ||Ax - y||_p^p over
    integer x, for p from 1 to 64. Held as int64, or as Python ints in
    object arrays when an entry does not fit."""

    def __init__(self, rows, target, p, k):
        _check_norm(p)
        shape = _check_matrix(rows, target)
        values = _exact([*itertools.chain(*rows, target)], -1)
        if values.dtype == object:
            _refuse(rows, target, lambda row: all(isinstance(v, numbers.Integral) for v in row),
                    "non-integer")
        super().__init__(shape, values, p=p, k=k)


def _abss_rows(coverage, soundness_threshold, multiplicity, budget, dtype):
    """The shared ABSS matrix and target as `dtype` arrays: `multiplicity`
    copies of each element's incidence row with target 1, then an identity
    row per set with target 0. multiplicity defaults to
    soundness_threshold + 1, the smallest sound value."""
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
    matrix = np.concatenate((_incidence(coverage).repeat(multiplicity, axis=0),
                             np.eye(nsets, dtype=bool)))
    goal = np.repeat(np.array((1, 0), dtype), (multiplicity * coverage.universe_size, nsets))
    return matrix.astype(dtype), goal


def abss_ncp_reduction(coverage, soundness_threshold, multiplicity=None, budget=None):
    """Nearest-codeword encoding of coverage-as-unique-cover.

    Columns are sets. Each element contributes `multiplicity` copies of its
    incidence row with target 1; each set contributes an identity row with
    target 0. A unique cover of size k costs exactly k; any solution of cost
    <= soundness_threshold picks <= soundness_threshold sets covering every
    element an odd number of times. multiplicity defaults to the smallest
    sound value, soundness_threshold + 1.
    """
    matrix, goal = _abss_rows(coverage, soundness_threshold, multiplicity, budget, np.uint8)
    return CodeInstance._of(matrix=matrix, goal=goal, k=coverage.k)


def abss_cvp_reduction(coverage, soundness_threshold, multiplicity=None, p=1, budget=None):
    """Closest-vector analogue over the integers: element rows charge
    multiplicity * |count - 1|^p, identity rows charge |x_j|^p."""
    _check_norm(p)
    matrix, goal = _abss_rows(coverage, soundness_threshold, multiplicity, budget, np.int64)
    return LatticeInstance._of(matrix=matrix, goal=goal, p=p, k=coverage.k)


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
    return write("ncp", (*instance.matrix.shape, instance.k), (*instance.rows, instance.target))


def parse_code(text):
    (_, _, k), body = read("ncp", text)
    return CodeInstance(rows=body[:-1], target=body[-1], k=k)


def lattice_to_text(instance):
    return write("cvp", (*instance.matrix.shape, instance.k, instance.p),
                 (*instance.rows, instance.target))


def parse_lattice(text):
    (_, _, k, p), body = read("cvp", text)
    return LatticeInstance(rows=body[:-1], target=body[-1], p=p, k=k)
