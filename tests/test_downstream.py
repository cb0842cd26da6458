"""Partition systems, the coverage gadget, the unit-distance clustering
metric, and the nearest-codeword / closest-vector encodings."""

import collections
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (BudgetError, ClusteringInstance, CodeInstance,
                      CoverageInstance, LabelCoverInstance, LatticeInstance,
                      PartitionSystem, abss_cvp_reduction, abss_ncp_reduction,
                      clustering_to_text, code_to_text, coverage_fraction,
                      coverage_to_text, exact_kmean, exact_kmedian,
                      exact_max_coverage, exact_min_set_cover, exact_ncp,
                      feige_coverage_reduction, guha_khuller_reduction,
                      lattice_to_text, parse_clustering, parse_code,
                      parse_coverage, parse_lattice,
                      verify_unique_cover)
from gapforge.formula import random_planted_formula
from gapforge.labelcover import (build_main_reduction, reduce_alphabet,
                                 restriction_labeling)
from gapforge.setsys import sample_random_subsets


def test_partition_system_singleton_label():
    ps = PartitionSystem(1, 2)
    assert ps.ground_size == 2
    assert ps.part(0, 0) == (0,) and ps.part(0, 1) == (1,)


def test_partition_system_validation():
    with pytest.raises(ValueError, match="at least one label"):
        PartitionSystem(0, 2)
    with pytest.raises(ValueError, match="t must be at least 2"):
        PartitionSystem(2, 1)
    ps = PartitionSystem(2, 2)
    with pytest.raises(ValueError, match="label index"):
        ps.part(2, 0)
    with pytest.raises(ValueError, match="part value"):
        ps.part(0, 2)


def test_partition_parts_are_cached_and_still_checked():
    for t in range(2, 5):
        for s in range(1, 6):
            ps = PartitionSystem(s, t)
            for a, j in itertools.product(range(s), range(t)):
                closed_form = tuple(g for g in range(t**s) if g // t ** (s - 1 - a) % t == j)
                assert ps.part(a, j) == closed_form
                assert ps.part(a, j) is ps.part(a, j) == closed_form
            for a, j, message in ((s, 0, "label index"), (-1, 0, "label index"),
                                  (0, t, "part value"), (0, -1, "part value"),
                                  (s, t, "part value")):
                with pytest.raises(ValueError, match=message):
                    ps.part(a, j)


def test_partition_identities_exhaustive():
    """Fixing values at r distinct labels leaves (t-1)^r t^(s-r) functions
    unfixed; each single partition covers everything exactly once."""
    for t in (2, 3):
        for s in range(1, 5):
            ps = PartitionSystem(s, t)
            for a in range(s):
                parts = [ps.part(a, j) for j in range(t)]
                assert all(len(p) == t ** (s - 1) for p in parts)
                flat = sorted(g for p in parts for g in p)
                assert flat == list(range(ps.ground_size))
            for r in range(1, s + 1):
                for labels in itertools.combinations(range(s), r):
                    for values in itertools.product(range(t), repeat=r):
                        union = set()
                        for a, j in zip(labels, values):
                            union.update(ps.part(a, j))
                        uncovered = ps.ground_size - len(union)
                        assert uncovered == (t - 1) ** r * t ** (s - r)


def _two_left_game():
    return LabelCoverInstance(
        edges=((0, 0), (1, 0)),
        left_alphabets=((0, 1), (0, 1)),
        right_alphabets=((0, 1),),
        projections=((0, 1), (0, 1)),
    )


def test_feige_reduction_hand_example():
    cov = feige_coverage_reduction(_two_left_game())
    assert cov.universe_size == 4  # t^|Sigma_v| = 2^2
    assert cov.k == 2
    assert cov.sets == ((0, 1), (0, 2), (2, 3), (1, 3))
    assert cov.origins == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(cov.sets) == 4  # sum of left alphabet sizes

    # consistent labelings pick two parts of one partition: a unique cover
    assert verify_unique_cover(cov, (0, 2))
    assert verify_unique_cover(cov, (1, 3))
    # inconsistent labelings hit two distinct partitions: 1 - (1/2)^2 covered
    for choice in ((0, 3), (1, 2)):
        covered = set()
        for j in choice:
            covered.update(cov.sets[j])
        assert Fraction(len(covered), 4) == Fraction(3, 4)
        assert not verify_unique_cover(cov, choice)


def test_feige_reduction_argument_errors():
    # right vertex 0 has degree 2, right vertex 1 degree 1
    loose = LabelCoverInstance(((0, 0), (1, 0), (0, 1)), ((0,), (0,)), ((0,), (0,)),
                               projections=((0,), (0,), (0,)))
    with pytest.raises(ValueError, match="bi-regular"):
        feige_coverage_reduction(loose)

    # bi-regular with right degree 2, but left vertex 0 has no label
    vacuous = LabelCoverInstance(((0, 0), (1, 0)), ((), (0,)), ((0,),),
                                 projections=((), (0,)))
    with pytest.raises(ValueError, match="vacuous"):
        feige_coverage_reduction(vacuous)

    repeated = LabelCoverInstance(((0, 0), (0, 0)), ((0,),), ((0, 1),),
                                  projections=((0,), (1,)))
    with pytest.raises(ValueError, match="distinct neighbors"):
        feige_coverage_reduction(repeated)

    wide = LabelCoverInstance(((0, 0), (1, 0)), ((0,), (0,)), (tuple(range(25)),),
                              projections=((0,), (0,)))
    with pytest.raises(BudgetError):
        feige_coverage_reduction(wide)


@pytest.mark.parametrize("seed", range(6))
def test_feige_completeness_from_pipeline(seed):
    """Satisfying labelings of the main reduction turn into unique covers,
    and the minimum cover size equals the number of left vertices.

    Three variables cap every left alphabet at 7 labels, so the 2^|S|
    min-cover enumeration stays under the default budget."""
    rng = random.Random(seed)
    formula, planted = random_planted_formula(3, 4, rng.randrange(2**32))
    system = sample_random_subsets(4, 3, Fraction(1, 4), rng.randrange(2**32))
    game = build_main_reduction(formula, system, 2)
    cov = feige_coverage_reduction(game, budget=100_000)
    assert cov.k == game.num_left

    sigma = restriction_labeling(game, planted)
    chosen = tuple(cov.origins.index((u, a)) for u, a in enumerate(sigma))
    assert verify_unique_cover(cov, chosen)
    assert exact_max_coverage(cov).value == cov.universe_size
    assert exact_min_set_cover(cov).value == game.num_left


def _gadget_games():
    """Bi-regular restriction games of seeded planted formulas at right
    degree 2 and 3, then the alphabet reductions of the first four."""
    rng = random.Random(33)
    games = []
    while len(games) < 8:
        t = 2 + len(games) % 2
        formula, _ = random_planted_formula(rng.randint(3, 4), rng.randint(3, 5),
                                            rng.randrange(2**32))
        system = sample_random_subsets(formula.num_clauses, rng.randint(t + 1, t + 2),
                                       Fraction(1, 3), rng.randrange(2**32))
        game = build_main_reduction(formula, system, t, allow_vacuous=True)
        if not game.vacuous and game.right_degree == t:
            games.append(game)
    return games + [reduce_alphabet(game, 2) for game in games[:4]]


def test_feige_gadget_covers_each_block_by_the_labeling_identity():
    """Pick the set of (u, σ(u)) for every left vertex u. At each right
    vertex v the picked sets cover exactly t^s - t^(s-d)·∏_a (t - c_a) of
    v's block, with s = |Σ_v|, c_a the neighbours of v projecting to a and d
    the number of labels with c_a > 0: a point is missed iff at each
    projected label a it avoids the c_a ranks of the neighbours projecting
    to a. Exact integers, on 24 seeded labelings of each game."""
    rng = random.Random(34)
    for game in _gadget_games():
        t, cov = game.right_degree, feige_coverage_reduction(game)
        offsets = list(itertools.accumulate((t ** len(a) for a in game.right_alphabets),
                                            initial=0))
        for _ in range(24):
            sigma = [rng.randrange(len(a)) for a in game.left_alphabets]
            covered = sorted(set().union(*(cov.sets[cov.origins.index((u, a))]
                                           for u, a in enumerate(sigma))))
            blocks = np.bincount(np.searchsorted(offsets, covered, side="right") - 1,
                                 minlength=game.num_right).tolist()
            for v, pairs in enumerate(game.incidence):
                counts = collections.Counter(game.tables[e][sigma[u]] for e, u in pairs)
                s = len(game.right_alphabets[v])
                assert blocks[v] == t ** s - t ** (s - len(counts)) * math.prod(
                    t - c for c in counts.values())


def test_guha_khuller_structure():
    cov = CoverageInstance(3, ((0, 1), (1, 2)), k=1)
    inst = guha_khuller_reduction(cov)
    assert inst.k == cov.k
    assert (inst.num_clients, inst.num_facilities) == (3, 2)
    d = inst.dist
    assert d[0][3] == 1 and d[2][3] == 3  # element vs set
    assert d[0][1] == 2 and d[3][4] == 2
    assert d[0][0] == 0

    with pytest.raises(ValueError, match=r"degenerate: elements \[2\]"):
        guha_khuller_reduction(CoverageInstance(3, ((0, 1),), k=1))


def test_clustering_metric_validation():
    with pytest.raises(ValueError, match="shape"):
        ClusteringInstance(1, 1, ((0, 1),), k=1)
    with pytest.raises(ValueError, match="nonzero diagonal"):
        ClusteringInstance(1, 1, ((1, 1), (1, 0)), k=1)
    with pytest.raises(ValueError, match="negative distance"):
        ClusteringInstance(1, 1, ((0, -1), (-1, 0)), k=1)
    with pytest.raises(ValueError, match="asymmetry"):
        ClusteringInstance(1, 1, ((0, 1), (2, 0)), k=1)
    with pytest.raises(ValueError, match="triangle"):
        ClusteringInstance(
            2, 1, ((0, 1, 5), (1, 0, 1), (5, 1, 0)), k=1)
    with pytest.raises(ValueError, match="1 <= k"):
        ClusteringInstance(1, 1, ((0, 1), (1, 0)), k=2)
    with pytest.raises(ValueError, match="exponent"):
        ClusteringInstance(1, 1, ((0, 1), (1, 0)), k=1, exponent=3)


def _loop_metric_error(d):
    """The metric checks as Python loops over the entries: the reference the
    array checks are compared with."""
    size = len(d)
    for a in range(size):
        if d[a][a] != 0:
            return f"nonzero diagonal at {a}"
    for what, bad in (("negative distance", lambda a, b: d[a][b] < 0),
                      ("asymmetry", lambda a, b: d[a][b] != d[b][a])):
        for a, b in itertools.product(range(size), repeat=2):
            if bad(a, b):
                return f"{what} at ({a}, {b})"
    for b, a, c in itertools.product(range(size), repeat=3):
        if d[a][c] > d[a][b] + d[b][c]:
            return f"triangle violation at ({a}, {b}, {c})"
    return None


def test_metric_checks_match_the_loops():
    """Line metrics with integer or rational entries, some with one or two
    broken entries of each kind; every message names the same offender."""
    messages = set()
    for seed in range(400):
        rng = random.Random(seed)
        size = rng.randint(2, 6)
        points = [rng.randint(0, 4) for _ in range(size)]
        scale = Fraction(1, 3) if seed % 2 else 1
        d = [[abs(p - q) * scale for q in points] for p in points]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randrange(size), rng.randrange(size)
            kind = rng.randrange(4)
            if kind == 0:
                d[a][a] = scale
            elif kind == 1:
                d[a][b] = d[b][a] = -scale
            elif kind == 2:
                d[a][b] += scale
            else:
                d[a][b] = d[b][a] = d[a][b] + 7 * scale
        dist = tuple(map(tuple, d))
        expected = _loop_metric_error(dist)
        messages.add(expected and expected.split(" at ")[0])
        if expected is None:
            ClusteringInstance(size - 1, 1, dist, k=1)
        else:
            with pytest.raises(ValueError) as exc:
                ClusteringInstance(size - 1, 1, dist, k=1)
            assert str(exc.value) == expected
    assert messages == {None, "nonzero diagonal", "negative distance", "asymmetry",
                        "triangle violation"}


def test_guha_khuller_full_cover_costs():
    cov = CoverageInstance(4, ((0, 1), (2, 3)), k=2)
    inst = guha_khuller_reduction(cov)
    assert exact_kmedian(inst).value == 4
    assert exact_kmean(inst).value == 4


def test_guha_khuller_exact_relation_toy():
    cov = CoverageInstance(6, ((0, 1), (2, 3), (4, 5), (0, 2, 4)), k=2)
    best = exact_max_coverage(cov)
    tau = 1 - coverage_fraction(cov, best.value)
    assert tau == Fraction(1, 3)
    inst = guha_khuller_reduction(cov)
    median = exact_kmedian(inst)
    mean = exact_kmean(inst)
    assert median.value == 6 * (1 + 2 * tau) == 10
    assert mean.value == 6 * (1 + 8 * tau) == 22
    assert mean.value >= median.value


def _random_full_coverage(rng):
    universe = rng.randrange(4, 9)
    nsets = rng.randrange(3, 6)
    sets = [sorted(rng.sample(range(universe), rng.randrange(1, universe)))
            for _ in range(nsets)]
    covered = set().union(*map(set, sets))
    leftovers = sorted(set(range(universe)) - covered)
    if leftovers:
        sets[0] = sorted(set(sets[0]) | set(leftovers))
    return CoverageInstance(universe, tuple(tuple(s) for s in sets),
                            k=rng.randrange(1, min(3, nsets) + 1))


@pytest.mark.parametrize("seed", range(10))
def test_guha_khuller_relation_random(seed):
    """Median cost is |V|(1 + 2 tau*), mean cost |V|(1 + 8 tau*): uncovered
    clients pay 3 (resp. 9) instead of 1, and the optimal facility choice is
    exactly the optimal coverage choice."""
    cov = _random_full_coverage(random.Random(seed))
    tau = 1 - coverage_fraction(cov, exact_max_coverage(cov).value)
    inst = guha_khuller_reduction(cov)
    n = cov.universe_size
    assert exact_kmedian(inst).value == n * (1 + 2 * tau)
    assert exact_kmean(inst).value == n * (1 + 8 * tau)


def _loop_distances(coverage):
    """The distance matrix as the element-by-set double loop built it."""
    nc = coverage.universe_size
    size = nc + len(coverage.sets)
    member = [set(s) for s in coverage.sets]
    d = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            if a != b:
                if (a < nc) == (b < nc):
                    d[a][b] = 2
                else:
                    u, j = min(a, b), max(a, b) - nc
                    d[a][b] = 1 if u in member[j] else 3
    return tuple(map(tuple, d))


def _loop_abss_rows(coverage, multiplicity):
    """The ABSS rows and target as the per-row set lookups built them."""
    nsets = len(coverage.sets)
    member = [set(s) for s in coverage.sets]
    rows, target = [], []
    for u in range(coverage.universe_size):
        row = tuple(1 if u in member[j] else 0 for j in range(nsets))
        rows += [row] * multiplicity
        target += [1] * multiplicity
    for j in range(nsets):
        rows.append(tuple(1 if i == j else 0 for i in range(nsets)))
        target.append(0)
    return tuple(rows), tuple(target)


coverages = st.integers(0, 7).flatmap(lambda universe: st.builds(
    lambda sets, k: CoverageInstance(universe, tuple(tuple(sorted(s)) for s in sets), k),
    st.lists(st.sets(st.integers(0, universe - 1)) if universe else st.just(set()),
             max_size=5),
    st.integers(1, 3)))


def _cell_types(rows):
    return {type(x) for row in rows for x in row}


@given(coverages, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_incidence_builds_match_the_loops(cov, tbar, extra):
    """The metric and the ABSS rows read from the incidence array equal the
    loops' output, as Python ints, and dump to the same text. Each instance
    a reduction hands over unchecked equals, and hashes as, the one the
    public constructor builds from the loops' tuples, and is read-only."""
    multiplicity = tbar + 1 + extra
    rows, target = _loop_abss_rows(cov, multiplicity)
    code = abss_ncp_reduction(cov, tbar, multiplicity)
    lattice = abss_cvp_reduction(cov, tbar, multiplicity, p=2)
    for inst in (code, lattice):
        assert (inst.rows, inst.target) == (rows, target)
        assert _cell_types(inst.rows) | _cell_types([inst.target]) <= {int}
    _same_value(code, CodeInstance(rows, target, cov.k), code_to_text)
    _same_value(lattice, LatticeInstance(rows, target, 2, cov.k), lattice_to_text)
    covered = set().union(*map(set, cov.sets))
    if len(covered) < cov.universe_size:
        missing = sorted(set(range(cov.universe_size)) - covered)
        with pytest.raises(ValueError, match=re.escape(f"elements {missing} appear")):
            guha_khuller_reduction(cov)
        return
    if cov.k > len(cov.sets):
        with pytest.raises(ValueError, match="need 1 <= k <= num_facilities"):
            guha_khuller_reduction(cov)
        return
    dist = _loop_distances(cov)
    for exponent in (1, 2):
        inst = guha_khuller_reduction(cov, exponent)
        assert inst.dist == dist and _cell_types(inst.dist) <= {int}
        _same_value(inst, ClusteringInstance(cov.universe_size, len(cov.sets), dist, cov.k,
                                             exponent), clustering_to_text)


def _same_value(built, constructed, to_text):
    """`built` equals, hashes as and dumps as `constructed`, and neither its
    arrays nor its attributes can be changed."""
    assert built == constructed and hash(built) == hash(constructed)
    assert to_text(built) == to_text(constructed)
    arrays = [v for v in vars(built).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(AttributeError):
        built.k = built.k + 1


def test_guha_khuller_charges_before_the_degeneracy_check():
    # 3 elements and 1 set: 16 distances, element 2 in no set
    degenerate = CoverageInstance(3, ((0, 1),), k=1)
    with pytest.raises(BudgetError) as exc:
        guha_khuller_reduction(degenerate, budget=15)
    assert exc.value.required == 16
    with pytest.raises(ValueError, match="degenerate"):
        guha_khuller_reduction(degenerate, budget=16)


def _pair_cover():
    return CoverageInstance(2, ((0,), (1,)), k=2)


def test_abss_ncp_hand_example():
    code = abss_ncp_reduction(_pair_cover(), soundness_threshold=2, multiplicity=3)
    assert code.k == 2
    assert len(code.rows) == 3 * 2 + 2 and code.num_cols == 2
    assert code.target == (1,) * 6 + (0, 0)
    # indicator of the unique cover pays only the two identity rows
    cost = sum(
        (sum(row) % 2) != y for row, y in zip(code.rows, code.target))
    assert cost == 2
    result = exact_ncp(code)
    assert result.value == 2 and result.witness == (1, 1)

    # empty choice misses every element row
    zero_cost = sum(y for y in code.target)
    assert zero_cost == 3 * 2


def test_abss_ncp_default_multiplicity_and_errors():
    code = abss_ncp_reduction(_pair_cover(), soundness_threshold=2)
    assert len(code.rows) == 3 * 2 + 2
    with pytest.raises(ValueError, match="soundness_threshold"):
        abss_ncp_reduction(_pair_cover(), soundness_threshold=2, multiplicity=2)
    big = CoverageInstance(40, (tuple(range(40)),) * 80, k=1)
    with pytest.raises(BudgetError):
        abss_ncp_reduction(big, soundness_threshold=40, budget=10_000)


@pytest.mark.parametrize("reduction", [abss_ncp_reduction, abss_cvp_reduction])
def test_abss_reductions_share_their_checks(reduction):
    # a negative threshold used to give a matrix with no element rows
    for tbar in (-1, -3):
        with pytest.raises(ValueError, match="soundness_threshold must be nonnegative"):
            reduction(_pair_cover(), soundness_threshold=tbar)
    with pytest.raises(ValueError, match="multiplicity must be at least"):
        reduction(_pair_cover(), soundness_threshold=2, multiplicity=2)
    big = CoverageInstance(40, (tuple(range(40)),) * 80, k=1)
    with pytest.raises(BudgetError) as exc:
        reduction(big, soundness_threshold=40, budget=10_000)
    assert exc.value.required == (41 * 40 + 80) * (80 + 1)  # entries plus targets
    zero = reduction(_pair_cover(), soundness_threshold=0)
    assert zero.rows == ((1, 0), (0, 1), (1, 0), (0, 1))
    assert zero.target == (1, 1, 0, 0)


def test_abss_ncp_no_cover_instance():
    cov = CoverageInstance(3, ((0,), (1,), (2,)), k=3)
    assert exact_min_set_cover(cov).value == 3
    code = abss_ncp_reduction(cov, soundness_threshold=2)
    result = exact_ncp(code)
    assert result.value == 3 > 2


def _lattice_cost(instance, x):
    cost = 0
    for row, y in zip(instance.rows, instance.target):
        acc = sum(a * xi for a, xi in zip(row, x))
        cost += abs(acc - y) ** instance.p
    return cost


def test_abss_cvp_hand_examples():
    from gapforge import exact_cvp

    lat = abss_cvp_reduction(_pair_cover(), soundness_threshold=2,
                             multiplicity=3, p=1)
    assert lat.k == 2 and lat.p == 1
    assert _lattice_cost(lat, (1, 1)) == 2
    assert _lattice_cost(lat, (2, 2)) == 2 * 2 + 3 * 2  # doubled cover
    result = exact_cvp(lat, box=2)
    assert result.value == 2 and result.witness == (1, 1)
    assert "[-2, 2]" in result.note

    squared = abss_cvp_reduction(_pair_cover(), soundness_threshold=2, p=2)
    assert _lattice_cost(squared, (1, 1)) == 2

    with pytest.raises(ValueError, match="p must be at least 1"):
        abss_cvp_reduction(_pair_cover(), soundness_threshold=1, p=0)
    # refused before the rows are built, which a budget of 0 would refuse
    with pytest.raises(ValueError, match="p must be at most 64"):
        abss_cvp_reduction(_pair_cover(), soundness_threshold=1, p=65, budget=0)
    assert abss_cvp_reduction(_pair_cover(), soundness_threshold=1, p=64).p == 64


def test_abss_cvp_no_cover_instance():
    from gapforge import exact_cvp

    cov = CoverageInstance(3, ((0,), (1,), (2,)), k=3)
    lat = abss_cvp_reduction(cov, soundness_threshold=2, p=1)
    result = exact_cvp(lat, box=2)
    assert result.value == 3 > 2


def test_parameter_preservation_through_chain():
    game = _two_left_game()
    cov = feige_coverage_reduction(game)
    assert cov.k == game.num_left
    assert guha_khuller_reduction(cov).k == cov.k
    assert abss_ncp_reduction(cov, soundness_threshold=1).k == cov.k
    assert abss_cvp_reduction(cov, soundness_threshold=1).k == cov.k


def test_coverage_text_round_trip():
    cov = CoverageInstance(5, ((0, 1), (), (2, 4)), k=2)
    text = coverage_to_text(cov)
    assert text.splitlines()[0] == "cov 5 3 2"
    back = parse_coverage(text)
    assert back == CoverageInstance(5, ((0, 1), (), (2, 4)), k=2)
    with pytest.raises(ValueError, match="missing cov header"):
        parse_coverage("clustering 1 1 1 1\n")
    with pytest.raises(ValueError, match="expected 3 set lines"):
        parse_coverage("cov 5 3 2\n0 1\n")


def test_coverage_serialization_drops_origins():
    cov = feige_coverage_reduction(_two_left_game())
    back = parse_coverage(coverage_to_text(cov))
    assert back.origins is None
    assert (back.universe_size, back.sets, back.k) == (
        cov.universe_size, cov.sets, cov.k)


def test_clustering_text_round_trip():
    half = Fraction(3, 2)
    inst = ClusteringInstance(
        2, 1,
        ((0, half, half), (half, 0, half), (half, half, 0)),
        k=1, exponent=2)
    back = parse_clustering(clustering_to_text(inst))
    assert back == inst
    with pytest.raises(ValueError, match="missing clustering header"):
        parse_clustering("cov 1 1 1\n")
    with pytest.raises(ValueError, match="matrix rows"):
        parse_clustering("clustering 2 1 1 1\n0 1 1\n")


def test_code_and_lattice_text_round_trip():
    code = abss_ncp_reduction(_pair_cover(), soundness_threshold=1)
    text = code_to_text(code)
    assert text.splitlines()[0] == "ncp 6 2 2"
    assert parse_code(text) == code
    with pytest.raises(ValueError, match="missing ncp header"):
        parse_code("cvp 1 1 1 1\n")
    with pytest.raises(ValueError, match="row width"):
        parse_code("ncp 1 2 1\n1\n0 0\n")
    with pytest.raises(ValueError, match="target line missing"):
        parse_code("ncp 2 2 1\n1 0\n")

    lat = abss_cvp_reduction(_pair_cover(), soundness_threshold=1, p=2)
    text = lattice_to_text(lat)
    assert text.splitlines()[0] == "cvp 6 2 2 2"
    assert parse_lattice(text) == lat
    with pytest.raises(ValueError, match="missing cvp header"):
        parse_lattice("ncp 1 1 1\n")


class _EqualToOne:
    """Equal to 1, under a hash that is not 1's."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return 7


def test_instance_validation():
    with pytest.raises(ValueError, match="sorted duplicate-free"):
        CoverageInstance(3, ((1, 0),), k=1)
    with pytest.raises(ValueError, match="outside the universe"):
        CoverageInstance(3, ((0, 3),), k=1)
    with pytest.raises(ValueError, match="universe_size must be nonnegative"):
        CoverageInstance(-1, (), k=1)
    with pytest.raises(ValueError, match="origins"):
        CoverageInstance(3, ((0,), (1,)), k=1, origins=((0, 0),))
    with pytest.raises(ValueError, match="target length"):
        CodeInstance(((1, 0),), (1, 1), k=1)
    with pytest.raises(ValueError, match="non-binary"):
        CodeInstance(((2, 0),), (1,), k=1)
    # the first bad row or the target is named, unhashable entries included;
    # anything equal to 0 or 1 passes, whatever its hash
    for rows, target, bad in ((((0, 1), (1, 2), (3, 0)), (0, 1, 1), "row 1"),
                              (((0, [1]), (1, 2)), (0, 1), "row 0"),
                              (((0, 1), (1, 0)), (0, {}), "target"),
                              (((0, 1), (1, 0)), (0, 0.5), "target"),
                              # entries the whole-matrix set test cannot
                              # accept, before the bad one
                              (((_EqualToOne(), 0), (0, [0]), (1, 2)), (0, 1, 1), "row 1"),
                              (((0, _EqualToOne()), (1, 0)), (1, 2), "target")):
        with pytest.raises(ValueError) as exc:
            CodeInstance(rows, target, k=1)
        assert str(exc.value) == f"{bad} has a non-binary entry"
    # entries equal to 0 or 1 are held as those bits, so the code writes
    # back, parses to an equal instance and solves
    odd = CodeInstance(((0.0, True), (_EqualToOne(), np.int64(0))), (1.0, False), k=1)
    assert parse_code(code_to_text(odd)) == odd == CodeInstance(((0, 1), (1, 0)), (1, 0), k=1)
    assert exact_ncp(odd).value == 0
    with pytest.raises(ValueError, match="wrong width"):
        LatticeInstance(((1, 0), (1,)), (0, 0), p=1, k=1)
    with pytest.raises(ValueError, match="p must be at least 1"):
        LatticeInstance(((1,),), (0,), p=0, k=1)
    with pytest.raises(ValueError, match="p must be at most 64"):
        LatticeInstance(((1,),), (0,), p=65, k=1)
    # a fractional entry was truncated by the solver: x = 2 costs 0 on both
    for rows, target, bad in ((((1.5,),), (3,), "row 0"),
                              (((Fraction(1, 2),),), (1,), "row 0"),
                              (((1, 2), (3, [4])), (0, 0), "row 1"),
                              (((1, 2), (3, 4)), (0, 2.0), "target"),
                              (((1, 2**70), (3, 4.5)), (0, 0), "row 1")):
        with pytest.raises(ValueError) as exc:
            LatticeInstance(rows, target, p=1, k=1)
        assert str(exc.value) == f"{bad} has a non-integer entry"
    big = LatticeInstance(((True, np.int64(-2)), (2**70, 0)), (-(2**64), 1), p=1, k=1)
    assert big.rows == ((1, -2), (2**70, 0)) and big.target == (-(2**64), 1)
    assert _cell_types(big.rows) | _cell_types([big.target]) <= {int}
