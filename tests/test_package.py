"""The package namespace: `__all__` is every public name it imports, and the
list of those names is pinned."""

import types

import gapforge


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gapforge import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(gapforge.__all__)
    assert len(set(gapforge.__all__)) == len(gapforge.__all__)
    for name in gapforge.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(gapforge, name), types.ModuleType)
    public = {name for name, value in vars(gapforge).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(gapforge.__all__)


# Adding or removing a public name is an API change: it shows up here as a diff.
PUBLIC = [
    "BudgetError", "ClusteringInstance", "CnfFormula", "CodeInstance",
    "ConsistencyOverlapError", "CoverageInstance", "DEFAULT_BUDGET", "DimacsError",
    "FunctionCollection", "LabelCoverInstance", "LatticeInstance", "MonotoneDnf",
    "PartitionSystem", "RedBlueGraph", "SetSystem", "SolverResult",
    "UnsatisfiableSubsetError", "abss_cvp_reduction", "abss_ncp_reduction",
    "brute_force_max_val", "brute_force_val", "brute_force_wval",
    "build_main_reduction", "build_two_level_graph", "check_rb_transitive",
    "clause_value", "clustering_to_text", "code_to_text", "coverage_fraction",
    "coverage_to_text", "decode_assignment", "disagr", "dnf_bound_holds",
    "dnf_false_count_by_weight", "dnf_false_prob", "exact_cvp", "exact_kmean",
    "exact_kmedian", "exact_max_coverage", "exact_min_set_cover", "exact_ncp",
    "feige_coverage_reduction", "find_non_red_subgraph", "from_json",
    "greedy_max_coverage", "guha_khuller_reduction",
    "is_strong_intersection_disperser", "lattice_to_text", "majority_decode",
    "max_occurrence", "optimal_extension", "pair_consistency",
    "pairwise_intersection_max", "parse_clustering", "parse_code", "parse_coverage",
    "parse_dimacs", "parse_dnf", "parse_lattice", "parse_setsys",
    "random_planted_formula", "reduce_alphabet", "restriction_labeling",
    "sample_random_subsets", "soundness_params", "t_wagr", "to_dimacs", "to_json",
    "vars_of", "verify_unique_cover", "weak_agreement_value", "wval_to_val_bound",
]


def test_public_names_are_pinned():
    assert sorted(gapforge.__all__) == PUBLIC
    assert len(PUBLIC) == 72
