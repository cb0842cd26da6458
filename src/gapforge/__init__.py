"""Reduction engineering for gap-preserving hardness pipelines.

Everything is exact and seeded: instances carry rational contract values,
solvers are brute-force oracles with work budgets, and each reduction stage
checks its completeness/soundness promises at desk scale.
"""

from types import ModuleType as _ModuleType

from .budget import DEFAULT_BUDGET, BudgetError, check
from .formula import (CnfFormula, DimacsError, brute_force_max_val,
                      clause_satisfied, clause_value, max_occurrence,
                      parse_dimacs, random_planted_formula, satisfied_counts,
                      to_dimacs, vars_of)
from .setsys import (MonotoneDnf, SetSystem, dnf_bound_holds,
                     dnf_false_count_by_weight, dnf_false_prob,
                     dnf_from_subcollections, dnf_to_text,
                     is_strong_intersection_disperser, is_uniform, masks,
                     pairwise_intersection_max, parse_dnf, parse_setsys,
                     sample_random_subsets, setsys_to_text)
from .labelcover import (LabelCoverInstance, UnsatisfiableSubsetError,
                         brute_force_val, brute_force_wval,
                         build_main_reduction, from_json, hadamard_codeword,
                         labeling_value, optimal_extension, reduce_alphabet,
                         restriction_labeling, smallest_prime_at_least,
                         soundness_params, to_json, weak_agreement_value,
                         wval_to_val_bound)
from .agreement import (ConsistencyOverlapError, FunctionCollection,
                        RedBlueGraph, agreement_decode,
                        build_two_level_graph, check_rb_transitive,
                        decode_assignment, disagr,
                        find_non_red_subgraph, majority_decode,
                        pair_consistency, t_wagr)
from .downstream import (ClusteringInstance, CodeInstance, CoverageInstance,
                         LatticeInstance, PartitionSystem, abss_cvp_reduction,
                         abss_ncp_reduction, clustering_to_text, code_to_text,
                         coverage_to_text, feige_coverage_reduction,
                         guha_khuller_reduction, lattice_to_text,
                         parse_clustering, parse_code, parse_coverage,
                         parse_lattice)
from .solvers import (SolverResult, coverage_fraction, exact_cvp, exact_kmean,
                      exact_kmedian, exact_max_coverage, exact_min_set_cover,
                      exact_ncp, greedy_max_coverage, verify_unique_cover)

__all__ = [_name for _name, _value in list(globals().items())
           if not _name.startswith("_") and not isinstance(_value, _ModuleType)]
