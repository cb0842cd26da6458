"""The package namespace: `__all__` is every public name it imports, and the
list of those names is pinned. The reference oracles that the cross-checks
compare with live in tests/reference.py alone, no test module imports a name
it never uses, and bit rows are packed in one place and are the one form
in which the package reads a set."""

import ast
import types
from pathlib import Path

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


# the names the frozen copies of replaced code went by in the test modules
COPY_PREFIXES = ("_old_", "_frozen_", "_enumerated_", "_reencoded_", "_sample_by_",
                 "_wagr_recount", "_disperser_oracle")


def _trees(directory):
    """Each module of `directory` by file name, parsed."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(directory).glob("*.py"))}


def test_reference_oracles_live_in_one_module():
    """No test module but reference.py defines a frozen copy at top level,
    and reference.py imports no private name of the package."""
    trees = _trees(Path(__file__).parent)
    copies = [(name, node.name) for name, tree in trees.items() if name != "reference.py"
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith(COPY_PREFIXES)]
    assert copies == []
    imported = [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(trees["reference.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert any(name.startswith("gapforge.") for name in imported)
    assert [name for name in imported if name.startswith("gapforge.")
            and any(part.startswith("_") for part in name.split("."))] == []


def test_test_modules_use_every_name_they_import():
    unused = []
    for name, tree in _trees(Path(__file__).parent).items():
        bound = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, imported) for imported in sorted(bound - used)]
    assert unused == []


def _packbits(tree):
    """The lines that name packbits: as an attribute, a name or an import."""
    return [node.lineno for node in ast.walk(tree) if "packbits" in (
        getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None))]


def test_bit_rows_are_packed_by_one_helper():
    """np.packbits is named only inside setsys._words, so every bit row of
    the package has that helper's layout."""
    trees = _trees(Path(gapforge.__file__).parent)
    helper = next(node for node in ast.walk(trees["setsys.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "_words")
    named = [(name, line) for name, tree in trees.items() for line in _packbits(tree)]
    assert named == [("setsys.py", line) for line in _packbits(helper)] != []


def _scopes(tree):
    """Each top-level function and method of a module, by name (a method as
    Class.method), and every other statement as "<module>"."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                       else "<module>"), item
        else:
            yield (node.name if isinstance(node, ast.FunctionDef) else "<module>"), node


def _naming(name):
    """The package's (module, scope) pairs that name `name`, as a name or an
    attribute; a def or an import does not count."""
    return sorted({(module, scope) for module, tree in _trees(Path(gapforge.__file__).parent).items()
                   for scope, node in _scopes(tree) for sub in ast.walk(node)
                   if name in (getattr(sub, "attr", None), getattr(sub, "id", None))})


def test_sets_are_read_as_words():
    """The package reads a set as packed word rows: a set becomes a Python
    int only for the public exact masks of a function collection and for a
    restriction labeling's right labels, an int's popcount is taken only by
    `disagr`, and the one chunker of lex-ordered index blocks is
    `budget._combinations`."""
    assert _naming("bit_count") == [("agreement.py", "disagr")]
    assert _naming("bitmask") == [("agreement.py", "FunctionCollection.domain_masks"),
                                  ("agreement.py", "FunctionCollection.ones_masks"),
                                  ("labelcover.py", "restriction_labeling")]
    assert _naming("islice") == [("budget.py", "_combinations")]


def test_solvers_read_the_matrix_arrays():
    """A matrix instance is held as arrays, and its `rows`, `target` and
    `dist` tuples are derived on read: the solvers and the command line never
    read them, and the downstream module only in its three text writers."""
    trees = _trees(Path(gapforge.__file__).parent)
    reading = sorted({(module, scope) for module in ("cli.py", "downstream.py", "solvers.py")
                      for scope, node in _scopes(trees[module]) for sub in ast.walk(node)
                      if getattr(sub, "attr", None) in ("rows", "target", "dist")})
    assert reading == [("downstream.py", "clustering_to_text"),
                       ("downstream.py", "code_to_text"),
                       ("downstream.py", "lattice_to_text")]
