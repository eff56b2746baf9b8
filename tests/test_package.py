"""The package's public surface, and the imports of its modules."""

import ast
import pathlib

import pytest

import prefid
from prefid import _version, errors, experiments, harness, preferences, rationalize, spaces, utility

MODULES = (errors, spaces, preferences, experiments, rationalize, utility, harness)

# the public names before each module's `__all__` became their only list
PUBLIC_NAMES = {
    "BinaryRelation", "CapacityError", "ChoiceSequence", "ConfigurationError", "ConsistencyResult",
    "ConvergenceReport", "DenseSubset", "DiameterResult", "DomainError", "EuResult", "ExperimentConfig",
    "ExperimentSequence", "GALLERY_ITEMS", "LipschitzResult", "OrderedSpace", "PreconditionError", "Preference",
    "PrefidError", "RationalizationPolicy", "ReportRow", "ResolutionError", "RevealedEdge", "RevealedRelation",
    "STRONG", "UtilityFunction", "WEAK", "__version__", "adversarial_far_extension", "all_total_preorders",
    "brute_force_rationalizations", "certainty_equivalent_utility", "chain_base", "chain_step_bound",
    "check_consistency", "choices_from_csv", "choices_to_csv", "closed_convergence_distance", "default_checkpoints",
    "dense_subset", "diameter_estimate", "emit_report", "enumerate_pairs", "eu_preference", "eu_rationalize",
    "extend_preference", "from_points", "from_utility", "generate_choices", "generator_values",
    "indifference_construction", "is_locally_strict", "is_quasitransitive", "is_strictly_monotone",
    "is_weakly_monotone", "li_ls_limit", "lipschitz_rationalize", "make_aa_acts", "make_dated_rewards",
    "make_grid_euclidean", "make_lottery_simplex", "max_norm_distance", "order_bracketing_radius",
    "ordinal_equivalent", "parse_report_csv", "rationalizes", "report_fingerprint", "report_to_csv",
    "report_to_json", "restrict", "result_to_json", "revealed_relation", "run_convergence", "run_gallery",
    "same_space", "sample_extension", "space_from_descriptor", "total_indifference",
}


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 77
    assert len(prefid.__all__) == len(set(prefid.__all__))
    assert set(prefid.__all__) == PUBLIC_NAMES


def test_public_names_are_the_version_and_the_module_lists():
    declared = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert sorted(prefid.__all__) == sorted(declared)
    assert prefid.__version__ is _version.__version__


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_public_name_is_its_modules_object(module):
    for name in module.__all__:
        assert getattr(prefid, name) is getattr(module, name), name


def _unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


# the package's modules but __init__.py, which re-exports by star import, then the tests and demos
ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for path in pathlib.Path(prefid.__file__).parent.glob("*.py") if path.name != "__init__.py")
SOURCES += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    assert _unused_imports("import json\nimport os\nfrom .spaces import a, b as c\nos.sep\nc\n") == [
        "a (line 3)", "json (line 1)"]
