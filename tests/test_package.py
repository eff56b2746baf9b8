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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level private functions, classes and constants of the sources that no source reads by name outside
    their own definition, as "module.name"."""
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {target.id for target in targets if isinstance(target, ast.Name)}
            else:
                names = set()
            private = {name for name in names if name.startswith("_") and not name.startswith("__")}
            defined.update(dict.fromkeys(private, module))
            read |= {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)} - names
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in read)


def test_every_private_name_is_read():
    # a helper a refactor leaves behind has no reader; the package's own code must read each one, tests do not count
    package = pathlib.Path(prefid.__file__).parent
    assert _unread_private_names({path.stem: path.read_text(encoding="utf-8")
                                  for path in sorted(package.glob("*.py"))}) == []


def test_unread_private_name_is_caught():
    sources = {"a": "_LIMIT = 3\n_SEEN: int = 0\ndef _walk(n):\n    return _walk(n - 1)\nclass _Node:\n    pass\n"
                    "def public():\n    return _helper(_LIMIT)\n",
               "b": "from .a import _Node\ndef _helper(x):\n    return _Node\n__version__ = '1'\n"}
    assert _unread_private_names(sources) == ["a._SEEN", "a._walk"]
