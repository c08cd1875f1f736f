"""Package surface: what ``wfdsim`` exports and what it imports."""

import ast
import sys
import types
from pathlib import Path

import wfdsim

PACKAGE_DIR = Path(wfdsim.__file__).parent


def test_all_names_public_objects():
    for name in wfdsim.__all__:
        assert not isinstance(getattr(wfdsim, name), types.ModuleType), name
    removed = ("Battery", "drain", "CommitmentMismatch", "verify_or_raise",
               "parse_classifier_config", "format_classifier_config", "Role",
               "QuitDecision", "attacker_maybe_quit", "Ignorance", "Cpt", "DEFAULT_CPT",
               "DEFAULT_PRIOR", "DegenerateDistribution", "EnergyModel", "preimage",
               "discretize_share", "OutOfRange")
    for name in removed:
        assert name not in wfdsim.__all__, name


def test_all_covers_the_layer_entry_points():
    for name in ("commit", "negotiate", "assess", "run", "run_experiment", "main"):
        assert name in wfdsim.__all__


def test_library_imports_only_the_standard_library():
    # numpy and scipy happen to be installed next to the tests, so an
    # import of them would work here and fail for users
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}: imports {name}"
