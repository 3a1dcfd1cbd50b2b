"""API-surface tests: every documented public name exists and imports."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.obs",
    "repro.rbac",
    "repro.xmlpolicy",
    "repro.framework",
    "repro.permis",
    "repro.audit",
    "repro.vo",
    "repro.workflow",
    "repro.baselines",
    "repro.workload",
    "repro.cluster",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    module = importlib.import_module(package)
    assert module is not None


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_documented(package):
    """Every public class/function exported via __all__ has a docstring."""
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if isinstance(obj, (str, int, float, frozenset, tuple)):
            continue  # constants
        assert obj.__doc__, f"{package}.{name} lacks a docstring"


#: The end-to-end benchmark harness, which changes only with the benchmark.
E2E_HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _harness_imports():
    """``(where, module, name)`` for every ``repro`` import in the harness;
    ``name`` is ``None`` for a plain ``import repro...``."""
    for path in sorted(E2E_HARNESS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level:
                pairs = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module, name in pairs:
                if module.partition(".")[0] == "repro":
                    yield f"{path.name}:{node.lineno}", module, name


def test_benchmark_harness_imports_resolve():
    """A module split must keep serving every name the harness imports."""
    imports = list(_harness_imports())
    names = {(module, name) for _, module, name in imports}
    assert ("repro.core.retained_adi", "SQLiteRetainedADIStore") in names
    for where, module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            pytest.fail(f"{where}: {module_name} serves no {name!r}")


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_error_hierarchy_rooted():
    """All library errors derive from ReproError."""
    from repro import errors

    for name in dir(errors):
        obj = getattr(errors, name)
        if (
            isinstance(obj, type)
            and issubclass(obj, Exception)
            and obj is not errors.ReproError
            and obj.__module__ == "repro.errors"
        ):
            assert issubclass(obj, errors.ReproError), name


def test_cli_module_importable():
    from repro import cli

    parser = cli.build_parser()
    assert parser.prog == "repro"
