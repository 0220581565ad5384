"""The package namespace: every public name loads its module on first access."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import twinfringes


@pytest.mark.parametrize("name", twinfringes.__all__)
def test_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"twinfringes.{twinfringes._MODULE_OF[name]}")
    value = getattr(twinfringes, name)
    assert value is getattr(module, name)
    assert value.__module__ == module.__name__


def test_dir_lists_every_public_name():
    assert set(twinfringes.__all__) <= set(dir(twinfringes))
    assert "__version__" in dir(twinfringes)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from twinfringes import *", namespace)
    assert set(twinfringes.__all__) <= set(namespace)
    assert namespace["parse_config"] is twinfringes.fileio.parse_config


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twinfringes.no_such_name
    assert not hasattr(twinfringes, "no_such_name")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_targets_resolve():
    # the tracer wraps each listed function by module and name, so a
    # deleted one breaks a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, name in tracing.SPANNED + tracing.COUNTED:
        module = importlib.import_module(f"twinfringes.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_benchmark_checks_import_only_public_names():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "twinfringes"
        for alias in node.names
    }
    assert imported
    assert imported <= set(twinfringes.__all__)


SOURCE = Path(twinfringes.__file__).resolve().parent


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, nested ones included."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    # the runtime needs numpy alone: scipy and the other test extras
    # stay out of every module, function-level imports included
    allowed = set(sys.stdlib_module_names) | {"numpy", "twinfringes"}
    assert _imported_roots(path) <= allowed


def _package_imports(module: str) -> dict[str, set[str]]:
    """Package module -> the names ``module`` imports from it, nested imports included.

    A module imported whole (``from . import state``,
    ``import twinfringes.state``) is listed with the name "*".
    """
    imports: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((SOURCE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, target = alias.name.partition(".")
                if package == "twinfringes" and target:
                    imports.setdefault(target.split(".")[0], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                package, _, name = name.partition(".")
                if package != "twinfringes":
                    continue
            if name:
                imports.setdefault(name, set()).update(alias.name for alias in node.names)
            else:  # from . import state; a public name counts as its module's
                for alias in node.names:
                    imports.setdefault(
                        twinfringes._MODULE_OF.get(alias.name, alias.name), set()
                    ).add("*")
    return imports


def test_package_import_reader_sees_every_form():
    assert {"analytics", "oracle", "state", "config", "fileio"} <= _package_imports("cli").keys()
    assert _package_imports("oracle") == {"state": {"SuperposedState"}}


def test_cli_leaves_reading_text_to_fileio():
    # files and numbers are read in fileio; the CLI only computes
    assert not _package_imports("cli")["fileio"] & {"read_text", "ParseError"}


@pytest.mark.parametrize("module", ["state", "oracle"])
def test_grid_route_imports_no_other_route(module):
    # the oracle's agreement with the closed form and the quadrature is
    # evidence only while the grid route shares none of their code: it
    # reads the config's fields and nothing derived from them
    imports = _package_imports(module)
    assert not imports.keys() & {"analytics", "special", "inverse", "fileio", "cli"}
    assert imports.get("config", set()) <= {
        "PARAXIAL_LIMIT", "CorrelationModel", "ExperimentConfig", "ParaxialWarning",
    }


@pytest.mark.parametrize("module", ["analytics", "special"])
def test_closed_form_and_quadrature_import_no_grid_route(module):
    assert not _package_imports(module).keys() & {"state", "oracle"}
