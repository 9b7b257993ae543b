"""The oracles stay independent: an import graph of the package's modules.

Enumeration (``setpartitions``), the GF layer (``genfunc`` over
``powerseries``) and the Bell layer (``closedform``) check one another,
so none of them may reach another's code.  Outside the package, every
module imports only the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

import partition_records

PACKAGE = Path(partition_records.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, at any depth of its code."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("partition_records.")]
            found.update(name.split(".")[1] for name in names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("partition_records"):
                parts = node.module.split(".")
            elif node.level == 1:
                parts = ["partition_records", *(node.module.split(".") if node.module else [])]
            else:
                continue
            if len(parts) > 1:
                found.add(parts[1])
            else:  # from . import a, b
                found.update(a.name for a in node.names)
    return found & set(MODULES)


def test_import_graph_sees_known_edges():
    assert {"closedform", "genfunc", "setpartitions"} <= package_imports("verify")
    assert "powerseries" in package_imports("genfunc")
    assert package_imports("__main__") == {"cli"}


@pytest.mark.parametrize("module", ["setpartitions", "powerseries"])
def test_bottom_layers_import_no_package_module(module):
    assert package_imports(module) == set()


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("genfunc", {"closedform", "setpartitions", "verify", "cli"}),
        ("closedform", {"genfunc", "setpartitions", "verify", "cli"}),
        ("asymptotics", set(MODULES) - {"asymptotics", "closedform"}),
    ],
)
def test_oracle_layers_stay_apart(module, forbidden):
    assert not package_imports(module) & forbidden


def external_imports(module: str) -> set[str]:
    """The top-level names of the modules outside the package that
    ``module`` imports, at any depth of its code."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - {"partition_records"}


def test_import_scan_sees_known_modules():
    assert {"argparse", "json"} <= external_imports("cli")  # import ...
    assert "typing" in external_imports("cli")  # from typing import ...


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_package_imports_only_the_standard_library(module):
    assert external_imports(module) <= set(sys.stdlib_module_names)
