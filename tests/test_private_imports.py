"""No cutflow module reaches into another cutflow module's private names:
it neither imports a leading-underscore name from one nor reads one off an
imported cutflow module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cutflow"


def _private_uses(tree):
    """'module.name' of each private name the module takes from cutflow."""
    found, modules = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cutflow":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{module}.{alias.name}")
            elif not module or module == "cutflow":  # a module: from . import flow
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert _private_uses(ast.parse(path.read_text())) == []


def test_private_uses_are_found():
    tree = ast.parse("from .flow import _a, b\nfrom cutflow.forms import _c\n"
                     "from . import transport as t\nfrom numpy import _d\nt._e(t.f)\n")
    assert _private_uses(tree) == ["flow._a", "cutflow.forms._c", "transport._e"]
