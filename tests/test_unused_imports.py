"""No cutflow module keeps a module-level import that it never uses. An
import marked `# noqa: F401` (the package's re-exports) is kept on purpose."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cutflow"


def _unused_imports(source):
    """The names that the module's top-level imports bind and it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "noqa: F401" in lines[node.lineno - 1]):
            continue
        bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "import numpy as np\nfrom .flow import a, b as c\n"
              "from . import forms  # noqa: F401\nprint(np.pi, a)\n"
              "def f():\n    import sys\n    return sys\n")
    assert _unused_imports(source) == ["c", "os"]
