"""Every module-level function and class of cutflow is used by cutflow itself.
A name that only the tests or the package's `__init__` re-exports reach is a
helper to delete. A use is a read of the name, bare or as an attribute,
anywhere in `src/cutflow` outside the name's own definition and `__init__.py`;
an import alone is not a use. KEPT names the exceptions, each with its
reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutflow"
# names kept although only the tests read them, each with its reason
KEPT = {"config.dump_config": "the config writer, which acceptance 8 and the round-trip "
                              "tests read a config back through"}


def _unreferenced(sources):
    """'module.name' of each top-level def or class in sources (module name ->
    source text) that no module but __init__ reads outside its definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = [(module, node) for module, tree in trees.items() if module != "__init__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    reads = [(stmt, node.id if isinstance(node, ast.Name) else node.attr)
             for module, tree in trees.items() if module != "__init__"
             for stmt in tree.body for node in ast.walk(stmt)
             if isinstance(node, (ast.Name, ast.Attribute))]
    return sorted(f"{module}.{node.name}" for module, node in defs
                  if not any(name == node.name and stmt is not node for stmt, name in reads))


def test_every_module_level_def_is_used_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = _unreferenced(sources)
    assert [name for name in found if name not in KEPT] == []
    assert set(KEPT) <= set(found)  # an exception goes once the package reads the name


def test_unreferenced_defs_are_found():
    sources = {
        "a": "def used():\n    pass\n\n\ndef recursive():\n    return recursive()\n\n\n"
             "class Imported:\n    pass\n\n\nclass Read:\n    pass\n",
        "b": "from .a import Imported, used\nfrom . import a\nused()\nx = a.Read\n",
        "__init__": "from .a import recursive  # noqa: F401\nrecursive()\n",
    }
    assert _unreferenced(sources) == ["a.Imported", "a.recursive"]
