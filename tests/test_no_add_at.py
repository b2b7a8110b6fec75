"""Every residual and criterion partial of cutflow is one np.bincount over
its terms (forms.Scatter), so no module scatters with np.add.at."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutflow"


def _add_at_sites(sources):
    """'module:line' of each np.add.at (or numpy.add.at) in sources (module
    name -> source text), called or not."""
    return sorted(f"{module}:{node.lineno}" for module, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute) and node.attr == "at"
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "add"
                  and isinstance(node.value.value, ast.Name)
                  and node.value.value.id in ("np", "numpy"))


def test_no_module_scatters_with_add_at():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _add_at_sites(sources) == []


def test_add_at_sites_are_found():
    sources = {
        "a": "import numpy as np\nnp.add.at(R, dofs, r)\n",
        "b": "import numpy\n\ndef f(R, i, v):\n    scatter = numpy.add.at\n"
             "    scatter(R, i, v)\n",
        "c": "np.bincount(i, v)\nnp.add.reduceat(v, i)\nR.add.at = 1\n",
    }
    assert _add_at_sites(sources) == ["a:2", "b:4"]
