"""The element-edge and side convention has one owner, `grid.py`: no other
module of cutflow holds a dict display keyed by all four side names (a
side-to-axis, side-to-edge or side-to-normal table). The others read
`grid.SIDE_EDGE` and the edge tables beside it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutflow"
SIDES = {"left", "right", "bottom", "top"}


def _side_tables(sources):
    """'module:line' of each dict display in sources (module name -> source
    text) whose constant keys include all four side names."""
    return sorted(f"{module}:{node.lineno}" for module, text in sources.items()
                  for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Dict)
                  and SIDES <= {k.value for k in node.keys if isinstance(k, ast.Constant)})


def test_only_grid_holds_a_side_table():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = _side_tables(sources)
    assert [where for where in found if not where.startswith("grid:")] == []
    assert [where.split(":")[0] for where in found] == ["grid"]  # SIDE_EDGE


def test_side_tables_are_found():
    sources = {
        "a": 'AXIS = {"left": 1, "right": 1, "bottom": 0, "top": 0}\n',
        "b": "def f(side):\n"
             '    inward = {"left": (1, 0), "right": (-1, 0), "bottom": (0, 1),\n'
             '              "top": (0, -1), "front": None}\n'
             "    return inward[side]\n",
        "c": 'PARTIAL = {"left": 0, "right": 1}\nOTHER = {1: "left", **{}}\n',
    }
    assert _side_tables(sources) == ["a:1", "b:2"]
