"""A field is evaluated at quadrature points by one routine, forms.field_at
(PointTable.at), so no module but forms reduces a product with a basis
table by .sum(1)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutflow"
BASES = {"N", "gx", "gy", "d2", "N1", "N2", "gn1", "gn2"}


def _is_basis(node):
    """Whether node reads a basis table: N, ctx.vol_N, blk.gx, g.N1[rows], ..."""
    if isinstance(node, ast.Subscript):
        node = node.value
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name is not None and name.removeprefix("vol_") in BASES


def _axis_one(call, given):
    """Whether the reduction axis of call, given positionally at given, is 1 or -1."""
    axis = call.args[given] if len(call.args) > given else next(
        (k.value for k in call.keywords if k.arg == "axis"), None)
    if isinstance(axis, ast.UnaryOp) and isinstance(axis.op, ast.USub):
        return isinstance(axis.operand, ast.Constant) and axis.operand.value == 1
    return isinstance(axis, ast.Constant) and axis.value == 1


def _basis_sums(sources):
    """'module:line' of each (B * u).sum(1) or np.sum(B * u, axis=1), B a
    basis table, in sources (module name -> source text) but forms."""
    sites = []
    for module, text in sources.items():
        if module == "forms":
            continue
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum"):
                continue
            method = not (isinstance(node.func.value, ast.Name)
                          and node.func.value.id in ("np", "numpy"))
            product = node.func.value if method else (node.args or [None])[0]
            if (isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult)
                    and (_is_basis(product.left) or _is_basis(product.right))
                    and _axis_one(node, 0 if method else 1)):
                sites.append(f"{module}:{node.lineno}")
    return sorted(sites)


def test_fields_are_evaluated_through_their_table():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _basis_sums(sources) == []


def test_basis_sums_are_found():
    sources = {
        "a": "ux = (blk.N * Uc[0:n][blk.dofs]).sum(1)\n"
             "px = (gx * pe).sum(axis=1)\n"
             "q = (ctx.vol_N[pts] * u).sum(-1)\n",
        "b": "import numpy as np\nv = np.sum(u[g.dofs1] * g.gn1, axis=1)\n",
        "c": "t = (N * u).sum(0)\ns = (P * x).sum(1)\nr = (N + u).sum(1)\nm = N.sum(1)\n",
        "forms": "ue = u[dofs]\nout = (N * ue).sum(1)\n",
    }
    assert _basis_sums(sources) == ["a:1", "a:2", "a:3", "b:2"]
