"""A point table builds its test table [N; d_x N; d_y N] once and keeps it
(forms.PointTable.tests), so no module but forms builds trial-side tables:
neither a basis_tables call nor a contiguous copy of a transposed basis
table."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutflow"
BASES = {"N", "gx", "gy", "N1", "N2", "gn1", "gn2"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _transposed_basis(node):
    """Whether node is B.T or B.transpose(...), B a basis table: N.T, blk.gx.T, ..."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "transpose":
        node = node.func.value
    elif isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    else:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    return _name(node) in BASES


def _trial_tables(sources):
    """'module:line' of each basis_tables(...) call and each
    ascontiguousarray of a transposed basis table in sources (module name ->
    source text) but forms."""
    sites = []
    for module, text in sources.items():
        if module == "forms":
            continue
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            if name == "basis_tables" or (name == "ascontiguousarray" and node.args
                                          and _transposed_basis(node.args[0])):
                sites.append(f"{module}:{node.lineno}")
    return sorted(sites)


def test_no_module_but_forms_builds_trial_tables():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _trial_tables(sources) == []


def test_trial_tables_are_found():
    sources = {
        "a": "NT, gxT, gyT, T = basis_tables(blk)\n"
             "NT = np.ascontiguousarray(vol.N.T)\n"
             "G = numpy.ascontiguousarray(g.gn1[rows].transpose())\n",
        "b": "from cutflow import forms\nT = forms.basis_tables(ctx.volume)\n",
        "c": "NT = blk.tests[0]\nP = np.ascontiguousarray(P.T)\n"
             "x = np.ascontiguousarray(N)\nv = N.T @ u\n",
        "forms": "NT = np.ascontiguousarray(blk.N.T)\nT = basis_tables(blk)\n",
    }
    assert _trial_tables(sources) == ["a:1", "a:2", "a:3", "b:2"]
