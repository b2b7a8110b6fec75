import numpy as np
import pytest

from cutflow.cut import FLUID, SOLID
from cutflow.output import write_vtk_fields

from fixtures_common import circle_channel, linear_flow_state


def _read_vtk(path):
    """Points, triangles and every CELL_DATA / POINT_DATA array of a
    legacy-VTK field file."""
    lines = open(path).read().splitlines()
    out = {}
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head and head[0] == "POINTS":
            n = int(head[1])
            out["points"] = np.array([[float(v) for v in row.split()]
                                      for row in lines[i + 1:i + 1 + n]])
            i += n
        elif head and head[0] == "CELLS":
            n = int(head[1])
            out["cells"] = np.array([[int(v) for v in row.split()]
                                     for row in lines[i + 1:i + 1 + n]])
            i += n
        elif head and head[0] in ("CELL_DATA", "POINT_DATA"):
            size = int(head[1])
        elif head and head[0] == "SCALARS":
            cast = int if head[2] == "int" else float
            out[head[1]] = np.array([cast(v) for v in lines[i + 2:i + 2 + size]])
            i += 1 + size
        elif head and head[0] == "VECTORS":
            out[head[1]] = np.array([[float(v) for v in row.split()]
                                     for row in lines[i + 1:i + 1 + size]])
            i += size
        i += 1
    return out


def test_vtk_fields_hold_an_affine_flow_state(tmp_path):
    mesh, cm, ctx, regions, params = circle_channel(0.05)
    coeffs = ((0.3, -0.7, 1.1), (-0.2, 0.4, 0.9), (1.5, 0.6, -1.3))
    U = linear_flow_state(cm, *coeffs)
    path = tmp_path / "fields.vtk"
    write_vtk_fields(str(path), cm, flow_state=U)
    vtk = _read_vtk(path)

    x = vtk["points"]
    cells = vtk["cells"]
    ntri = cells.shape[0]
    assert x.shape == (3 * ntri, 3)
    np.testing.assert_array_equal(cells[:, 0], 3)
    np.testing.assert_array_equal(cells[:, 1:].ravel(), np.arange(3 * ntri))
    assert vtk["phase"].shape == (ntri,) and vtk["region"].shape == (ntri,)
    assert set(vtk["phase"].tolist()) == {FLUID, SOLID}
    np.testing.assert_array_equal(vtk["region"][vtk["phase"] == SOLID], -1)
    assert np.all(vtk["region"][vtk["phase"] == FLUID] == 0)

    fluid = np.repeat(vtk["phase"] == FLUID, 3)
    affine = [a + b * x[:, 0] + c * x[:, 1] for a, b, c in coeffs]
    vel, p = vtk["velocity"], vtk["p"]
    for k in range(2):
        assert np.max(np.abs(vel[fluid, k] - affine[k][fluid])) < 1e-12
    assert np.max(np.abs(p[fluid] - affine[2][fluid])) < 1e-12
    np.testing.assert_array_equal(vel[~fluid], 0.0)
    np.testing.assert_array_equal(p[~fluid], 0.0)
    for name in ("c", "psi", "psibar"):
        np.testing.assert_array_equal(vtk[name], 0.0)

    # the fluid triangles tile the fluid domain
    tri = x[:, :2].reshape(-1, 3, 2)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    area = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                        - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    assert area[vtk["phase"] == FLUID].sum() == pytest.approx(cm.fluid_volume(), rel=1e-12)
