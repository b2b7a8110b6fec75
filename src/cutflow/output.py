"""Result files: legacy-VTK fields, history CSV, restart checkpoints.

Field files hold the subcell triangulation with duplicated points per
subcell corner so discontinuous enriched fields render faithfully; cell
data carries the phase and fluid region, point data the active-level
u, p, c, psi, psibar and the nodal level set. Floats are written with
repr so identical runs produce bit-identical files.

File layout (legacy VTK, ASCII, UNSTRUCTURED_GRID):
  POINTS n float          one point per (subcell, corner)
  CELLS / CELL_TYPES      triangles (type 5)
  CELL_DATA: phase (int), region (int)
  POINT_DATA: velocity (VECTORS), p, c, psi, psibar, phi (SCALARS)
"""

from __future__ import annotations

import json
import os

import numpy as np

from .cut import FLUID
from .errors import OutputError
from .forms import shape_q1
from .transport import project_indicator


def _r(x):
    return repr(float(x))


def write_vtk_fields(path, cm, flow_state=None, species_state=None, psi=None,
                     indicator_params=None):
    """Write the subcell triangulation with per-corner field values."""
    mesh = cm.mesh
    n = cm.n_dofs
    row, tris = cm.triangles()
    points = tris.reshape(-1, 2)
    npts = points.shape[0]
    at = np.repeat(row, 3)  # piece of each point
    elems = cm.piece_elem[at]
    fluid = cm.piece_phase[at] == FLUID
    N = shape_q1(mesh, elems, points)[0]

    def field_at_points(vec, block=0):
        out = np.zeros(npts)
        if vec is not None:
            vals = vec[block * n + cm.piece_dofs[at[fluid]]]
            out[fluid] = (N[fluid][:, None] @ vals[:, :, None]).ravel()
        return out

    ux = field_at_points(flow_state, 0)
    uy = field_at_points(flow_state, 1)
    pr = field_at_points(flow_state, 2)
    cc = field_at_points(species_state)
    ps = field_at_points(psi)
    psb = np.zeros(npts)
    if psi is not None and indicator_params is not None:
        psb = np.where(fluid, project_indicator(ps, indicator_params), 0.0)
    # nodal level set interpolated at the duplicated points
    phi_pts = np.einsum("qa,qa->q", N, cm.phi[mesh.elements[elems]])

    def lines(fmt, *columns):
        return "".join(fmt.format(*v) for v in zip(*(c.tolist() for c in columns)))

    cells = np.arange(npts).reshape(-1, 3)
    try:
        with open(path, "w") as f:
            f.write("# vtk DataFile Version 3.0\n")
            f.write("cutflow fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
            f.write(f"POINTS {npts} double\n")
            f.write(lines("{!r} {!r} 0.0\n", points[:, 0], points[:, 1]))
            f.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
            f.write(lines("3 {} {} {}\n", *cells.T))
            f.write(f"CELL_TYPES {len(cells)}\n")
            f.write("5\n" * len(cells))
            f.write(f"CELL_DATA {len(cells)}\n")
            f.write("SCALARS phase int 1\nLOOKUP_TABLE default\n")
            f.write(lines("{}\n", cm.piece_phase[row]))
            f.write("SCALARS region int 1\nLOOKUP_TABLE default\n")
            f.write(lines("{}\n", cm.piece_region[row]))
            f.write(f"POINT_DATA {npts}\n")
            f.write("VECTORS velocity double\n")
            f.write(lines("{!r} {!r} 0.0\n", ux, uy))
            for name, arr in (("p", pr), ("c", cc), ("psi", ps),
                              ("psibar", psb), ("phi", phi_pts)):
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                f.write(lines("{!r}\n", arr))
    except OSError as exc:
        raise OutputError(f"cannot write field file {path}: {exc}") from exc


class HistoryWriter:
    """Append-only CSV of per-iteration optimization or analysis records.

    The file starts with the header alone, unless keep_below > 0: then the
    rows of iterations below it are kept from an existing file with the
    same header (a restart into the run's own directory).
    """

    def __init__(self, path, criteria_names, n_constraints, keep_below=0):
        self.path = path
        self.criteria_names = list(criteria_names)
        self.n_constraints = n_constraints
        header = ",".join(
            ["iteration", "objective"] + [f"g_{i + 1}" for i in range(n_constraints)]
            + list(self.criteria_names) + ["newton_iters", "feasible"]) + "\n"
        rows = []
        try:
            if keep_below and os.path.exists(path):
                with open(path) as f:
                    lines = f.readlines()
                if lines[:1] == [header]:
                    rows = [r for r in lines[1:]
                            if int(r.split(",", 1)[0]) < keep_below]
            with open(path, "w") as f:
                f.write(header + "".join(rows))
        except OSError as exc:
            raise OutputError(f"cannot write history file {path}: {exc}") from exc

    def append(self, iteration, objective, constraints, crit_values, newton_iters,
               feasible):
        row = [str(iteration), _r(objective)]
        row += [_r(g) for g in constraints]
        row += [_r(crit_values[k]) for k in self.criteria_names]
        row += [str(newton_iters), "1" if feasible else "0"]
        with open(self.path, "a") as f:
            f.write(",".join(row) + "\n")


def write_checkpoint(path, design, optimizer_state, normalization, iteration,
                     extra=None):
    """JSON checkpoint, replaced atomically; floats round-trip exactly."""
    payload = {
        "iteration": int(iteration),
        "design": design.values.tolist(),
        "optimizer": optimizer_state.to_dict() if optimizer_state is not None else None,
        "normalization": (None if normalization is None
                          else {str(k): v for k, v in normalization.items()}),
        "extra": extra or {},
    }
    # write a temporary file beside it and rename it into place, so an
    # interrupted write leaves the previous checkpoint whole
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(json.dumps(payload))  # json.dump runs the pure-Python encoder
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_checkpoint(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # unreadable, truncated or not JSON
        raise OutputError(f"cannot read checkpoint {path}: {exc}") from exc


def ensure_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {path}: {exc}") from exc
