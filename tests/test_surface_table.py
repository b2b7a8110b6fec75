"""The one surface table of a context: its named slices, its condition
point sets, and the piece seams between regions."""

import numpy as np
import pytest

from cutflow import flow as flow_mod
from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import build_cut_model
from cutflow.flow import FlowParams, assemble_flow
from cutflow.forms import PointTable, build_context, piece_blocks, prescribed, projector
from cutflow.grid import build_mesh


def _table(T, w, run):
    """A point table of the test table T (3, b, nq), weights w and run ids."""
    nq = w.shape[0]
    return PointTable("surface", w, np.zeros(nq, dtype=np.int64),
                      np.zeros((nq, 4), dtype=np.int64), *T.transpose(0, 2, 1), run)


def test_piece_blocks_split_a_run_of_equal_dofs_at_a_seam():
    # points with equal dofs on two runs (two regions' chords in one
    # element) give a block per run
    rng = np.random.default_rng(3)
    T = rng.normal(size=(3, 4, 4))
    C = rng.normal(size=(3, 1, 4, 4))
    w = rng.random(4)
    one_table = _table(T, w, np.zeros(4, dtype=np.int64))
    two_table = _table(T, w, np.array([5, 5, 6, 6]))
    one, two = piece_blocks(one_table, C.copy()), piece_blocks(two_table, C.copy())
    assert one.shape[2] == 1 and two.shape[2] == 2
    assert np.array_equal(two_table.plan.runs, [5, 6])
    for r, pts in enumerate((slice(0, 2), slice(2, 4))):
        alone = piece_blocks(_table(T[:, :, pts], w[pts], np.zeros(2, dtype=int)),
                             C[..., pts].copy())
        assert np.array_equal(two[:, :, r], alone[:, :, 0])
    assert np.allclose(two.sum(2), one[:, :, 0], rtol=1e-14, atol=1e-14)


def test_region_slices_of_an_all_fluid_box_measure_their_spans():
    mesh = build_mesh(((0.0, 0.0), (1.0, 1.0)), (4, 4))
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0.1, 0.6)),
        BoundaryRegion(name="outlet", side="right", kind="traction"),
        BoundaryRegion(name="lid", side="top", kind="symmetry", span=(0.3, 0.8),
                       port=True, species_value=0.5),
    ])
    ctx = build_context(build_cut_model(mesh, -np.ones(mesh.n_nodes)), regions)
    assert ctx.surface_part("interface").nq == 0
    for region in regions:
        lo, hi = region.span if region.span is not None else (0.0, 1.0)
        blk = ctx.surface_part(region.name)
        assert np.all(blk.region == regions.index(region))
        assert blk.w.sum() == pytest.approx(hi - lo, abs=1e-14)
    nq = {r.name: ctx.surface_part(r.name).nq for r in regions}
    velocity = sum(nq[r.name] for r in regions if r.kind in ("velocity", "symmetry"))
    assert ctx.conditions["velocity"].nq == velocity
    assert ctx.conditions["traction"].nq == nq["outlet"]
    assert "symmetry" not in ctx.conditions
    for kind in ("species", "port"):
        assert np.array_equal(ctx.conditions[kind].x, ctx.surface_part("lid").x)
    # the lid takes the velocity condition projected on its normal (0, 1)
    lid = ctx.conditions["velocity"].region == regions.index(regions[2])
    P = projector(ctx)
    assert np.array_equal(P[:, :, lid].T, np.tile([[0.0, 0.0], [0.0, 1.0]], (nq["lid"], 1, 1)))
    assert np.array_equal(P[:, :, ~lid].T, np.tile(np.eye(2), (velocity - nq["lid"], 1, 1)))
    assert not prescribed(ctx, "velocity")[lid].any()
    with pytest.raises(KeyError, match="nowhere"):
        ctx.surface_part("nowhere")


def test_mixer_flow_assembly_makes_one_velocity_nitsche_call(tmp_path, monkeypatch):
    from cutflow.config import parse_config
    from cutflow.driver import build_model
    from test_fixtures import MIXER_CFG
    path = tmp_path / "mix.cfg"
    path.write_text(MIXER_CFG)
    cfg = parse_config(str(path))
    model, _ = build_model(cfg)
    _, ctx = model.geometry(cfg.initial_design(model.mesh))
    assert len(ctx.regions) == 10
    calls = []
    nitsche = flow_mod._nitsche_velocity
    monkeypatch.setattr(flow_mod, "_nitsche_velocity",
                        lambda *args: calls.append(1) or nitsche(*args))
    U = np.random.default_rng(1).normal(scale=0.1, size=3 * ctx.n)
    assemble_flow(ctx, FlowParams(), U)
    assert len(calls) == 1
