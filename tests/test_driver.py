import os
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

from cutflow.cli import main as cli_main
from cutflow.config import dump_config, parse_config
from cutflow.driver import run_analysis, run_optimization, transfer_flow_state
from cutflow.errors import CapacityError, ConfigurationError, SolverError
from cutflow.flow import FlowParams
from cutflow.pipeline import ForwardModel, PhysicsConfig

CHANNEL_CFG = """
[mesh]
x0 = 0.0
y0 = 0.0
x1 = 1.6
y1 = 0.4
nx = 32
ny = 8

[flow]
rho = 1.0
mu = 1.6e-3
alpha_nitsche = 100.0
alpha_gp_mu = 0.05
alpha_gp_p = 0.005
alpha_gp_u = 0.05
k_pressure = 1.0
pressure_penalty_scope = indicator

[boundary.inlet]
side = left
kind = velocity
span = 0.0 0.4
profile = parabola
amplitude = 0.3
port = true

[boundary.outlet]
side = right
kind = traction
port = true

[design]
lower = -0.04
upper = 0.04
filter_radius_h = 0.4
initial = shapes
shapes = fluid_box -1.0 -1.0 3.0 1.0 | solid_disk 0.3 0.2 0.08

[criterion.cd]
kind = drag
surface = interface
direction = 1 0
u_char = 0.2
l_char = 0.16

[criterion.ti]
kind = total_pressure
surface = inlet

[criterion.to]
kind = total_pressure
surface = outlet

[criterion.mcirc]
kind = mass_flow
surface = interface

[objective]
terms = 1.0: ti - to

[solve]
newton_tol = 1e-6
max_newton = 25

[output]
directory = out
"""

OPT_CFG = """
[mesh]
x0 = 0.0
y0 = 0.0
x1 = 1.0
y1 = 1.0
nx = 14
ny = 14

[flow]
rho = 1.0
mu = 1.0
alpha_nitsche = 100.0

[boundary.inlet]
side = left
kind = velocity
span = 0.7 0.9
profile = parabola
amplitude = 1.0
port = true

[boundary.outlet]
side = bottom
kind = traction
span = 0.7 0.9
port = true

[design]
lower = -0.03
upper = 0.03
filter_radius_h = 2.4
initial = inclusions
inclusions_nx = 2
inclusions_ny = 2
inclusions_radius = 0.12
inclusions_margin = 0.3

[criterion.ti]
kind = total_pressure
surface = inlet

[criterion.to]
kind = total_pressure
surface = outlet

[criterion.Vf]
kind = volume_fluid

[criterion.S]
kind = surface_area

[objective]
terms = 1.0: ti - to | 0.01: S

[constraint.vol]
kind = volume_frac
criterion = Vf
frac = 0.6

[gcmma]
max_outer = 3

[output]
directory = out
field_every = 0
checkpoint_every = 1
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_roundtrip_exact(tmp_path):
    path = _write(tmp_path, CHANNEL_CFG)
    cfg = parse_config(path)
    dumped = dump_config(cfg)
    path2 = _write(tmp_path, dumped, "dumped.cfg")
    cfg2 = parse_config(path2)
    assert dump_config(cfg2) == dumped  # fixed point after one round


def test_config_defaults_from_tables(tmp_path):
    # every table-sourced default survives parse -> dump -> parse unchanged
    path = _write(tmp_path, CHANNEL_CFG)
    cfg = parse_config(path)
    assert cfg.flow.alpha_nitsche == 100.0
    assert cfg.flow.alpha_gp_mu == 0.05
    assert cfg.flow.alpha_gp_p == 0.005
    assert cfg.flow.alpha_gp_u == 0.05
    assert cfg.flow.k_pressure == 1.0
    assert cfg.indicator.reaction == 0.01
    assert cfg.indicator.psi_ref == 1.0
    assert cfg.indicator.k_sharpness == 1000.0
    assert cfg.indicator.k_threshold == 0.99
    assert cfg.indicator.alpha_gp == 0.05
    assert cfg.indicator.alpha_nitsche == 1.0
    assert cfg.gcmma.move == 0.04
    assert cfg.gcmma.asy_decrease == 0.5
    assert cfg.gcmma.asy_init == 0.7
    assert cfg.gcmma.asy_increase == 1.43
    assert cfg.gcmma.constraint_penalty == 100.0
    cfg2 = parse_config(_write(tmp_path, dump_config(cfg), "d.cfg"))
    assert cfg2.flow == cfg.flow
    assert cfg2.indicator == cfg.indicator
    assert cfg2.gcmma == cfg.gcmma
    assert cfg2.solve == cfg.solve


@pytest.mark.parametrize("edit, named", [
    (("max_newton = 25", "max_newton = 25\nnewton_tl = 1e-12"), ("newton_tl", "[solve]")),
    (("[output]", "[solver]\nnewton_tol = 1e-12\n\n[output]"), ("[solver]",)),
], ids=["key", "section"])
def test_config_rejects_unknown_keys_and_sections(tmp_path, edit, named):
    # a typo must not leave the run on a default without a word
    with pytest.raises(ConfigurationError) as exc:
        parse_config(_write(tmp_path, CHANNEL_CFG.replace(*edit)))
    assert all(n in str(exc.value) for n in named)


@pytest.mark.parametrize("edit", [
    ("rho = 1.0", "rho = -1.0"),
    ("[output]", "[gcmma]\nasy_init = 0.3\n\n[output]"),
    ("max_newton = 25", "max_newton = abc"),
    ("max_newton = 25", "max_newton = 25\nscheme = bdf2"),
    ("max_newton = 25", "max_newton = 25\nscheme = bdf2\ndt = 0.05\nn_steps = 0"),
    ("max_newton = 25", "max_newton = -1"),
    ("[output]", "[gcmma]\nmax_inner = -1\n\n[output]"),
    ("[output]", "[gcmma]\nmax_outer = -1\n\n[output]"),
], ids=["rho", "asy_init", "max_newton", "bdf2_without_dt", "bdf2_zero_steps",
        "max_newton_negative", "max_inner_negative", "max_outer_negative"])
def test_cli_bad_config_values_exit_2(tmp_path, capsys, edit):
    path = _write(tmp_path, CHANNEL_CFG.replace(*edit))
    assert cli_main(["analyze", "--config", path]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_pressure_penalty_scope_off_points_to_k_pressure(tmp_path, capsys, monkeypatch):
    # k_pressure = 0 is the one off switch of the pressure penalty
    with pytest.raises(ConfigurationError, match="k_pressure = 0"):
        PhysicsConfig(flow=FlowParams(), pressure_penalty_scope="off")
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, CHANNEL_CFG.replace("scope = indicator", "scope = off"))
    assert cli_main(["analyze", "--config", path]) == 2
    assert "k_pressure = 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_shipped_configs_parse_strictly_and_round_trip(tmp_path):
    # the README example and every benchmark config hold only known keys
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    texts = {"README.md": re.search(r"```ini\n(.*?)```", readme, re.S).group(1)}
    for p in sorted((root / "bench" / "configs").glob("*.cfg")):
        texts[p.name] = p.read_text().replace("{radius}", "0.1")
    assert len(texts) == 5
    for name, text in texts.items():
        cfg = parse_config(_write(tmp_path, text, "a.cfg"))
        dumped = dump_config(cfg)
        assert parse_config(_write(tmp_path, dumped, "b.cfg")) == cfg, name


@pytest.mark.parametrize("port", [
    "optimize_center = true",
    "optimize_radius = true",
    "optimize_radius = true\nradius_bounds = 0.08 0.02",
], ids=["center_no_bounds", "radius_no_bounds", "radius_bounds_reversed"])
def test_cli_port_optimization_needs_bounds_exit_2(tmp_path, capsys, port):
    text = CHANNEL_CFG.replace("[criterion.cd]", "[port.exit]\nface = right\n"
                               "center = 1.6 0.2\nradius = 0.05\n"
                               f"{port}\n\n[criterion.cd]")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigurationError, match="port.exit"):
        parse_config(path)
    assert cli_main(["analyze", "--config", path]) == 2
    assert "_bounds" in capsys.readouterr().err


@pytest.mark.parametrize("port,message", [
    ("face = diagonal\ncenter = 1.6 0.2\nradius = 0.05", "'diagonal'"),
    ("face = right\ncenter = 1.6 0.2 0.0\nradius = 0.05", "2 coordinates"),
    ("face = right\ncenter = 1.6 0.2\nradius = -0.05", "positive"),
    ("face = right\ncenter = 1.6 0.2\nradius = 0.05\nslab_elements = 0", "at least 1"),
], ids=["unknown_face", "three_coordinate_center", "negative_radius", "empty_slab"])
def test_cli_bad_port_exit_2(tmp_path, capsys, port, message):
    text = CHANNEL_CFG.replace("[criterion.cd]", f"[port.x]\n{port}\n\n[criterion.cd]")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigurationError, match="port.x"):
        parse_config(path)
    assert cli_main(["analyze", "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (("surface = interface\ndirection", "surface = nowhere\ndirection"), "'nowhere'"),
    (("surface = interface\ndirection", "surface = volume\ndirection"), "'volume'"),
    (("terms = 1.0: ti - to", "terms = 1.0: nothing"), "'nothing'"),
    (("[solve]", "[constraint.c]\nkind = volume_frac\ncriterion = nothing\nfrac = 0.5\n\n"
      "[solve]"), "'nothing'"),
    (("[solve]", "[constraint.c]\nkind = mass_window_low\ncriterion = to\n"
      "inlets = ti nothing\nfrac = 1.0\ntol = 0.1\n\n[solve]"), "'nothing'"),
    (("[solve]", "[constraint.c]\nkind = pressure_cap\nparts = 1.0: ti | -1.0: nothing\n"
      "reference = 1.0\n\n[solve]"), "'nothing'"),
    (("solid_disk 0.3 0.2 0.08", "solid_disk 0.3 0.2"), "'solid_disk' with 2 numbers"),
    (("solid_disk 0.3 0.2 0.08", "solid_disk 0.3 0.2 0.08 0.05"), "'solid_disk' with 4"),
], ids=["surface_nowhere", "drag_on_volume", "objective_term", "constraint_criterion",
        "constraint_inlets", "constraint_parts", "shape_too_few", "shape_too_many"])
def test_cli_unknown_names_and_shape_arity_exit_2(tmp_path, capsys, edit, message):
    # names are checked against the regions (walls included) and the
    # criteria before any solve, in every command
    path = _write(tmp_path, CHANNEL_CFG.replace(*edit))
    for command in ("analyze", "optimize"):
        assert cli_main([command, "--config", path,
                         "--output", str(tmp_path / command)]) == 2
        assert message in capsys.readouterr().err


def test_cli_unknown_constraint_kind_exit_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # the kind is checked as the config is read: analyze, which never
    # evaluates a constraint, rejects it too, and neither command builds a
    # geometry first
    def no_geometry(self, design):
        raise AssertionError("a geometry was built")

    monkeypatch.setattr(ForwardModel, "geometry", no_geometry)
    path = _write(tmp_path, CHANNEL_CFG.replace(
        "[solve]", "[constraint.c]\nkind = bogus\ncriterion = to\n\n[solve]"))
    for command in ("analyze", "optimize"):
        assert cli_main([command, "--config", path,
                         "--output", str(tmp_path / command)]) == 2
        assert "unknown constraint kind 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (("[transport]\ndiffusivity = 0.01\nalpha_nitsche = 1.0\nalpha_gp = 0.05\n\n", ""),
     "transport disabled"),
    (("[output]", "[solve]\nscheme = bdf2\ndt = 0.05\nn_steps = 2\n\n[output]"),
     "steady-only"),
], ids=["no_transport", "transient"])
def test_cli_species_criterion_config_exit_2_before_any_solve(tmp_path, capsys,
                                                               monkeypatch, edit, message):
    # a ks_target criterion needs the steady species solve of a [transport]
    # section; the model is refused as it is built, before a geometry or an
    # output directory is made
    from test_fixtures import MIXER_CFG

    def no_geometry(self, design):
        raise AssertionError("a geometry was built")

    monkeypatch.setattr(ForwardModel, "geometry", no_geometry)
    assert edit[0] in MIXER_CFG
    path = _write(tmp_path, MIXER_CFG.replace(*edit))
    for command, *args in (("analyze",), ("optimize",),
                           ("sweep", "--parameter", "k_pressure", "--values", "1")):
        outdir = tmp_path / command
        assert cli_main([command, "--config", path, "--output", str(outdir), *args]) == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()


def test_cli_region_named_like_a_generated_wall_exit_2_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # a tagged wall_bottom_0 over part of the bottom leaves the rest to a
    # generated wall of the same name, which a criterion on that name would
    # silently skip
    def no_geometry(self, design):
        raise AssertionError("a geometry was built")

    monkeypatch.setattr(ForwardModel, "geometry", no_geometry)
    path = _write(tmp_path, CHANNEL_CFG.replace(
        "[design]", "[boundary.wall_bottom_0]\nside = bottom\nkind = velocity\n"
        "span = 0.0 0.8\n\n[design]"))
    for command in ("analyze", "optimize"):
        outdir = tmp_path / command
        assert cli_main([command, "--config", path, "--output", str(outdir)]) == 2
        assert "two boundary regions are named 'wall_bottom_0'" in capsys.readouterr().err
        assert not outdir.exists()


def test_criterion_surface_may_name_a_wall(tmp_path):
    cfg = parse_config(_write(tmp_path, CHANNEL_CFG.replace(
        "surface = outlet", "surface = wall_bottom_0")))
    mesh = cfg.build_mesh()
    cfg.check_names(cfg.build_regions(mesh))


@pytest.mark.parametrize("edit, message", [
    (("k_pressure = 1.0", "k_pressure = -1"), "nonnegative"),
    (("direction = 1 0", "direction = 0 0"), "direction"),
    (("span = 0.0 0.4", "span = 0.0 0.5"), "past the end of side left"),
    (("amplitude = 0.3", "amplitude = nan"), "not a finite number"),
    (("rho = 1.0", "rho = inf"), "not a finite number"),
    (("span = 0.0 0.4", "span = 0.0"), "span of region 'inlet' needs 2 numbers"),
    (("[design]", "[transport]\nalpha_gp = -1.0\n\n[design]"), "nonnegative"),
    (("[design]", "[transport]\nalpha_nitsche = -5.0\n\n[design]"), "nonnegative"),
    (("[design]", "[indicator]\nalpha_gp = -1.0\n\n[design]"), "nonnegative"),
    (("[design]", "[indicator]\nalpha_nitsche = -2.0\n\n[design]"), "nonnegative"),
    (("[design]", "[indicator]\npsi_ref = -1.0\n\n[design]"), "psi_ref must be positive"),
    (("[design]", "[indicator]\npsi_ref = 0.0\n\n[design]"), "psi_ref must be positive"),
], ids=["k_pressure", "drag_direction", "span", "amplitude_nan", "rho_inf", "span_one_number",
        "transport_alpha_gp", "transport_alpha_nitsche", "indicator_alpha_gp",
        "indicator_alpha_nitsche", "indicator_psi_ref", "indicator_psi_ref_zero"])
def test_cli_bad_values_exit_2_before_any_solve(tmp_path, capsys, edit, message):
    path = _write(tmp_path, CHANNEL_CFG.replace(*edit))
    assert cli_main(["analyze", "--config", path, "--output", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_cli_sweep_bad_parameter_values_exit_2(tmp_path, capsys):
    path = _write(tmp_path, CHANNEL_CFG)
    assert cli_main(["sweep", "--config", path, "--parameter", "k_pressure",
                     "--values", "1.0,-1.0", "--output", str(tmp_path / "sw")]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert cli_main(["sweep", "--config", path, "--parameter", "alpha_nitsche",
                     "--values", "1.0,nan", "--output", str(tmp_path / "sw")]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sw")


def _readme_channel(tmp_path, radius, extra=""):
    """README's channel config on a 16x4 mesh with the given disk radius."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    for old, new in (("nx = 160", "nx = 16"), ("ny = 40", "ny = 4"),
                     ("solid_disk 0.3 0.2 0.08", f"solid_disk 0.3 0.2 {radius}")):
        assert old in text
        text = text.replace(old, new)
    return _write(tmp_path, text + extra)


def test_cli_analyze_design_without_interface_reads_zero_drag(tmp_path, capsys):
    # at radius 0.08 the filtered level set of the 16x4 mesh never crosses
    # zero: the drag is the empty integral over the empty interface
    path = _readme_channel(tmp_path, 0.08)
    assert cli_main(["analyze", "--config", path, "--output", str(tmp_path / "a")]) == 0
    assert "cd = 0.0\n" in capsys.readouterr().out


def test_cli_optimize_survives_a_trial_design_that_loses_its_interface(tmp_path):
    # a GCMMA trial design of this run dissolves the inclusion
    path = _readme_channel(tmp_path, 0.12, "\n[gcmma]\nmax_outer = 1\n")
    assert cli_main(["optimize", "--config", path, "--output", str(tmp_path / "o")]) == 0


def test_cli_optimize_retries_a_trial_forward_cold(tmp_path, monkeypatch):
    # the first trial forward starts from a NaN warm state, which cannot
    # converge: it retries cold, as an outer forward does
    import cutflow.driver as driver
    transfer, calls = driver.transfer_flow_state, []

    def nan_first(*args):
        calls.append(args)
        U = transfer(*args)
        return np.full_like(U, np.nan) if len(calls) == 1 else U

    monkeypatch.setattr(driver, "transfer_flow_state", nan_first)
    path = _write(tmp_path, OPT_CFG.replace("max_outer = 3", "max_outer = 1"))
    assert cli_main(["optimize", "--config", path, "--output", str(tmp_path / "o")]) == 0
    assert calls


def test_missing_config_file():
    with pytest.raises(ConfigurationError):
        parse_config("/nonexistent/run.cfg")


def test_analysis_produces_outputs(tmp_path):
    path = _write(tmp_path, CHANNEL_CFG)
    cfg = parse_config(path)
    out = str(tmp_path / "out")
    summary = run_analysis(cfg, outdir=out)
    assert os.path.exists(os.path.join(out, "fields_000000.vtk"))
    assert os.path.exists(os.path.join(out, "history.csv"))
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert summary["criteria"]["cd"] > 0
    assert summary["criteria"]["ti"] > summary["criteria"]["to"]
    assert abs(summary["criteria"]["mcirc"]) < 1e-2
    # vtk structure sanity
    lines = open(os.path.join(out, "fields_000000.vtk")).read().splitlines()
    assert lines[0].startswith("# vtk")
    npts = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
    assert npts > 0


def test_analysis_determinism_bitwise(tmp_path):
    path = _write(tmp_path, CHANNEL_CFG)
    cfg = parse_config(path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    run_analysis(cfg, outdir=out1)
    run_analysis(parse_config(path), outdir=out2)
    h1 = open(os.path.join(out1, "history.csv"), "rb").read()
    h2 = open(os.path.join(out2, "history.csv"), "rb").read()
    assert h1 == h2
    v1 = open(os.path.join(out1, "fields_000000.vtk"), "rb").read()
    v2 = open(os.path.join(out2, "fields_000000.vtk"), "rb").read()
    assert v1 == v2


def test_cli_analyze_and_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, CHANNEL_CFG)
    out = str(tmp_path / "cli_out")
    rc = cli_main(["analyze", "--config", path, "--output", out])
    assert rc == 0
    assert "cd" in capsys.readouterr().out
    # configuration error -> exit 2
    bad = CHANNEL_CFG.replace("nx = 32", "nx = 0")
    rc2 = cli_main(["analyze", "--config", _write(tmp_path, bad, "bad.cfg"),
                    "--output", out])
    assert rc2 == 2


def test_cli_empty_fluid_domain_is_config_error(tmp_path):
    solid = CHANNEL_CFG.replace(
        "shapes = fluid_box -1.0 -1.0 3.0 1.0 | solid_disk 0.3 0.2 0.08",
        "shapes = solid_disk 0.8 0.2 5.0")
    rc = cli_main(["analyze", "--config", _write(tmp_path, solid, "solid.cfg"),
                   "--output", str(tmp_path / "o")])
    assert rc == 2


def test_cli_nonconvergence_exit_code(tmp_path):
    hard = CHANNEL_CFG.replace("mu = 1.6e-3", "mu = 1e-9").replace(
        "max_newton = 25", "max_newton = 1")
    out = str(tmp_path / "hard")
    rc = cli_main(["analyze", "--config", _write(tmp_path, hard, "h.cfg"),
                   "--output", out])
    assert rc == 3
    assert os.path.exists(os.path.join(out, "diagnostic.txt"))


def test_config_rejects_iterative_linear_method(tmp_path):
    # only the sparse direct solver exists; a run may not switch silently
    path = _write(tmp_path, CHANNEL_CFG.replace(
        "max_newton = 25", "max_newton = 25\nlinear_method = iterative"))
    with pytest.raises(ConfigurationError):
        parse_config(path)
    assert cli_main(["analyze", "--config", path]) == 2


@pytest.mark.parametrize("error, with_output", [
    (SolverError("sparse LU failed: singular matrix"), True),
    (CapacityError("node 7 needs 9 enrichment levels (cap 8)", node=7), True),
    (SolverError("sparse LU failed: singular matrix"), False),
], ids=["solver", "capacity", "no_output"])
def test_cli_solver_failures_exit_3_with_diagnostic(tmp_path, monkeypatch, error,
                                                    with_output):
    def fail(cfg, outdir=None):
        raise error
    monkeypatch.setattr("cutflow.cli.run_analysis", fail)
    monkeypatch.chdir(tmp_path)  # the configured directory "out" is relative
    argv = ["analyze", "--config", _write(tmp_path, CHANNEL_CFG)]
    out = str(tmp_path / ("o" if with_output else "out"))
    rc = cli_main(argv + ["--output", out] if with_output else argv)
    assert rc == 3
    text = open(os.path.join(out, "diagnostic.txt")).read()
    assert str(error) in text
    assert "trace = None" in text and "step = None" in text


def test_cli_truncated_checkpoint_is_output_error(tmp_path):
    path = _write(tmp_path, OPT_CFG)
    cfg = parse_config(path)
    cfg.gcmma.max_outer = 1
    out_a = str(tmp_path / "a")
    run_optimization(cfg, outdir=out_a)
    ckpt = os.path.join(out_a, "checkpoint.json")
    text = open(ckpt).read()
    with open(ckpt, "w") as f:
        f.write(text[: len(text) // 2])
    rc = cli_main(["optimize", "--config", path, "--output", str(tmp_path / "b"),
                   "--restart", ckpt])
    assert rc == 4


@pytest.mark.parametrize("damage", ["no_iteration", "short_design", "short_optimizer",
                                    "short_warm_design", "short_warm_state",
                                    "not_an_object", "text_iteration", "nan_warm_design",
                                    "zero_normalization"])
def test_cli_restart_from_bad_checkpoint_is_output_error(tmp_path, capsys, damage):
    # a checkpoint that lacks a key a restart reads, holds a value of the
    # wrong type, a number that is not finite, a normalization that is not
    # positive, or a design-sized vector of another length, exits 4 like an
    # unreadable one
    import json

    from cutflow.driver import build_model
    from cutflow.gcmma import GCMMA
    from cutflow.output import write_checkpoint
    path = _write(tmp_path, OPT_CFG)
    cfg = parse_config(path)
    model, _ = build_model(cfg)
    design = cfg.initial_design(model.mesh)
    state = GCMMA(design.lower, design.upper).init_state(design.values)
    cm, _ = model.geometry(design)
    ckpt = str(tmp_path / "checkpoint.json")
    write_checkpoint(ckpt, design, state, None, 1,
                     extra={"warm_state": [0.0] * (3 * cm.n_dofs),
                            "warm_design": design.values.tolist()})
    payload = json.loads(pathlib.Path(ckpt).read_text())
    if damage == "no_iteration":
        del payload["iteration"]
    elif damage == "short_design":
        payload["design"] = payload["design"][:-5]
    elif damage == "short_optimizer":
        payload["optimizer"]["x"] = payload["optimizer"]["x"][:-5]
    elif damage == "short_warm_design":
        payload["extra"]["warm_design"] = payload["extra"]["warm_design"][:-5]
    elif damage == "short_warm_state":
        payload["extra"]["warm_state"] = payload["extra"]["warm_state"][:-3]
    elif damage == "text_iteration":
        payload["iteration"] = "1"
    elif damage == "nan_warm_design":
        payload["extra"]["warm_design"][3] = float("nan")
    elif damage == "zero_normalization":
        payload["normalization"] = {"0": 0.0}
    else:
        payload = [payload]
    pathlib.Path(ckpt).write_text(json.dumps(payload))
    rc = cli_main(["optimize", "--config", path, "--output", str(tmp_path / "out"),
                   "--restart", ckpt])
    assert rc == 4
    assert "checkpoint" in capsys.readouterr().err


def test_optimization_runs_and_restart_reproduces(tmp_path):
    path = _write(tmp_path, OPT_CFG)
    cfg = parse_config(path)
    out_full = str(tmp_path / "full")
    summary = run_optimization(cfg, outdir=out_full)
    assert summary["iterations"] == 3
    full_rows = open(os.path.join(out_full, "history.csv")).read().splitlines()
    assert len(full_rows) == 4  # header + 3 iterations

    # run 2 iterations, checkpoint, then restart and compare the third row
    cfg2 = parse_config(path)
    cfg2.gcmma.max_outer = 2
    out_a = str(tmp_path / "a")
    run_optimization(cfg2, outdir=out_a)
    cfg3 = parse_config(path)
    cfg3.gcmma.max_outer = 3
    out_b = str(tmp_path / "b")
    run_optimization(cfg3, outdir=out_b,
                     restart=os.path.join(out_a, "checkpoint.json"))
    row_b = open(os.path.join(out_b, "history.csv")).read().splitlines()[1]
    assert row_b == full_rows[3]  # bit-identical third (index 2) iteration

    # a restart into the run's own directory keeps the rows before the
    # checkpoint, so the file matches the uninterrupted run's byte for byte
    cfg4 = parse_config(path)
    cfg4.gcmma.max_outer = 3
    run_optimization(cfg4, outdir=out_a,
                     restart=os.path.join(out_a, "checkpoint.json"))
    assert open(os.path.join(out_a, "history.csv"), "rb").read() == \
        open(os.path.join(out_full, "history.csv"), "rb").read()


def test_interrupted_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    import cutflow.output as output
    from cutflow.design import DesignVector
    from cutflow.errors import OutputError
    design = DesignVector(values=np.arange(3.0), lower=np.zeros(3),
                          upper=np.full(3, 2.0), n_nodal=3)
    path = str(tmp_path / "checkpoint.json")
    output.write_checkpoint(path, design, None, None, 1)

    def fsync_fails(fd):
        raise OSError("no space left on device")
    # the new payload is written to the temporary file, then fails to reach the disk
    monkeypatch.setattr(output.os, "fsync", fsync_fails)
    with pytest.raises(OutputError):
        output.write_checkpoint(path, design, None, None, 2)
    assert output.read_checkpoint(path)["iteration"] == 1
    assert os.listdir(tmp_path) == ["checkpoint.json"]


def test_restart_from_finished_run_takes_no_iteration(tmp_path):
    from cutflow.output import read_checkpoint
    path = _write(tmp_path, OPT_CFG)
    cfg = parse_config(path)
    cfg.gcmma.max_outer = 1
    out_a = str(tmp_path / "a")
    run_optimization(cfg, outdir=out_a)
    ckpt = os.path.join(out_a, "checkpoint.json")
    z_prev = read_checkpoint(ckpt)["extra"]["Z_prev"]
    assert z_prev is not None

    cfg2 = parse_config(path)
    cfg2.gcmma.max_outer = 1
    out_b = str(tmp_path / "b")
    summary = run_optimization(cfg2, outdir=out_b, restart=ckpt)
    assert summary["iterations"] == 0
    assert summary["objective"] == z_prev
    assert summary["feasible"] is None
    rows = open(os.path.join(out_b, "history.csv")).read().splitlines()
    assert len(rows) == 1  # header only
    assert read_checkpoint(os.path.join(out_b, "checkpoint.json"))["iteration"] == 1


def test_optimization_determinism_bitwise(tmp_path):
    path = _write(tmp_path, OPT_CFG)
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    run_optimization(parse_config(path), outdir=out1)
    run_optimization(parse_config(path), outdir=out2)
    assert open(os.path.join(out1, "history.csv"), "rb").read() == \
        open(os.path.join(out2, "history.csv"), "rb").read()


def _forward_log(monkeypatch):
    """Events of a run, in order: 'G' for each forward (each builds one
    geometry), 'S' for each GCMMA step and 'T' for each trial it evaluates."""
    from cutflow.gcmma import GCMMA
    events, geometry, step = [], ForwardModel.geometry, GCMMA.step

    def logged_geometry(self, design):
        events.append("G")
        return geometry(self, design)

    def logged_step(self, state, f0, df0, fval, dfdx, evaluate=None):
        events.append("S")

        def logged_evaluate(x):
            events.append("T")
            return evaluate(x)
        return step(self, state, f0, df0, fval, dfdx, evaluate=logged_evaluate)

    monkeypatch.setattr(ForwardModel, "geometry", logged_geometry)
    monkeypatch.setattr(GCMMA, "step", logged_step)
    return events


@pytest.mark.parametrize("scheme", ["", "[solve]\nscheme = bdf2\ndt = 0.05\nn_steps = 4\n"
                                    "newton_tol = 1e-12\n\n"], ids=["steady", "bdf2"])
def test_outer_iteration_takes_the_accepted_trial_forward(tmp_path, monkeypatch, scheme):
    # the first iteration solves its design; every later one takes the
    # forward of the trial its step accepted, and makes none of its own
    events = _forward_log(monkeypatch)
    cfg = parse_config(_write(tmp_path, OPT_CFG.replace("[output]", scheme + "[output]")))
    assert run_optimization(cfg, outdir=str(tmp_path / "o"))["iterations"] == 3
    assert re.fullmatch(r"G(S(TG)+){3}", "".join(events)), events


def test_outer_iteration_solves_when_no_trial_is(tmp_path, monkeypatch):
    # max_inner = 0: each step takes its first subproblem's point unsolved
    events = _forward_log(monkeypatch)
    cfg = parse_config(_write(tmp_path, OPT_CFG.replace(
        "max_outer = 3", "max_outer = 3\nmax_inner = 0")))
    assert run_optimization(cfg, outdir=str(tmp_path / "o"))["iterations"] == 3
    assert "".join(events) == "GS" * 3


def test_transfer_flow_state_between_geometries():
    from cutflow.cut import build_cut_model
    from cutflow.grid import build_mesh
    from fixtures_common import perturb

    def dof_of(cm):
        return {(int(node), int(lvl)): d
                for d, (node, lvl) in enumerate(zip(cm.dof_node, cm.dof_level))}

    def check(cm1, cm2, U1):
        """Every block of every new dof against a per-dof oracle; returns
        how many dofs took their own level, level 0 and zero."""
        U2 = transfer_flow_state(cm1, cm2, U1)
        assert U2.shape[0] == 3 * cm2.n_dofs
        n1, n2 = cm1.n_dofs, cm2.n_dofs
        old = dof_of(cm1)
        cases = [0, 0, 0]
        for (node, lvl), d2 in dof_of(cm2).items():
            d1 = old.get((node, lvl), old.get((node, 0)))
            cases[0 if (node, lvl) in old else 1 if d1 is not None else 2] += 1
            for b in range(3):  # ux, uy, p
                expect = 0.0 if d1 is None else U1[b * n1 + d1]
                assert U2[b * n2 + d2] == expect
        return cases

    rng = np.random.default_rng(0)
    mesh = build_mesh(((0, 0), (1, 1)), (8, 8))
    phi1 = perturb(0.2 - np.hypot(mesh.nodes[:, 0] - 0.4,
                                  mesh.nodes[:, 1] - 0.5), mesh.h)
    phi2 = perturb(0.2 - np.hypot(mesh.nodes[:, 0] - 0.45,
                                  mesh.nodes[:, 1] - 0.5), mesh.h)
    cm1 = build_cut_model(mesh, phi1)
    cm2 = build_cut_model(mesh, phi2)
    U1 = rng.normal(size=3 * cm1.n_dofs)
    # values at nodes present in both carry over
    assert check(cm1, cm2, U1)[0] > 0
    assert np.array_equal(transfer_flow_state(cm1, cm1, U1), U1)

    # one channel to two channels split by a solid band on the node row
    # y = 4h: those nodes gain a level 1 that falls back to level 0, and
    # the rows below the old channel start from zero
    mesh = build_mesh(((0, 0), (1, 1)), (9, 9))
    y, h = mesh.nodes[:, 1], mesh.h
    one = build_cut_model(mesh, perturb(np.maximum(2.5 * h - y, y - 6.5 * h), h))
    two = build_cut_model(mesh, perturb(np.minimum(np.maximum(1.5 * h - y, y - 3.5 * h),
                                                   np.maximum(4.5 * h - y, y - 6.5 * h)), h))
    assert two.dof_level.max() == 1 and one.dof_level.max() == 0
    U1 = rng.normal(size=3 * one.n_dofs)
    assert all(k > 0 for k in check(one, two, U1))
    U2 = rng.normal(size=3 * two.n_dofs)
    assert np.array_equal(transfer_flow_state(two, two, U2), U2)


def test_sweep_driver(tmp_path):
    from cutflow.driver import run_sweep
    path = _write(tmp_path, CHANNEL_CFG)
    cfg = parse_config(path)
    results = run_sweep(cfg, "k_pressure", [1e-6, 1.0],
                        outdir=str(tmp_path / "sw"))
    assert len(results) == 2
    # the circle fixture has no puddles, so k_p is inert here
    assert results[0]["criteria"]["cd"] == pytest.approx(
        results[1]["criteria"]["cd"], rel=1e-12)
    assert os.path.exists(os.path.join(str(tmp_path / "sw"), "sweep.csv"))


def test_sweep_rejects_values_that_share_a_run_directory(tmp_path, capsys):
    # run directories are named <parameter>_<value:g>: values that print
    # alike would overwrite each other's fields and summary
    from cutflow.driver import run_sweep
    path = _write(tmp_path, CHANNEL_CFG)
    cfg = parse_config(path)
    for values, name in (([1e-07, 1.0000001e-07], "k_pressure_1e-07"),
                         ([2.0, 1.0, 2.0], "k_pressure_2")):
        with pytest.raises(ConfigurationError, match=name):
            run_sweep(cfg, "k_pressure", values, outdir=str(tmp_path / "sw"))
    with pytest.raises(ConfigurationError, match="'mu' not supported"):
        run_sweep(cfg, "mu", [1.0], outdir=str(tmp_path / "sw"))
    assert not os.path.exists(tmp_path / "sw")
    assert cli_main(["sweep", "--config", path, "--parameter", "k_pressure",
                     "--values", "1e-07,1.0000001e-07", "--output",
                     str(tmp_path / "sw")]) == 2
    assert "k_pressure_1e-07" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sw")


def test_cli_sweep_non_numeric_values_exit_2(tmp_path, capsys):
    path = _write(tmp_path, CHANNEL_CFG)
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--config", path, "--parameter", "k_pressure",
                  "--values", "1,abc", "--output", str(tmp_path / "sw")])
    assert exc.value.code == 2
    assert "'1,abc'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sw")


@pytest.mark.parametrize("arg, value", [("--vars", "0"), ("--vars", "-1"),
                                        ("--step", "0"), ("--step", "-1e-5"),
                                        ("--step", "nan"), ("--step", "inf")])
def test_cli_gradcheck_bad_arguments_exit_2(tmp_path, capsys, arg, value):
    path = _write(tmp_path, CHANNEL_CFG)
    with pytest.raises(SystemExit) as exc:
        cli_main(["gradcheck", "--config", path, f"{arg}={value}",
                  "--output", str(tmp_path / "gc")])
    assert exc.value.code == 2
    assert "not a positive" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "gc")


def test_gradcheck_driver(tmp_path):
    path = _write(tmp_path, OPT_CFG)
    cfg = parse_config(path)
    rows = __import__("cutflow.driver", fromlist=["run_gradcheck"]).run_gradcheck(
        cfg, outdir=str(tmp_path / "gc"), n_vars=3, step=1e-5)
    assert len(rows) == 3
    for _, an, fd, rel in rows:
        assert rel < 1e-3
    assert os.path.exists(os.path.join(str(tmp_path / "gc"), "gradcheck.csv"))


def test_gradcheck_follows_bdf2_scheme(tmp_path):
    # a BDF2 config is checked against central differences of the march:
    # both the adjoint column and the FD column are transient derivatives
    from cutflow.driver import build_model, run_gradcheck
    # three short steps from rest stay far from the steady state (the
    # steady gradient differs by about 3%)
    text = OPT_CFG.replace("[output]", "[solve]\nscheme = bdf2\ndt = 0.01\n"
                           "n_steps = 3\nnewton_tol = 1e-10\n\n[output]")
    text = text.replace("surface = outlet\n", "surface = outlet\ntime_sampling = average\n", 1)
    cfg = parse_config(_write(tmp_path, text))
    step = 1e-5
    rows = run_gradcheck(cfg, outdir=str(tmp_path / "gc"), n_vars=3, step=step)
    model, problem = build_model(cfg)
    design = cfg.initial_design(model.mesh)
    problem.capture_normalization(model.solve_transient(design).crit_values)
    for idx, an, fd, rel in rows:
        assert rel < 1e-3
        dv = replace(design, values=design.values.copy())
        dv.values[idx] += step
        Zp = problem.objective_value(model.solve_transient(dv).crit_values)
        dv.values[idx] -= 2 * step
        Zm = problem.objective_value(model.solve_transient(dv).crit_values)
        march_fd = (Zp - Zm) / (2 * step)
        assert abs(an - march_fd) / max(abs(an), abs(march_fd)) < 1e-3


def test_bdf2_optimization_with_tight_newton_tol(tmp_path, monkeypatch):
    # at newton_tol 1e-12 the fourth step starts so close to its solution
    # that tol * r0 sits below the residual's rounding noise; the Newton
    # floor follows that noise, so no step stalls or fails
    import cutflow.solve as solve_mod
    text = OPT_CFG.replace("[output]", "[solve]\nscheme = bdf2\ndt = 0.05\n"
                           "n_steps = 4\nnewton_tol = 1e-12\n\n[output]")
    cfg = parse_config(_write(tmp_path, text))
    traces = []
    newton = solve_mod.newton_solve

    def recording(*args, **kwargs):
        out = newton(*args, **kwargs)
        traces.append(out[1])
        return out

    monkeypatch.setattr(solve_mod, "newton_solve", recording)
    summary = run_optimization(cfg, outdir=str(tmp_path / "o"))
    assert summary["iterations"] == 3
    assert len(traces) >= 3 * 4
    assert max(len(t) - 1 for t in traces) <= 6

