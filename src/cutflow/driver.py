"""Batch run orchestration behind the command line interface.

Analysis runs solve one geometry and report criteria; optimization runs
drive the GCMMA loop with warm-started forward solves, adjoint gradients,
continuation on constraint tolerances, history CSV output and restartable
checkpoints. An optimization keeps the result of the last GCMMA trial it
solved; the inner loop accepts that trial's design, so the next outer
iteration takes the kept result instead of solving the design again. A
trial whose forward fails (SolverError, or NonconvergenceError after its
cold retry) is a rejected trial, which GCMMA answers with a more
conservative subproblem; an outer forward's failure ends the run. The
gradient-check mode compares adjoint design derivatives against global
finite differences of the full pipeline; sweep mode reruns an analysis
over a list of parameter values.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, NonconvergenceError, OutputError, SolverError
from .gcmma import GCMMA, GcmmaState
from .output import (HistoryWriter, ensure_dir, read_checkpoint, write_checkpoint,
                     write_vtk_fields)
from .pipeline import ForwardModel
from .sensitivities import total_design_gradient

# bench/spans.py wraps this name; it goes when stage timers replace the wrappers
transient_total_gradient = total_design_gradient


def build_model(cfg):
    mesh = cfg.build_mesh()
    regions = cfg.build_regions(mesh)
    cfg.check_names(regions)
    lsmap = cfg.build_level_set_map(mesh)
    model = ForwardModel(mesh=mesh, lsmap=lsmap, regions=regions,
                         physics=cfg.build_physics(), criteria=cfg.criteria,
                         solve_config=cfg.solve)
    problem = cfg.build_problem()
    return model, problem


def transfer_flow_state(old_cm, new_cm, U_old):
    """Map a flow state between enrichment tables (warm starts).

    Each new dof takes the old value at its (node, level), else at the
    node's level 0, else zero.
    """
    table = old_cm.dof_table()
    d_old = table[new_cm.dof_node, new_cm.dof_level]
    d_old = np.where(d_old < 0, table[new_cm.dof_node, 0], d_old)
    found = d_old >= 0
    U_new = np.zeros((3, new_cm.n_dofs))
    U_new[:, found] = np.asarray(U_old).reshape(3, old_cm.n_dofs)[:, d_old[found]]
    return U_new.ravel()


def run_analysis(cfg, outdir=None):
    """Solve the configured geometry once and report the criteria."""
    outdir = outdir or cfg.output.directory
    model, problem = build_model(cfg)
    design = cfg.initial_design(model.mesh)
    ensure_dir(outdir)  # a config error leaves no output directory behind
    result = model.analyze(design)
    write_vtk_fields(
        os.path.join(outdir, "fields_000000.vtk"), result.cm,
        flow_state=result.flow_state, species_state=result.species_state,
        psi=result.psi, indicator_params=model.physics.indicator,
    )
    names = [c.name for c in cfg.criteria]
    hist = HistoryWriter(os.path.join(outdir, "history.csv"), names, 0)
    hist.append(0, 0.0, [], result.crit_values, len(result.newton_trace), True)
    summary = {
        "criteria": dict(result.crit_values),
        "newton_iterations": len(result.newton_trace),
        "n_dofs": result.ctx.n * 3,
        "fluid_volume": result.cm.fluid_volume(),
        "surface_area": result.cm.surface_length(),
        "n_regions": result.cm.n_regions,
    }
    with open(os.path.join(outdir, "summary.txt"), "w") as f:
        for k, v in summary.items():
            f.write(f"{k} = {v!r}\n")
    return summary


def run_optimization(cfg, outdir=None, restart=None):
    """GCMMA optimization loop; returns a run summary dict."""
    outdir = outdir or cfg.output.directory
    model, problem = build_model(cfg)
    design = cfg.initial_design(model.mesh)
    ensure_dir(outdir)
    area = cfg.domain_area()
    transient = cfg.solve.scheme == "bdf2"

    optimizer = GCMMA(design.lower, design.upper, cfg.gcmma)
    state = optimizer.init_state(design.values)
    start_iter = 0
    warm = {"cm": None, "U": None}
    Z_prev = None
    first_feasible_Z = None
    if restart is not None:
        design.values, opt, normalization, start_iter, extra = _read_restart(
            restart, design.n, len(problem.objective))
        if opt is not None:
            state = opt
        if normalization is not None:
            problem.normalization = normalization
        if extra.get("warm_state") is not None and not transient:
            warm["cm"], _ = model.geometry(replace(design, values=extra["warm_design"]))
            warm["U"] = extra["warm_state"]
            if warm["U"].shape != (3 * warm["cm"].n_dofs,):
                raise OutputError(f"checkpoint {restart}: warm_state does not fit "
                                  "the geometry of its warm_design")
        Z_prev, first_feasible_Z = extra.get("Z_prev"), extra.get("first_feasible_Z")

    names = [c.name for c in cfg.criteria]
    # a restart into the same directory keeps the rows before the checkpoint
    hist = HistoryWriter(os.path.join(outdir, "history.csv"), names,
                         len(cfg.constraints), keep_below=start_iter)

    def forward(dv):
        """The run's one forward: warm-started where a warm state is kept
        (steady runs), with one cold retry on its geometry if that does not
        converge."""
        if warm["cm"] is None:
            return model.analyze(dv)
        cm, ctx = model.geometry(dv)
        w = transfer_flow_state(warm["cm"], cm, warm["U"])
        try:
            return _steady_on_geometry(model, cm, ctx, w)
        except NonconvergenceError:
            return _steady_on_geometry(model, cm, ctx, None)

    # the last trial's result under its design's bytes; warm changes only
    # after an outer forward, so it is the result the outer loop would get
    kept = {}

    def evaluate_values(x):
        """(Z, g) of a GCMMA trial design, or None when its forward fails:
        GCMMA rejects that trial and solves a more conservative subproblem."""
        kept.clear()
        dv = replace(design, values=np.array(x, dtype=float))
        try:
            res = kept[dv.values.tobytes()] = forward(dv)
        except (SolverError, NonconvergenceError):
            return None
        vals = res.crit_values
        Z = problem.objective_value(vals)
        g = np.array([con.evaluate(vals, area, it)[0] for con in problem.constraints])
        return Z, g

    summary = {"iterations": 0, "converged": False, "feasible": False,
               "objective": None, "first_feasible_objective": None,
               "objective_history": [], "constraint_history": []}
    warm_design_values = design.values.copy()

    def checkpoint():
        write_checkpoint(
            os.path.join(outdir, "checkpoint.json"), design, state,
            problem.normalization, it,
            extra={
                "warm_state": None if warm["U"] is None else warm["U"].tolist(),
                "warm_design": warm_design_values.tolist(),
                "Z_prev": Z_prev,
                "first_feasible_Z": first_feasible_Z,
            })

    # a checkpoint of a finished run leaves no iteration to take
    Z, feasible = Z_prev, None
    it = start_iter
    max_outer = cfg.gcmma.max_outer
    while it < max_outer:
        design.values = design.clipped(design.values)
        result = kept.pop(design.values.tobytes(), None)
        kept.clear()  # a trial of another design: the inner loop hit max_inner
        if result is None:
            result = forward(design)
        warm_design_values = design.values.copy()
        if not transient:
            warm["cm"], warm["U"] = result.cm, result.flow_state

        values = result.crit_values
        if problem.normalization is None:
            problem.capture_normalization(values)

        Z, g, dZ, dg, report = total_design_gradient(
            model, result, problem, design, area, iteration=it)

        feasible = bool(np.all(g <= cfg.gcmma.tol_feasibility))
        if feasible and first_feasible_Z is None:
            first_feasible_Z = Z
        hist.append(it, Z, list(g), values, len(result.newton_trace), feasible)
        summary["objective_history"].append(Z)
        summary["constraint_history"].append(list(map(float, g)))

        if cfg.output.field_every and it % cfg.output.field_every == 0:
            write_vtk_fields(
                os.path.join(outdir, f"fields_{it:06d}.vtk"), result.cm,
                flow_state=result.flow_state, species_state=result.species_state,
                psi=result.psi, indicator_params=model.physics.indicator)

        if (Z_prev is not None and feasible
                and abs(Z - Z_prev) <= cfg.gcmma.tol_objective * abs(Z_prev)):
            summary["converged"] = True
            it += 1
            break
        Z_prev = Z

        dg_mat = dg.reshape(len(problem.constraints), -1) if len(
            problem.constraints) else np.zeros((0, design.n))
        state, diag = optimizer.step(state, Z, dZ, np.asarray(g), dg_mat,
                                     evaluate=evaluate_values)
        design.values = state.x.copy()
        it += 1
        # checkpoint after the step: a restart resumes with the identical
        # warm state, so the continuation is reproducible
        if cfg.output.checkpoint_every and it % cfg.output.checkpoint_every == 0:
            checkpoint()

    summary["iterations"] = it - start_iter
    summary["objective"] = Z
    summary["feasible"] = feasible
    summary["first_feasible_objective"] = first_feasible_Z
    checkpoint()
    return summary


def _steady_on_geometry(model, cm, ctx, warm_state):
    """model.solve_steady on an already built geometry (bench/spans.py
    times the warm-started forward through this name)."""
    return model.solve_steady(None, warm_state, geometry=(cm, ctx))


def _read_restart(path, n, n_terms):
    """(design values, optimizer state, normalization, iteration, extra) of
    a checkpoint, converted for a restart (optimizer state and
    normalization may be None). OutputError, like an unreadable checkpoint,
    for a missing key, a value of the wrong type (the iteration a count,
    vectors and Z values numbers), a number that is not finite, a
    normalization without one positive value per objective term (n_terms),
    or a design-sized vector (design, warm_design, the optimizer's) without
    the configured n entries."""
    payload = read_checkpoint(path)
    try:  # a missing key fails at its lookup, a bad value at its conversion
        iteration = payload["iteration"]
        if type(iteration) is not int or iteration < 0:
            raise ValueError(f"iteration {iteration!r} is not a count")
        design = np.asarray(payload["design"], dtype=float)
        opt = payload["optimizer"]
        state = None if opt is None else GcmmaState.from_dict(opt)
        normalization = payload["normalization"]
        if normalization is not None:
            normalization = {int(k): float(v) for k, v in normalization.items()}
            if sorted(normalization) != list(range(n_terms)) or \
                    not all(v > 0 for v in normalization.values()):
                raise ValueError(f"normalization {normalization!r} is not one positive "
                                 f"value per objective term")
        extra = dict(payload.get("extra") or {})
        for key in ("Z_prev", "first_feasible_Z"):
            if extra.get(key) is not None:
                extra[key] = float(extra[key])
        vectors = {"design": design}
        if state is not None:
            vectors.update((f"optimizer {k}", getattr(state, k))
                           for k in ("x", "x_old1", "x_old2", "low", "upp"))
        if extra.get("warm_state") is not None:
            extra["warm_state"] = np.asarray(extra["warm_state"], dtype=float)
            vectors["warm_design"] = extra["warm_design"] = np.asarray(extra["warm_design"],
                                                                        dtype=float)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise OutputError(f"checkpoint {path} is incomplete or malformed: "
                          f"{type(exc).__name__}: {exc}") from exc
    for name, v in vectors.items():
        if v is not None and v.shape != (n,):
            raise OutputError(f"checkpoint {path}: {name} has shape {v.shape}, "
                              f"the configured design has {n} entries")
    numbers = [*vectors.values(), *(normalization or {}).values(),
               *(extra.get(k) for k in ("warm_state", "Z_prev", "first_feasible_Z"))]
    if not all(np.isfinite(v).all() for v in numbers if v is not None):
        raise OutputError(f"checkpoint {path} holds a number that is not finite")
    return design, state, normalization, iteration, extra


def run_gradcheck(cfg, outdir=None, n_vars=5, step=1e-5):
    """Adjoint gradients vs global central FD on random design variables.

    Both follow the configured scheme: a steady solve, or a BDF2 march
    with its transient adjoint.
    """
    outdir = outdir or cfg.output.directory
    model, problem = build_model(cfg)
    design = cfg.initial_design(model.mesh)
    ensure_dir(outdir)
    area = cfg.domain_area()
    result = model.analyze(design)
    if problem.normalization is None:
        problem.capture_normalization(result.crit_values)
    Z, g, dZ, dg, report = total_design_gradient(model, result, problem, design, area)

    rng = np.random.default_rng(7)  # fixed: every check picks the same variables
    # prefer variables whose gradient is significant (near cut elements)
    mag = np.abs(dZ)
    candidates = np.nonzero(mag > 0.01 * mag.max())[0]
    if candidates.shape[0] == 0:
        candidates = np.arange(design.n)
    pick = rng.choice(candidates, size=min(n_vars, candidates.shape[0]),
                      replace=False)

    rows = []
    for idx in pick:
        dv = replace(design, values=design.values.copy())
        dv.values[idx] += step
        Zp = problem.objective_value(model.analyze(dv).crit_values)
        dv.values[idx] -= 2 * step
        Zm = problem.objective_value(model.analyze(dv).crit_values)
        fd = (Zp - Zm) / (2 * step)
        an = dZ[idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-30)
        rows.append((int(idx), an, fd, rel))

    path = os.path.join(outdir, "gradcheck.csv")
    with open(path, "w") as f:
        f.write("variable,adjoint,fd,rel_error\n")
        for idx, an, fd, rel in rows:
            f.write(f"{idx},{an!r},{fd!r},{rel!r}\n")
    return rows


def run_sweep(cfg, parameter, values, outdir=None):
    """Re-run the analysis for each value of a named flow parameter, each in
    its own directory <parameter>_<value:g>."""
    if parameter not in ("k_pressure", "alpha_nitsche"):
        raise ConfigurationError(f"sweep parameter {parameter!r} not supported")
    dirs = [f"{parameter}_{v:g}" for v in values]
    repeated = sorted({d for d in dirs if dirs.count(d) > 1})
    if repeated:
        raise ConfigurationError(f"sweep values share a run directory: {', '.join(repeated)}")
    try:
        flows = [replace(cfg.flow, **{parameter: float(v)}) for v in values]
    except ValueError as exc:
        raise ConfigurationError(f"sweep value of {parameter}: {exc}") from exc
    outdir = outdir or cfg.output.directory
    results = []
    for v, d, flow in zip(values, dirs, flows):
        sub = replace(cfg, flow=flow)
        summary = run_analysis(sub, outdir=os.path.join(outdir, d))
        summary["parameter"] = float(v)
        results.append(summary)
    ensure_dir(outdir)  # after the first run, which checks the config
    path = os.path.join(outdir, "sweep.csv")
    with open(path, "w") as f:
        names = sorted(results[0]["criteria"]) if results else []
        f.write("value," + ",".join(names) + "\n")
        for r in results:
            f.write(",".join([repr(r["parameter"])]
                             + [repr(r["criteria"][k]) for k in names]) + "\n")
    return results
