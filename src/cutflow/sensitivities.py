"""Discrete adjoints and total design derivatives.

The forward pipeline is level set -> cut geometry -> indicator -> flow ->
species -> criteria. Adjoints are solved in reverse block order (species,
flow, indicator), each block reusing one transposed factorization for all
functionals. The BDF2-marched flow has one backward sweep,
`adjoint_transient`, which carries every functional as one column of a
right-hand-side block, so each step is factorized once.

Geometric partials of residuals and criteria are computed
semi-analytically by one engine, `_recut_partials`. Per intersected
element and corner it re-cuts that element locally with the enrichment
frozen and re-evaluates a caller's payload, built from the same integrand
kernels the global assembly uses. The steady gradient, the transient
gradient and the residual audit matrix differ only in their payloads.
Each corner's partial is found by the first of these that succeeds:

1. a central difference with step FD_STEP_FRACTION times the mesh size;
2. the same with the step halved, up to MAX_STEP_HALVINGS times, while a
   re-cut flips a corner sign or changes the pieces (ValueError);
3. a one-sided full step away from the sign change; the node is flagged;
4. none: the node is flagged and contributes nothing.

Ghost-penalty terms integrate over full facets and carry no geometric
dependence, so they drop out of the partials. The velocity-dependent
penalty factors are frozen identically in the forward linearization and
here, so each adjoint operator is the exact transpose of the forward one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import flow as flow_mod
from . import transport as transport_mod
from .criteria import GEOMETRIC_KINDS, evaluate_criterion, ks_local_sum
from .forms import element_context
from .cut import CUT
from .solve import bdf_slot

FD_STEP_FRACTION = 1e-4  # geometric FD step, as a fraction of h
MAX_STEP_HALVINGS = 4


@dataclass
class FunctionalAdjoint:
    """Adjoint vectors of one functional (objective or constraint)."""

    dcrit: dict  # d(functional)/d(criterion value)
    lam_flow: np.ndarray = None
    lam_species: np.ndarray = None
    lam_psi: np.ndarray = None


@dataclass
class GradientReport:
    flagged_nodes: list = field(default_factory=list)


def _functional_state_partials(functional_dcrit, crit_partials, n):
    """Assemble dF/du and dF/dc from criterion chain weights."""
    dflow = np.zeros(3 * n)
    dspecies = np.zeros(n)
    for name, w in functional_dcrit.items():
        cv = crit_partials[name]
        if cv.d_flow is not None:
            dflow += w * cv.d_flow
        if cv.d_species is not None:
            dspecies += w * cv.d_species
    return dflow, dspecies


def steady_adjoints(model, result, functionals):
    """Solve the adjoint cascade for a list of functionals.

    functionals: list of dicts mapping criterion name -> dF/d(criterion).
    Returns a list of FunctionalAdjoint in the same order.
    """
    ctx = result.ctx
    n = ctx.n
    params = model.physics.flow
    _, J_f = flow_mod.assemble_flow(
        ctx, params, result.flow_state, coeff_state=result.flow_state,
        psibar=result.psibar_qp,
    )
    lu_f = spla.splu(J_f.T.tocsc())

    has_species = result.species_state is not None
    if has_species:
        tparams = model.physics.transport
        _, J_c = transport_mod.assemble_species(
            ctx, tparams, result.species_state, result.flow_state
        )
        lu_c = spla.splu(J_c.T.tocsc())
        C_cu = transport_mod.species_flow_jacobian(
            ctx, tparams, result.species_state, result.flow_state
        )

    has_psi = result.psi is not None
    if has_psi:
        _, J_psi = transport_mod.assemble_indicator(ctx, model.physics.indicator,
                                                    result.psi)
        lu_psi = spla.splu(J_psi.T.tocsc())
        C_fpsi = flow_mod.flow_indicator_jacobian(
            ctx, params, result.flow_state, result.psi, model.physics.indicator
        )

    out = []
    for dcrit in functionals:
        adj = FunctionalAdjoint(dcrit=dict(dcrit))
        dflow, dspecies = _functional_state_partials(dcrit, result.crit_partials, n)
        if has_species:
            adj.lam_species = lu_c.solve(-dspecies)
            rhs_flow = -dflow - C_cu.T @ adj.lam_species
        else:
            adj.lam_species = None
            rhs_flow = -dflow
        adj.lam_flow = lu_f.solve(rhs_flow)
        if has_psi:
            adj.lam_psi = lu_psi.solve(-(C_fpsi.T @ adj.lam_flow))
        out.append(adj)
    return out


def _restrict(vec, ids, blocks, n):
    """Restrict a block vector (blocks * n) to local scalar ids."""
    return np.concatenate([vec[b * n + ids] for b in range(blocks)])


def _local_psi(result, ids):
    return None if result.psi is None else result.psi[ids]


def _recut_partials(model, result, payload, report=None):
    """Yield (node, partial) for each corner of each cut element, in order.

    payload(e, phi4) evaluates element e re-cut at the corner level set
    values phi4 with its enrichment frozen; partial is its derivative
    w.r.t. the corner's value. A re-cut that flips a corner sign or
    changes the pieces raises ValueError, so the central step is halved up
    to MAX_STEP_HALVINGS times; after that the corner takes a one-sided
    step away from the sign change and is flagged in report, once per
    node however many cut elements share it. A corner whose one-sided
    step fails too is flagged and yields nothing.
    """
    cm = result.cm
    h = model.mesh.h
    step = FD_STEP_FRACTION * h
    for e in np.nonzero(cm.classification == CUT)[0]:
        e = int(e)
        nodes = model.mesh.elements[e]
        base = cm.phi[nodes].astype(float)

        def at(c, delta):
            phi4 = base.copy()
            phi4[c] += delta
            return payload(e, phi4)

        for c in range(4):
            delta = step
            for _ in range(MAX_STEP_HALVINGS + 1):
                try:
                    partial = (at(c, delta) - at(c, -delta)) / (2 * delta)
                    break
                except ValueError:
                    delta *= 0.5
            else:
                if report is not None and int(nodes[c]) not in report.flagged_nodes:
                    report.flagged_nodes.append(int(nodes[c]))
                sgn = 1.0 if base[c] > 0 else -1.0
                try:
                    partial = sgn * (at(c, sgn * step) - payload(e, base)) / step
                except ValueError:
                    continue
            yield int(nodes[c]), partial


def geometry_gradient(model, result, adjoints, report=None):
    """d(functionals)/d(nodal phi) via local recut finite differences.

    Each re-cut element contributes sum_k(lambda_k . R_local +
    dF_k/dcrit . crit_local). Returns an array (n_functionals, n_mesh_nodes).
    """
    cm = result.cm
    n = result.ctx.n
    params = model.physics.flow
    has_species = result.species_state is not None
    # frozen shift for KS criteria (not element-separable)
    ks_aux = {spec.name: result.crit_partials[spec.name].aux
              for spec in model.criteria if spec.kind == "ks_target"}

    def payload(e, phi4):
        ctx = element_context(cm, e, phi4, regions=model.regions)
        ids = ctx.scalar_ids
        U_loc = _restrict(result.flow_state, ids, 3, n)
        r_f, _ = flow_mod.assemble_flow(
            ctx, params, U_loc, coeff_state=U_loc,
            psibar=model.penalty_weights(ctx, _local_psi(result, ids)),
            want_matrix=False,
        )
        r_c = None
        if has_species:
            r_c, _ = transport_mod.assemble_species(
                ctx, model.physics.transport, result.species_state[ids], U_loc,
                want_matrix=False,
            )
        r_psi = None
        if result.psi is not None:
            r_psi, _ = transport_mod.assemble_indicator(
                ctx, model.physics.indicator, result.psi[ids], want_matrix=False,
            )

        crit_local = {}
        for spec in model.criteria:
            if spec.kind == "ks_target":
                shift, total = ks_aux[spec.name]
                contrib = ks_local_sum(spec, ctx, params,
                                       result.species_state[ids], shift)
                # chain d(criterion)/d(local sum) = 1 / (beta * total)
                crit_local[spec.name] = contrib / (spec.beta_ks * total)
            else:
                crit_local[spec.name] = evaluate_criterion(
                    spec, ctx, params,
                    flow_state=U_loc,
                    species_state=(result.species_state[ids]
                                   if has_species else None),
                    allow_empty=True,
                ).value

        vals = np.zeros(len(adjoints))
        for k, adj in enumerate(adjoints):
            total = float(adj.lam_flow[np.concatenate([ids, ids + n, ids + 2 * n])]
                          @ r_f) if adj.lam_flow is not None else 0.0
            if r_c is not None and adj.lam_species is not None:
                total += float(adj.lam_species[ids] @ r_c)
            if r_psi is not None and adj.lam_psi is not None:
                total += float(adj.lam_psi[ids] @ r_psi)
            for name, w in adj.dcrit.items():
                total += w * crit_local.get(name, 0.0)
            vals[k] = total
        return vals

    grad = np.zeros((len(adjoints), model.mesh.n_nodes))
    for node, partial in _recut_partials(model, result, payload, report):
        grad[:, node] += partial
    return grad


def total_design_gradient(model, result, problem, design, domain_area, iteration=0):
    """Objective/constraint values and their total design derivatives.

    Returns (Z, g_values, dZ_ds, dg_ds, report).
    """
    values = result.crit_values
    report = GradientReport()

    chains = [problem.objective_dcrit(values)]
    g_values = []
    for con in problem.constraints:
        g, dg = con.evaluate(values, domain_area, iteration)
        g_values.append(g)
        chains.append(dg)

    adjoints = steady_adjoints(model, result, chains)
    dphi = geometry_gradient(model, result, adjoints, report)
    J_s = model.lsmap.jacobian(design)  # (n_nodes, n_design)
    dZ_ds = J_s.T @ dphi[0]
    dg_ds = np.array([J_s.T @ dphi[1 + i] for i in range(len(problem.constraints))])
    Z = problem.objective_value(values)
    return Z, np.asarray(g_values), dZ_ds, dg_ds, report


def residual_phi_matrix(model, result, block="flow"):
    """Materialized sparse d(residual)/d(nodal phi) for audits and tests."""
    cm = result.cm
    n = result.ctx.n
    blocks = {"flow": 3, "species": 1, "indicator": 1}[block]
    gids = None  # rows of the element the engine last re-cut

    def payload(e, phi4):
        nonlocal gids
        ctx = element_context(cm, e, phi4, regions=model.regions)
        ids = ctx.scalar_ids
        gids = np.concatenate([ids + b * n for b in range(blocks)])
        U_loc = _restrict(result.flow_state, ids, 3, n)
        if block == "flow":
            r, _ = flow_mod.assemble_flow(
                ctx, model.physics.flow, U_loc, coeff_state=U_loc,
                psibar=model.penalty_weights(ctx, _local_psi(result, ids)),
                want_matrix=False)
        elif block == "species":
            r, _ = transport_mod.assemble_species(
                ctx, model.physics.transport, result.species_state[ids],
                U_loc, want_matrix=False)
        else:
            r, _ = transport_mod.assemble_indicator(
                ctx, model.physics.indicator, result.psi[ids],
                want_matrix=False)
        return r

    rows, cols, vals = [], [], []
    for node, partial in _recut_partials(model, result, payload):
        rows.append(gids)
        cols.append(np.full(gids.shape[0], node, dtype=np.int64))
        vals.append(partial)
    if not rows:
        return sp.csr_matrix((blocks * n, model.mesh.n_nodes))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(blocks * n, model.mesh.n_nodes),
    )


def transient_total_gradient(model, result, problem, design, domain_area,
                             iteration=0):
    """Total design derivatives for a BDF2-marched flow problem.

    Criteria sampled per their time_sampling ('final' or 'average' over
    steps 1..N, the initial condition excluded); constraints always use
    final-step values. Species transport is steady-only and not supported
    on the transient path.
    """
    history = result.flow_history
    n_steps = len(history) - 1
    ctx = result.ctx
    n = ctx.n
    params = model.physics.flow
    values = result.crit_values
    report = GradientReport()

    chains = [problem.objective_dcrit(values)]
    g_values = []
    for con in problem.constraints:
        g, dg = con.evaluate(values, domain_area, iteration)
        g_values.append(g)
        chains.append(dg)

    spec_of = {spec.name: spec for spec in model.criteria}

    def step_weight(spec, step):
        if spec.kind in GEOMETRIC_KINDS:
            return 0.0  # handled as a static (geometry-only) contribution
        if spec.time_sampling == "average":
            return 1.0 / n_steps
        return 1.0 if step == n_steps else 0.0

    def assemble_at(step, slot):
        _, J = flow_mod.assemble_flow(
            ctx, params, history[step], coeff_state=history[step], slot=slot,
            psibar=result.psibar_qp,
        )
        return spla.splu(J.T.tocsc()).solve

    def time_matrix_at(step, slot):
        return flow_mod.flow_time_matrix(ctx, params, history[step], slot)

    def dz_du(step):
        """Per-functional dF/du^step, one column per functional."""
        part = {
            name: evaluate_criterion(spec, ctx, params, flow_state=history[step],
                                     want_partials=True)
            for name, spec in spec_of.items() if spec.kind not in GEOMETRIC_KINDS
        }
        dz = np.zeros((3 * n, len(chains)))
        for k, chain in enumerate(chains):
            for name, w in chain.items():
                sw = step_weight(spec_of[name], step)
                if sw and part[name].d_flow is not None:
                    dz[:, k] += w * sw * part[name].d_flow
        return dz

    lams = adjoint_transient(assemble_at, time_matrix_at, history,
                             model.solve_config.dt, dz_du, 3 * n)

    adjoints = [FunctionalAdjoint(dcrit=dict(chain)) for chain in chains]
    if result.psi is not None:
        C_fpsi = np.zeros((n, len(chains)))
        for step in range(n_steps, 0, -1):
            C = flow_mod.flow_indicator_jacobian(
                ctx, params, history[step], result.psi, model.physics.indicator)
            C_fpsi += C.T @ lams[step]
        _, J_psi = transport_mod.assemble_indicator(
            ctx, model.physics.indicator, result.psi)
        lam_psi = spla.splu(J_psi.T.tocsc()).solve(-C_fpsi)
        for k, adj in enumerate(adjoints):
            adj.lam_psi = lam_psi[:, k]

    dphi = _transient_geometry_gradient(model, result, chains, lams, adjoints,
                                        spec_of, step_weight, report)
    J_s = model.lsmap.jacobian(design)
    dZ_ds = J_s.T @ dphi[0]
    dg_ds = np.array([J_s.T @ dphi[1 + i] for i in range(len(problem.constraints))])
    Z = problem.objective_value(values)
    return Z, np.asarray(g_values), dZ_ds, dg_ds, report


def _transient_geometry_gradient(model, result, chains, lams, adjoints, spec_of,
                                 step_weight, report):
    """Per-node level set partials accumulated over all time steps.

    lams[step] holds the flow adjoints of that step, one column per
    functional (index 0 unused).
    """
    cm = result.cm
    dt = model.solve_config.dt
    history = result.flow_history
    n_steps = len(history) - 1
    n = result.ctx.n
    n_func = len(chains)
    params = model.physics.flow

    def payload(e, phi4):
        ctx = element_context(cm, e, phi4, regions=model.regions)
        vals = np.zeros(n_func)
        ids = ctx.scalar_ids
        gids = np.concatenate([ids, ids + n, ids + 2 * n])
        psibar = model.penalty_weights(ctx, _local_psi(result, ids))
        for step in range(1, n_steps + 1):
            slot = bdf_slot(step, dt, history[:step])
            slot_loc = type(slot)(alpha=slot.alpha, hist=slot.hist[gids],
                                  dt=slot.dt, t=slot.t)
            U_loc = history[step][gids]
            r_f, _ = flow_mod.assemble_flow(
                ctx, params, U_loc, coeff_state=U_loc, slot=slot_loc,
                psibar=psibar, want_matrix=False)
            crit_loc = {}
            for name, spec in spec_of.items():
                if spec.kind in GEOMETRIC_KINDS:
                    continue
                crit_loc[name] = evaluate_criterion(
                    spec, ctx, params, flow_state=U_loc, allow_empty=True).value
            vals += r_f @ lams[step][gids]
            for k in range(n_func):
                for name, w in chains[k].items():
                    sw = step_weight(spec_of[name], step)
                    if sw:
                        vals[k] += w * sw * crit_loc.get(name, 0.0)
        # static geometry criteria and the indicator residual
        for name, spec in spec_of.items():
            if spec.kind not in GEOMETRIC_KINDS:
                continue
            v = evaluate_criterion(spec, ctx, params, allow_empty=True).value
            for k in range(n_func):
                w = chains[k].get(name, 0.0)
                if w:
                    vals[k] += w * v
        if result.psi is not None:
            r_psi, _ = transport_mod.assemble_indicator(
                ctx, model.physics.indicator, result.psi[ids], want_matrix=False)
            for k, adj in enumerate(adjoints):
                if adj.lam_psi is not None:
                    vals[k] += float(adj.lam_psi[ids] @ r_psi)
        return vals

    grad = np.zeros((n_func, model.mesh.n_nodes))
    for node, partial in _recut_partials(model, result, payload, report):
        grad[:, node] += partial
    return grad


# ---------------------------------------------------------------------------
# transient adjoint (generic single-block system, used for the flow march)
# ---------------------------------------------------------------------------

def adjoint_transient(assemble_at, time_matrix_at, history, dt, dz_du, n_dofs):
    """Backward BDF2 adjoint sweep for one time-marched system.

    assemble_at(step, slot) -> transposed-solve factorization of dR^step/du.
    time_matrix_at(step, slot) -> dR^step/d(du/dt slot) sparse matrix.
    history: states [u0 .. uN]; dz_du(step) -> partial of the objective
    w.r.t. the state at that step (zero array when absent), either a vector
    or a block with one column per functional; each step factorizes once
    for the whole block.
    Returns the list of adjoints [lam_1 .. lam_N] (index 0 unused), shaped
    like dz_du's values.
    """
    n_steps = len(history) - 1
    lams = [None] * (n_steps + 1)
    mats = {}

    def M(step):
        if step not in mats:
            slot = bdf_slot(step, dt, history[:step])
            mats[step] = time_matrix_at(step, slot)
        return mats[step]

    # step >= 1, so the steps after it are BDF2 steps: u^step enters the
    # next residual with -2/dt and the one after with 0.5/dt
    for step in range(n_steps, 0, -1):
        rhs = -np.asarray(dz_du(step), dtype=float)
        if step + 1 <= n_steps:
            rhs -= (-2.0 / dt) * (M(step + 1).T @ lams[step + 1])
        if step + 2 <= n_steps:
            rhs -= (0.5 / dt) * (M(step + 2).T @ lams[step + 2])
        mats.pop(step + 2, None)  # no earlier step couples to it
        slot = bdf_slot(step, dt, history[:step])
        lams[step] = assemble_at(step, slot)(rhs)
    return lams
