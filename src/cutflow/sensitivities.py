"""Discrete adjoints and total design derivatives.

The forward pipeline is level set -> cut geometry -> indicator -> flow ->
species -> criteria. Adjoints are solved in reverse block order (species,
flow, indicator), each block reusing one transposed factorization for all
functionals. The BDF2-marched flow has one backward sweep,
`adjoint_transient`, which carries every functional as one column of a
right-hand-side block, so each step is factorized once. Only the adjoint
solves differ between steady and BDF2 runs: the chain weights, the
geometric partials and the contraction with d(phi)/d(s) are shared.

Geometric partials of residuals and criteria are computed
semi-analytically. A steady analysis is a history of one flow state, a
BDF2 march a history of steps 1..N; one re-cut payload,
`_recut_gradient`, pairs each state's local flow residual with that
state's adjoints and adds the species and indicator residuals and the
geometric criteria once. One finite-difference loop, `_recut_partials`,
re-cuts the intersected elements locally with the enrichment frozen,
every (element, corner, +-step) at once: the re-cuts form one stacked
context, each kernel and criterion integrand runs once on it, residual
only, and the products with the adjoints are summed per re-cut. Each
corner's partial is found by the first of these that succeeds:

1. a central difference with step FD_STEP_FRACTION times the mesh size;
2. the same with the step halved, up to MAX_STEP_HALVINGS times, while a
   re-cut flips a corner sign or a saddle centre (only those pairs rerun);
3. a one-sided full step away from the sign change; the node is flagged;
4. none: the node is flagged and contributes nothing.

Ghost-penalty terms integrate over full facets and carry no geometric
dependence, so they drop out of the partials. The velocity-dependent
penalty factors are frozen identically in the forward linearization and
here, so each adjoint operator is the exact transpose of the forward one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg as spla

from . import flow as flow_mod
from . import transport as transport_mod
from .criteria import (GEOMETRIC_KINDS, criterion_scale, criterion_terms,
                       evaluate_criterion)
from .forms import element_context
from .cut import CUT
from .solve import STEADY_SLOT, TimeSlot, bdf_slot

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


def _recut_partials(model, result, payload, report=None):
    """Partials of a re-cut payload w.r.t. every corner of every cut element.

    payload(elems, phi4s) evaluates a batch of cut elements, each re-cut at
    its row of corner level set values with the enrichment frozen, and
    returns (values, invalid): one row of values per element, and a mask
    of the re-cuts that change the cut pattern. Every central difference
    of step FD_STEP_FRACTION * h is evaluated in one batch. The pairs with
    an invalid side are halved and rerun alone, up to MAX_STEP_HALVINGS
    times; after that such a corner takes a one-sided step away from the
    sign change and is flagged in report, once per node however many cut
    elements share it. A corner whose one-sided step fails too is flagged
    and gets no partial. Returns (elems, nodes, partials), one row per
    corner that has a partial, in (element, corner) order.
    """
    cm = result.cm
    mesh = model.mesh
    step = FD_STEP_FRACTION * mesh.h
    elems = np.repeat(np.nonzero(cm.classification == CUT)[0], 4)
    corner = np.tile(np.arange(4), elems.shape[0] // 4)
    nodes = mesh.elements[elems, corner]
    base = cm.phi[mesh.elements[elems]]

    def differences(rows, plus, minus):
        """payload at (plus) minus payload at (minus) offsets of each row's
        corner, and the rows where both re-cuts are valid."""
        both = np.concatenate([rows, rows])
        phi4s = base[both]
        phi4s[np.arange(both.shape[0]), corner[both]] += np.concatenate([plus, minus])
        values, invalid = payload(elems[both], phi4s)
        m = rows.shape[0]
        ok = ~(invalid[:m] | invalid[m:])
        return (values[:m] - values[m:])[ok], ok

    found = np.zeros(elems.shape[0], dtype=bool)
    partials = None

    def store(rows, values):
        nonlocal partials
        if partials is None:
            partials = np.zeros((elems.shape[0], values.shape[1]))
        partials[rows] = values
        found[rows] = True

    todo = np.arange(elems.shape[0])
    delta = np.full(todo.shape[0], step)
    for _ in range(MAX_STEP_HALVINGS + 1):
        if not todo.size:
            break
        diff, ok = differences(todo, delta[todo], -delta[todo])
        store(todo[ok], diff / (2 * delta[todo[ok]])[:, None])
        todo = todo[~ok]
        delta[todo] *= 0.5
    if todo.size:
        if report is not None:
            for node in nodes[todo].tolist():
                if node not in report.flagged_nodes:
                    report.flagged_nodes.append(node)
        sgn = np.where(base[todo, corner[todo]] > 0, 1.0, -1.0)
        diff, ok = differences(todo, sgn * step, np.zeros(todo.shape[0]))
        store(todo[ok], sgn[ok, None] * diff / step)
    rows = np.nonzero(found)[0]
    return elems[rows], nodes[rows], (np.zeros((0, 0)) if partials is None
                                      else partials[rows])


class _Step(NamedTuple):
    """One flow state of an analysis, as the re-cut payload sees it."""

    slot: TimeSlot  # time slot of the state's residual (full-length hist)
    state: np.ndarray  # flow state (3 n)
    lams: list  # per functional: flow adjoint at this state, or None
    weight: dict  # state-dependent criterion name -> sampling weight


def _recut_gradient(model, result, steps, adjoints, report):
    """d(functionals)/d(nodal phi) over the flow states in steps.

    Each re-cut element contributes, per functional, the flow residual of
    every step paired with that step's flow adjoint, the species and
    indicator residuals paired with their adjoints, the geometric criteria
    once and every other criterion once per step with the step's weight.
    ks_target is not element-separable: its local part is the sum at the
    frozen global shift, chained through 1 / (beta * total). A batch of
    re-cuts is one stacked context: each kernel runs once on it, residual
    only, and the products with the adjoints and the criterion terms are
    summed per re-cut. Returns an array (n_functionals, n_mesh_nodes).
    """
    cm = result.cm
    n = result.ctx.n
    params = model.physics.flow
    species = result.species_state
    geometric = [spec for spec in model.criteria if spec.kind in GEOMETRIC_KINDS]
    stateful = [spec for spec in model.criteria if spec.kind not in GEOMETRIC_KINDS]
    ks_aux = {spec.name: result.crit_partials[spec.name].aux
              for spec in stateful if spec.kind == "ks_target"}

    def payload(elems, phi4s):
        ctx, invalid = element_context(cm, elems, phi4s, regions=model.regions)
        m = elems.shape[0]
        ids = ctx.scalar_ids
        gids = np.concatenate([ids, ids + n, ids + 2 * n])
        owner = ctx.owner
        owner3 = np.concatenate([owner, owner, owner])

        def per_row(values, rows):
            return np.bincount(rows, values, minlength=m)

        def crit_sum(spec, **states):
            q, dofs = criterion_terms(spec, ctx, params, **states)
            return per_row(q, owner[dofs[:, 0]])

        psibar = model.penalty_weights(
            ctx, None if result.psi is None else result.psi[ids])
        c_loc = None if species is None else species[ids]
        crit_once = {spec.name: crit_sum(spec) for spec in geometric}
        per_step = []
        for step in steps:
            U_loc = step.state[gids]
            slot = step.slot
            if slot.hist is not None:
                slot = replace(slot, hist=slot.hist[gids])
            r_f, _ = flow_mod.assemble_flow(
                ctx, params, U_loc, coeff_state=U_loc, slot=slot,
                psibar=psibar, want_matrix=False)
            crit = {}
            for spec in stateful:
                if spec.kind == "ks_target":
                    shift, total = ks_aux[spec.name]
                    crit[spec.name] = (crit_sum(spec, species_state=c_loc, shift=shift)
                                       / (spec.beta_ks * total))
                else:
                    crit[spec.name] = criterion_scale(spec, params) * crit_sum(
                        spec, flow_state=U_loc)
            per_step.append((r_f, crit))
        r_c = None
        if species is not None:
            r_c, _ = transport_mod.assemble_species(
                ctx, model.physics.transport, c_loc, result.flow_state[gids],
                want_matrix=False)
        r_psi = None
        if result.psi is not None:
            r_psi, _ = transport_mod.assemble_indicator(
                ctx, model.physics.indicator, result.psi[ids], want_matrix=False)

        values = np.zeros((m, len(adjoints)))
        for k, adj in enumerate(adjoints):
            total = np.zeros(m)
            for step, (r_f, _) in zip(steps, per_step):
                if step.lams[k] is not None:
                    total += per_row(step.lams[k][gids] * r_f, owner3)
            if r_c is not None and adj.lam_species is not None:
                total += per_row(adj.lam_species[ids] * r_c, owner)
            if r_psi is not None and adj.lam_psi is not None:
                total += per_row(adj.lam_psi[ids] * r_psi, owner)
            for name, w in adj.dcrit.items():
                if name in crit_once:
                    total += w * crit_once[name]
                    continue
                for step, (_, crit) in zip(steps, per_step):
                    sw = step.weight.get(name, 0.0)
                    if sw:
                        total += w * sw * crit[name]
            values[:, k] = total
        return values, invalid

    grad = np.zeros((len(adjoints), model.mesh.n_nodes))
    _, nodes, partials = _recut_partials(model, result, payload, report)
    for node, partial in zip(nodes.tolist(), partials):
        grad[:, node] += partial
    return grad


def geometry_gradient(model, result, adjoints, report=None):
    """d(functionals)/d(nodal phi) of a steady analysis, a one-step history.

    Returns an array (n_functionals, n_mesh_nodes).
    """
    weight = {spec.name: 1.0 for spec in model.criteria
              if spec.kind not in GEOMETRIC_KINDS}
    step = _Step(STEADY_SLOT, result.flow_state, [adj.lam_flow for adj in adjoints],
                 weight)
    return _recut_gradient(model, result, [step], adjoints, report)


def _transient_geometry_gradient(model, result, lams, adjoints, weights, report):
    """d(functionals)/d(nodal phi) of a BDF2 march over steps 1..N.

    lams[step] holds the flow adjoints of that step, one column per
    functional; weights[step] maps each state-dependent criterion to its
    sampling weight at that step (index 0 unused in both).
    """
    history = result.flow_history
    dt = model.solve_config.dt
    steps = [_Step(bdf_slot(step, dt, history[:step]), history[step],
                   list(lams[step].T), weights[step])
             for step in range(1, len(history))]
    return _recut_gradient(model, result, steps, adjoints, report)


def _chains(problem, values, domain_area, iteration):
    """Chain weights d(F)/d(criterion) of the objective and each constraint,
    and the constraint values g."""
    chains = [problem.objective_dcrit(values)]
    g_values = []
    for con in problem.constraints:
        g, dg = con.evaluate(values, domain_area, iteration)
        g_values.append(g)
        chains.append(dg)
    return chains, np.asarray(g_values)


def _design_totals(model, problem, design, values, g_values, dphi, report):
    """Contract nodal level set derivatives with J_s = d(phi)/d(s).

    Returns (Z, g_values, dZ_ds, dg_ds, report).
    """
    J_s = model.lsmap.jacobian(design)  # (n_nodes, n_design)
    dZ_ds = J_s.T @ dphi[0]
    dg_ds = np.array([J_s.T @ dphi[1 + i] for i in range(len(problem.constraints))])
    return problem.objective_value(values), g_values, dZ_ds, dg_ds, report


def total_design_gradient(model, result, problem, design, domain_area, iteration=0):
    """Objective/constraint values and their total design derivatives.

    Returns (Z, g_values, dZ_ds, dg_ds, report).
    """
    values = result.crit_values
    report = GradientReport()
    chains, g_values = _chains(problem, values, domain_area, iteration)
    adjoints = steady_adjoints(model, result, chains)
    dphi = geometry_gradient(model, result, adjoints, report)
    return _design_totals(model, problem, design, values, g_values, dphi, report)


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
    chains, g_values = _chains(problem, values, domain_area, iteration)

    stateful = [spec for spec in model.criteria if spec.kind not in GEOMETRIC_KINDS]
    weights = [None] + [
        {spec.name: (1.0 / n_steps if spec.time_sampling == "average"
                     else float(step == n_steps)) for spec in stateful}
        for step in range(1, n_steps + 1)]

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
        part = {spec.name: evaluate_criterion(spec, ctx, params,
                                              flow_state=history[step],
                                              want_partials=True)
                for spec in stateful}
        dz = np.zeros((3 * n, len(chains)))
        for k, chain in enumerate(chains):
            for name, w in chain.items():
                sw = weights[step].get(name, 0.0)
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

    dphi = _transient_geometry_gradient(model, result, lams, adjoints, weights,
                                        report)
    return _design_totals(model, problem, design, values, g_values, dphi, report)


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
