"""Discrete adjoints and total design derivatives.

The forward pipeline is level set -> cut geometry -> indicator -> flow ->
species -> criteria. Every analysis is a list of flow steps, each a time
slot and a state (`analysis_steps`): a steady run is one step, a BDF2
march its steps 1..N. One gradient, `total_design_gradient`, serves both.
Adjoints are solved in reverse block order (species, flow, indicator),
each block solving for all functionals at once: every adjoint is a
column block, one column per functional, from its solve to the
geometric contraction. The flow has one backward sweep,
`adjoint_transient`, which makes one solve call per step on the step's
right-hand-side block; a steady run is a sweep of one step. The adjoints
reuse what the forward kept and then drop it: the
linear species and indicator systems solve on their forward LUs
(trans='T'), and the last step's flow adjoint refines on J(x*)^T, the
Jacobian Newton handed over, with the factor Newton kept
(`solve.refined_solve`). Only an earlier BDF2 step, a missing factor or a
refinement that stalls factors a matrix here, and only an earlier BDF2
step or a missing Jacobian assembles one. The context's kept tables go
with the factors (`IntegrationContext.release`): the geometric partials
run on re-cut contexts of their own.

Geometric partials of residuals and criteria are computed
semi-analytically. One re-cut payload, in `geometry_gradient`, pairs each
step's local flow residual with that step's adjoints and adds the species
and indicator residuals and the geometric criteria once. One
finite-difference loop, `_recut_partials`, re-cuts the intersected
elements locally with the enrichment frozen, every (element, corner,
+-step) at once: the re-cuts form one stacked context, each kernel and
criterion integrand runs once on it, residual only, and the products with
the adjoints are summed per re-cut. Each corner's partial is found by the
first of these that succeeds:

1. a central difference with step FD_STEP_FRACTION times the mesh size;
2. the same with the step halved, up to MAX_STEP_HALVINGS times, while a
   re-cut flips a corner sign or a saddle centre (only those pairs rerun);
3. a one-sided full step away from the sign change; the node is flagged;
4. none: the node is flagged and contributes nothing.

The flagged nodes are returned, in the order first seen, and
`total_design_gradient` reports them in its GradientReport.

Ghost-penalty terms integrate over full facets and carry no geometric
dependence, so they drop out of the partials. The velocity-dependent
penalty factors are frozen identically in the forward linearization and
here, so each adjoint operator is the exact transpose of the forward one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import flow as flow_mod
from . import transport as transport_mod
from .criteria import (GEOMETRIC_KINDS, criterion_scale, criterion_terms,
                       evaluate_criterion)
from .forms import element_context
from .cut import CUT
from .solve import (STEADY_SLOT, TimeSlot, bdf_slot, linear_solve, lu_solve,
                    refined_solve)

FD_STEP_FRACTION = 1e-4  # geometric FD step, as a fraction of h
MAX_STEP_HALVINGS = 4


@dataclass
class GradientReport:
    flagged_nodes: list  # nodes whose partial fell back (_recut_partials)


class _Step(NamedTuple):
    """One flow state of an analysis."""

    slot: TimeSlot  # time slot of the state's residual (full-length hist)
    state: np.ndarray  # flow state (3 n)
    weight: dict  # state-dependent criterion name -> sampling weight


def analysis_steps(model, result):
    """The flow states of an analysis, first to last, as _Steps.

    A steady analysis is one step at STEADY_SLOT, a BDF2 march its steps
    1..N (the initial condition excluded). A criterion sampled 'average'
    weighs 1/N at every step, one sampled 'final' 1 at the last. This is
    the only place that knows the scheme.
    """
    history = result.flow_history
    if history is None:
        states = [(STEADY_SLOT, result.flow_state)]
    else:
        dt = model.solve_config.dt
        states = [(bdf_slot(k, dt, history[:k]), history[k])
                  for k in range(1, len(history))]
    n = len(states)
    stateful = [spec for spec in model.criteria if spec.kind not in GEOMETRIC_KINDS]
    return [_Step(slot, state, {spec.name: (1.0 / n if spec.time_sampling == "average"
                                            else float(k == n - 1))
                                for spec in stateful})
            for k, (slot, state) in enumerate(states)]


def solve_adjoints(model, result, chains):
    """Adjoints of the functionals whose criterion chain weights are chains.

    Reverse block order: the species adjoint (steady-only, so it couples to
    the last step), one backward sweep over the flow steps with one column
    per functional, then the indicator adjoint from the sum over the steps
    of C_fpsi^T lam. The last step's criterion partials are the run's own;
    an earlier step evaluates only the criteria sampled there. Returns
    (lams, lam_c, lam_psi), each with one column per functional (the k-th
    that of chains[k]): lams[k] holds step k's flow adjoints, lam_c the
    species and lam_psi the indicator adjoints, None for an absent field.

    The blocks solve on the factors and the flow Jacobian the forward kept
    (result's *_factor fields and flow_jacobian; the module docstring says
    how) and take them off result, so they go when this returns and a
    second call assembles and factors afresh; a block without kept factors
    is assembled and factored here. The context releases its kept tables
    on return, so they do not outlive the factors.
    A singular or non-finite adjoint raises SolverError.
    """
    ctx = result.ctx
    n = ctx.n
    params = model.physics.flow
    steps = analysis_steps(model, result)
    last = len(steps) - 1
    specs = {spec.name: spec for spec in model.criteria}
    flow_J, flow_lu, psi_lu, species_lu = (
        result.flow_jacobian, result.flow_factor, result.indicator_factor,
        result.species_factor)
    result.flow_jacobian = result.flow_factor = None
    result.indicator_factor = result.species_factor = None

    def chained(partials, weight, attr, rows):
        """Sum of w * sampling weight * partial, one column per functional."""
        out = np.zeros((rows, len(chains)))
        for k, chain in enumerate(chains):
            for name, w in chain.items():
                sw = weight.get(name, 0.0)
                d = getattr(partials[name], attr) if sw else None
                if d is not None:
                    out[:, k] += w * sw * d
        return out

    lam_c = None
    if result.species_state is not None:
        tparams = model.physics.transport
        dc = chained(result.crit_partials, steps[last].weight, "d_species", n)
        lam_c = _transposed_solve(
            species_lu, -dc, lambda: transport_mod.assemble_species(
                ctx, tparams, result.species_state, result.flow_state)[1])
        C_cu = transport_mod.species_flow_jacobian(
            ctx, tparams, result.species_state, result.flow_state)

    def rhs_at(k):
        step = steps[k]
        partials = result.crit_partials if k == last else {
            name: evaluate_criterion(specs[name], ctx, params, flow_state=step.state,
                                     want_partials=True)
            for name, sw in step.weight.items() if sw}
        rhs = -chained(partials, step.weight, "d_flow", 3 * n)
        if k == last and lam_c is not None:
            rhs -= C_cu.T @ lam_c
        return rhs

    def solve_at(k, b):
        nonlocal flow_J, flow_lu
        # the sweep's first call, the last step, takes the kept J and factor
        J, lu, flow_J, flow_lu = flow_J, flow_lu, None, None
        if J is None:
            slot, state, _ = steps[k]
            _, J = flow_mod.assemble_flow(ctx, params, state, coeff_state=state,
                                          slot=slot, psibar=result.psibar_qp)
        lam = None if lu is None else refined_solve(J, lu, b, trans="T")
        del lu  # gone before a fresh factorization
        return linear_solve(J.T, b) if lam is None else lam

    def time_matrix_at(k):
        return flow_mod.flow_time_matrix(ctx, params, steps[k].state, steps[k].slot)

    lams = adjoint_transient([step.slot for step in steps], solve_at,
                             time_matrix_at, rhs_at)
    lam_psi = None
    if result.psi is not None:
        C_fpsi = np.zeros((n, len(chains)))
        for k in range(last, -1, -1):
            C = flow_mod.flow_indicator_jacobian(
                ctx, params, steps[k].state, result.psi, model.physics.indicator)
            C_fpsi += C.T @ lams[k]
        lam_psi = _transposed_solve(
            psi_lu, -C_fpsi, lambda: transport_mod.assemble_indicator(
                ctx, model.physics.indicator, result.psi)[1])
    ctx.release()
    return lams, lam_c, lam_psi


def _transposed_solve(lu, b, matrix):
    """Solve A^T x = b on A's factors lu, or, with lu None, on a fresh
    factorization of A = matrix()."""
    if lu is None:
        return linear_solve(matrix().T, b)
    return lu_solve(lu, b, trans="T")


def _recut_partials(model, result, payload):
    """Partials of a re-cut payload w.r.t. every corner of every cut element.

    payload(elems, phi4s) evaluates a batch of cut elements, each re-cut at
    its row of corner level set values with the enrichment frozen, and
    returns (values, invalid): one row of values per element, and a mask
    of the re-cuts that change the cut pattern. Every central difference
    of step FD_STEP_FRACTION * h is evaluated in one batch. The pairs with
    an invalid side are halved and rerun alone, up to MAX_STEP_HALVINGS
    times; after that such a corner takes a one-sided step away from the
    sign change and is flagged, once per node however many cut elements
    share it. A corner whose one-sided step fails too is flagged and gets
    no partial. Returns (elems, nodes, partials, flagged): one row per
    corner that has a partial, in (element, corner) order, and the flagged
    nodes in the order first seen.
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
    flagged = list(dict.fromkeys(nodes[todo].tolist()))
    if todo.size:
        sgn = np.where(base[todo, corner[todo]] > 0, 1.0, -1.0)
        diff, ok = differences(todo, sgn * step, np.zeros(todo.shape[0]))
        store(todo[ok], sgn[ok, None] * diff / step)
    rows = np.nonzero(found)[0]
    return elems[rows], nodes[rows], (np.zeros((0, 0)) if partials is None
                                      else partials[rows]), flagged


def geometry_gradient(model, result, chains, lams, lam_c, lam_psi):
    """d(functionals)/d(nodal phi) over the flow states of an analysis.

    chains[k] holds functional k's criterion chain weights, and column k of
    each adjoint block (solve_adjoints' lams, lam_c, lam_psi) its adjoints.
    Each re-cut element contributes, per functional, the flow
    residual of every step paired with that step's flow adjoint, the
    species and indicator residuals paired with their adjoints, the
    geometric criteria once and every other criterion once per step with
    the step's weight.
    ks_target is not element-separable: its local part is the sum at the
    frozen global shift, chained through 1 / (beta * total). A batch of
    re-cuts is one stacked context: each kernel runs once on it, residual
    only, and the products with the adjoints and the criterion terms are
    summed per re-cut. Returns (grad, flagged): grad an array
    (n_functionals, n_mesh_nodes), flagged the nodes _recut_partials
    flagged, in the order first seen.
    """
    cm = result.cm
    n = result.ctx.n
    params = model.physics.flow
    species = result.species_state
    geometric = [spec for spec in model.criteria if spec.kind in GEOMETRIC_KINDS]
    stateful = [spec for spec in model.criteria if spec.kind not in GEOMETRIC_KINDS]
    ks_aux = {spec.name: result.crit_partials[spec.name].aux
              for spec in stateful if spec.kind == "ks_target"}
    steps = analysis_steps(model, result)

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

        values = np.zeros((m, len(chains)))
        for k, chain in enumerate(chains):
            total = np.zeros(m)
            for lam, (r_f, _) in zip(lams, per_step):
                total += per_row(lam[gids, k] * r_f, owner3)
            if r_c is not None and lam_c is not None:
                total += per_row(lam_c[ids, k] * r_c, owner)
            if r_psi is not None and lam_psi is not None:
                total += per_row(lam_psi[ids, k] * r_psi, owner)
            for name, w in chain.items():
                if name in crit_once:
                    total += w * crit_once[name]
                    continue
                for step, (_, crit) in zip(steps, per_step):
                    sw = step.weight.get(name, 0.0)
                    if sw:
                        total += w * sw * crit[name]
            values[:, k] = total
        return values, invalid

    grad = np.zeros((len(chains), model.mesh.n_nodes))
    _, nodes, partials, flagged = _recut_partials(model, result, payload)
    for node, partial in zip(nodes.tolist(), partials):
        grad[:, node] += partial
    return grad, flagged


# bench/spans.py wraps this name; it goes when stage timers replace the wrappers
_transient_geometry_gradient = geometry_gradient


def total_design_gradient(model, result, problem, design, domain_area, iteration=0):
    """Objective/constraint values and their total design derivatives.

    The one gradient of any analysis, steady or BDF2: chain weights
    d(F)/d(criterion) of the objective and each constraint, their adjoints,
    their nodal level set derivatives, and the contraction with
    J_s = d(phi)/d(s). Constraints use the final criterion values.
    Returns (Z, g_values, dZ_ds, dg_ds, report).
    """
    values = result.crit_values
    chains = [problem.objective_dcrit(values)]
    g_values = []
    for con in problem.constraints:
        g, dg = con.evaluate(values, domain_area, iteration)
        g_values.append(g)
        chains.append(dg)
    lams, lam_c, lam_psi = solve_adjoints(model, result, chains)
    dphi, flagged = geometry_gradient(model, result, chains, lams, lam_c, lam_psi)
    J_s = model.lsmap.jacobian(design)  # (n_nodes, n_design)
    dZ_ds = J_s.T @ dphi[0]
    dg_ds = np.array([J_s.T @ dphi[1 + i] for i in range(len(problem.constraints))])
    return (problem.objective_value(values), np.asarray(g_values), dZ_ds, dg_ds,
            GradientReport(flagged))


# ---------------------------------------------------------------------------
# backward adjoint sweep (generic single-block system; a steady run is one step)
# ---------------------------------------------------------------------------

def adjoint_transient(slots, solve_at, time_matrix_at, rhs_at):
    """Backward adjoint sweep over the steps of one time-marched system.

    slots[k] is the time slot of step k's residual R^k; a steady analysis
    is one step. Every step after the first is a BDF2 step, so u^k enters
    R^(k+1) through its history with -2/dt and R^(k+2) with 0.5/dt.
    solve_at(k, b) -> the lam of (dR^k/du^k)^T lam = b; time_matrix_at(k)
    -> dR^k/d(du/dt slot), a sparse matrix; rhs_at(k) -> minus the
    functional's partial w.r.t. u^k, a vector or a block with one column
    per functional. Each step makes one solve_at call for the whole block.
    Returns [lam_0 .. lam_(N-1)], shaped like rhs_at's values.
    """
    n_steps = len(slots)
    lams = [None] * n_steps
    mats = {}

    def M(k):
        if k not in mats:
            mats[k] = time_matrix_at(k)
        return mats[k]

    for k in range(n_steps - 1, -1, -1):
        rhs = np.asarray(rhs_at(k), dtype=float)
        if k + 1 < n_steps:
            rhs -= (-2.0 / slots[k + 1].dt) * (M(k + 1).T @ lams[k + 1])
        if k + 2 < n_steps:
            rhs -= (0.5 / slots[k + 2].dt) * (M(k + 2).T @ lams[k + 2])
        mats.pop(k + 2, None)  # no earlier step couples to it
        lams[k] = solve_at(k, rhs)
    return lams
