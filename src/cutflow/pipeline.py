"""Forward analysis pipeline.

One geometry evaluation runs: design vector -> nodal level set -> cut
model -> integration context -> indicator solve (when the pressure
penalty is indicator-gated) -> flow solve (steady Newton or BDF2
transient) -> species solve (steady runs, when any criterion needs it) ->
criteria. The indicator and species systems are linear, one solve each.
A species criterion without a [transport] section, or in a transient
run, is a configuration error when the model is built. The result
bundle carries everything the adjoint needs: the flow Jacobian at the
solution (the last step's, for a march) and the factor Newton kept, and
the factors of the indicator and species matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flow as flow_mod
from . import transport as transport_mod
from .criteria import GEOMETRIC_KINDS, evaluate_criterion
from .cut import build_cut_model
from .errors import ConfigurationError
from .forms import build_context
from .solve import SolveConfig, march, steady_solve
# bench/spans.py wraps this name; it goes when stage timers replace the wrappers
from .solve import newton_solve  # noqa: F401


@dataclass
class PhysicsConfig:
    flow: flow_mod.FlowParams
    transport: transport_mod.TransportParams = None
    indicator: transport_mod.IndicatorParams = field(
        default_factory=transport_mod.IndicatorParams
    )
    pressure_penalty_scope: str = "indicator"  # 'indicator' | 'whole'

    def __post_init__(self):
        if self.pressure_penalty_scope not in ("indicator", "whole"):
            raise ConfigurationError(
                f"unknown pressure penalty scope {self.pressure_penalty_scope!r} "
                "(k_pressure = 0 switches the penalty off)"
            )


@dataclass
class ForwardResult:
    cm: object
    ctx: object
    psi: np.ndarray = None
    psibar_qp: np.ndarray = None
    flow_state: np.ndarray = None
    species_state: np.ndarray = None
    flow_history: list = None  # transient runs
    crit_values: dict = None
    crit_partials: dict = None  # name -> CriterionValue (with partials)
    newton_trace: list = None
    # what the adjoint reuses and then drops (None: none kept)
    flow_jacobian: object = None  # J at flow_state, by the last Newton
    flow_factor: object = None  # SuperLU factors that Newton kept
    indicator_factor: object = None
    species_factor: object = None


class ForwardModel:
    """Binds mesh, design map, boundary regions, physics and criteria."""

    def __init__(self, mesh, lsmap, regions, physics, criteria, solve_config=None):
        self.mesh = mesh
        self.lsmap = lsmap
        self.regions = list(regions)
        self.physics = physics
        self.criteria = list(criteria)
        self.solve_config = solve_config or SolveConfig()
        if self._needs_species():
            if physics.transport is None:
                raise ConfigurationError(
                    "species criterion present but transport disabled")
            if self.solve_config.scheme == "bdf2":
                raise ConfigurationError(
                    "species transport is steady-only; transient runs cannot "
                    "evaluate ks_target criteria")

    # -- geometry -----------------------------------------------------------
    def geometry(self, design):
        cm = build_cut_model(self.mesh, self.lsmap.build(design))
        if cm.n_dofs == 0:
            raise ConfigurationError("design produced an empty fluid domain")
        return cm, build_context(cm, self.regions)

    # -- indicator ----------------------------------------------------------
    def _indicator(self, ctx):
        """(psi, psibar, the indicator matrix's factors) of ctx."""
        if self.physics.flow.k_pressure == 0.0:
            return None, None, None
        psi = lu = None
        if self.physics.pressure_penalty_scope == "indicator":
            psi, lu = transport_mod.solve_indicator(ctx, self.physics.indicator)
        return psi, self.penalty_weights(ctx, psi), lu

    def penalty_weights(self, ctx, psi):
        """Pressure-penalty weights psibar at ctx's volume points.

        'whole' weights every point by one; otherwise the weights follow the
        indicator psi (scalar dofs of ctx), and no psi means no penalty.
        """
        if self.physics.pressure_penalty_scope == "whole":
            return np.ones(ctx.volume.nq)
        if psi is None:
            return None
        return transport_mod.indicator_at_volume_points(ctx, psi, self.physics.indicator)

    def _needs_species(self):
        return any(c.kind == "ks_target" for c in self.criteria)

    # -- flow ---------------------------------------------------------------
    def _flow_assemble_factory(self, ctx, psibar):
        params = self.physics.flow

        def make(slot):
            def assemble(x):
                return flow_mod.assemble_flow(
                    ctx, params, x, coeff_state=x, slot=slot, psibar=psibar)
            return assemble

        return make

    def analyze(self, design):
        """Forward analysis of design by solve_config.scheme: a steady solve
        or a BDF2 march."""
        if self.solve_config.scheme == "bdf2":
            return self.solve_transient(design)
        return self.solve_steady(design)

    def solve_steady(self, design, warm=None, geometry=None):
        """Steady analysis of design, or of its already built geometry
        (cm, ctx), from the warm flow state when its size fits."""
        cm, ctx = self.geometry(design) if geometry is None else geometry
        psi, psibar, psi_lu = self._indicator(ctx)
        n = ctx.n
        if warm is None or warm.shape[0] != 3 * n:
            warm = np.zeros(3 * n)
        make = self._flow_assemble_factory(ctx, psibar)
        U, trace, flow_lu, J = steady_solve(make, warm, self.solve_config)
        result = ForwardResult(
            cm=cm, ctx=ctx, psi=psi, psibar_qp=psibar, flow_state=U,
            newton_trace=trace, flow_jacobian=J, flow_factor=flow_lu,
            indicator_factor=psi_lu,
        )
        if self._needs_species():
            result.species_state, result.species_factor = transport_mod.solve_species(
                ctx, self.physics.transport, U)
        self._evaluate_criteria(result)
        return result

    def solve_transient(self, design):
        cfg = self.solve_config
        if cfg.scheme != "bdf2":
            raise ConfigurationError("transient solve requires scheme='bdf2'")
        cm, ctx = self.geometry(design)
        psi, psibar, psi_lu = self._indicator(ctx)
        n = ctx.n
        make = self._flow_assemble_factory(ctx, psibar)
        history, traces, flow_lu, J = march(make, np.zeros(3 * n), cfg)
        result = ForwardResult(
            cm=cm, ctx=ctx, psi=psi, psibar_qp=psibar,
            flow_state=history[-1], flow_history=history,
            newton_trace=[t for tr in traces for t in tr],
            flow_jacobian=J, flow_factor=flow_lu, indicator_factor=psi_lu,
        )
        self._evaluate_criteria(result)
        return result

    # -- criteria -----------------------------------------------------------
    def _evaluate_criteria(self, result):
        """Criterion values and state partials over the run's flow states.

        A steady run is a history of one state, a march the states of steps
        1..N (the initial condition excluded). Partials and final samples
        come from the last state; 'average' sampling of a state-dependent
        criterion takes the mean over all of them.
        """
        params = self.physics.flow
        states = ([result.flow_state] if result.flow_history is None
                  else result.flow_history[1:])
        values, partials = {}, {}
        for spec in self.criteria:
            cv = evaluate_criterion(
                spec, result.ctx, params, flow_state=states[-1],
                species_state=result.species_state, want_partials=True,
            )
            values[spec.name] = cv.value
            partials[spec.name] = cv
            if spec.time_sampling == "average" and spec.kind not in GEOMETRIC_KINDS:
                earlier = [evaluate_criterion(spec, result.ctx, params, flow_state=u,
                                              species_state=result.species_state).value
                           for u in states[:-1]]
                values[spec.name] = float(np.mean(earlier + [cv.value]))
        result.crit_values = values
        result.crit_partials = partials
