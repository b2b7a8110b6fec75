"""CutFEM topology optimization for laminar flow and species transport."""

__version__ = "0.1.0"

from .grid import BackgroundMesh, build_mesh  # noqa: F401
from .design import DesignVector, LevelSetMap, Port, build_filter, ks_min  # noqa: F401
from .cut import CutModel, build_cut_model, classify_elements  # noqa: F401
from .flow import FlowParams, assemble_flow  # noqa: F401
from .transport import (  # noqa: F401
    IndicatorParams, TransportParams, assemble_species, project_indicator,
    solve_indicator,
)
from .solve import SolveConfig, TimeSlot, linear_solve, march, newton_solve  # noqa: F401
from .criteria import CriterionSpec, ProblemSpec, evaluate_criterion  # noqa: F401
from .gcmma import GCMMA, GcmmaConfig  # noqa: F401
from .pipeline import ForwardModel, PhysicsConfig  # noqa: F401
