"""Multi-objective onshore wind expansion planner.

Selects turbine sites from a candidate pool to meet a national capacity
target while minimizing cost (LCOE), landscape scenicness impact and
grid-connection length, optionally under per-municipality equity floors.
"""

__version__ = "0.1.0"

from .domain import (
    CandidateSite,
    ExistingTurbine,
    Instance,
    InfeasibleError,
    Municipality,
    MunicipalityTable,
    PlanError,
    SiteTable,
    Transformer,
    ValidationError,
    read_instance,
    validate_instance,
    write_instance,
)
from .objective import Weights
from .solver import Constraints, Selection, solve, pareto_sweep

__all__ = [
    "CandidateSite",
    "ExistingTurbine",
    "Instance",
    "InfeasibleError",
    "Municipality",
    "MunicipalityTable",
    "PlanError",
    "SiteTable",
    "Transformer",
    "ValidationError",
    "Weights",
    "Constraints",
    "Selection",
    "read_instance",
    "write_instance",
    "validate_instance",
    "solve",
    "pareto_sweep",
]
