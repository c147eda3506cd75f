"""1D non-hydrostatic shallow water solver.

Kinetic finite-volume prediction of the hydrostatic subsystem followed by a
variational pressure correction on mixed finite elements (P1/P0 or
P1-iso-P2/P1), with validation scenarios.
"""

from .core import (
    Bathymetry,
    CFLViolationError,
    DivergenceBoundError,
    DryDomainError,
    FlowState,
    Mesh1D,
    PhysicalParams,
    TorrentialBoundaryError,
    total_energy,
    total_mass,
)
from .femops import ElementPair, OperatorSet, assemble, lump_mass
from .hyperbolic import (
    HyperbolicBC,
    apply_hyperbolic_bc,
    cfl_dt,
    predict,
)
from .projection import (
    PressureBC,
    PressureField,
    SchurSystem,
    build_schur,
    correct_velocity,
    solve_pressure,
)
from .scenarios import (
    GaugeRecord,
    GaugeSet,
    Scenario,
    SolitaryWaveParams,
    dam_break_init,
    exact_sw_riemann,
    make_beach,
    make_dam_break,
    make_dingemans,
    make_solitary,
    solitary_wave,
)
from .timeloop import (
    BoundarySpec,
    RunResult,
    StepReport,
    run,
    step_euler,
    step_heun,
)

__version__ = "0.1.0"

__all__ = [
    "Bathymetry",
    "BoundarySpec",
    "CFLViolationError",
    "DivergenceBoundError",
    "DryDomainError",
    "ElementPair",
    "FlowState",
    "GaugeRecord",
    "GaugeSet",
    "HyperbolicBC",
    "Mesh1D",
    "OperatorSet",
    "PhysicalParams",
    "PressureBC",
    "PressureField",
    "RunResult",
    "Scenario",
    "SchurSystem",
    "SolitaryWaveParams",
    "StepReport",
    "TorrentialBoundaryError",
    "apply_hyperbolic_bc",
    "assemble",
    "build_schur",
    "cfl_dt",
    "correct_velocity",
    "dam_break_init",
    "exact_sw_riemann",
    "lump_mass",
    "make_beach",
    "make_dam_break",
    "make_dingemans",
    "make_solitary",
    "predict",
    "run",
    "solitary_wave",
    "solve_pressure",
    "step_euler",
    "step_heun",
    "total_energy",
    "total_mass",
]
