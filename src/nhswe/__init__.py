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
    cfl_dt,
    predict,
)
from .projection import (
    PressureField,
    SchurSystem,
    build_schur,
    correct_velocity,
    solve_pressure,
)
from .scenarios import (
    Scenario,
    dam_break_init,
    exact_sw_riemann,
    make_beach,
    make_dam_break,
    make_dingemans,
    make_solitary,
)
from .timeloop import (
    BoundarySpec,
    run,
    step_euler,
    step_heun,
)

__version__ = "0.1.0"

