"""Exact scattering of waveguide modes off a single point impurity in a
quasi-1D hard-wall wire, with a finite-difference PDE oracle.

Near a mode cut-off the impurity scatters strongly, yet the pattern it
produces is independent of its strength - and, for wall impurities, of its
position.  This package computes the closed-form amplitudes, the Landauer
transport matrices, the near-cut-off and exact-cut-off limits, and
validates them against an independent lattice solver.  An impurity on a
node of the resonant mode decouples from it; the cut-off field then keeps
the scattering among the open modes, which does depend on the strength.
"""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DecoupledModeError,
    DecoupledModeWarning,
    DomainError,
    ThresholdEnergyError,
    ValidityWarning,
    WirescatError,
)
from .kernels import backend as kernel_backend
from .oracle import (
    DiscreteWire,
    ExtrapolatedAmplitudes,
    OracleSolution,
    UniversalityReport,
    extrapolate_to_zero_width,
    universality_probe,
)
from .oracle import solve as oracle_solve
from .oracle import solve_ladder as oracle_solve_ladder
from .oracle import solve_table as oracle_solve_table
from .rhobar import (
    regularized_scale,
    regularized_scale_tail_subtraction,
    regularized_scales,
)
from .scatter import (
    CutoffScan,
    Impurity,
    OneDBarrier,
    ScatteringSolution,
    cutoff_scan,
    near_threshold_field,
    nearest_threshold_index,
    reflection_1d,
    resonance_parameter,
    resonance_parameters,
    scattered_field,
    scattered_field_grid,
    scattering_amplitude,
    solve_scattering,
    surface_constant,
    surface_resonance_parameter,
    surface_threshold_field,
    threshold_amplitude_limit,
    threshold_field,
    threshold_field_grid,
)
from .specfun import (
    EULER_GAMMA,
    cosine_integral,
    evanescent_gaussian_sum,
    longitudinal_wavenumber,
    threshold_energy,
)
from .transport import (
    SweepPoint,
    TransportResult,
    sweep,
    threshold_transport,
    transport_at,
)
from .wire import propagating_count

__version__ = "0.1.0"
