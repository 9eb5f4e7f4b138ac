"""chronolab: clock-driven emergence of classical and quantum dynamics.

A laboratory for the reduction of timeless composite systems (a heavy
clock coordinate plus a light system) to time-dependent classical and
quantum mechanics: fixed-energy variational paths and clock time maps
on the classical side, composite eigenstates, factorizations,
close-coupled channels and directed states on the stationary quantum
side, WKB clocks and complex quantum time in between, and conditional
TDSE checks, two-route propagation, and clock-energy scans for the
dynamics that emerges.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    ChronolabError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    ForbiddenRegionError,
    GridMismatchError,
    NodeError,
    StabilityError,
    StationaryPointError,
    TurningPointError,
    WindowError,
)
from .core import (
    Bilinear,
    ChannelBasis,
    CompositeSpec,
    Constant,
    Coupling,
    Field1D,
    Field2D,
    GaussianWell,
    Grid1D,
    Grid2D,
    Harmonic,
    Linear,
    Potential,
    SystemSpec,
    Tabulated,
    WindowedPulse,
    ZeroCoupling,
    eval_potential,
    first_derivative,
    inner_product,
    norm,
    normalize,
    second_derivative,
)
from .classical import (
    ClockModel,
    CouplingDrive,
    DiscretePath,
    EmergenceRow,
    EndpointReport,
    PathProblem,
    TimeMap,
    Trajectory,
    clock_action,
    clock_momentum,
    clock_time_map,
    compare_composite_reduced,
    constraint_residuals,
    endpoint_momentum_check,
    energy_correction,
    integrate_composite,
    integrate_driven_system,
    minimize_action_path,
    path_action,
    path_momenta,
)
from .stationary import (
    BOSurface,
    ChannelDecomposition,
    CloseCoupledReport,
    EigenPair,
    FactorizedState,
    Hamiltonian2D,
    SchmidtSpectrum,
    assemble_tise,
    bo_surface,
    close_coupled_residuals,
    compute_back_reaction,
    conditional_equation_residual,
    factorize_prescribed,
    factorize_selfconsistent,
    project_channels,
    schmidt_spectrum,
    solve_bo_states,
    solve_directed_state,
    solve_eigenpairs,
    solve_system_basis,
)
from .semiclassical import (
    ComplexTimeMap,
    PerfectClock,
    WKBState,
    perfect_clock,
    polar_time,
    quantum_time,
    wkb_breakdown_ratio,
    wkb_environment,
)
from .dynamics import (
    AmplitudeSet,
    EmergenceScanConfig,
    EmergenceReport,
    QuantumEmergenceRow,
    ResidualReport,
    TwoRouteReport,
    WavefunctionTrajectory,
    compare_amplitudes_to_grid,
    conditional_from_composite,
    emergence_scan,
    propagate_amplitudes,
    propagate_tdse,
    tdse_residual,
)
