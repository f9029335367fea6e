"""massnls: normalized solutions of the mass-constrained NLS with combined
L2-subcritical/Sobolev-critical nonlinearities — radial toolkit, variational
identity checks, threshold scans, and solvers, at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConvergenceError,
    HypothesisError,
    MassNLSError,
    NoCriticalPointError,
    NumericalError,
    ParameterError,
    ResolutionError,
    ScanExhaustedError,
)
from .grid import (
    RadialFunction,
    RadialGrid,
    grad_norm_sq,
    grid_from_nodes,
    integrate,
    make_grid,
    mass,
    norms,
    read_csv,
    write_csv,
)
from .constants import (
    ExponentPack,
    GNGroundState,
    SobolevConstant,
    ThresholdReport,
    exponents,
    gn_constant,
    gn_ground_state,
    instanton_amplitude,
    sobolev_constant,
    thresholds,
)
from .functionals import (
    EnergyReport,
    GeneralNonlinearity,
    NormBundle,
    ProblemParams,
    dilation_gap,
    energy,
    energy_report,
    fiber_energy,
    fiber_scale,
    kkt_residual,
    lagrange_multiplier,
    norm_bundle,
    normalize_mass,
    pohozaev,
    pohozaev_general,
    power_nonlinearity,
    problem,
)
from .manifold import (
    FiberCriticalPoint,
    fiber_critical_points,
    manifold_energy,
    manifold_projection,
)
from .bubbles import (
    ScanRecord,
    ScanResult,
    bubble_grid,
    core_mass,
    mass_normalized_instanton,
    normalized_family_min_n,
    normalized_norms_model,
    solve_cutoff_radius,
    superpose,
    threshold_scan_critical,
    threshold_scan_subcritical,
    truncated_instanton,
    truncated_norms_model,
)
from .solvers import (
    MountainPassReport,
    SolutionReport,
    SolveOptions,
    concentration_init,
    gaussian_valley_init,
    ground_state_minimax,
    local_minimize,
    mountain_pass_path,
)
from .conditions import (
    ConditionReport,
    Verdict,
    check_conditions,
)
