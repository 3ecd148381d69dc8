"""Gradient extremum seeking for a quadratic map whose input is the spatial
integral of a diffusion actuator, with motion-planned probing signals and a
backstepping compensation controller."""

from .analysis import (
    DecayFit,
    ScalingFit,
    TargetResiduals,
    TargetState,
    fit_decay,
    from_target,
    late_time_residuals,
    residual_scaling,
    save_fit_residuals_csv,
    target_residuals,
    to_target,
)
from .controller import (
    BacksteppingKernel,
    ControllerState,
    ForbiddenGainError,
    GainConfig,
    check_gain,
    integrate_theta_hat,
    make_kernel,
    realtime_control,
)
from .dither import (
    DitherDesign,
    DitherParams,
    IdentityReport,
    design_dither,
    dither_envelope,
    dither_field,
    dither_signal,
    gradient_demod,
    hessian_demod,
    verify_integral_identity,
)
from .filters import (
    HIGH_PASS,
    LOW_PASS,
    EstimatorOutputs,
    FirstOrderFilter,
    estimate_gradient,
    estimate_hessian,
    period_average_estimates,
)
from .heat import (
    ActuatorField,
    Grid,
    OrderEstimate,
    SolverConfig,
    convergence_order,
    integrate_profile,
    make_field,
    spatial_integral,
    step,
)
from .loop import (
    AverageRecord,
    FieldHistory,
    ScenarioConfig,
    SimulationDiverged,
    StaticMap,
    TrajectoryRecord,
    evaluate_map,
    run_average_system,
    run_esc,
    run_standard_esc,
    save_average_csv,
    save_field_csv,
    save_trajectory_csv,
)

__version__ = "0.1.0"
