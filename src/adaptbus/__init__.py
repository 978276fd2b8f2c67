"""adaptbus: deterministic simulation of adaptive switching control over a
hybrid time-triggered/event-triggered communication bus."""

from .adapt import ParameterEstimate, RegressorPair, build_regressor, control_law, tracking_error, update
from .excitation import (
    ExcitationReport,
    GramWindow,
    is_pe,
    numerical_rank,
    orthogonality_residual,
    sr_order,
    subspace_basis,
)
from .harness import (
    ConfigError,
    ScenarioConfig,
    Trace,
    containment_check,
    evaluate_monitors,
    export_trace,
    load_trace,
    parse_config,
    run_scenario,
)
from .netbus import BusConfig, BusState, Mode, SwitchLog, advance_cycle, replay, select_mode, transmit
from .plant import (
    DisturbanceTrain,
    PlantDivergenceError,
    PlantModel,
    SignalHistory,
    make_impulse_train,
    step_difference,
)
from .shiftpoly import ShiftPoly, poly_add, poly_mul, predictor_coeffs, solve_diophantine, zeros_strictly_inside
from .supervisor import (
    AppSupervisor,
    DualEstimates,
    ReferenceModel,
    apply_reset,
    equivalent_reference,
    lyapunov,
    signal_error,
)

__version__ = "0.1.0"
